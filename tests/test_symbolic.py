"""Symbolic rules: term algebra, edge snapping, decay rates, shipped rules."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdkan.kan import bspline_design, fit, init_model, predict, silu, uniform_knots
from rdkan.symbolic import (
    _KINDS,
    BUILTIN_RULE_NAMES,
    TERM_KINDS,
    DecisionRule,
    RuleError,
    SymbolicExpr,
    Term,
    builtin_rule,
    eval_rule,
    expr_value,
    fit_decay_rates,
    is_fully_symbolic,
    load_rule,
    rule_crossover,
    rule_scores,
    rule_to_text,
    save_rule,
    snap,
    snap_edge,
    term_to_text,
    term_value,
)

# Where the shipped linear rules flip decision when all other features are
# zero; closed form (bias difference over slope difference), frozen.
CROSSOVER_ORACLE = {"paper-eq7-m10": 0.76835544, "paper-eq8-m5": 0.88379796}


# (knots, coeffs) of spline terms that load_rule must refuse; 10 uniform
# knots with 6 coeffs would be a valid cubic
_KNOTS = uniform_knots(0.0, 1.0).tolist()
BAD_SPLINES = {
    "spline-short-knots": ([0.0, 1.0], [1.0, 1.0]),
    "spline-few-coeffs": (_KNOTS, [1.0] * 3),
    "spline-knots-decrease": (_KNOTS[::-1], [1.0] * 6),
    "spline-non-finite": (_KNOTS, [1.0, 1.0, float("nan"), 1.0, 1.0, 1.0]),
}


def linear_rule(slope0, bias0, slope1, bias1, m_bins=3):
    return DecisionRule(
        "toy", m_bins,
        (
            SymbolicExpr((Term("linear", 0, (slope0, 0.0)),), bias0),
            SymbolicExpr((Term("linear", 0, (slope1, 0.0)),), bias1),
        ),
    )


class TestTerms:
    def test_term_values(self):
        x = np.linspace(-1, 2, 7)
        assert np.allclose(term_value(Term("const", 0, (3.3,)), x), 3.3)
        assert np.allclose(term_value(Term("linear", 0, (2.0, -1.0)), x), 2 * x - 1)
        assert np.allclose(
            term_value(Term("quadratic", 0, (1.5, -2.0, 0.5)), x), 1.5 * x**2 - 2 * x + 0.5
        )
        assert np.allclose(
            term_value(Term("exp", 0, (0.8, 3.0, -1.0, 0.2)), x),
            0.8 * np.exp(3 * x - 1) + 0.2,
        )
        assert np.allclose(
            term_value(Term("silu", 0, (2.0, 8.0, -4.0, 1.0)), x),
            2 * silu(8 * x - 4) + 1,
        )

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_spline_term_evaluates_at_its_own_order(self, order, rng):
        # the order is len(knots) - len(coeffs) - 1, inside and outside the grid
        knots = uniform_knots(0.0, 1.0, 4, order)
        coeffs = rng.normal(size=4 + order)
        x = np.linspace(-0.5, 1.5, 41)
        value = term_value(Term("spline", 0, (), tuple(knots), tuple(coeffs)), x)
        assert np.allclose(value, bspline_design(knots, x, order) @ coeffs, rtol=0.0, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RuleError):
            Term("tanh", 0, (1.0,))

    def test_expr_sums_terms_and_bias(self):
        expr = SymbolicExpr(
            (Term("linear", 0, (1.0, 0.0)), Term("linear", 2, (-2.0, 0.0))), bias=5.0
        )
        X = np.array([[1.0, 9.0, 3.0], [0.0, 9.0, 0.0]])
        assert np.allclose(expr_value(expr, X), [1 - 6 + 5, 5.0])


class TestRuleEvaluation:
    def test_scores_and_decisions(self):
        rule = linear_rule(-2.0, 1.0, 1.0, 0.0)
        X = np.array([[0.0, 0, 0], [1.0, 0, 0], [1 / 3, 0, 0]])
        s = rule_scores(rule, X)
        assert np.allclose(s[:, 0], [1.0, -1.0, 1 / 3])
        assert np.allclose(s[:, 1], [0.0, 1.0, 1 / 3])
        # tie at the crossover goes to H0
        assert eval_rule(rule, X).tolist() == [0, 1, 0]

    def test_feature_width_checked(self):
        rule = linear_rule(1.0, 0.0, 2.0, 0.0)
        with pytest.raises(RuleError, match="features"):
            rule_scores(rule, np.zeros((4, 5)))

    def test_crossover_closed_form(self):
        rule = linear_rule(-2.0, 1.0, 1.0, 0.0)
        assert rule_crossover(rule) == pytest.approx(1 / 3, abs=1e-9)

    def test_crossover_requires_flip(self):
        rule = linear_rule(1.0, 5.0, 1.0, 0.0)  # h0 always wins
        with pytest.raises(RuleError, match="flip"):
            rule_crossover(rule)


class TestDecayRates:
    @pytest.mark.parametrize("m_bins", [5, 10])
    @pytest.mark.parametrize("p0", [0.3, 0.6062, 0.9243])
    def test_recovers_geometric_rate(self, m_bins, p0):
        # h_k = p0*(1-p0)^k has exactly linear log heights, so the fitted
        # rate equals -M*log(1 - p0) to numerical precision.
        k = np.arange(m_bins)
        h = p0 * (1 - p0) ** k
        h /= h.sum()
        want = -m_bins * math.log(1 - p0)
        assert fit_decay_rates(h) == pytest.approx(want, abs=1e-9)

    def test_batch_and_scalar_forms(self):
        h = np.array([[0.5, 0.25, 0.125, 0.125], [1.0, 0.0, 0.0, 0.0]])
        rates = fit_decay_rates(h)
        assert rates.shape == (2,)
        assert np.isinf(rates[1])  # single occupied bin
        assert isinstance(fit_decay_rates(h[0]), float)

    def test_heavier_first_bin_decays_faster(self):
        k = np.arange(10)
        fast = 0.92 * 0.08**0 * (1 - 0.92) ** k
        slow = 0.5 * (1 - 0.5) ** k
        assert fit_decay_rates(fast / fast.sum()) > fit_decay_rates(slow / slow.sum())


class TestSnapEdge:
    X_GRID = np.linspace(0.0, 1.0, 256)

    def check(self, y, want_kind, tol=1e-6):
        term, r2, symbolic = snap_edge(self.X_GRID, y, input_index=4)
        assert symbolic
        assert term.kind == want_kind
        assert term.input == 4
        assert r2 > 0.999
        assert np.allclose(term_value(term, self.X_GRID), y, atol=tol * max(1, np.abs(y).max()))
        return term

    def test_const(self):
        self.check(np.full_like(self.X_GRID, 2.5), "const")

    def test_linear(self):
        term = self.check(3.0 * self.X_GRID - 0.7, "linear")
        assert term.params[0] == pytest.approx(3.0, rel=1e-9)
        assert term.params[1] == pytest.approx(-0.7, rel=1e-9)

    def test_quadratic(self):
        self.check(4.0 * self.X_GRID**2 - self.X_GRID + 0.5, "quadratic")

    def test_exp(self):
        y = 0.8 * np.exp(3.0 * self.X_GRID - 1.0) + 0.2
        self.check(y, "exp", tol=1e-4)

    def test_silu(self):
        y = 2.0 * silu(8.0 * self.X_GRID - 4.0) + 1.0
        self.check(y, "silu", tol=1e-4)

    def test_simpler_shape_wins_ties(self):
        # a quadratic with zero curvature fits a line exactly too; the
        # snap must report the line
        term, _, _ = snap_edge(self.X_GRID, 2.0 * self.X_GRID + 1.0, 0)
        assert term.kind == "linear"

    def test_library_miss_reports_failure(self):
        y = np.sin(12.0 * self.X_GRID)
        term, r2, symbolic = snap_edge(self.X_GRID, y, 0)
        assert not symbolic
        assert term is None
        assert r2 < 0.9


class TestSnapModel:
    def test_distilled_rule_matches_model(self, rng):
        n = 400
        x0 = np.concatenate([rng.uniform(0, 0.4, n // 2), rng.uniform(0.6, 1, n // 2)])
        x1 = rng.uniform(0, 1, n)
        X = np.column_stack([x0, x1])
        y = (x0 > 0.5).astype(int)
        model = init_model(2, rng)
        fit(model, X, y)
        rule = snap(model, "distilled")
        assert rule.name == "distilled"
        assert rule.m_bins == 2
        assert "edges" in rule.meta
        agree = np.mean(eval_rule(rule, X) == predict(model, X))
        assert agree >= 0.99

    def test_wiggly_edge_falls_back_to_spline(self, rng):
        model = init_model(1, rng, coeff_std=0.0)
        model.base_scale[:] = 0.0  # pure spline edges
        model.coeffs[0, 0] = [5.0, -5.0, 5.0, -5.0, 5.0, -5.0]
        model.coeffs[1, 0] = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
        rule = snap(model, "wiggles")
        kinds = [t.kind for e in rule.exprs for t in e.terms]
        assert "spline" in kinds
        assert not is_fully_symbolic(rule)
        assert rule.meta["fully_symbolic"] is False
        # the fallback lives in the same basis, so scores match the model
        X = rng.uniform(0, 1, (50, 1))
        from rdkan.kan import forward

        assert np.allclose(rule_scores(rule, X), forward(model, X), atol=1e-8)


class TestBuiltinRules:
    def test_names_and_errors(self):
        assert BUILTIN_RULE_NAMES == ("paper-eq7-m10", "paper-eq8-m5")
        with pytest.raises(RuleError, match="available"):
            builtin_rule("paper-eq9-m3")

    @pytest.mark.parametrize("name,m_bins", [("paper-eq7-m10", 10), ("paper-eq8-m5", 5)])
    def test_shape_and_crossover(self, name, m_bins):
        rule = builtin_rule(name)
        assert rule.m_bins == m_bins
        assert is_fully_symbolic(rule)
        assert rule_crossover(rule) == pytest.approx(CROSSOVER_ORACLE[name], abs=5e-5)

    def test_ten_bin_rule_scores(self):
        rule = builtin_rule("paper-eq7-m10")
        x = np.zeros((1, 10))
        x[0, 0] = 0.92
        s = rule_scores(rule, x)[0]
        assert s[0] == pytest.approx(-10.288 * 0.92 + 7.91, abs=1e-9)
        assert s[1] == pytest.approx(7.5514 * 0.92 - 5.797, abs=1e-9)

    def test_decision_sides(self):
        # concentrated first bin reads as target, diffuse as noise
        for name in BUILTIN_RULE_NAMES:
            rule = builtin_rule(name)
            hi = np.zeros((1, rule.m_bins))
            hi[0, 0] = 0.92
            lo = np.zeros((1, rule.m_bins))
            lo[0, 0] = 0.60
            assert eval_rule(rule, hi)[0] == 1, name
            assert eval_rule(rule, lo)[0] == 0, name


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rule = builtin_rule("paper-eq7-m10")
        path = tmp_path / "rule.json"
        save_rule(path, rule)
        back = load_rule(path)
        assert back.name == rule.name
        assert back.m_bins == rule.m_bins
        assert back.meta == rule.meta
        assert back.exprs == rule.exprs

    def test_round_trip_with_spline_term(self, tmp_path, rng):
        model = init_model(1, rng, coeff_std=0.0)
        model.base_scale[:] = 0.0
        model.coeffs[0, 0] = [3.0, -3.0, 3.0, -3.0, 3.0, -3.0]
        model.coeffs[1, 0] = [0.1, 0.2, 0.3, 0.1, 0.2, 0.3]
        rule = snap(model, "with-spline")
        path = tmp_path / "rule.json"
        save_rule(path, rule)
        back = load_rule(path)
        X = rng.uniform(0, 1, (20, 1))
        assert np.allclose(rule_scores(back, X), rule_scores(rule, X), atol=1e-12)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"format": "rdkan-checkpoint-v1"}')
        with pytest.raises(RuleError, match="rule file"):
            load_rule(path)
        path.write_text('["rdkan-rule-v1"]')
        with pytest.raises(RuleError, match="rule file"):
            load_rule(path)

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("input-out-of-range", "outside 0..9"),
            ("one-expr", "expected 2 exprs"),
            ("spline-without-knots", "lacks knots or coeffs"),
            ("short-params", "needs 2 params"),
            ("missing-terms", "malformed"),
            ("spline-short-knots", "2 knots and 2 coeffs make no B-spline"),
            ("spline-few-coeffs", "10 knots and 3 coeffs make no B-spline"),
            ("spline-knots-decrease", "knots do not strictly increase"),
            ("spline-non-finite", "non-finite"),
            ("nan-param", "linear term on x0 has non-finite params"),
            ("inf-param", "linear term on x0 has non-finite params"),
            ("nan-bias", "non-finite expr bias"),
            ("inf-bias", "non-finite expr bias"),
            ("string-param", "could not convert string to float"),
            ("string-bias", "could not convert string to float"),
            ("string-m-bins", "invalid literal for int"),
            ("unknown-kind", "unknown term kind 'cubic'"),
        ],
    )
    def test_rejects_malformed_rule(self, defect, message, tmp_path):
        path = tmp_path / "rule.json"
        save_rule(path, builtin_rule("paper-eq7-m10"))
        doc = json.loads(path.read_text())
        terms = doc["exprs"][0]["terms"]
        if defect == "input-out-of-range":
            terms[0]["input"] = 12
        elif defect == "one-expr":
            doc["exprs"] = doc["exprs"][:1]
        elif defect == "spline-without-knots":
            terms[0] = {"kind": "spline", "input": 0, "params": []}
        elif defect == "short-params":
            terms[0]["params"] = terms[0]["params"][:1]
        elif defect in ("nan-param", "inf-param"):
            doc["exprs"][1]["terms"][0]["params"][0] = float(defect[:3])
        elif defect in ("nan-bias", "inf-bias"):
            doc["exprs"][1]["bias"] = -float(defect[:3])
        elif defect == "string-param":
            doc["exprs"][1]["terms"][0]["params"][0] = "abc"
        elif defect == "string-bias":
            doc["exprs"][0]["bias"] = "abc"
        elif defect == "string-m-bins":
            doc["m_bins"] = "ten"
        elif defect == "unknown-kind":
            terms[0]["kind"] = "cubic"
        elif defect in BAD_SPLINES:
            knots, coeffs = BAD_SPLINES[defect]
            terms[0] = {"kind": "spline", "input": 0, "params": [], "knots": knots, "coeffs": coeffs}
        else:
            del doc["exprs"][0]["terms"]
        path.write_text(json.dumps(doc))
        with pytest.raises(RuleError, match=message) as err:
            load_rule(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_text_rendering(self):
        rule = builtin_rule("paper-eq8-m5")
        text = rule_to_text(rule)
        assert "h0(x)" in text and "h1(x)" in text
        assert "decide H1 iff h1(x) > h0(x)" in text
        assert "32.607" in text
        assert term_to_text(Term("const", 0, (1.5,))) == "1.5"
        assert "spline(x3)" == term_to_text(Term("spline", 3, (), (0, 1), (1, 1)))


# bounded so that every term, exp included, evaluates without overflow
term_floats = st.floats(-8.0, 8.0)


@st.composite
def terms(draw, m_bins):
    kind = draw(st.sampled_from(TERM_KINDS))
    r = draw(st.integers(0, m_bins - 1))
    if kind == "spline":
        lo = draw(st.floats(-2.0, 1.0))
        knots = uniform_knots(lo, lo + draw(st.floats(0.1, 3.0)))
        coeffs = draw(st.lists(term_floats, min_size=knots.size - 4, max_size=knots.size - 4))
        return Term(kind, r, (), tuple(knots.tolist()), tuple(coeffs))
    n = _KINDS[kind].n_params
    return Term(kind, r, tuple(draw(st.lists(term_floats, min_size=n, max_size=n))))


@st.composite
def rules(draw):
    m_bins = draw(st.integers(1, 12))
    # two exprs (h0, h1) of any term kinds, spline included
    exprs = tuple(
        SymbolicExpr(tuple(draw(st.lists(terms(m_bins), max_size=4))), draw(term_floats))
        for _ in range(2)
    )
    return DecisionRule(draw(st.text(max_size=12)), m_bins, exprs, {"source": "hypothesis"})


class TestRuleFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(rule=rules())
    def test_save_load_round_trip(self, rule, tmp_path_factory):
        path = tmp_path_factory.mktemp("rule") / "rule.json"
        save_rule(path, rule)
        back = load_rule(path)
        # repr tells -0.0 from 0.0 and shows every float digit
        assert repr(back) == repr(rule)
        assert rule_to_text(back) == rule_to_text(rule)
        X = np.random.default_rng(0).uniform(-0.5, 1.5, (16, rule.m_bins))
        assert np.array_equal(rule_scores(back, X), rule_scores(rule, X))
