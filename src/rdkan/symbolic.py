"""Closed-form decision rules distilled from trained spline edges.

A rule carries one symbolic expression per hypothesis,

    h_q(x) = sum_r f_{q,r}(x_r) + bias_q,     decide H1 iff h1 > h0,

where each univariate f is snapped from a fitted edge onto a small
candidate library (constant, linear, quadratic, exponential, silu).
Edges no library member explains well enough are kept as sampled
splines and the rule is flagged as not fully symbolic.

Two pre-fitted rules over the normalized-histogram features ship with
the module under the interface ids "paper-eq7-m10" and "paper-eq8-m5".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq, minimize

from .kan import KanModel, bspline_design, edge_value, load_model, silu

SNAP_R2_THRESHOLD = 0.9
SNAP_R2_TIE = 1e-4
SNAP_GRID_POINTS = 512     # samples per edge over its spline grid
DECAY_MIN_MASS = 1e-6      # bins at or below this mass are left out of decay fits


class _Kind(NamedTuple):
    n_params: int
    complexity: int        # simpler shapes win ties during snapping
    value: Callable        # (term, x) -> term values at x
    text: Callable         # (params, "x<input>") -> rendered term


def _spline_value(term, x):
    # n knots and k coeffs make a B-spline of order n - k - 1; einsum, unlike
    # a BLAS matmul, gives a row the same value in a batch of any size
    order = len(term.knots) - len(term.coeffs) - 1
    design = bspline_design(np.asarray(term.knots), np.atleast_1d(x), order)
    return np.einsum("bi,i->b", design, np.asarray(term.coeffs)).reshape(x.shape)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


# every term kind, parameter layouts as in Term
_KINDS = {
    "const": _Kind(1, 0, lambda t, x: np.full_like(x, t.params[0]), lambda p, x: _fmt(p[0])),
    "linear": _Kind(2, 1, lambda t, x: t.params[0] * x + t.params[1],
                    lambda p, x: f"{_fmt(p[0])}*{x} + {_fmt(p[1])}"),
    "quadratic": _Kind(3, 2, lambda t, x: t.params[0] * x * x + t.params[1] * x + t.params[2],
                       lambda p, x: f"{_fmt(p[0])}*{x}^2 + {_fmt(p[1])}*{x} + {_fmt(p[2])}"),
    "exp": _Kind(4, 3, lambda t, x: t.params[0] * np.exp(t.params[1] * x + t.params[2]) + t.params[3],
                 lambda p, x: f"{_fmt(p[0])}*exp({_fmt(p[1])}*{x} + {_fmt(p[2])}) + {_fmt(p[3])}"),
    "silu": _Kind(4, 3, lambda t, x: t.params[0] * silu(t.params[1] * x + t.params[2]) + t.params[3],
                  lambda p, x: f"{_fmt(p[0])}*silu({_fmt(p[1])}*{x} + {_fmt(p[2])}) + {_fmt(p[3])}"),
    "spline": _Kind(0, 9, _spline_value, lambda p, x: f"spline({x})"),
}

TERM_KINDS = tuple(_KINDS)


class RuleError(ValueError):
    pass


@dataclass(frozen=True)
class Term:
    """One univariate summand bound to input x_{input}.

    Parameter layout by kind:
        const      (d,)            d
        linear     (a, d)          a*x + d
        quadratic  (a2, a1, d)     a2*x^2 + a1*x + d
        exp        (c, a, b, d)    c*exp(a*x + b) + d
        silu       (c, a, b, d)    c*silu(a*x + b) + d
        spline     ()              stored knots/coeffs, kan-style basis
    """

    kind: str
    input: int
    params: tuple = ()
    knots: tuple = ()
    coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise RuleError(f"unknown term kind {self.kind!r}")


@dataclass(frozen=True)
class SymbolicExpr:
    terms: tuple
    bias: float = 0.0


@dataclass
class DecisionRule:
    name: str
    m_bins: int
    exprs: tuple          # (h0, h1)
    meta: dict = field(default_factory=dict)


def term_value(term: Term, x) -> np.ndarray:
    return _KINDS[term.kind].value(term, np.asarray(x, dtype=float))


def expr_value(expr: SymbolicExpr, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.full(X.shape[0], expr.bias)
    for term in expr.terms:
        out += term_value(term, X[:, term.input])
    return out


def rule_scores(rule: DecisionRule, X) -> np.ndarray:
    """Hypothesis scores (n, 2)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != rule.m_bins:
        raise RuleError(f"rule {rule.name} expects {rule.m_bins} features, got {X.shape[1]}")
    return np.stack([expr_value(e, X) for e in rule.exprs], axis=1)


def eval_rule(rule: DecisionRule, X) -> np.ndarray:
    """0/1 decisions; a tie goes to H0."""
    scores = rule_scores(rule, X)
    return (scores[:, 1] > scores[:, 0]).astype(int)


def is_fully_symbolic(rule: DecisionRule) -> bool:
    return all(t.kind != "spline" for e in rule.exprs for t in e.terms)


def rule_crossover(rule: DecisionRule) -> float:
    """Value of x0 in [0, 1] where the decision flips, all others at zero."""
    def margin(v):
        x = np.zeros((1, rule.m_bins))
        x[0, 0] = v
        s = rule_scores(rule, x)[0]
        return s[1] - s[0]

    if margin(0.0) * margin(1.0) > 0:
        raise RuleError("no decision flip in x0 over [0, 1]")
    return float(brentq(margin, 0.0, 1.0, xtol=1e-12))


# ---------------------------------------------------------------------------
# decay-rate summary of histogram features


def fit_decay_rates(histograms):
    """Exponential decay rate of one histogram (or a batch, row-wise).

    Models bin heights as h_k proportional to exp(-lambda * k / M) and
    returns lambda from a mass-weighted least-squares line through the
    log heights.  For an exactly geometric histogram this recovers
    -M*log(1 - h_0).  Rows whose mass sits in a single bin give inf.
    """
    h = np.atleast_2d(np.asarray(histograms, dtype=float))
    m = h.shape[1]
    rates = np.empty(h.shape[0])
    for i, row in enumerate(h):
        keep = row > DECAY_MIN_MASS
        if keep.sum() < 2:
            rates[i] = np.inf
            continue
        k = np.flatnonzero(keep)
        logh = np.log(row[keep])
        w = row[keep]
        wsum = w.sum()
        kbar = (w * k).sum() / wsum
        lbar = (w * logh).sum() / wsum
        cov = (w * (k - kbar) * (logh - lbar)).sum()
        var = (w * (k - kbar) ** 2).sum()
        rates[i] = -m * cov / var
    return rates if np.asarray(histograms).ndim == 2 else float(rates[0])


# ---------------------------------------------------------------------------
# snapping


def _r2(y, yhat) -> float:
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - yhat) ** 2))
    if ss_tot < 1e-20:
        return 1.0 if ss_res < 1e-16 else 0.0
    return 1.0 - ss_res / ss_tot


def _fit_const(x, y):
    d = float(y.mean())
    return ("const", (d,), _r2(y, np.full_like(y, d)))


def _fit_poly(x, y, deg):
    c = np.polyfit(x, y, deg)
    r2 = _r2(y, np.polyval(c, x))
    if deg == 1:
        return ("linear", (float(c[0]), float(c[1])), r2)
    return ("quadratic", tuple(float(v) for v in c), r2)


def _affine_ls(y, basis):
    """Least-squares c*basis + d; returns (c, d, r2)."""
    A = np.stack([basis, np.ones_like(basis)], axis=1)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0]), float(sol[1]), _r2(y, A @ sol)


def _fit_shape(y, basis, starts, xatol):
    """Best c*basis(*p) + d: grid search over starts, then a Nelder-Mead
    refine of the winner; returns (c, p, d, r2), the grid winner if the
    refine did worse."""
    best = None
    for p in starts:
        c, d, r2 = _affine_ls(y, basis(*p))
        if best is None or r2 > best[3]:
            best = (c, p, d, r2)
    res = minimize(lambda p: -_affine_ls(y, basis(*p))[2], best[1], method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": 1e-12})
    p = tuple(float(v) for v in res.x)
    c, d, r2 = _affine_ls(y, basis(*p))
    return best if r2 < best[3] else (c, p, d, r2)


def _fit_exp(x, y):
    x0 = float(x.mean())
    rates = np.geomspace(0.1, 40.0, 25) / (x.max() - x.min())
    c, (a,), d, r2 = _fit_shape(y, lambda a: np.exp(a * (x - x0)),
                                [(r,) for r in np.concatenate([-rates, rates])], 1e-6)
    # fold the centering shift into the b parameter
    return ("exp", (c, a, -a * x0, d), r2)


def _fit_silu(x, y):
    span = x.max() - x.min()
    shifts = np.linspace(x.min() - 0.5 * span, x.max() + 0.5 * span, 17)
    scales = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]) / span
    grid = [(a, s) for a in np.concatenate([-scales, scales]) for s in shifts]
    c, (a, s), d, r2 = _fit_shape(y, lambda a, s: silu(a * (x - s)), grid, 1e-7)
    return ("silu", (c, a, -a * s, d), r2)


def snap_edge(x, y, input_index: int) -> tuple:
    """Best library term for samples (x, y); returns (Term, r2, symbolic)."""
    # min() keeps the first of equally complex fits, so exp wins an exp/silu tie
    fits = [
        _fit_const(x, y),
        _fit_poly(x, y, 1),
        _fit_poly(x, y, 2),
        _fit_exp(x, y),
        _fit_silu(x, y),
    ]
    best_r2 = max(f[2] for f in fits)
    if best_r2 < SNAP_R2_THRESHOLD:
        return None, best_r2, False
    good = [f for f in fits if f[2] >= best_r2 - SNAP_R2_TIE]
    kind, params, r2 = min(good, key=lambda f: _KINDS[f[0]].complexity)
    return Term(kind, input_index, params), r2, True


def snap(model: KanModel, name: str) -> DecisionRule:
    """Distill a trained (typically pruned) model into a decision rule.

    Each unmasked edge is sampled on its spline grid and snapped
    independently; failures fall back to the sampled spline itself.
    """
    exprs = []
    edge_meta = {}
    for q in range(model.n_out):
        terms = []
        for r in np.flatnonzero(model.edge_mask[q]):
            lo = model.knots[r, model.order]
            hi = model.knots[r, -model.order - 1]
            x = np.linspace(lo, hi, SNAP_GRID_POINTS)
            y = edge_value(model, q, int(r), x)
            term, r2, symbolic = snap_edge(x, y, int(r))
            if not symbolic:
                term = _spline_term_from_edge(model, int(r), x, y)
            terms.append(term)
            edge_meta[f"h{q}.x{r}"] = {"kind": term.kind, "r2": round(r2, 6)}
        exprs.append(SymbolicExpr(terms=tuple(terms), bias=0.0))
    rule = DecisionRule(name=name, m_bins=model.n_in, exprs=tuple(exprs),
                        meta={"edges": edge_meta, "source": "snap"})
    rule.meta["fully_symbolic"] = is_fully_symbolic(rule)
    return rule


def rule_from_model(model: KanModel, name: str) -> DecisionRule:
    """The model's margin as a rule, exactly (no snapping).

    h0 is empty and h1 carries, per active input r, one silu and one
    spline term that together make phi_1r - phi_0r; masked edges add 0.
    """
    terms = []
    for r in map(int, model.active_inputs()):
        on = model.edge_mask[:, r]
        base = np.where(on, model.base_scale[:, r], 0.0)
        coeffs = np.where(on[:, None], model.spline_scale[:, r, None] * model.coeffs[:, r], 0.0)
        terms += [Term("silu", r, (float(base[1] - base[0]), 1.0, 0.0, 0.0)),
                  Term("spline", r, knots=tuple(model.knots[r].tolist()),
                       coeffs=tuple((coeffs[1] - coeffs[0]).tolist()))]
    return DecisionRule(name, model.n_in, (SymbolicExpr(()), SymbolicExpr(tuple(terms))),
                        {"source": "checkpoint"})


def _spline_term_from_edge(model: KanModel, r: int, x, y) -> Term:
    """Sampled-spline fallback: refit the whole edge's samples (base +
    spline part) onto a plain B-spline so the term needs no silu component."""
    design = bspline_design(model.knots[r], x, model.order)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return Term("spline", r, knots=tuple(model.knots[r].tolist()),
                coeffs=tuple(float(c) for c in coeffs))


# ---------------------------------------------------------------------------
# rendering and serialization


def term_to_text(term: Term) -> str:
    return _KINDS[term.kind].text(term.params, f"x{term.input}")


def rule_to_text(rule: DecisionRule) -> str:
    lines = [f"rule {rule.name} (M={rule.m_bins})"]
    for q, expr in enumerate(rule.exprs):
        parts = [f"({term_to_text(t)})" for t in expr.terms]
        if expr.bias or not parts:
            parts.append(_fmt(expr.bias))
        lines.append(f"  h{q}(x) = " + " + ".join(parts))
    lines.append("  decide H1 iff h1(x) > h0(x)")
    return "\n".join(lines)


def _term_to_doc(term: Term) -> dict:
    doc = {"kind": term.kind, "input": term.input, "params": list(term.params)}
    if term.kind == "spline":
        doc["knots"] = list(term.knots)
        doc["coeffs"] = list(term.coeffs)
    return doc


def _term_from_doc(doc: dict) -> Term:
    params, knots, coeffs = (tuple(map(float, doc.get(k, ()))) for k in ("params", "knots", "coeffs"))
    return Term(doc["kind"], int(doc["input"]), params, knots, coeffs)


def save_rule(path, rule: DecisionRule) -> None:
    doc = {
        "format": "rdkan-rule-v1",
        "name": rule.name,
        "m_bins": rule.m_bins,
        "exprs": [
            {"bias": e.bias, "terms": [_term_to_doc(t) for t in e.terms]}
            for e in rule.exprs
        ],
        "meta": rule.meta,
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def _check_spline(where: str, term: Term) -> None:
    if not (term.knots and term.coeffs):
        raise RuleError(f"{where} lacks knots or coeffs")
    knots, coeffs = np.asarray(term.knots, dtype=float), np.asarray(term.coeffs, dtype=float)
    order = len(knots) - len(coeffs) - 1
    if not 1 <= order < len(coeffs):
        raise RuleError(f"{where}: {len(knots)} knots and {len(coeffs)} coeffs make no B-spline")
    if not (np.isfinite(knots).all() and np.isfinite(coeffs).all()):
        raise RuleError(f"{where} has non-finite knots or coeffs")
    if np.any(np.diff(knots) <= 0):
        raise RuleError(f"{where}: knots do not strictly increase")


def load_rule(path) -> DecisionRule:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("format") != "rdkan-rule-v1":
        raise RuleError(f"{path}: not a rule file")
    try:
        m_bins = int(doc["m_bins"])
        exprs = tuple(
            SymbolicExpr(terms=tuple(_term_from_doc(t) for t in e["terms"]), bias=float(e["bias"]))
            for e in doc["exprs"]
        )
        name = doc["name"]
    except RuleError as err:
        raise RuleError(f"{path}: {err}") from None
    except (KeyError, TypeError, ValueError) as err:
        raise RuleError(f"{path}: malformed rule: {err!r}") from None
    if len(exprs) != 2:
        raise RuleError(f"{path}: expected 2 exprs (h0, h1), found {len(exprs)}")
    if not np.isfinite([e.bias for e in exprs]).all():
        raise RuleError(f"{path}: non-finite expr bias")
    for term in (t for e in exprs for t in e.terms):
        if not 0 <= term.input < m_bins:
            raise RuleError(f"{path}: term input {term.input} outside 0..{m_bins - 1}")
        if len(term.params) != _KINDS[term.kind].n_params:
            raise RuleError(f"{path}: {term.kind} term on x{term.input} needs "
                            f"{_KINDS[term.kind].n_params} params, got {len(term.params)}")
        if not np.isfinite(np.asarray(term.params, dtype=float)).all():
            raise RuleError(f"{path}: {term.kind} term on x{term.input} has non-finite params")
        if term.kind == "spline":
            _check_spline(f"{path}: spline term on x{term.input}", term)
    return DecisionRule(name, m_bins, exprs, doc.get("meta", {}))


# ---------------------------------------------------------------------------
# shipped operating points
#
# Interface ids are load-bearing: downstream tooling selects a detector by
# these exact strings.

def _linear_rule(name, m_bins, h0, h1):
    """h0/h1 given as ({input: slope}, bias)."""
    exprs = []
    for slopes, bias in (h0, h1):
        terms = tuple(Term("linear", i, (a, 0.0)) for i, a in sorted(slopes.items()))
        exprs.append(SymbolicExpr(terms=terms, bias=bias))
    return DecisionRule(name, m_bins, tuple(exprs), {"source": "builtin", "fully_symbolic": True})


_BUILTIN_FACTORIES = {
    # ten-bin rule: steep trade in the first-bin mass, both hypotheses active
    "paper-eq7-m10": lambda: _linear_rule(
        "paper-eq7-m10", 10,
        h0=({0: -10.288, 1: -1.14e-6}, 7.91),
        h1=({0: 7.5514}, -5.797),
    ),
    # five-bin rule: near-zero null score, H1 needs a heavy first bin
    "paper-eq8-m5": lambda: _linear_rule(
        "paper-eq8-m5", 5,
        h0=({1: -2.12e-8}, -1.65e-8),
        h1=({0: 32.607, 1: -0.00085}, -28.818),
    ),
}

BUILTIN_RULE_NAMES = tuple(sorted(_BUILTIN_FACTORIES))


def builtin_rule(name: str) -> DecisionRule:
    try:
        return _BUILTIN_FACTORIES[name]()
    except KeyError:
        raise RuleError(
            f"unknown rule {name!r}; available: {', '.join(BUILTIN_RULE_NAMES)}"
        ) from None


def load_classifier(spec) -> DecisionRule:
    """The rule a classifier spec names: a built-in rule name, a rule JSON, or
    a model checkpoint JSON (as its exact margin rule, rule_from_model).

    A spec that names no file is looked up as a built-in name.
    """
    path = Path(spec)
    if not path.exists():
        return builtin_rule(str(spec))
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as err:
        raise RuleError(f"{path}: cannot read classifier: {err}") from None
    if isinstance(doc, dict) and doc.get("format") == "rdkan-checkpoint-v1":
        return rule_from_model(load_model(path), f"checkpoint:{path.name}")
    return load_rule(path)
