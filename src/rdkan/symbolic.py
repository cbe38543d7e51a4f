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

import numpy as np
from scipy.optimize import brentq, minimize

from .kan import KanModel, bspline_design, edge_value, silu

TERM_KINDS = ("const", "linear", "quadratic", "exp", "silu", "spline")

# parameter count per term kind, see Term
_N_PARAMS = {"const": 1, "linear": 2, "quadratic": 3, "exp": 4, "silu": 4, "spline": 0}

# simpler shapes win ties during snapping
_COMPLEXITY = {"const": 0, "linear": 1, "quadratic": 2, "silu": 3, "exp": 3, "spline": 9}

SNAP_R2_THRESHOLD = 0.9
SNAP_R2_TIE = 1e-4


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
        if self.kind not in TERM_KINDS:
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

    @property
    def n_in(self) -> int:
        return self.m_bins


def term_value(term: Term, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    p = term.params
    if term.kind == "const":
        return np.full_like(x, p[0])
    if term.kind == "linear":
        return p[0] * x + p[1]
    if term.kind == "quadratic":
        return p[0] * x * x + p[1] * x + p[2]
    if term.kind == "exp":
        return p[0] * np.exp(p[1] * x + p[2]) + p[3]
    if term.kind == "silu":
        return p[0] * silu(p[1] * x + p[2]) + p[3]
    design = bspline_design(np.asarray(term.knots), np.atleast_1d(x))
    return (design @ np.asarray(term.coeffs)).reshape(x.shape)


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


def rule_crossover(rule: DecisionRule, input_index: int = 0, lo: float = 0.0, hi: float = 1.0) -> float:
    """Value of one feature where the decision flips, all others at zero."""
    def margin(v):
        x = np.zeros((1, rule.m_bins))
        x[0, input_index] = v
        s = rule_scores(rule, x)[0]
        return s[1] - s[0]

    m_lo, m_hi = margin(lo), margin(hi)
    if m_lo * m_hi > 0:
        raise RuleError(f"no decision flip in x{input_index} over [{lo}, {hi}]")
    return float(brentq(margin, lo, hi, xtol=1e-12))


# ---------------------------------------------------------------------------
# decay-rate summary of histogram features


def fit_decay_rates(histograms, min_mass: float = 1e-6):
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
        keep = row > min_mass
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


def _fit_exp(x, y):
    span = x.max() - x.min()
    x0 = float(x.mean())
    best = None
    rates = np.concatenate([-np.geomspace(0.1, 40.0, 25) / span, np.geomspace(0.1, 40.0, 25) / span])
    for a in rates:
        c, d, r2 = _affine_ls(y, np.exp(a * (x - x0)))
        if best is None or r2 > best[3]:
            best = (c, a, d, r2)

    def neg_r2(a):
        return -_affine_ls(y, np.exp(float(a[0]) * (x - x0)))[2]

    res = minimize(neg_r2, [best[1]], method="Nelder-Mead", options={"xatol": 1e-6, "fatol": 1e-12})
    a = float(res.x[0])
    c, d, r2 = _affine_ls(y, np.exp(a * (x - x0)))
    if r2 < best[3]:
        c, a, d, r2 = best
    # fold the centering shift into the b parameter
    return ("exp", (c, a, -a * x0, d), r2)


def _fit_silu(x, y):
    span = x.max() - x.min()
    shifts = np.linspace(x.min() - 0.5 * span, x.max() + 0.5 * span, 17)
    scales = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]) / span
    best = None
    for a in np.concatenate([-scales, scales]):
        for s in shifts:
            c, d, r2 = _affine_ls(y, silu(a * (x - s)))
            if best is None or r2 > best[3]:
                best = (c, a, s, r2)

    def neg_r2(p):
        return -_affine_ls(y, silu(float(p[0]) * (x - float(p[1]))))[2]

    res = minimize(neg_r2, [best[1], best[2]], method="Nelder-Mead",
                   options={"xatol": 1e-7, "fatol": 1e-12})
    a, s = float(res.x[0]), float(res.x[1])
    c, d, r2 = _affine_ls(y, silu(a * (x - s)))
    if r2 < best[3]:
        c, a, s, r2 = best
    return ("silu", (c, a, -a * s, d), r2)


def snap_edge(x, y, input_index: int) -> tuple:
    """Best library term for samples (x, y); returns (Term, r2, symbolic)."""
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
    kind, params, r2 = min(good, key=lambda f: _COMPLEXITY[f[0]])
    return Term(kind, input_index, params), r2, True


def snap(model: KanModel, name: str, n_grid: int = 512) -> DecisionRule:
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
            x = np.linspace(lo, hi, n_grid)
            y = edge_value(model, q, int(r), x)
            term, r2, symbolic = snap_edge(x, y, int(r))
            if not symbolic:
                term = _spline_term_from_edge(model, q, int(r))
            terms.append(term)
            edge_meta[f"h{q}.x{r}"] = {"kind": term.kind, "r2": round(r2, 6)}
        exprs.append(SymbolicExpr(terms=tuple(terms), bias=0.0))
    rule = DecisionRule(name=name, m_bins=model.n_in, exprs=tuple(exprs),
                        meta={"edges": edge_meta, "source": "snap"})
    rule.meta["fully_symbolic"] = is_fully_symbolic(rule)
    return rule


def _spline_term_from_edge(model: KanModel, q: int, r: int, n_grid: int = 512) -> Term:
    """Sampled-spline fallback: refit the whole edge (base + spline part)
    onto a plain B-spline so the term needs no silu component."""
    lo = model.knots[r, model.order]
    hi = model.knots[r, -model.order - 1]
    x = np.linspace(lo, hi, n_grid)
    y = edge_value(model, q, r, x)
    design = bspline_design(model.knots[r], x, model.order)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return Term("spline", r, knots=tuple(model.knots[r].tolist()),
                coeffs=tuple(float(c) for c in coeffs))


# ---------------------------------------------------------------------------
# rendering and serialization


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def term_to_text(term: Term) -> str:
    p = term.params
    x = f"x{term.input}"
    if term.kind == "const":
        return _fmt(p[0])
    if term.kind == "linear":
        return f"{_fmt(p[0])}*{x} + {_fmt(p[1])}"
    if term.kind == "quadratic":
        return f"{_fmt(p[0])}*{x}^2 + {_fmt(p[1])}*{x} + {_fmt(p[2])}"
    if term.kind == "exp":
        return f"{_fmt(p[0])}*exp({_fmt(p[1])}*{x} + {_fmt(p[2])}) + {_fmt(p[3])}"
    if term.kind == "silu":
        return f"{_fmt(p[0])}*silu({_fmt(p[1])}*{x} + {_fmt(p[2])}) + {_fmt(p[3])}"
    return f"spline({x})"


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
    return Term(doc["kind"], int(doc["input"]), tuple(doc.get("params", ())),
                tuple(doc.get("knots", ())), tuple(doc.get("coeffs", ())))


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


def load_rule(path) -> DecisionRule:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != "rdkan-rule-v1":
        raise RuleError(f"{path}: not a rule file")
    try:
        m_bins = int(doc["m_bins"])
        exprs = tuple(
            SymbolicExpr(terms=tuple(_term_from_doc(t) for t in e["terms"]), bias=float(e["bias"]))
            for e in doc["exprs"]
        )
        name = doc["name"]
    except (KeyError, TypeError) as err:
        raise RuleError(f"{path}: malformed rule: {err!r}") from None
    if len(exprs) != 2:
        raise RuleError(f"{path}: expected 2 exprs (h0, h1), found {len(exprs)}")
    for term in (t for e in exprs for t in e.terms):
        if not 0 <= term.input < m_bins:
            raise RuleError(f"{path}: term input {term.input} outside 0..{m_bins - 1}")
        if len(term.params) != _N_PARAMS[term.kind]:
            raise RuleError(f"{path}: {term.kind} term on x{term.input} needs "
                            f"{_N_PARAMS[term.kind]} params, got {len(term.params)}")
        if term.kind == "spline" and not (term.knots and term.coeffs):
            raise RuleError(f"{path}: spline term on x{term.input} lacks knots or coeffs")
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
