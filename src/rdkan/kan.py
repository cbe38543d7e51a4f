"""Single-layer spline-edge network for segment histogram classification.

Width is [n_in, 2]: every input feeds both output nodes through a
learnable edge

    phi(x) = base_scale * silu(x) + spline_scale * sum_i c_i B_i(x)

with cubic B-splines on a 3-interval grid per input.  Outputs are the
two hypothesis logits; training is full-batch quasi-Newton (L-BFGS,
memory 10, Wolfe line search) on softmax cross-entropy with a small
smoothed-L1 penalty on edge activations so uninformative edges shrink
below the prune thresholds.  Gradients are computed analytically.  The
penalty weight l1 is the only training argument; the iteration budget
(MAX_ITER, with one grid re-fit at GRID_REFRESH_AT) is fixed.  A loss
that is not finite raises TrainingError at the evaluation that sees it.

An edge depends on one input, and a histogram feature is a count over
the 119 cells of a segment, k/119, so an input holds at most 120 distinct
doubles however many rows there are.  Each L-BFGS leg therefore builds
value tables once (distinct values, row index, counts, silu and basis
rows) for each input with an unmasked edge; every loss evaluation
computes each unmasked edge once per distinct value and gathers or
count-weights it back to the rows.  Loss and gradients agree with
evaluating every row to 1e-12 * (1 + |value|); edge_activations, and so
forward, prune and accuracy, gather the same tables back to rows and are
bit-identical to it on those inputs (an input with no unmasked edge
reads +0.0).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit


# training and pruning constants
GRID_PAD = 0.01             # grid margin beyond the data range, fraction of span
GRID_REFIT_POINTS = 64      # samples for the least-squares re-fit onto a new grid
MAX_ITER = 200              # L-BFGS iterations per fit ...
GRID_REFRESH_AT = 100       # ... with one grid re-fit after this many
L1 = 8e-3                   # default activation sparsity weight
STOP_TOL = 1e-7             # stop when the loss falls by less than this ...
STOP_PATIENCE = 5           # ... over this many iterations
LBFGS_MEMORY = 10
PRUNE_ROUNDS = 3            # prune-refit rounds in fit_sparse
DROP_ACC_SLACK = 1e-3       # accuracy fit_sparse may give up per dropped input
PRUNE_NODE_THRESHOLD = 0.01
PRUNE_EDGE_THRESHOLD = 0.03


class TrainingError(RuntimeError):
    pass


class PruneError(RuntimeError):
    pass


def silu(x):
    x = np.asarray(x, dtype=float)
    return x * expit(x)


# ---------------------------------------------------------------------------
# B-spline bases on a uniformly extended knot vector


def uniform_knots(lo: float, hi: float, grid_count: int = 3, order: int = 3) -> np.ndarray:
    """Uniform knots covering [lo, hi] with `order` extra intervals per side."""
    if hi <= lo:
        raise ValueError(f"empty grid range [{lo}, {hi}]")
    h = (hi - lo) / grid_count
    return lo + h * np.arange(-order, grid_count + order + 1)


def _bases_order0(knots, x):
    b = ((x[:, None] >= knots[:-1]) & (x[:, None] < knots[1:])).astype(float)
    # right-closed top interval so x == hi is representable
    b[x >= knots[-2], -1] = 1.0
    return b


def _bases(knots, x, order):
    b = _bases_order0(knots, x)
    for k in range(1, order + 1):
        left = (x[:, None] - knots[: -k - 1]) / (knots[k:-1] - knots[: -k - 1])
        right = (knots[k + 1:] - x[:, None]) / (knots[k + 1:] - knots[1:-k])
        b = left * b[:, :-1] + right * b[:, 1:]
    return b


def bspline_design(knots, x, order: int = 3):
    """Basis matrix (len(x), n_basis); linear extrapolation outside the grid.

    x is a scalar (one row) or 1-D.  Inside [knots[order], knots[-order-1]]
    the rows partition unity.  Outside, each basis is continued linearly
    from the boundary so edge activations extrapolate linearly.

    Every step is elementwise per row with constants taken from the knots
    alone, so a row depends only on its own x.  Each distinct double is
    therefore evaluated once and its row gathered back to every position
    holding it: a histogram feature is a count over the 119 cells of a
    segment, k/119, so it has at most 120 rows to build however many
    windows a sweep scores.  Inputs share a row only when their bit
    patterns are equal (0.0 and -0.0 stay apart).
    """
    knots = np.asarray(knots, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim > 1:
        raise ValueError(f"x must be a scalar or 1-D, got shape {x.shape}")
    bits, inverse = np.unique(np.ascontiguousarray(x).view(np.uint64), return_inverse=True)
    x = bits.view(np.float64)
    lo, hi = knots[order], knots[-order - 1]
    xc = np.clip(x, lo, hi)
    out = _bases(knots, xc, order)
    outside = (x < lo) | (x > hi)
    if np.any(outside):
        d = bspline_design_deriv(knots, xc[outside], order)
        out[outside] += d * (x[outside] - xc[outside])[:, None]
    return out[inverse]


def bspline_design_deriv(knots, x, order: int = 3):
    """d/dx of each basis function, same clamp-and-extend convention."""
    knots = np.asarray(knots, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = knots[order], knots[-order - 1]
    xc = np.clip(x, lo, hi)
    b = _bases(knots, xc, order - 1)
    left = b[:, :-1] / (knots[order:-1] - knots[:-order - 1])
    right = b[:, 1:] / (knots[order + 1:] - knots[1:-order])
    return order * (left - right)


# ---------------------------------------------------------------------------
# model


@dataclass
class KanModel:
    knots: np.ndarray             # (n_in, grid_count + 2*order + 1)
    coeffs: np.ndarray            # (n_out, n_in, grid_count + order)
    base_scale: np.ndarray        # (n_out, n_in)
    spline_scale: np.ndarray      # (n_out, n_in)
    edge_mask: np.ndarray         # (n_out, n_in) bool; False edges contribute 0
    order: int = 3
    grid_count: int = 3
    meta: dict = field(default_factory=dict)

    @property
    def n_in(self) -> int:
        return self.knots.shape[0]

    @property
    def n_out(self) -> int:
        return self.coeffs.shape[0]

    def active_inputs(self) -> np.ndarray:
        return np.flatnonzero(self.edge_mask.any(axis=0))

    def copy(self) -> "KanModel":
        return copy.deepcopy(self)


def init_model(n_in: int, rng: np.random.Generator, coeff_std: float = 0.1) -> KanModel:
    """Untrained [n_in, 2] model: cubic splines on 3 intervals over [0, 1]."""
    edges = (2, n_in)
    return KanModel(
        knots=np.tile(uniform_knots(0.0, 1.0), (n_in, 1)),
        coeffs=rng.normal(0.0, coeff_std, size=edges + (KanModel.grid_count + KanModel.order,)),
        base_scale=np.ones(edges),
        spline_scale=np.ones(edges),
        edge_mask=np.ones(edges, dtype=bool),
    )


def update_grids(model: KanModel, X, refit: bool = True) -> None:
    """Re-anchor each input grid to the empirical [min, max] of the data.

    With refit=True the spline coefficients are least-squares re-fitted so
    each edge keeps its shape on the new grid.
    """
    X = np.asarray(X, dtype=float)
    for r in range(model.n_in):
        lo, hi = float(X[:, r].min()), float(X[:, r].max())
        if hi - lo < 1e-9:
            hi = lo + 1e-6
        span = hi - lo
        lo, hi = lo - GRID_PAD * span, hi + GRID_PAD * span
        new_knots = uniform_knots(lo, hi, model.grid_count, model.order)
        if refit:
            xs = np.linspace(lo, hi, GRID_REFIT_POINTS)
            old_design = bspline_design(model.knots[r], xs, model.order)
            new_design = bspline_design(new_knots, xs, model.order)
            for q in range(model.n_out):
                target = old_design @ model.coeffs[q, r]
                model.coeffs[q, r], *_ = np.linalg.lstsq(new_design, target, rcond=None)
        model.knots[r] = new_knots


def _value_tables(model, X):
    """{r: (inverse, counts, silu(u), bspline_design(knots_r, u))} for each
    input r with an unmasked edge, over its distinct values u (bit
    patterns, as in bspline_design).

    Row b of input r is value inverse[b].  The tables depend only on
    (knots, edge_mask, X), so an L-BFGS leg on fixed grids and a fixed
    mask builds them once.
    """
    tables = {}
    for r in model.active_inputs():
        bits, inverse, counts = np.unique(np.ascontiguousarray(X[:, r]).view(np.uint64),
                                          return_inverse=True, return_counts=True)
        u = bits.view(np.float64)
        tables[r] = (inverse, counts, silu(u), bspline_design(model.knots[r], u, model.order))
    return tables


def _edge_table(model, r, silu_u, design):
    """(spline part, masked phi) of input r's edges on its values, each (n_out, V)."""
    spline = np.einsum("vi,qi->qv", design, model.coeffs[:, r])
    act = model.base_scale[:, r, None] * silu_u + model.spline_scale[:, r, None] * spline
    return spline, act * model.edge_mask[:, r, None]


def edge_activations(model: KanModel, X) -> np.ndarray:
    """phi values per edge, (batch, n_out, n_in); masked edges are zero."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_in:
        raise ValueError(f"expected {model.n_in} inputs, got {X.shape[1]}")
    act = np.zeros((X.shape[0], model.n_out, model.n_in))
    for r, (inverse, _, silu_u, design) in _value_tables(model, X).items():
        act[:, :, r] = np.take(_edge_table(model, r, silu_u, design)[1], inverse, axis=1).T
    return act


def forward(model: KanModel, X) -> np.ndarray:
    """Hypothesis logits, (batch, n_out)."""
    return edge_activations(model, X).sum(axis=2)


def edge_value(model: KanModel, q: int, r: int, x) -> np.ndarray:
    """phi_{q,r}(x) for scalar or vector x (ignores the mask)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    design = bspline_design(model.knots[r], x, model.order)
    return model.base_scale[q, r] * silu(x) + model.spline_scale[q, r] * (design @ model.coeffs[q, r])


def predict(model: KanModel, X) -> np.ndarray:
    # argmax takes the first maximum, so an exact tie resolves to class 0
    return np.argmax(forward(model, X), axis=1)


def accuracy(model: KanModel, X, y) -> float:
    return float(np.mean(predict(model, X) == np.asarray(y)))


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: KanModel
    loss_history: list
    train_accuracy: float
    val_accuracy: float | None


def _pack(model):
    return np.concatenate([model.coeffs.ravel(), model.base_scale.ravel(), model.spline_scale.ravel()])


def _unpack(model, theta):
    nc = model.coeffs.size
    ns = model.base_scale.size
    model.coeffs = theta[:nc].reshape(model.coeffs.shape)
    model.base_scale = theta[nc:nc + ns].reshape(model.base_scale.shape)
    model.spline_scale = theta[nc + ns:].reshape(model.spline_scale.shape)


def loss_and_grad(model: KanModel, X, y, l1: float = 0.0, sample_weight=None, tables=None):
    """Weighted softmax cross-entropy plus smoothed-L1 activation penalty.

    Returns (loss, grads) with grads ordered like _pack: d/dcoeffs,
    d/dbase_scale, d/dspline_scale, all shaped like their parameters.

    Each edge is evaluated once per distinct value of its input, not once
    per row: the logits gather the per-input activation tables, the
    penalty weights each table entry by its row count, and the gradient
    folds dlogits onto the values with one bincount per edge.  Inputs
    with no unmasked edge cost nothing; each masked edge adds its
    constant penalty sqrt(eps).  Against the row-wise form only the
    order of the sums over rows and inputs differs, so loss and gradients
    agree with it to 1e-12 * (1 + |value|) (tests/test_kan.py holds it as
    an oracle).  The tables depend only on (knots, edge_mask, X); callers
    looping over parameters on a fixed grid and mask should pass
    tables=_value_tables(model, X).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    wsum = w.sum()

    if tables is None:
        tables = _value_tables(model, X)
    # outputs lead, (q, b): per-row reductions over the two logits are
    # then elementwise over rows
    active = model.active_inputs()
    edges = {}
    logits = np.zeros((model.n_out, n))
    for r in active:
        inverse, _, silu_u, design = tables[r]
        edges[r] = _edge_table(model, r, silu_u, design)              # (q, v) each
        logits += np.take(edges[r][1], inverse, axis=1)

    zmax = logits.max(axis=0)
    lse = zmax + np.log(np.exp(logits - zmax).sum(axis=0))
    ce = float(np.sum(w * (lse - logits[y, np.arange(n)])) / wsum)

    dlogits = np.exp(logits - lse)
    dlogits[y, np.arange(n)] -= 1.0
    dlogits *= w / wsum

    eps = 1e-12
    penalty = eps ** 0.5 * model.n_out * (model.n_in - active.size)
    dcoeffs = np.zeros_like(model.coeffs)
    dbase = np.zeros_like(model.base_scale)
    dspline_scale = np.zeros_like(model.spline_scale)
    for r in active:
        inverse, counts, silu_u, design = tables[r]
        spline, act = edges[r]
        smooth = np.sqrt(act * act + eps)
        penalty += float((smooth @ counts).sum()) / n
        fold = np.array([np.bincount(inverse, d, minlength=counts.size) for d in dlogits])
        dact = (fold + l1 * counts * (act / smooth) / n) * model.edge_mask[:, r, None]
        dbase[:, r] = dact @ silu_u
        dspline_scale[:, r] = np.einsum("qv,qv->q", dact, spline)
        dcoeffs[:, r] = (dact * model.spline_scale[:, r, None]) @ design
    return ce + l1 * penalty, (dcoeffs, dbase, dspline_scale)


class _Converged(Exception):
    pass


def _run_lbfgs(model, X, y, l1, maxiter, sample_weight, history):
    """One L-BFGS leg on fixed grids; history accumulates per-iteration
    loss.  Returns whether the stopping rule fired."""
    from scipy.optimize import minimize  # here, not at module top: detection never optimizes

    state = {"theta": _pack(model), "f": np.inf}
    tables = _value_tables(model, X)  # grids are fixed for the whole leg

    def objective(theta):
        _unpack(model, theta)
        # an overflowing loss is reported once, as TrainingError, not as
        # numpy warnings on the way to it
        with np.errstate(over="ignore", invalid="ignore"):
            loss, (dc, db, ds) = loss_and_grad(model, X, y, l1, sample_weight, tables)
        if not np.isfinite(loss):
            raise TrainingError("non-finite loss")
        if loss < state["f"]:
            state["theta"], state["f"] = theta.copy(), loss
        grad = np.concatenate([dc.ravel(), db.ravel(), ds.ravel()])
        state["last_f"] = loss
        return loss, grad

    def callback(theta):
        history.append(state["last_f"])
        if len(history) > STOP_PATIENCE:
            if history[-STOP_PATIENCE - 1] - history[-1] < STOP_TOL:
                raise _Converged

    converged = False
    try:
        minimize(
            objective,
            _pack(model),
            jac=True,
            method="L-BFGS-B",
            callback=callback,
            options={"maxiter": maxiter, "maxcor": LBFGS_MEMORY, "ftol": 0.0, "gtol": 1e-14},
        )
    except _Converged:
        converged = True
    _unpack(model, state["theta"])
    return converged


def fit(
    model: KanModel,
    X, y,
    X_val=None, y_val=None,
    l1: float = L1,
    sample_weight=None,
) -> TrainResult:
    """Train in place and return the fitted model with accuracies.

    Grids are set to the empirical range of each input before training
    and re-fitted once after GRID_REFRESH_AT of at most MAX_ITER
    iterations.  A loss that is not finite raises TrainingError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[1] != model.n_in:
        raise ValueError(f"X must be (n, {model.n_in})")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    if set(np.unique(y)) - set(range(model.n_out)):
        raise ValueError(f"labels must be in 0..{model.n_out - 1}")
    if len(np.unique(y)) < 2:
        raise ValueError("need samples from both classes")

    update_grids(model, X, refit=bool(model.meta.get("trained")))
    history: list = []
    if not _run_lbfgs(model, X, y, l1, GRID_REFRESH_AT, sample_weight, history):
        update_grids(model, X, refit=True)
        _run_lbfgs(model, X, y, l1, MAX_ITER - GRID_REFRESH_AT, sample_weight, history)

    model.meta["trained"] = True
    val_acc = accuracy(model, X_val, y_val) if X_val is not None else None
    return TrainResult(
        model=model,
        loss_history=history,
        train_accuracy=accuracy(model, X, y),
        val_accuracy=val_acc,
    )


def fit_sparse(
    n_in: int,
    X, y,
    X_val=None, y_val=None,
    l1: float = L1,
) -> TrainResult:
    """Deterministic train-prune-refit recipe yielding a sparse model.

    Splines start at zero, so the early quasi-Newton steps are driven by
    each input's raw silu response and the largest-scale discriminative
    feature takes the lead before the sparsity penalty locks it in.
    After convergence, weak edges are pruned and the masked model is
    refit, repeating until the mask is stable.  Whole inputs are then
    dropped weakest-first for as long as accuracy (validation when
    given) gives up at most DROP_ACC_SLACK: the l1 penalty shrinks redundant
    edges but rarely zeroes them outright, and a rule distilled from
    the model is only as sparse as the mask it inherits.  No randomness
    anywhere; rerunning on the same data reproduces the model bit for
    bit.
    """
    model = init_model(n_in, np.random.default_rng(0), coeff_std=0.0)
    result = fit(model, X, y, X_val, y_val, l1)
    for _ in range(PRUNE_ROUNDS):
        pruned = prune(model, X)
        if (pruned.edge_mask == model.edge_mask).all():
            break
        model = pruned
        result = fit(model, X, y, X_val, y_val, l1)

    def _score(res):
        return res.train_accuracy if res.val_accuracy is None else res.val_accuracy

    while True:
        active = result.model.active_inputs()
        if active.size <= 1:
            break
        strength = np.abs(edge_activations(result.model, X)).mean(axis=0).max(axis=0)
        weakest = active[np.argmin(strength[active])]
        trial = result.model.copy()
        trial.edge_mask[:, weakest] = False
        candidate = fit(trial, X, y, X_val, y_val, l1)
        if _score(candidate) < _score(result) - DROP_ACC_SLACK:
            break
        result = candidate
    return result


def fine_tune(
    model: KanModel,
    X_pre, y_pre,
    X_few, y_few,
    boost: float = 10.0,
    l1: float = L1,
    X_val=None, y_val=None,
) -> TrainResult:
    """Continue training on replay data plus weight-boosted few-shot data.

    X_pre should be a modest replay subset (a few hundred rows) of the
    original training set, not all of it; against the full set the
    boosted shots are outvoted and the boundary barely moves.
    """
    X_few = np.atleast_2d(np.asarray(X_few, dtype=float))
    if X_few.shape[0] < 1:
        raise ValueError("need at least one few-shot sample")
    X = np.vstack([np.asarray(X_pre, dtype=float), X_few])
    y = np.concatenate([np.asarray(y_pre, dtype=int), np.asarray(y_few, dtype=int)])
    weight = np.concatenate([np.ones(len(y_pre)), np.full(len(y_few), float(boost))])
    return fit(model, X, y, X_val=X_val, y_val=y_val, l1=l1, sample_weight=weight)


# ---------------------------------------------------------------------------
# pruning


def prune(model: KanModel, X) -> KanModel:
    """Drop edges whose mean |activation| is small relative to the layer max.

    An input node goes entirely when its best edge is below
    PRUNE_NODE_THRESHOLD or all its edges were removed; the strongest
    edge always stays.  The pruned model keeps the full parameter arrays;
    removed edges are masked to exactly zero.
    """
    if not np.all(np.isfinite(X)):
        raise PruneError("features must be finite")
    scores = np.abs(edge_activations(model, X)).mean(axis=0)   # (q, r)
    top = scores.max()
    if top <= 0:
        raise PruneError("all edge activations are zero")
    rel = scores / top
    mask = model.edge_mask & (rel >= PRUNE_EDGE_THRESHOLD)
    mask[:, rel.max(axis=0) < PRUNE_NODE_THRESHOLD] = False
    out = model.copy()
    out.edge_mask = mask
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path, model: KanModel) -> None:
    doc = {
        "format": "rdkan-checkpoint-v1",
        "order": model.order,
        "grid_count": model.grid_count,
        "n_in": model.n_in,
        "n_out": model.n_out,
        "knots": model.knots.tolist(),
        "coeffs": model.coeffs.tolist(),
        "base_scale": model.base_scale.tolist(),
        "spline_scale": model.spline_scale.tolist(),
        "edge_mask": model.edge_mask.astype(int).tolist(),
        "meta": model.meta,
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def load_model(path) -> KanModel:
    """Read a checkpoint; a missing key, n_in below 2 (one input per
    histogram bin, and a histogram has at least 2), n_out other than 2 (H0
    and H1 logits), an array shaped unlike n_in, n_out, order and
    grid_count imply, a non-finite value or a meta that is not an object
    raises ValueError."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("format") != "rdkan-checkpoint-v1":
        raise ValueError(f"{path}: not a model checkpoint")
    sizes = ("order", "grid_count", "n_in", "n_out")
    try:
        order, grid_count, n_in, n_out = (doc[k] for k in sizes)
        arrays = {k: np.asarray(doc[k], dtype=float)
                  for k in ("knots", "coeffs", "base_scale", "spline_scale", "edge_mask")}
    except KeyError as err:
        raise ValueError(f"{path}: checkpoint lacks {err}") from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: non-numeric checkpoint array: {err}") from None
    if n_out != 2 or not all(type(v) is int and v >= 1 for v in (order, grid_count, n_in)):
        raise ValueError(f"{path}: order, grid_count and n_in must be positive integers, n_out 2")
    if n_in < 2:
        raise ValueError(f"{path}: n_in must be >= 2, one input per histogram bin, got {n_in}")
    edge = (n_out, n_in)
    want = {"knots": (n_in, grid_count + 2 * order + 1), "coeffs": edge + (grid_count + order,),
            "base_scale": edge, "spline_scale": edge, "edge_mask": edge}
    for key, values in arrays.items():
        if values.shape != want[key]:
            raise ValueError(f"{path}: {key} has shape {values.shape}, expected {want[key]}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: {key} has non-finite values")
    if not np.all(np.diff(arrays["knots"], axis=1) > 0):
        raise ValueError(f"{path}: knots must increase along each row")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: meta must be an object, got {type(meta).__name__}")
    return KanModel(edge_mask=arrays.pop("edge_mask") != 0, order=order, grid_count=grid_count,
                    meta=meta, **arrays)
