"""Spline-edge network: basis algebra, analytic gradients, training recipes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdkan.kan import (
    KanModel,
    PruneError,
    _pack,
    _unpack,
    accuracy,
    bspline_design,
    bspline_design_deriv,
    edge_activations,
    edge_value,
    fine_tune,
    fit,
    fit_sparse,
    forward,
    init_model,
    load_model,
    loss_and_grad,
    predict,
    prune,
    save_model,
    silu,
    uniform_knots,
    update_grids,
)
from rdkan.symbolic import rule_from_model, rule_scores

def toy_problem(n=300, seed=0, lo=0.6):
    """Two inputs, class decided by x0 alone; x1 is a distractor."""
    rng = np.random.default_rng(seed)
    n1 = n // 2
    x0 = np.concatenate([rng.uniform(0.0, 0.4, n - n1), rng.uniform(lo, 1.0, n1)])
    x1 = rng.uniform(0, 1, n)
    y = np.concatenate([np.zeros(n - n1, int), np.ones(n1, int)])
    order = rng.permutation(n)
    return np.column_stack([x0, x1])[order], y[order]


class TestSilu:
    def test_values(self):
        assert silu(0.0) == 0.0
        assert silu(10.0) == pytest.approx(10.0, rel=1e-3)
        assert silu(-10.0) == pytest.approx(0.0, abs=1e-3)


class TestBsplineBasis:
    def test_uniform_knots(self):
        k = uniform_knots(0.0, 1.0, grid_count=3, order=3)
        assert k.shape == (10,)
        assert k[3] == pytest.approx(0.0) and k[-4] == pytest.approx(1.0)
        assert np.allclose(np.diff(k), 1 / 3)
        with pytest.raises(ValueError):
            uniform_knots(1.0, 1.0)

    @pytest.mark.parametrize("lo,hi,grid_count", [(0.0, 1.0, 3), (-2.0, 5.0, 4), (0.3, 0.9, 2)])
    def test_partition_of_unity(self, lo, hi, grid_count):
        knots = uniform_knots(lo, hi, grid_count)
        x = np.linspace(lo, hi, 257)
        design = bspline_design(knots, x)
        assert design.shape == (257, grid_count + 3)
        assert np.max(np.abs(design.sum(axis=1) - 1.0)) < 1e-9
        assert design.min() >= -1e-12  # nonnegative inside the grid

    def test_local_support(self):
        knots = uniform_knots(0.0, 1.0, 3)
        design = bspline_design(knots, np.array([0.15, 0.5, 0.85]))
        # a cubic touches at most order+1 = 4 bases at any point
        assert np.all((design > 1e-12).sum(axis=1) <= 4)

    def test_derivative_finite_difference(self, rng):
        knots = uniform_knots(0.0, 1.0, 3)
        x = rng.uniform(0.02, 0.98, 50)
        h = 1e-6
        fd = (bspline_design(knots, x + h) - bspline_design(knots, x - h)) / (2 * h)
        assert np.allclose(bspline_design_deriv(knots, x), fd, atol=1e-6)

    def test_linear_extrapolation(self, rng):
        knots = uniform_knots(0.0, 1.0, 3)
        coeffs = rng.normal(0, 1, 6)
        f = lambda x: bspline_design(knots, np.asarray(x)) @ coeffs
        # continuous at the boundary
        assert f([1.0])[0] == pytest.approx(f([1.0 - 1e-9])[0], abs=1e-6)
        # straight line outside: zero second difference
        x = np.array([1.2, 1.4, 1.6, 1.8])
        vals = f(x)
        assert np.allclose(np.diff(vals, 2), 0.0, atol=1e-9)
        # with the boundary slope
        slope = (bspline_design_deriv(knots, np.array([1.0])) @ coeffs)[0]
        assert (vals[1] - vals[0]) / 0.2 == pytest.approx(slope, rel=1e-9)
        # same on the low side
        xl = np.array([-0.9, -0.6, -0.3])
        assert np.allclose(np.diff(f(xl), 2), 0.0, atol=1e-9)


class TestModelEvaluation:
    def test_edge_value_matches_activations(self, rng):
        model = init_model(3, rng)
        X = rng.uniform(0, 1, (20, 3))
        act = edge_activations(model, X)
        for q in range(2):
            for r in range(3):
                assert np.allclose(act[:, q, r], edge_value(model, q, r, X[:, r]))
        assert np.allclose(forward(model, X), act.sum(axis=2))

    def test_mask_zeroes_edges(self, rng):
        model = init_model(3, rng)
        model.edge_mask[:, 2] = False
        X = rng.uniform(0, 1, (10, 3))
        assert np.all(edge_activations(model, X)[:, :, 2] == 0.0)
        assert model.active_inputs().tolist() == [0, 1]

    def test_input_width_checked(self, rng):
        model = init_model(3, rng)
        with pytest.raises(ValueError, match="inputs"):
            forward(model, rng.uniform(0, 1, (5, 4)))

    def test_tie_predicts_class_zero(self, rng):
        model = init_model(2, rng)
        model.edge_mask[:] = False  # all logits zero -> exact tie
        assert np.all(predict(model, rng.uniform(0, 1, (6, 2))) == 0)


class TestLossGradients:
    @pytest.mark.parametrize("l1,weighted", [(0.0, False), (8e-3, False), (8e-3, True)])
    def test_analytic_gradient_matches_fd(self, l1, weighted, rng):
        model = init_model(3, rng)
        X = rng.uniform(0, 1, (24, 3))
        y = rng.integers(0, 2, 24)
        y[:2] = [0, 1]
        w = rng.uniform(0.5, 3.0, 24) if weighted else None

        _, (dc, db, ds) = loss_and_grad(model, X, y, l1=l1, sample_weight=w)
        grad = np.concatenate([dc.ravel(), db.ravel(), ds.ravel()])
        theta = _pack(model)
        h = 1e-6
        probe = rng.choice(theta.size, size=25, replace=False)
        for i in probe:
            for sign, bucket in ((+1, "hi"), (-1, "lo")):
                t = theta.copy()
                t[i] += sign * h
                _unpack(model, t)
                val = loss_and_grad(model, X, y, l1=l1, sample_weight=w)[0]
                if bucket == "hi":
                    f_hi = val
                else:
                    f_lo = val
            fd = (f_hi - f_lo) / (2 * h)
            denom = max(abs(fd), abs(grad[i]), 1e-8)
            assert abs(fd - grad[i]) / denom < 1e-4, f"param {i}"
        _unpack(model, theta)

    def test_penalty_increases_loss(self, rng):
        model = init_model(2, rng)
        X = rng.uniform(0, 1, (30, 2))
        y = rng.integers(0, 2, 30)
        y[:2] = [0, 1]
        plain = loss_and_grad(model, X, y, l1=0.0)[0]
        reg = loss_and_grad(model, X, y, l1=1e-2)[0]
        assert reg > plain

    def test_masked_edges_get_zero_gradient(self, rng):
        model = init_model(3, rng)
        model.edge_mask[:, 1] = False
        X = rng.uniform(0, 1, (20, 3))
        y = rng.integers(0, 2, 20)
        y[:2] = [0, 1]
        _, (dc, db, ds) = loss_and_grad(model, X, y, l1=8e-3)
        assert np.all(dc[:, 1, :] == 0.0)
        assert np.all(db[:, 1] == 0.0)
        assert np.all(ds[:, 1] == 0.0)


class TestFit:
    def test_separable_toy(self, rng):
        X, y = toy_problem()
        Xv, yv = toy_problem(seed=1)
        model = init_model(2, rng)
        result = fit(model, X, y, Xv, yv)
        assert result.train_accuracy == 1.0
        assert result.val_accuracy == 1.0
        assert result.n_iter > 0
        assert result.loss_history[-1] < result.loss_history[0]
        assert model.meta["trained"] is True

    def test_validation_errors(self, rng):
        model = init_model(2, rng)
        X, y = toy_problem(60)
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            fit(model, np.zeros((10, 3)), np.zeros(10, int))
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit(model, bad, y)
        with pytest.raises(ValueError, match="labels"):
            fit(model, X, y + 5)
        with pytest.raises(ValueError, match="both classes"):
            fit(model, X, np.zeros_like(y))

    def test_update_grids_preserves_shape(self, rng):
        model = init_model(1, rng)
        xs = np.linspace(0.0, 1.0, 200)
        before = edge_value(model, 0, 0, xs).copy()
        X = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 50)])[:, None]
        update_grids(model, X, refit=True)
        after = edge_value(model, 0, 0, xs)
        scale = np.abs(before).max() + 1e-12
        assert np.max(np.abs(after - before)) / scale < 1e-2

    def test_fit_sparse_is_deterministic_and_sparse(self):
        X, y = toy_problem(400)
        a = fit_sparse(2, X, y)
        b = fit_sparse(2, X, y)
        assert np.array_equal(a.model.coeffs, b.model.coeffs)
        assert np.array_equal(a.model.edge_mask, b.model.edge_mask)
        assert a.train_accuracy == 1.0
        # the distractor input should not survive pruning
        assert a.model.active_inputs().tolist() == [0]


class TestPrune:
    def make_model(self, strong=5.0, weak=1e-4):
        model = init_model(2, np.random.default_rng(0), coeff_std=0.0)
        model.base_scale[:] = 0.0
        model.coeffs[:, 0, :] = strong
        model.coeffs[:, 1, :] = weak
        return model

    def test_weak_input_removed(self, rng):
        model = self.make_model()
        X = rng.uniform(0.2, 0.8, (50, 2))
        out = prune(model, X)
        assert out.edge_mask[:, 0].all()
        assert not out.edge_mask[:, 1].any()
        # original untouched, pruned edges evaluate to zero
        assert model.edge_mask.all()
        assert np.all(edge_activations(out, X)[:, :, 1] == 0.0)

    def test_all_zero_raises(self, rng):
        model = self.make_model(strong=0.0, weak=0.0)
        with pytest.raises(PruneError):
            prune(model, rng.uniform(0, 1, (20, 2)))

    def test_everything_pruned_raises(self, rng):
        # the strongest edge always survives, so only non-finite features
        # leave nothing to keep
        X = rng.uniform(0.2, 0.8, (20, 2))
        X[3, 1] = np.nan
        with pytest.raises(PruneError, match="finite"):
            prune(self.make_model(), X)


class TestFineTune:
    def test_boosted_shots_move_boundary(self, rng):
        # pretrain with classes split at ~0.5, then drift class 1 down
        X, y = toy_problem(400)
        model = init_model(2, rng)
        fit(model, X, y)
        drift = np.column_stack([
            np.random.default_rng(3).uniform(0.42, 0.52, 200),
            np.random.default_rng(4).uniform(0, 1, 200),
        ])
        before = np.mean(predict(model, drift) == 1)
        shots_x = np.column_stack([np.linspace(0.43, 0.52, 8), np.full(8, 0.5)])
        replay_idx = np.random.default_rng(5).choice(len(X), 120, replace=False)
        fine_tune(model, X[replay_idx], y[replay_idx], shots_x, np.ones(8, int))
        after = np.mean(predict(model, drift) == 1)
        assert after > before
        assert after > 0.8
        assert accuracy(model, *toy_problem(200, seed=9)) > 0.95

    def test_needs_shots(self, rng):
        model = init_model(2, rng)
        X, y = toy_problem(50)
        with pytest.raises(ValueError, match="few-shot"):
            fine_tune(model, X, y, np.empty((0, 2)), np.empty(0, int))


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        X, y = toy_problem(200)
        model = init_model(2, rng)
        fit(model, X, y)
        model.edge_mask[1, 1] = False
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        assert np.array_equal(back.knots, model.knots)
        assert np.array_equal(back.coeffs, model.coeffs)
        assert np.array_equal(back.base_scale, model.base_scale)
        assert np.array_equal(back.spline_scale, model.spline_scale)
        assert np.array_equal(back.edge_mask, model.edge_mask)
        assert back.meta["trained"] is True
        probe = rng.uniform(0, 1, (40, 2))
        assert np.array_equal(forward(back, probe), forward(model, probe))

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="checkpoint"):
            load_model(path)

    MALFORMED = {
        "no-base-scale": "lacks 'base_scale'",
        "no-order": "lacks 'order'",
        "one-row-edge-mask": "edge_mask has shape",
        "short-knots": "knots has shape",
        "short-coeffs": "coeffs has shape",
        "null-base-scale": "base_scale has non-finite",
        "infinite-coeff": "coeffs has non-finite",
        "string-in-spline-scale": "non-numeric",
        "fractional-grid-count": "positive integers",
        "one-output": "n_out 2",
        "repeated-knot": "knots must increase",
    }

    @pytest.mark.parametrize("defect", MALFORMED)
    def test_rejects_malformed(self, defect, tmp_path, rng):
        path = tmp_path / "model.json"
        save_model(path, init_model(3, rng))
        doc = json.loads(path.read_text())
        if defect == "no-base-scale":
            del doc["base_scale"]
        elif defect == "no-order":
            del doc["order"]
        elif defect == "one-row-edge-mask":
            doc["edge_mask"] = doc["edge_mask"][:1]
        elif defect == "short-knots":
            doc["knots"] = [row[:-1] for row in doc["knots"]]
        elif defect == "short-coeffs":
            doc["coeffs"] = [[row[:-1] for row in q] for q in doc["coeffs"]]
        elif defect == "null-base-scale":
            doc["base_scale"][0][0] = None
        elif defect == "infinite-coeff":
            doc["coeffs"][1][2][0] = float("inf")
        elif defect == "string-in-spline-scale":
            doc["spline_scale"][0][1] = "one"
        elif defect == "fractional-grid-count":
            doc["grid_count"] = 3.5
        elif defect == "one-output":
            doc["n_out"] = 1
            for key in ("coeffs", "base_scale", "spline_scale", "edge_mask"):
                doc[key] = doc[key][:1]
        else:
            doc["knots"][2][4] = doc["knots"][2][3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=self.MALFORMED[defect]):
            load_model(path)


@st.composite
def models(draw, elements=st.floats(allow_nan=False, allow_infinity=False)):
    n_in, order, grid_count = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    knots = np.stack([uniform_knots(lo, lo + width, grid_count, order)
                      for lo, width in draw(st.lists(st.tuples(st.floats(-10.0, 10.0),
                                                               st.floats(1e-3, 10.0)),
                                                     min_size=n_in, max_size=n_in))])
    edges = (2, n_in)
    return KanModel(
        knots=knots,
        coeffs=draw(arrays(np.float64, edges + (grid_count + order,), elements=elements)),
        base_scale=draw(arrays(np.float64, edges, elements=elements)),
        spline_scale=draw(arrays(np.float64, edges, elements=elements)),
        edge_mask=draw(arrays(bool, edges)),
        order=order,
        grid_count=grid_count,
        meta={"trained": draw(st.booleans())},
    )


class TestCheckpointProperties:
    @settings(max_examples=60, deadline=None)
    @given(model=models())
    def test_save_load_round_trip_is_exact(self, model, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "model.json"
        save_model(path, model)
        back = load_model(path)
        for key in ("knots", "coeffs", "base_scale", "spline_scale", "edge_mask"):
            a, b = getattr(back, key), getattr(model, key)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
        assert (back.order, back.grid_count, back.meta) == (model.order, model.grid_count, model.meta)


class TestRuleFromModelProperties:
    # bounded parameters: with any finite float, phi_1 and phi_0 could each
    # overflow or cancel to far below their own rounding error
    @settings(max_examples=80, deadline=None)
    @given(model=models(elements=st.floats(-10.0, 10.0)), data=st.data())
    def test_margins_equal_forward(self, model, data):
        # inputs reach one grid width past each end of the grid, so the
        # linear extrapolation of the splines is covered too
        u = data.draw(arrays(np.float64, (8, model.n_in), elements=st.floats(-1.0, 2.0)))
        lo, hi = model.knots[:, model.order], model.knots[:, -model.order - 1]
        X = lo + u * (hi - lo)
        scores = rule_scores(rule_from_model(model, "model"), X)
        logits = forward(model, X)
        want = logits[:, 1] - logits[:, 0]
        assert np.all(np.abs(scores[:, 1] - scores[:, 0] - want) <= 1e-9 * (1.0 + np.abs(want)))
