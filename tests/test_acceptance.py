"""End-to-end acceptance gate for the workbench's headline guarantees.

Each test covers one shipped guarantee, computes the relevant numbers, and
records a single PASS/FAIL line which conftest echoes after the pytest
summary.  The heavy fixtures (full-size training splits, the 350-trial
detector comparison) are module scoped; a complete run takes some minutes:

    pytest tests/test_acceptance.py -v
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from rdkan import datasets, harness, oscfar, pipeline, radarsim, rdmap, symbolic
from rdkan.kan import (
    _pack,
    _unpack,
    accuracy,
    bspline_design,
    fit_sparse,
    init_model,
    loss_and_grad,
    uniform_knots,
)
from rdkan.radarsim import derive_geometry


def record(log, num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {num:>2}. {label}: {detail}"
    log.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# heavy shared fixtures


@pytest.fixture(scope="module")
def splits10():
    return datasets.standard_datasets(10, seed=0)


@pytest.fixture(scope="module")
def splits5():
    return datasets.standard_datasets(5, seed=0)


@pytest.fixture(scope="module")
def trained10(splits10):
    (x_tr, y_tr), (x_te, y_te) = splits10["train"], splits10["test"]
    return fit_sparse(10, x_tr, y_tr, x_te, y_te)


@pytest.fixture(scope="module")
def trained5(splits5):
    (x_tr, y_tr), (x_te, y_te) = splits5["train"], splits5["test"]
    return fit_sparse(5, x_tr, y_tr, x_te, y_te)


@pytest.fixture(scope="module")
def mc_report():
    return harness.run_monte_carlo(
        ["kan:paper-eq7-m10", "oscfar:1e-3", "oscfar:1e-4"],
        n_trials=350,
        seed=0,
    )


# ---------------------------------------------------------------------------
# criteria


def test_01_map_geometry(config, acceptance_log):
    geo = derive_geometry(config)
    err_r = abs(geo.range_res - 0.3516) / 0.3516
    err_v = abs(geo.vel_res - 0.3044) / 0.3044
    record(
        acceptance_log, 1, "map geometry",
        err_r <= 1e-3 and err_v <= 1e-3,
        f"range_res={geo.range_res:.6f} m vs 0.3516 (rel {err_r:.2e}), "
        f"vel_res={geo.vel_res:.6f} m/s vs 0.3044 (rel {err_v:.2e})",
    )


def test_02_noise_cells_exponential(config, acceptance_log):
    # 4 unwindowed periodograms of pure noise = 131072 cells
    rng = np.random.default_rng(1234)
    cells = np.concatenate([
        rdmap.compute_rd_map(radarsim.synth_if_cube([], config, rng=rng)).power.ravel()
        for _ in range(4)
    ])
    scale = cells.mean()  # fitted exponential: MLE of the scale
    ks = stats.kstest(cells / scale, "expon")
    record(
        acceptance_log, 2, "noise-cell statistics",
        cells.size >= 100_000 and ks.pvalue >= 0.01,
        f"{cells.size} cells, fitted scale {scale:.1f}, "
        f"KS D={ks.statistic:.5f} p={ks.pvalue:.4f} (need p>=0.01)",
    )


def test_03_classifier_accuracy(splits10, splits5, trained10, trained5, acceptance_log):
    n_tr = splits10["train"][0].shape[0]
    n_te = splits10["test"][0].shape[0]
    acc10 = accuracy(trained10.model, *splits10["test"])
    acc5 = accuracy(trained5.model, *splits5["test"])
    record(
        acceptance_log, 3, "trained accuracy",
        n_tr == 20988 and n_te == 5248 and acc10 >= 0.97 and acc5 >= 0.96,
        f"{n_tr} train / {n_te} test segments; "
        f"M=10 acc={acc10:.4f} (need >=0.97), M=5 acc={acc5:.4f} (need >=0.96)",
    )


def test_04_first_bin_dominance(splits10, splits5, trained10, acceptance_log):
    cases = [
        ("paper-eq7-m10", symbolic.builtin_rule("paper-eq7-m10"), splits10["test"][0]),
        ("paper-eq8-m5", symbolic.builtin_rule("paper-eq8-m5"), splits5["test"][0]),
        ("snapped-m10", symbolic.snap(trained10.model, "snapped-m10"), splits10["test"][0]),
    ]
    flips = {}
    for name, rule, x_all in cases:
        x_zero = np.zeros_like(x_all)
        x_zero[:, 0] = x_all[:, 0]
        flips[name] = float(
            np.mean(symbolic.eval_rule(rule, x_zero) != symbolic.eval_rule(rule, x_all))
        )
    record(
        acceptance_log, 4, "x0 dominance",
        all(v <= 0.01 for v in flips.values()),
        "decision flips after zeroing x1.. : "
        + ", ".join(f"{k}={v:.4%}" for k, v in flips.items())
        + " (need <=1% each)",
    )


def _decide_at(rule, x0):
    x = np.zeros((1, rule.m_bins))
    x[0, 0] = x0
    return int(symbolic.eval_rule(rule, x)[0])


def test_05_rule_operating_points(acceptance_log):
    crossings = {}
    for name in ("paper-eq7-m10", "paper-eq8-m5"):
        rule = symbolic.builtin_rule(name)
        xs = np.linspace(0.0, 1.0, 100_001)
        x = np.zeros((xs.size, rule.m_bins))
        x[:, 0] = xs
        scores = symbolic.rule_scores(rule, x)
        margin = scores[:, 1] - scores[:, 0]
        i = int(np.flatnonzero(np.diff(np.signbit(margin)))[0])
        # linear refinement between the sign-change grid points
        cross = xs[i] - margin[i] * (xs[i + 1] - xs[i]) / (margin[i + 1] - margin[i])
        assert abs(cross - symbolic.rule_crossover(rule)) < 1e-6
        crossings[name] = cross
    sides = [
        _decide_at(symbolic.builtin_rule(n), v)
        for n in ("paper-eq7-m10", "paper-eq8-m5")
        for v in (0.92, 0.60)
    ]
    ok = (
        abs(crossings["paper-eq7-m10"] - 0.7684) <= 5e-4
        and abs(crossings["paper-eq8-m5"] - 0.8838) <= 5e-4
        and sides == [1, 0, 1, 0]
    )
    record(
        acceptance_log, 5, "rule operating points",
        ok,
        f"crossovers {crossings['paper-eq7-m10']:.6f} (0.7684+-5e-4) / "
        f"{crossings['paper-eq8-m5']:.6f} (0.8838+-5e-4); "
        f"x0=0.92 -> H1 and x0=0.60 -> H0 for both rules: {sides == [1, 0, 1, 0]}",
    )


def test_06_decay_rate_separation(config, acceptance_log):
    # geometric histograms with the two reference first-bin heights
    anchor_errs = []
    for p0, expect in ((0.9243, 25.809), (0.6062, 9.32)):
        h = p0 * (1 - p0) ** np.arange(10)
        lam = symbolic.fit_decay_rates(h / h.sum())
        anchor_errs.append(abs(lam - expect))
    # fresh simulated batches: target rates must beat noise rates every time
    rng = np.random.default_rng(60623)
    gaps = []
    for _ in range(12):
        x, y = datasets.build_labeled_segments(
            datasets.IN_DISTRIBUTION, 60, 10, rng, config
        )
        rates = symbolic.fit_decay_rates(x)
        lam1 = rates[y == 1][np.isfinite(rates[y == 1])]
        lam0 = rates[y == 0][np.isfinite(rates[y == 0])]
        gaps.append(float(lam1.mean() - lam0.mean()))
    record(
        acceptance_log, 6, "histogram decay rates",
        all(e <= 0.01 for e in anchor_errs) and all(g > 0 for g in gaps),
        f"anchor errors {anchor_errs[0]:.4f}/{anchor_errs[1]:.4f} (need <=0.01); "
        f"target-minus-noise rate gap over 12 batches: "
        f"min {min(gaps):.2f}, max {max(gaps):.2f} (need >0)",
    )


def test_07_cfar_false_alarm_calibration(acceptance_log):
    designs = (1e-3, 1e-4, 1e-5, 1e-6)
    alphas = [oscfar.solve_alpha(p) for p in designs]
    ladder_ok = all(a < b for a, b in zip(alphas, alphas[1:]))
    # empirical check is feasible only for the two looser designs
    configs = [oscfar.make_os_cfar_config(p) for p in (1e-3, 1e-4)]
    rates, total = oscfar.empirical_false_alarm_rate(configs, 10_000_000, seed=7)
    emp_ok = total >= 10_000_000 and all(
        0.3 * p <= r <= 3.0 * p for r, p in zip(rates, (1e-3, 1e-4))
    )
    record(
        acceptance_log, 7, "CFAR calibration",
        ladder_ok and emp_ok,
        f"measured {rates[0]:.3e}/{rates[1]:.3e} vs designs 1e-3/1e-4 "
        f"over {total} CUTs (band 0.3x..3x); threshold ladder "
        + " < ".join(f"{a:.3f}" for a in alphas)
        + " strictly increasing toward 1e-5/1e-6",
    )


def test_08_detector_comparison(mc_report, acceptance_log):
    kan_pd, kan_fa = mc_report.row("kan:paper-eq7-m10")
    cfar3_pd, _ = mc_report.row("oscfar:1e-3")
    _, cfar4_fa = mc_report.row("oscfar:1e-4")
    snr = np.asarray(mc_report.snr_grid_db, dtype=float)
    hi, lo = snr >= 0.0, snr <= -10.0
    pd_ok = bool(np.all(kan_pd[hi] >= cfar3_pd[hi]))
    fa_ok = bool(np.all(kan_fa[lo] <= cfar4_fa[lo]))
    record(
        acceptance_log, 8, "detector comparison",
        mc_report.n_trials == 350 and pd_ok and fa_ok,
        f"{mc_report.n_trials} trials/point; "
        f"min Pd gap (kan - cfar 1e-3) at snr>=0: {float(np.min(kan_pd[hi] - cfar3_pd[hi])):+.4f}; "
        f"max kan FA at snr<=-10: {float(kan_fa[lo].max()):.2e} "
        f"vs cfar 1e-4 min {float(cfar4_fa[lo].min()):.2e}",
    )


def test_09_single_target_cardinality(config, acceptance_log):
    rule = symbolic.builtin_rule("paper-eq7-m10")
    n_trials = 350
    n_exactly_one = 0
    for ss in np.random.SeedSequence(314).spawn(n_trials):
        rng = np.random.default_rng(ss)
        scene = datasets.sample_scene(datasets.IN_DISTRIBUTION, rng)
        cube = radarsim.synth_if_cube(scene, config, snr_db=25.0, rng=rng)
        rd = rdmap.compute_rd_map(cube, window="hann")
        n_exactly_one += len(pipeline.detect(rd, rule)) == 1
    frac = n_exactly_one / n_trials
    record(
        acceptance_log, 9, "single-target cardinality",
        frac >= 0.95,
        f"exactly one detection in {n_exactly_one}/{n_trials} = {frac:.3f} "
        f"of 25 dB scenes (need >=0.95)",
    )


def test_10_numerical_exactness(acceptance_log):
    rng = np.random.default_rng(5)

    # analytic gradient vs central differences on packed parameters
    model = init_model(3, rng)
    x = rng.uniform(0, 1, (20, 3))
    y = rng.integers(0, 2, 20)
    y[:2] = [0, 1]
    _, (dc, db, ds) = loss_and_grad(model, x, y, l1=8e-3)
    grad = np.concatenate([dc.ravel(), db.ravel(), ds.ravel()])
    theta = _pack(model)
    h = 1e-6
    max_rel = 0.0
    for i in rng.choice(theta.size, size=12, replace=False):
        vals = []
        for sign in (+1, -1):
            t = theta.copy()
            t[i] += sign * h
            _unpack(model, t)
            vals.append(loss_and_grad(model, x, y, l1=8e-3)[0])
        fd = (vals[0] - vals[1]) / (2 * h)
        max_rel = max(max_rel, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8))
    _unpack(model, theta)
    grad_ok = max_rel <= 1e-4

    # spline bases sum to one everywhere inside the grid
    knots = uniform_knots(0.0, 1.0, grid_count=5)
    design = bspline_design(knots, np.linspace(0.0, 1.0, 501))
    unity_err = float(np.abs(design.sum(axis=1) - 1.0).max())
    unity_ok = unity_err <= 1e-9

    # histogram features equal a brute-force per-cell scan
    cells = rng.exponential(1.0, size=(17, 7))
    heights = rdmap.histogram_feature(cells, 10).histogram
    flat = cells.ravel()
    norm = (flat - flat.min()) / (flat.max() - flat.min())
    brute = np.zeros(10)
    for v in norm:
        brute[min(int(Fraction(v) * 10), 9)] += 1  # exact floor; at M=10 it agrees with linspace
    hist_ok = np.array_equal(heights, brute / flat.size)

    # IoU comes out as exact integer-area ratios
    a, b = pipeline.bbox_around((100, 50)), pipeline.bbox_around((109, 50))
    iou_ok = (
        pipeline.iou(a, a) == 1.0
        and pipeline.iou(a, b) == 56 / 182
        and pipeline.iou(a, pipeline.bbox_around((200, 100))) == 0.0
    )

    record(
        acceptance_log, 10, "numerical exactness",
        grad_ok and unity_ok and hist_ok and iou_ok,
        f"grad max rel err {max_rel:.2e} (<=1e-4); partition-of-unity err "
        f"{unity_err:.1e} (<=1e-9); histogram equals brute scan: {hist_ok}; "
        f"IoU exact 1.0 / 56/182 / 0.0: {iou_ok}",
    )


def test_11_runtime_scaling(acceptance_log):
    sweep = harness.sweep_runtime_scaling()
    cfar = harness.oscfar_runtime_scaling()
    sweep_ok = 0.7 <= sweep["exponent"] <= 1.3
    cfar_ok = (
        all(b > a for a, b in zip(cfar["seconds"], cfar["seconds"][1:]))
        and 0.6 <= cfar["exponent"] <= 1.4
    )
    record(
        acceptance_log, 11, "runtime scaling",
        sweep_ok and cfar_ok,
        f"sweep exponent {sweep['exponent']:.2f} vs segment count (need 1.0+-0.3); "
        f"CFAR exponent {cfar['exponent']:.2f} vs n_ref*log2(n_ref) with "
        f"strictly increasing timings over n_ref {cfar['n_ref']}",
    )
