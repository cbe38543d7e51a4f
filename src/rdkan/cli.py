"""Command line front end.

Subcommands mirror the library layers: simulate (IF cube synthesis),
train (segment classifier), snap (rule distillation), detect (one map
end to end), eval (Monte-Carlo detector comparison), bench (runtime
scaling).  Exit codes: 0 success, 2 bad usage or configuration, 3
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import datasets, harness, kan, pipeline, radarsim, rdmap, symbolic

EXIT_USAGE = 2
EXIT_FAILURE = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_FAILURE):
        super().__init__(message)
        self.code = code


def _load_radar_config(path) -> radarsim.RadarConfig:
    try:
        doc = json.loads(Path(path).read_text())
        return radarsim.RadarConfig(**doc)
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as err:
        raise CliError(f"bad radar config {path}: {err}", EXIT_USAGE) from None


def _config_from_args(args) -> radarsim.RadarConfig:
    if getattr(args, "config", None):
        return _load_radar_config(args.config)
    return radarsim.RadarConfig()


def _scenario(name: str) -> datasets.TargetScenario:
    table = {"in-distribution": datasets.IN_DISTRIBUTION, "shifted": datasets.SHIFTED}
    try:
        return table[name]
    except KeyError:
        raise CliError(
            f"unknown scenario {name!r}; expected one of {sorted(table)}", EXIT_USAGE
        ) from None


def _spec_error(spec: str, err: Exception) -> CliError:
    """A classifier spec that names no file is a rule name, so a bad one is
    bad usage; a file that fails to load is a runtime failure."""
    return CliError(str(err), EXIT_FAILURE if Path(spec).exists() else EXIT_USAGE)


def _finite(option: str, value):
    """value, unless it is a number that is NaN or infinite (None passes)."""
    if value is not None and not np.isfinite(value):
        raise CliError(f"{option} must be finite, got {value}", EXIT_USAGE)
    return value


def _check_train_options(args) -> None:
    """Bad numeric train options are usage errors, caught before any data is built."""
    for option, value in (("--l1", args.l1), ("--boost", args.boost)):
        if not (np.isfinite(value) and value >= 0):
            raise CliError(f"{option} must be finite and >= 0, got {value}", EXIT_USAGE)
    for option, value in (("--n-train", args.n_train), ("--n-test", args.n_test),
                          ("--few-shot", args.few_shot)):
        if value < 2 or value % 2:
            raise CliError(f"{option} must be even and >= 2 (classes are balanced), got {value}",
                           EXIT_USAGE)
    for option, value, least in (("--m-bins", args.m_bins, 2), ("--replay", args.replay, 1)):
        if value < least:
            raise CliError(f"{option} must be at least {least}, got {value}", EXIT_USAGE)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    _finite("--snr", args.snr)
    config = _config_from_args(args)
    rng = np.random.default_rng(args.seed)
    if args.scene:
        scene, config, sigma, snr = radarsim.scene_from_json(args.scene)
        if args.snr is not None:
            snr, sigma = args.snr, None
    else:
        scenario = _scenario(args.scenario)
        scene = datasets.sample_scene(scenario, rng)
        snr, sigma = args.snr, None if args.snr is not None else scenario.noise_sigma
    cube = radarsim.synth_if_cube(scene, config, snr_db=snr, noise_sigma=sigma, rng=rng)
    radarsim.save_cube(args.out, cube)
    target = scene[0]
    print(f"wrote {args.out}: {cube.samples.shape[0]}x{cube.samples.shape[1]} cube, "
          f"sigma={cube.noise_sigma:.4g}, target at {target.range_m:.1f} m / "
          f"{target.velocity_mps:.1f} m/s ({target.n_scatterers} scatterers)")
    if args.scene_out:
        radarsim.scene_to_json(args.scene_out, scene, config,
                               noise_sigma=cube.noise_sigma)
        print(f"wrote {args.scene_out}")
    if args.rd_out:
        rd = rdmap.compute_rd_map(cube, window=args.window)
        rdmap.save_rd_map(args.rd_out, rd)
        print(f"wrote {args.rd_out}")
    return 0


def cmd_train(args) -> int:
    _check_train_options(args)
    config = _config_from_args(args)
    scenario = _scenario(args.scenario)
    rng = np.random.default_rng(args.seed)
    X, y = datasets.build_labeled_segments(scenario, args.n_train, args.m_bins, rng, config)
    X_val, y_val = datasets.build_labeled_segments(scenario, args.n_test, args.m_bins, rng, config)

    if args.fine_tune_from:
        model = kan.load_model(args.fine_tune_from)
        if model.n_in != args.m_bins:
            raise CliError(f"checkpoint has {model.n_in} inputs, expected {args.m_bins}", EXIT_USAGE)
        few_rng = np.random.default_rng(args.seed + 1)
        X_few, y_few = datasets.build_labeled_segments(
            scenario, args.few_shot, args.m_bins, few_rng, config)
        replay = rng.choice(len(X), size=min(args.replay, len(X)), replace=False)
        result = kan.fine_tune(model, X[replay], y[replay], X_few, y_few,
                               boost=args.boost, l1=args.l1, X_val=X_val, y_val=y_val)
        mode = f"fine-tuned from {args.fine_tune_from} on {args.few_shot} shots"
    else:
        result = kan.fit_sparse(args.m_bins, X, y, X_val, y_val, args.l1)
        mode = f"trained on {len(X)} segments"

    kan.save_model(args.out, result.model)
    active = result.model.active_inputs()
    print(f"{mode}; train acc {result.train_accuracy:.4f}, "
          f"val acc {result.val_accuracy:.4f}, "
          f"{int(result.model.edge_mask.sum())} edges on inputs {list(active)}")
    print(f"wrote {args.out}")
    return 0


def cmd_snap(args) -> int:
    model = kan.load_model(args.model)
    rule = symbolic.snap(model, args.name or f"snapped-m{model.n_in}")
    symbolic.save_rule(args.out, rule)
    print(symbolic.rule_to_text(rule))
    flag = "fully symbolic" if rule.meta.get("fully_symbolic") else "contains spline fallbacks"
    print(f"wrote {args.out} ({flag})")
    return 0


def cmd_detect(args) -> int:
    min_margin = _finite("--min-margin", args.min_margin)  # None picks the calibrated floor
    cube = radarsim.load_cube(args.cube)
    rd = rdmap.compute_rd_map(cube, window=args.window)
    try:
        classifier = symbolic.load_classifier(args.classifier)
    except symbolic.RuleError as err:
        raise _spec_error(args.classifier, err) from None
    detections = pipeline.detect(rd, classifier, min_margin=min_margin)
    for det in detections:
        r_m = rd.geometry.bin_to_range(det.range_bin)
        v_mps = rd.geometry.bin_to_velocity(det.doppler_bin)
        print(f"bin ({det.range_bin}, {det.doppler_bin})  {r_m:7.2f} m  {v_mps:+6.2f} m/s  "
              f"margin {det.margin:.2f}  peak {det.peak_power:.3e}")
    print(f"{len(detections)} detection(s)")
    if args.out:
        pipeline.segment_detections_to_csv(args.out, detections, rd.geometry)
        print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    ids = [s.strip() for s in args.detectors.split(",") if s.strip()]
    if not ids:
        raise CliError("no detector ids given", EXIT_USAGE)
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}", EXIT_USAGE)
    try:
        snr_grid = [float(s) for s in args.snr_grid.split(",")]
        if not np.isfinite(snr_grid).all():
            raise ValueError
    except ValueError:
        raise CliError(f"--snr-grid: bad SNR grid {args.snr_grid!r}; expected finite dB values",
                       EXIT_USAGE) from None
    detectors = []
    for detector_id in ids:
        try:
            detectors.append(harness.detector_from_id(detector_id))
        except ValueError as err:
            raise _spec_error(detector_id.partition(":")[2], err) from None
    config = _config_from_args(args)
    report = harness.run_monte_carlo(
        detectors, snr_grid_db=snr_grid, n_trials=args.trials, seed=args.seed,
        scenario=_scenario(args.scenario), config=config,
    )
    print(report.table())
    if args.out:
        report.to_json(args.out)
        print(f"wrote {args.out}")
    if args.csv:
        report.to_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_bench(args) -> int:
    sweep = harness.sweep_runtime_scaling()
    cfar = harness.oscfar_runtime_scaling()
    print("sweep classify: segments", sweep["n_segments"])
    print("                seconds ", ["%.4f" % s for s in sweep["seconds"]])
    print(f"                log-log exponent vs segments: {sweep['exponent']:.3f}")
    print("os-cfar:        n_ref   ", cfar["n_ref"])
    print("                seconds ", ["%.4f" % s for s in cfar["seconds"]])
    print(f"                log-log exponent vs n_ref*log2(n_ref): {cfar['exponent']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"sweep": sweep, "oscfar": cfar}, indent=2))
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdkan",
        description="range-Doppler segment detection workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize an IF data cube")
    p.add_argument("--out", required=True, help="output cube path (.bin)")
    p.add_argument("--scene", help="replay a scene JSON instead of sampling")
    p.add_argument("--scenario", default="in-distribution")
    p.add_argument("--snr", type=float, default=None, help="SNR in dB (else scenario noise floor)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="radar config JSON")
    p.add_argument("--scene-out", help="also write the sampled scene JSON")
    p.add_argument("--rd-out", help="also write the RD map")
    p.add_argument("--window", default=None, choices=("hann",), help="RD window for --rd-out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the segment histogram classifier")
    p.add_argument("--out", required=True, help="model checkpoint path (.json)")
    p.add_argument("--m-bins", type=int, default=10)
    p.add_argument("--n-train", type=int, default=datasets.DATASET_SIZES["train"])
    p.add_argument("--n-test", type=int, default=datasets.DATASET_SIZES["test"])
    p.add_argument("--scenario", default="in-distribution")
    p.add_argument("--l1", type=float, default=kan.L1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="radar config JSON")
    p.add_argument("--fine-tune-from", help="checkpoint to adapt instead of training fresh")
    p.add_argument("--few-shot", type=int, default=datasets.DATASET_SIZES["few_shot"])
    p.add_argument("--replay", type=int, default=500)
    p.add_argument("--boost", type=float, default=10.0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("snap", help="distill a checkpoint into a symbolic rule")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_snap)

    p = sub.add_parser("detect", help="run the detection pipeline on one cube")
    p.add_argument("--cube", required=True)
    p.add_argument("--classifier", default="paper-eq7-m10",
                   help="builtin rule name, rule JSON, or checkpoint JSON")
    p.add_argument("--window", default="hann", choices=("hann",))
    p.add_argument("--min-margin", type=float, default=None)
    p.add_argument("--out", help="detections CSV")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="Monte-Carlo detector comparison")
    p.add_argument("--detectors", default="kan:paper-eq7-m10,oscfar:1e-3,oscfar:1e-4")
    p.add_argument("--trials", type=int, default=350)
    p.add_argument("--snr-grid", default=",".join(str(s) for s in harness.SNR_GRID_DB))
    p.add_argument("--scenario", default="in-distribution")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="radar config JSON")
    p.add_argument("--out", help="report JSON")
    p.add_argument("--csv", help="report CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="runtime scaling of both detectors")
    p.add_argument("--out", help="results JSON")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (kan.TrainingError, kan.PruneError, OSError, ValueError) as err:
        # ValueError covers the domain errors (ConfigError, SceneError,
        # RuleError, SegmentError) and bad file formats
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
