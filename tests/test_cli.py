"""Command line flows and exit codes, driven through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rdkan import cli
from rdkan.cli import EXIT_FAILURE, EXIT_USAGE, main
from rdkan.kan import init_model, load_model, save_model
from rdkan.radarsim import load_cube, save_cube
from rdkan.symbolic import builtin_rule, load_rule, save_rule

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFullFlow:
    def test_simulate_detect_train_snap_eval(self, tmp_path, capsys):
        cube_path = tmp_path / "dwell.bin"
        scene_path = tmp_path / "scene.json"
        rd_base = tmp_path / "map"

        code, out, _ = run(
            capsys, "simulate", "--out", str(cube_path), "--seed", "3",
            "--snr", "15", "--scene-out", str(scene_path),
            "--rd-out", str(rd_base), "--window", "hann",
        )
        assert code == 0
        assert "wrote" in out and "target at" in out
        cube = load_cube(cube_path)
        assert cube.samples.shape == (256, 128)
        assert rd_base.with_suffix(".bin").exists()
        assert rd_base.with_suffix(".json").exists()

        # replaying the scene file reproduces the recorded noise level
        replay_path = tmp_path / "replay.bin"
        code, out, _ = run(
            capsys, "simulate", "--out", str(replay_path),
            "--scene", str(scene_path), "--seed", "4",
        )
        assert code == 0
        assert load_cube(replay_path).noise_sigma == pytest.approx(cube.noise_sigma)

        # detection with the shipped ten-bin rule finds the target
        det_csv = tmp_path / "dets.csv"
        code, out, _ = run(
            capsys, "detect", "--cube", str(cube_path), "--out", str(det_csv),
        )
        assert code == 0
        n_dets = int(out.strip().splitlines()[-2].split()[0])
        assert n_dets >= 1
        assert det_csv.read_text().startswith("range_bin,")

        # a small training run produces a loadable checkpoint
        model_path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "train", "--out", str(model_path),
            "--n-train", "600", "--n-test", "200", "--seed", "0",
        )
        assert code == 0
        assert "train acc" in out
        model = load_model(model_path)
        assert model.n_in == 10
        # plain ints, not numpy scalar reprs
        assert out.splitlines()[0].endswith(f"on inputs {model.active_inputs().tolist()}")

        # distillation into a rule, then detection with that rule
        rule_path = tmp_path / "rule.json"
        code, out, _ = run(
            capsys, "snap", "--model", str(model_path), "--out", str(rule_path),
        )
        assert code == 0
        assert "decide H1" in out
        rule = load_rule(rule_path)
        assert rule.m_bins == 10

        code, out, _ = run(
            capsys, "detect", "--cube", str(cube_path),
            "--classifier", str(rule_path), "--min-margin", "2.0",
        )
        assert code == 0
        assert int(out.strip().splitlines()[-1].split()[0]) >= 1

        # tiny Monte-Carlo comparison with both report files
        eval_json = tmp_path / "eval.json"
        eval_csv = tmp_path / "eval.csv"
        code, out, _ = run(
            capsys, "eval", "--detectors", "oscfar:1e-3", "--trials", "2",
            "--snr-grid", "0,10", "--out", str(eval_json), "--csv", str(eval_csv),
        )
        assert code == 0
        assert "SNR(dB)" in out
        doc = json.loads(eval_json.read_text())
        assert doc["format"] == "rdkan-eval-v1"
        assert np.asarray(doc["pd"]).shape == (1, 2)
        assert eval_csv.read_text().startswith("snr_db,")


class TestEvalClassifierIds:
    def test_checkpoint_and_rule_json_ids(self, tmp_path, capsys):
        rule_path = tmp_path / "rule.json"
        save_rule(rule_path, builtin_rule("paper-eq7-m10"))
        ids = [f"kan:{PERFBENCH / 'sparse-m10.json'}", f"kan:{rule_path}"]
        eval_json = tmp_path / "eval.json"
        code, _, _ = run(capsys, "eval", "--detectors", ",".join(ids), "--trials", "1",
                           "--snr-grid", "20", "--out", str(eval_json))
        assert code == 0
        doc = json.loads(eval_json.read_text())
        assert doc["detector_ids"] == ids and doc["n_trials"] == 1
        assert all(0.0 <= row[0] <= 1.0 for row in doc["pd"])


class TestExitCodes:
    def test_unknown_scenario_is_usage(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path / "c.bin"), "--scenario", "weather",
        )
        assert code == EXIT_USAGE
        assert "unknown scenario" in err

    def test_missing_cube_is_failure(self, tmp_path, capsys):
        code, _, err = run(capsys, "detect", "--cube", str(tmp_path / "absent.bin"))
        assert code == EXIT_FAILURE
        assert "error:" in err

    def test_unknown_builtin_classifier_is_usage(self, tmp_path, capsys):
        cube_path = tmp_path / "c.bin"
        assert run(capsys, "simulate", "--out", str(cube_path), "--seed", "0")[0] == 0
        code, _, err = run(
            capsys, "detect", "--cube", str(cube_path), "--classifier", "paper-eq9-m3",
        )
        assert code == EXIT_USAGE
        assert "available" in err

    @pytest.mark.parametrize(
        "defect", ["input-out-of-range", "one-expr", "spline-without-knots", "spline-short-knots",
                   "nan-param", "inf-bias", "string-param", "string-bias", "string-m-bins",
                   "unknown-kind", "fractional-m-bins", "one-bin", "fractional-input",
                   "bool-input"])
    def test_malformed_rule_is_failure(self, defect, tmp_path, capsys):
        cube_path = tmp_path / "c.bin"
        assert run(capsys, "simulate", "--out", str(cube_path), "--seed", "0")[0] == 0
        rule_path = tmp_path / "rule.json"
        save_rule(rule_path, builtin_rule("paper-eq7-m10"))
        doc = json.loads(rule_path.read_text())
        if defect == "input-out-of-range":
            doc["exprs"][1]["terms"][0]["input"] = 12
        elif defect == "one-expr":
            doc["exprs"] = doc["exprs"][:1]
        elif defect == "spline-without-knots":
            doc["exprs"][0]["terms"][0] = {"kind": "spline", "input": 0, "params": []}
        elif defect == "nan-param":
            doc["exprs"][1]["terms"][0]["params"][0] = float("nan")  # the h1 slope
        elif defect == "inf-bias":
            doc["exprs"][0]["bias"] = float("inf")
        elif defect == "string-param":
            doc["exprs"][1]["terms"][0]["params"][0] = "abc"
        elif defect == "string-bias":
            doc["exprs"][0]["bias"] = "abc"
        elif defect == "string-m-bins":
            doc["m_bins"] = "ten"
        elif defect == "unknown-kind":
            doc["exprs"][1]["terms"][0]["kind"] = "cubic"
        elif defect == "fractional-m-bins":
            doc["m_bins"] = 10.7
        elif defect == "one-bin":
            doc["m_bins"] = 1
        elif defect == "fractional-input":
            doc["exprs"][1]["terms"][0]["input"] = 0.9
        elif defect == "bool-input":
            doc["exprs"][1]["terms"][0]["input"] = True
        else:
            # 2 knots and 2 coeffs imply no B-spline
            doc["exprs"][0]["terms"][0] = {"kind": "spline", "input": 0, "params": [],
                                           "knots": [0.0, 1.0], "coeffs": [1.0, 1.0]}
        rule_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "detect", "--cube", str(cube_path), "--classifier", str(rule_path))
        assert code == EXIT_FAILURE
        # refused by load_rule, whose messages name the file
        assert err.startswith(f"error: {rule_path}:")
        assert "detection(s)" not in out

    @pytest.mark.parametrize("defect", ["no-base-scale", "one-row-edge-mask", "null-base-scale",
                                        "one-input", "meta-list"])
    def test_malformed_checkpoint_is_failure(self, defect, tmp_path, capsys):
        cube_path = tmp_path / "c.bin"
        assert run(capsys, "simulate", "--out", str(cube_path), "--seed", "0")[0] == 0
        model_path = tmp_path / "model.json"
        save_model(model_path, init_model(1 if defect == "one-input" else 10, np.random.default_rng(0)))
        doc = json.loads(model_path.read_text())
        if defect == "one-input":
            pass  # saved as is
        elif defect == "no-base-scale":
            del doc["base_scale"]
        elif defect == "one-row-edge-mask":
            doc["edge_mask"] = doc["edge_mask"][:1]
        elif defect == "meta-list":
            doc["meta"] = [1]
        else:
            doc["base_scale"][0][0] = None
        model_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "detect", "--cube", str(cube_path), "--classifier", str(model_path))
        assert code == EXIT_FAILURE
        # refused by load_model, whose messages name the file
        assert err.startswith(f"error: {model_path}:")
        assert "detection(s)" not in out

    @pytest.mark.parametrize("defect", ["no-targets", "unknown-scatterer-key", "targets-object",
                                        "top-level-list", "string-amplitude", "no-target",
                                        "nan-range", "no-scatterers"])
    def test_malformed_scene_is_failure(self, defect, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        assert run(capsys, "simulate", "--out", str(tmp_path / "c.bin"), "--seed", "0",
                   "--scene-out", str(scene_path))[0] == 0
        doc = json.loads(scene_path.read_text())
        target = doc["targets"][0]
        if defect == "no-targets":
            del doc["targets"]
        elif defect == "unknown-scatterer-key":
            target["scatterers"][0]["weight"] = 1.0
        elif defect == "targets-object":
            doc["targets"] = target
        elif defect == "top-level-list":
            doc = [doc]
        elif defect == "string-amplitude":
            target["scatterers"][0]["amplitude"] = "loud"
        elif defect == "no-target":
            doc["targets"] = []
        elif defect == "no-scatterers":
            target["scatterers"] = []  # scene_from_json takes it; synthesis refuses it
        else:
            target["range_m"] = float("nan")
        scene_path.write_text(json.dumps(doc))
        replay_path = tmp_path / "replay.bin"
        code, _, err = run(capsys, "simulate", "--out", str(replay_path), "--scene", str(scene_path))
        assert code == EXIT_FAILURE
        assert err.startswith(f"error: {scene_path}:")
        assert not replay_path.exists()

    @pytest.mark.parametrize("command", ["snap", "eval"])
    def test_one_input_checkpoint_is_failure(self, command, tmp_path, capsys):
        model_path = tmp_path / "one.json"
        save_model(model_path, init_model(1, np.random.default_rng(0)))
        argv = {"snap": ["snap", "--model", str(model_path), "--out", str(tmp_path / "one-rule.json")],
                "eval": ["eval", "--detectors", f"kan:{model_path}", "--trials", "1"]}[command]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_FAILURE
        assert err.startswith(f"error: {model_path}: n_in must be >= 2")
        assert list(tmp_path.iterdir()) == [model_path]  # nothing written

    def test_non_finite_cube_is_failure(self, tmp_path, capsys):
        cube_path = tmp_path / "c.bin"
        assert run(capsys, "simulate", "--out", str(cube_path), "--seed", "0")[0] == 0
        cube = load_cube(cube_path)
        cube.samples[5, 5] = np.nan
        save_cube(cube_path, cube)
        code, out, err = run(capsys, "detect", "--cube", str(cube_path))
        assert code == EXIT_FAILURE
        assert "non-finite" in err
        assert "detection(s)" not in out

    def test_wrong_checkpoint_format_is_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "rdkan-rule-v1", "name": "x", "m_bins": 2, "exprs": []}')
        code, _, err = run(capsys, "snap", "--model", str(bad), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_FAILURE
        assert "checkpoint" in err

    def test_bad_detector_id_is_usage(self, capsys):
        code, _, err = run(capsys, "eval", "--detectors", "maser:1e-3", "--trials", "1")
        assert code == EXIT_USAGE

    def test_bad_snr_grid_is_usage(self, capsys):
        code, _, err = run(
            capsys, "eval", "--detectors", "oscfar:1e-3", "--snr-grid", "0,ten",
        )
        assert code == EXIT_USAGE
        assert "SNR grid" in err

    @pytest.mark.parametrize("argv, option", [
        (["detect", "--cube", "absent.bin", "--min-margin", "nan"], "--min-margin"),
        (["simulate", "--out", "cube.bin", "--snr", "nan"], "--snr"),
        (["simulate", "--out", "cube.bin", "--snr", "inf"], "--snr"),
        (["eval", "--trials", "0"], "--trials"),
        (["eval", "--trials", "-1"], "--trials"),
        (["eval", "--snr-grid", "nan"], "--snr-grid"),
        (["eval", "--snr-grid", "0,-inf"], "--snr-grid"),
        (["train", "--out", "m.json", "--l1", "nan"], "--l1"),
        (["train", "--out", "m.json", "--l1", "-1"], "--l1"),
        (["train", "--out", "m.json", "--boost", "inf"], "--boost"),
        (["train", "--out", "m.json", "--boost", "-0.5"], "--boost"),
        (["train", "--out", "m.json", "--n-train", "0"], "--n-train"),
        (["train", "--out", "m.json", "--n-train", "41"], "--n-train"),
        (["train", "--out", "m.json", "--n-test", "1"], "--n-test"),
        (["train", "--out", "m.json", "--few-shot", "7"], "--few-shot"),
        (["train", "--out", "m.json", "--m-bins", "1"], "--m-bins"),
        (["train", "--out", "m.json", "--replay", "0"], "--replay"),
        (["simulate", "--out", "cube.bin", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["train", "--out", "m.json", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["eval", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ])
    def test_bad_numeric_argument_is_usage(self, argv, option, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {option}")
        assert out == ""
        assert not (tmp_path / "cube.bin").exists() and not (tmp_path / "m.json").exists()

    def test_overflowing_l1_is_one_error_line(self, tmp_path, capsys):
        # a finite --l1 can still overflow the penalty: the fit stops on the
        # non-finite loss with no numpy warning before the error
        model_path = tmp_path / "m.json"
        code, out, err = run(capsys, "train", "--out", str(model_path), "--l1", "1e308",
                             "--n-train", "200", "--n-test", "100")
        assert code == EXIT_FAILURE
        assert err == "error: non-finite loss\n"
        assert out == "" and not model_path.exists()

    def test_eval_detector_classifier_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(capsys, "eval", "--detectors", "kan:paper-eq9-m3", "--trials", "1")[0] == EXIT_USAGE
        code, _, err = run(capsys, "eval", "--detectors", f"kan:{bad}", "--trials", "1")
        assert code == EXIT_FAILURE
        assert err.startswith(f"error: {bad}:")

    def test_empty_detectors_is_usage(self, capsys):
        code, _, _ = run(capsys, "eval", "--detectors", " , ")
        assert code == EXIT_USAGE

    def test_bad_radar_config_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_samples": 100}')  # not a power of two
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path / "c.bin"), "--config", str(cfg),
        )
        assert code == EXIT_USAGE
        assert "bad radar config" in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "detect"])
    def test_window_help_lists_only_accepted_values(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--window {hann}" in capsys.readouterr().out

    def test_mismatched_fine_tune_checkpoint(self, tmp_path, capsys):
        model_path = tmp_path / "m5.json"
        code, _, _ = run(
            capsys, "train", "--out", str(model_path), "--m-bins", "5",
            "--n-train", "300", "--n-test", "100",
        )
        assert code == 0
        code, _, err = run(
            capsys, "train", "--out", str(tmp_path / "m10.json"),
            "--fine-tune-from", str(model_path), "--m-bins", "10",
            "--n-train", "300", "--n-test", "100",
        )
        assert code == EXIT_USAGE
        assert "expected 10" in err


class TestConfigOverride:
    def test_custom_config_changes_cube_shape(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_samples": 128, "n_chirps": 64}))
        cube_path = tmp_path / "small.bin"
        code, _, _ = run(
            capsys, "simulate", "--out", str(cube_path), "--config", str(cfg),
            "--seed", "1",
        )
        assert code == 0
        assert load_cube(cube_path).samples.shape == (128, 64)


class TestBenchmarkTraceHooks:
    def test_hooks_bind_on_checkpoint_detect(self, tmp_path, capsys, monkeypatch):
        # the benchmark's span tracer wraps rdkan functions by name and its
        # counter hooks read their arguments and results; a renamed function,
        # parameter or field shows up as missing or as a hook error
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from spans import Tracer

        cube_path = tmp_path / "c.bin"
        assert run(capsys, "simulate", "--out", str(cube_path), "--seed", "3", "--snr", "15")[0] == 0
        tracer = Tracer()
        tracer.install()
        try:
            code = cli.main(["detect", "--cube", str(cube_path),
                             "--classifier", str(PERFBENCH / "sparse-m10.json")])
        finally:
            tracer.uninstall()
        assert code == 0
        assert tracer.missing == []
        assert tracer.counters["hook_errors"] == 0
        assert tracer.counters["sweep_hits"] > 0


class TestImports:
    def test_detection_path_loads_no_optimizer(self):
        # only train, snap and rule_crossover minimize or root-find, so the
        # detect and eval imports leave scipy.optimize unloaded, and the
        # OS-CFAR baseline imports no other rdkan module
        probe = ("import json, sys, rdkan.oscfar\n"
                 "alone = sorted(m for m in sys.modules if m.startswith('rdkan'))\n"
                 "import rdkan.pipeline, rdkan.harness, rdkan.cli\n"
                 "print(json.dumps([alone, 'scipy.optimize' in sys.modules]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [["rdkan", "rdkan.oscfar"], False]
