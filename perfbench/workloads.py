"""The benchmark's workloads.

Each workload is one closed loop with a single client: the next operation
starts when the previous one has returned.  A workload builds its inputs
from the run seed in setup(), runs operation k with run(k), and judges
each output with check().  reference() runs a small fixed case built from
REFERENCE_SEED whose decision-level summary (integer hit counts, detection
centers, active inputs, false-alarm counts) must equal references.json,
recorded at the commit that defined the benchmark.  It doubles as the
warm-up before timing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
from pathlib import Path

import numpy as np

from rdkan import cli, datasets, harness, kan, oscfar, radarsim, symbolic

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "sparse-m10.json"
REFERENCES = HERE / "references.json"
REFERENCE_SEED = 0

# decision thresholds the acceptance gates use
PFA_BAND = (0.3, 3.0)          # gate 7: measured Pfa within 0.3x..3x of design
MIN_VAL_ACCURACY = 0.97        # gate 3: trained classifier accuracy
NMS_MAX_IOU = 0.40             # pipeline.NMS_IOU_THRESHOLD: kept boxes overlap at most this

SEGMENT_HALF = (8, 3)          # 17x7 segment around a detection center


def op_seed(tag: str, seed: int, k: int) -> int:
    """Independent integer seed for operation k of a run."""
    entropy = [seed, k] + list(tag.encode())
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def integer_counts(values, scale) -> np.ndarray:
    """Recover integer counts from rates; raises if they are not integral."""
    counts = np.asarray(values, dtype=float) * scale
    rounded = np.rint(counts)
    if not np.all(np.abs(counts - rounded) < 1e-6):
        raise ValueError(f"rates do not come from integer counts: {counts.ravel()[:4]}")
    return rounded.astype(np.int64)


class Workload:
    name = ""
    pass_len = 1       # timing ends on a whole pass over this many inputs

    def setup(self, seed: int, workdir: Path, toy: bool = False) -> None:
        raise NotImplementedError

    def reference(self) -> dict:
        raise NotImplementedError

    def run(self, k: int):
        raise NotImplementedError

    def check(self, output) -> list:
        raise NotImplementedError

    def units(self, output) -> float:
        """Work in one output for the throughput metric: trials, dwells,
        trained models, or millions of CUTs."""
        return 1.0


# ---------------------------------------------------------------------------
# mc-compare: the gate-8 / `rdkan eval` load


class McCompare(Workload):
    name = "mc-compare"
    detector_ids = ("kan:paper-eq7-m10", "oscfar:1e-3", "oscfar:1e-4")

    def setup(self, seed, workdir, toy=False):
        self.seed = seed
        self.detectors = [harness.detector_from_id(d) for d in self.detector_ids]
        config = radarsim.RadarConfig()
        # tested segments (17x7 sweep) and CUTs (17x7 window) per map agree
        self.cells_per_map = (config.n_samples - 16) * (config.n_chirps - 6)

    def _trial(self, seed):
        return harness.run_monte_carlo(self.detectors, harness.SNR_GRID_DB, n_trials=1, seed=seed)

    def _counts(self, report):
        hits = integer_counts(report.pd, report.n_trials)
        false_alarms = integer_counts(report.fa, report.n_trials * self.cells_per_map)
        return hits, false_alarms

    def reference(self):
        hits, false_alarms = self._counts(self._trial(REFERENCE_SEED))
        return {"hits": hits.tolist(), "false_alarms": false_alarms.tolist()}

    def run(self, k):
        return self._trial(op_seed(self.name, self.seed, k))

    def check(self, report):
        problems = []
        if list(report.detector_ids) != list(self.detector_ids):
            problems.append(f"detector ids {report.detector_ids}")
        if not (np.all(np.isfinite(report.pd)) and np.all((report.pd >= 0) & (report.pd <= 1))):
            problems.append(f"Pd outside [0, 1]: {report.pd.tolist()}")
        try:
            _, false_alarms = self._counts(report)
            if np.any(false_alarms < 0):
                problems.append("negative false-alarm count")
        except ValueError as err:
            problems.append(str(err))
        return problems


# ---------------------------------------------------------------------------
# detect-rule / detect-ckpt: one dwell, cube file to detections, via the CLI


class Detect(Workload):
    # (targets, SNR dB): the same mix every seed, SNRs from SNR_GRID_DB;
    # the first three are the reference dwells
    schedule = ((1, 25), (6, 25), (3, 10), (2, -5), (5, 20), (4, 0),
                (1, -15), (6, 15), (2, 5), (3, 20), (5, -10), (4, 25))
    n_reference = 3

    def __init__(self, name, classifier):
        self.name = name
        self.classifier = classifier

    def setup(self, seed, workdir, toy=False):
        self.seed = seed
        schedule = self.schedule[: self.n_reference] if toy else self.schedule
        self.pass_len = len(schedule)
        self.csv_path = workdir / f"{self.name}.csv"
        self.dwells = self._write_dwells(workdir, f"seed{seed}", seed, schedule)
        self.reference_dwells = self._write_dwells(
            workdir, "reference", REFERENCE_SEED, self.schedule[: self.n_reference])

    @staticmethod
    def _write_dwells(workdir, label, seed, schedule):
        config = radarsim.RadarConfig()
        rng = np.random.default_rng(op_seed("dwells", seed, 0))
        paths = []
        for i, (n_targets, snr_db) in enumerate(schedule):
            scene = [datasets.sample_scene(datasets.IN_DISTRIBUTION, rng)[0] for _ in range(n_targets)]
            cube = radarsim.synth_if_cube(scene, config, snr_db=float(snr_db), rng=rng)
            path = workdir / f"{label}-{i:02d}.bin"
            radarsim.save_cube(path, cube)
            paths.append(path)
        return paths

    def _detect(self, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(["detect", "--cube", str(path), "--classifier", self.classifier,
                             "--out", str(self.csv_path)])
        printed = re.search(r"^(\d+) detection\(s\)$", out.getvalue(), re.MULTILINE)
        rows = []
        if code == 0:
            with open(self.csv_path, newline="") as fh:
                rows = [(int(r["range_bin"]), int(r["doppler_bin"]), float(r["margin"]))
                        for r in csv.DictReader(fh)]
        return {"code": code, "printed": int(printed.group(1)) if printed else None, "rows": rows,
                "text": out.getvalue()[-300:]}

    def reference(self):
        return {"centers": [[[r, d] for r, d, _ in self._detect(p)["rows"]]
                            for p in self.reference_dwells]}

    def run(self, k):
        return self._detect(self.dwells[k % len(self.dwells)])

    def check(self, output):
        if output["code"] != 0:
            return [f"exit code {output['code']}: {output['text']}"]
        rows = output["rows"]
        problems = []
        if output["printed"] != len(rows):
            problems.append(f"printed {output['printed']} detections, CSV has {len(rows)}")
        if any(margin <= 0 for _, _, margin in rows):
            problems.append("detection with non-positive margin")
        boxes = [(r - SEGMENT_HALF[0], r + SEGMENT_HALF[0], d - SEGMENT_HALF[1], d + SEGMENT_HALF[1])
                 for r, d, _ in rows]
        worst = max((box_iou(a, b) for i, a in enumerate(boxes) for b in boxes[i + 1:]), default=0.0)
        if worst > NMS_MAX_IOU:
            problems.append(f"kept boxes overlap with IoU {worst:.3f} > {NMS_MAX_IOU}")
        return problems


def box_iou(a, b) -> float:
    """IoU of inclusive bin boxes (r0, r1, d0, d1)."""
    ir = min(a[1], b[1]) - max(a[0], b[0]) + 1
    idd = min(a[3], b[3]) - max(a[2], b[2]) + 1
    if ir <= 0 or idd <= 0:
        return 0.0
    inter = ir * idd
    area_a = (a[1] - a[0] + 1) * (a[3] - a[2] + 1)
    area_b = (b[1] - b[0] + 1) * (b[3] - b[2] + 1)
    return inter / (area_a + area_b - inter)


# ---------------------------------------------------------------------------
# train-snap: labeled segments, sparse fit, symbolic snap


class TrainSnap(Workload):
    name = "train-snap"
    m_bins = 10
    # train, validation segments: small enough that a run holds ~9 models,
    # whose median evens out how many L-BFGS steps each data draw needs
    sizes = (1000, 400)

    def setup(self, seed, workdir, toy=False):
        self.seed = seed

    def run(self, k):
        rng = np.random.default_rng(op_seed(self.name, self.seed, k))
        X, y = datasets.build_labeled_segments(datasets.IN_DISTRIBUTION, self.sizes[0], self.m_bins, rng)
        X_val, y_val = datasets.build_labeled_segments(datasets.IN_DISTRIBUTION, self.sizes[1], self.m_bins, rng)
        result = kan.fit_sparse(self.m_bins, X, y, X_val, y_val)
        rule = symbolic.snap(result.model, "bench-snap")
        return {"result": result, "rule": rule, "X_val": X_val}

    def reference(self):
        """Operation 0 of the reference seed."""
        seed, self.seed = self.seed, REFERENCE_SEED
        try:
            result = self.run(0)["result"]
        finally:
            self.seed = seed
        return {"active_inputs": result.model.active_inputs().tolist(),
                "val_correct": int(round(result.val_accuracy * self.sizes[1])),
                "n_val": self.sizes[1]}

    def check(self, output):
        result, problems = output["result"], []
        if result.val_accuracy is None or result.val_accuracy < MIN_VAL_ACCURACY:
            problems.append(f"val accuracy {result.val_accuracy} < {MIN_VAL_ACCURACY}")
        if result.model.active_inputs().size == 0:
            problems.append("model has no active inputs")
        scores = symbolic.rule_scores(output["rule"], output["X_val"])
        if scores.shape != (len(output["X_val"]), 2) or not np.all(np.isfinite(scores)):
            problems.append("snapped rule gives non-finite or misshapen scores")
        return problems


# ---------------------------------------------------------------------------
# cfar-calibrate: empirical OS-CFAR false-alarm rate on noise maps


class CfarCalibrate(Workload):
    name = "cfar-calibrate"
    designs = (1e-3, 1e-4)
    cuts_per_op = 1_000_000
    reference_cuts = 300_000

    def setup(self, seed, workdir, toy=False):
        self.seed = seed
        self.configs = [oscfar.make_os_cfar_config(p) for p in self.designs]

    def _calibrate(self, seed, n_cuts):
        rates, total = oscfar.empirical_false_alarm_rate(self.configs, n_cuts, seed)
        return {"rates": rates, "total": int(total), "n_cuts": n_cuts}

    def reference(self):
        out = self._calibrate(REFERENCE_SEED, self.reference_cuts)
        return {"false_alarms": integer_counts(out["rates"], out["total"]).tolist(),
                "cuts": out["total"]}

    def run(self, k):
        return self._calibrate(op_seed(self.name, self.seed, k), self.cuts_per_op)

    def check(self, output):
        problems = []
        if output["total"] < output["n_cuts"]:
            problems.append(f"tested {output['total']} CUTs, asked for {output['n_cuts']}")
        try:
            integer_counts(output["rates"], output["total"])
        except ValueError as err:
            problems.append(str(err))
        lo, hi = PFA_BAND
        for rate, design in zip(output["rates"], self.designs):
            if not lo * design <= rate <= hi * design:
                problems.append(f"Pfa {rate:.3e} outside {lo}x..{hi}x of design {design:g}")
        return problems

    def units(self, output):
        return output["total"] / 1e6


WORKLOADS = {
    "mc-compare": McCompare,
    "detect-rule": lambda: Detect("detect-rule", "paper-eq7-m10"),
    "detect-ckpt": lambda: Detect("detect-ckpt", str(CHECKPOINT)),
    "train-snap": TrainSnap,
    "cfar-calibrate": CfarCalibrate,
}
