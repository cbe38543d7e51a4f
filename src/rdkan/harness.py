"""Monte-Carlo comparison of the segment classifier and the CFAR baseline.

Detectors are addressed by id ("kan:paper-eq7-m10", "oscfar:1e-3") and
scored on identical maps: each trial draws one scene and one unit noise
field, then every SNR point and every detector sees the same data with
only the noise scale changing.  Differences between detectors are never
due to luck of the draw.  Each detector scores one whole map per call,
trial(rd, gt_box) -> (hit, n_false, n_tested), keeping nothing between calls.

Scoring is asymmetric by design.  The sweep classifier outputs boxes,
so a trial counts as detected when its boxes cover at least half of the
ground-truth cells; the CFAR baseline outputs cells, so any firing CUT
inside the truth box counts.  False alarms are detections (boxes or
CUTs) touching no truth cell, normalized by the number of tested
segments or CUTs.

The runtime-scaling functions behind `rdkan bench` and gate 11 time the
sweep and the OS reference sort on fixed seeded noise maps.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import IN_DISTRIBUTION, TargetScenario, sample_scene
from .oscfar import (
    OsCfarConfig,
    make_os_cfar_config,
    order_statistic_map,
    os_cfar_fire_map,
)
from .pipeline import detect, sweep_classify
from .radarsim import (
    IfDataCube,
    RadarConfig,
    concentrated_peak,
    derive_geometry,
    sigma_for_snr,
    synth_clean_cube,
)
from .rdmap import SEGMENT_SHAPE, RDMap, compute_rd_map
from .symbolic import DecisionRule, builtin_rule, load_classifier

SNR_GRID_DB = tuple(range(-25, 30, 5))
COVERAGE_THRESHOLD = 0.5
GT_DILATION_BINS = 1


class DetectorError(ValueError):
    pass


@dataclass
class KanDetector:
    classifier: DecisionRule
    id: str = ""

    def trial(self, rd: RDMap, gt_box) -> tuple:
        """Sweep at the calibrated margin floor; every segment position is tested."""
        hit, n_false = score_kan_trial(detect(rd, self.classifier), gt_box)
        n_r, n_d = rd.power.shape
        return hit, n_false, (n_r - SEGMENT_SHAPE[0] + 1) * (n_d - SEGMENT_SHAPE[1] + 1)


@dataclass
class OsCfarDetector:
    config: OsCfarConfig
    id: str = ""

    def trial(self, rd: RDMap, gt_box) -> tuple:
        """Fire map scored against the truth box; every interior CUT is tested."""
        fires, offset = os_cfar_fire_map(rd.power, self.config)
        hit, n_false = score_oscfar_trial(fires, offset, gt_box)
        return hit, n_false, fires.size


def detector_from_id(detector_id: str):
    """"kan:<classifier spec>" or "oscfar:<design pfa>"; the spec is anything
    symbolic.load_classifier takes: a built-in rule name, a rule JSON or a
    checkpoint JSON."""
    kind, _, arg = detector_id.partition(":")
    if kind == "kan" and arg:
        return KanDetector(classifier=load_classifier(arg), id=detector_id)
    if kind == "oscfar" and arg:
        try:
            pfa = float(arg)
        except ValueError:
            raise DetectorError(f"bad false-alarm rate in {detector_id!r}") from None
        return OsCfarDetector(config=make_os_cfar_config(pfa), id=detector_id)
    raise DetectorError(
        f"unknown detector id {detector_id!r}; expected kan:<classifier> or oscfar:<pfa>"
    )


# ---------------------------------------------------------------------------
# ground truth and scoring


def ground_truth_box(target, geometry, map_shape=(256, 128)):
    """Bin box (r0, r1, d0, d1) around the scatterers, GT_DILATION_BINS wider per side."""
    dr, dv, _, _ = target.scatterer_arrays()
    ranges = target.range_m + dr
    vels = target.velocity_mps + dv
    r0 = geometry.range_to_bin(ranges.min()) - GT_DILATION_BINS
    r1 = geometry.range_to_bin(ranges.max()) + GT_DILATION_BINS
    d0 = geometry.velocity_to_bin(vels.min()) - GT_DILATION_BINS
    d1 = geometry.velocity_to_bin(vels.max()) + GT_DILATION_BINS
    return (max(r0, 0), min(r1, map_shape[0] - 1), max(d0, 0), min(d1, map_shape[1] - 1))


def _boxes_overlap(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


def gt_coverage(boxes, gt_box) -> float:
    """Fraction of truth cells covered by the union of detection boxes."""
    r0, r1, d0, d1 = gt_box
    covered = np.zeros((r1 - r0 + 1, d1 - d0 + 1), dtype=bool)
    for b in boxes:
        if _boxes_overlap(b, gt_box):
            covered[
                max(b[0], r0) - r0: min(b[1], r1) - r0 + 1,
                max(b[2], d0) - d0: min(b[3], d1) - d0 + 1,
            ] = True
    return float(covered.mean())


def score_kan_trial(detections, gt_box):
    """(hit, n_false) for box detections against one truth box."""
    boxes = [det.bbox for det in detections]
    hit = gt_coverage(boxes, gt_box) >= COVERAGE_THRESHOLD
    n_false = sum(not _boxes_overlap(b, gt_box) for b in boxes)
    return hit, n_false


def score_oscfar_trial(fires, offset, gt_box):
    """(hit, n_false) for a CUT fire matrix against one truth box."""
    hr, hd = offset
    r0 = max(gt_box[0] - hr, 0)
    r1 = min(gt_box[1] - hr, fires.shape[0] - 1)
    d0 = max(gt_box[2] - hd, 0)
    d1 = min(gt_box[3] - hd, fires.shape[1] - 1)
    in_gt = 0
    if r0 <= r1 and d0 <= d1:
        in_gt = int(np.count_nonzero(fires[r0:r1 + 1, d0:d1 + 1]))
    total = int(np.count_nonzero(fires))
    return in_gt > 0, total - in_gt


# ---------------------------------------------------------------------------
# the sweep


@dataclass
class EvalReport:
    detector_ids: list
    snr_grid_db: list
    n_trials: int
    seed: int
    pd: np.ndarray            # (n_detectors, n_snr)
    fa: np.ndarray            # (n_detectors, n_snr), per tested segment/CUT
    config: RadarConfig = field(default_factory=RadarConfig)

    def row(self, detector_id: str):
        i = self.detector_ids.index(detector_id)
        return self.pd[i], self.fa[i]

    def table(self) -> str:
        head = "SNR(dB) " + "  ".join(f"{d:>24s}" for d in self.detector_ids)
        lines = [head, "-" * len(head)]
        for j, snr in enumerate(self.snr_grid_db):
            cells = "  ".join(
                f"Pd={self.pd[i, j]:.3f} FA={self.fa[i, j]:.2e}"
                for i in range(len(self.detector_ids))
            )
            lines.append(f"{snr:>7.1f} {cells}")
        return "\n".join(lines)

    def to_json(self, path) -> None:
        doc = {
            "format": "rdkan-eval-v1",
            "detector_ids": self.detector_ids,
            "snr_grid_db": list(self.snr_grid_db),
            "n_trials": self.n_trials,
            "seed": self.seed,
            "pd": self.pd.tolist(),
            "fa": self.fa.tolist(),
        }
        Path(path).write_text(json.dumps(doc, indent=2))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["snr_db"]
                + [f"pd[{d}]" for d in self.detector_ids]
                + [f"fa[{d}]" for d in self.detector_ids]
            )
            for j, snr in enumerate(self.snr_grid_db):
                writer.writerow(
                    [snr]
                    + [f"{v:.6f}" for v in self.pd[:, j]]
                    + [f"{v:.8e}" for v in self.fa[:, j]]
                )


def run_monte_carlo(
    detector_ids,
    snr_grid_db=SNR_GRID_DB,
    n_trials: int = 350,
    seed: int = 0,
    scenario: TargetScenario = IN_DISTRIBUTION,
    config: RadarConfig | None = None,
) -> EvalReport:
    """Common-random-numbers sweep over SNR on Hann-windowed maps; detector_ids
    holds ids or detector objects (anything with a trial method)."""
    config = config or RadarConfig()
    geometry = derive_geometry(config)
    detectors = [d if hasattr(d, "trial") else detector_from_id(d) for d in detector_ids]
    ids = [getattr(d, "id", None) or str(i) for i, d in enumerate(detectors)]
    snr_grid_db = list(snr_grid_db)

    hits = np.zeros((len(detectors), len(snr_grid_db)), dtype=np.int64)
    falses = np.zeros_like(hits)
    tested = np.zeros_like(hits)

    trial_seeds = np.random.SeedSequence(seed).spawn(n_trials)
    for t in range(n_trials):
        rng = np.random.default_rng(trial_seeds[t])
        scene = sample_scene(scenario, rng)
        clean = synth_clean_cube(scene, config)
        peak = concentrated_peak(clean)
        unit = (rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)) / np.sqrt(2.0)
        gt = ground_truth_box(scene[0], geometry, map_shape=clean.shape)

        for j, snr in enumerate(snr_grid_db):
            sigma = sigma_for_snr(clean, config, snr, peak=peak)
            cube = IfDataCube(samples=clean + sigma * unit, config=config, noise_sigma=sigma)
            rd = compute_rd_map(cube, window="hann")
            for i, det in enumerate(detectors):
                hit, n_false, n_tested = det.trial(rd, gt)
                hits[i, j] += hit
                falses[i, j] += n_false
                tested[i, j] += n_tested

    return EvalReport(
        detector_ids=ids,
        snr_grid_db=snr_grid_db,
        n_trials=n_trials,
        seed=seed,
        pd=hits / n_trials,
        fa=falses / np.maximum(tested, 1),
        config=config,
    )


# ---------------------------------------------------------------------------
# runtime scaling


def _timed(fn, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def sweep_runtime_scaling(n_rows_list=(64, 128, 256, 512)):
    """Sweep-classifier runtime versus tested segment count.

    Returns dict with per-size timings and the log-log slope; the sweep
    is one histogram pass plus the paper-eq7-m10 rule, so the slope sits
    near 1.
    """
    rule = builtin_rule("paper-eq7-m10")
    rng = np.random.default_rng(0)
    geometry = derive_geometry(RadarConfig())
    n_segments, times = [], []
    for rows in n_rows_list:
        power = rng.exponential(1.0, size=(rows, 128))
        rd = RDMap(power=power, geometry=geometry)
        n_segments.append(len(sweep_classify(rd, rule).centers))  # also warms up
        times.append(_timed(lambda: sweep_classify(rd, rule)))
    slope = float(np.polyfit(np.log(n_segments), np.log(times), 1)[0])
    return {"n_segments": n_segments, "seconds": times, "exponent": slope}


def oscfar_runtime_scaling(windows=((9, 5), (17, 7), (25, 9), (33, 11))):
    """Runtime of the OS reference sort, order_statistic_map (not the
    detector's counted fire map), versus reference-set size.

    The per-CUT cost is a full sort of n_ref cells, so runtime should
    track n_ref*log2(n_ref); returns timings and that log-log slope.
    """
    rng = np.random.default_rng(0)
    power = rng.exponential(1.0, size=(256, 128))
    n_refs, times = [], []
    for win in windows:
        cfg = make_os_cfar_config(1e-3, window=win, guard=(2, 1))
        order_statistic_map(power, cfg)  # warm up
        times.append(_timed(lambda: order_statistic_map(power, cfg)))
        n_refs.append(cfg.n_ref)
    x = np.array(n_refs) * np.log2(n_refs)
    slope = float(np.polyfit(np.log(x), np.log(times), 1)[0])
    return {"n_ref": n_refs, "seconds": times, "exponent": slope}
