"""Map-level detection: slide the histogram classifier, localize, dedupe.

Every interior cell of an RD map is a candidate segment center.  The
classifier, a decision rule (a checkpoint loads as one through
symbolic.rule_from_model), scores each segment's normalized histogram;
positive-margin segments are recentered onto their local power peak,
collapsed when they land on the same cell, and filtered with greedy
overlap suppression.  Degenerate segments
(constant power, so the histogram is undefined) never detect.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rdmap import RDMap, SEGMENT_HALF, SEGMENT_SHAPE, SegmentError, segment_histogram_map
from .symbolic import DecisionRule, rule_scores

NMS_IOU_THRESHOLD = 0.40
RECENTER_STEPS = 5

# A full sweep tests ~3e4 segments per 256x128 map, so map-level detection
# needs a stiffer operating point than the per-segment rule boundary.  These
# margin floors were calibrated on empty maps: noise segments never reached
# them in ~1e6 draws, while targets at 0 dB still clear them with room.
# Keyed by rule name; anything unlisted sweeps at the bare h1 > h0 boundary.
MAP_MARGIN_FLOORS = {"paper-eq7-m10": 2.0}


@dataclass(frozen=True)
class SegmentDetection:
    range_bin: int
    doppler_bin: int
    margin: float            # h1 - h0 at the final center
    peak_power: float
    bbox: tuple              # (r0, r1, d0, d1), bins, inclusive
    n_sweep_hits: int = 1    # sweep positions collapsed into this detection

    @property
    def center(self) -> tuple:
        return (self.range_bin, self.doppler_bin)


def bbox_around(center) -> tuple:
    hr, hd = SEGMENT_HALF
    r, d = center
    return (r - hr, r + hr, d - hd, d + hd)


def iou(box_a, box_b) -> float:
    """Intersection over union of inclusive bin boxes (r0, r1, d0, d1)."""
    ar0, ar1, ad0, ad1 = box_a
    br0, br1, bd0, bd1 = box_b
    ir = min(ar1, br1) - max(ar0, br0) + 1
    id_ = min(ad1, bd1) - max(ad0, bd0) + 1
    if ir <= 0 or id_ <= 0:
        return 0.0
    inter = ir * id_
    area_a = (ar1 - ar0 + 1) * (ad1 - ad0 + 1)
    area_b = (br1 - br0 + 1) * (bd1 - bd0 + 1)
    return inter / (area_a + area_b - inter)


@dataclass
class SweepResult:
    centers: np.ndarray      # (n, 2) int
    margins: np.ndarray      # (n,) float
    degenerate: np.ndarray   # (n,) bool

    def hits(self, min_margin: float = 0.0) -> np.ndarray:
        """Indices with margin strictly above the floor; ties stay H0."""
        return np.flatnonzero((self.margins > min_margin) & ~self.degenerate)


def sweep_classify(rd: RDMap, classifier: DecisionRule) -> SweepResult:
    """Score every full segment position; margins are h1 - h0."""
    centers, X, degenerate = segment_histogram_map(rd, classifier.m_bins)
    scores = rule_scores(classifier, X)
    return SweepResult(centers=centers, margins=scores[:, 1] - scores[:, 0], degenerate=degenerate)


def recenter(rd: RDMap, centers) -> np.ndarray:
    """Walk each segment center onto its local power peak.

    centers is an (n, 2) array of (range_bin, doppler_bin); returns the
    (n, 2) final centers.  Each step jumps to the strongest cell of the
    current segment (first in row-major order on ties), clamped so the
    segment stays inside the map, and only if that cell is strictly
    stronger than the current center.  A center that stops moving is
    done; the rest take at most RECENTER_STEPS steps.
    """
    power = rd.power
    hr, hd = SEGMENT_HALF
    n_r, n_d = power.shape
    cur = np.array(centers, dtype=np.intp).reshape(-1, 2)
    if np.any((cur < SEGMENT_HALF) | (cur >= (n_r - hr, n_d - hd))):
        raise SegmentError(f"center too close to the map edge for a {SEGMENT_SHAPE} segment")
    windows = sliding_window_view(power, SEGMENT_SHAPE)
    walking = np.arange(len(cur))
    for _ in range(RECENTER_STEPS):
        r, d = cur[walking, 0], cur[walking, 1]
        flat = windows[r - hr, d - hd].reshape(-1, np.prod(SEGMENT_SHAPE)).argmax(axis=1)
        pr = np.clip(r - hr + flat // SEGMENT_SHAPE[1], hr, n_r - hr - 1)
        pd = np.clip(d - hd + flat % SEGMENT_SHAPE[1], hd, n_d - hd - 1)
        moves = power[pr, pd] > power[r, d]
        walking = walking[moves]
        cur[walking, 0], cur[walking, 1] = pr[moves], pd[moves]
    return cur


def nms(detections) -> list:
    """Greedy suppression at NMS_IOU_THRESHOLD, strongest peak first; row-major center on ties."""
    ordered = sorted(detections, key=lambda t: (-t.peak_power, t.range_bin, t.doppler_bin))
    kept: list = []
    for det in ordered:
        if all(iou(det.bbox, k.bbox) <= NMS_IOU_THRESHOLD for k in kept):
            kept.append(det)
    return kept


def detect(rd: RDMap, classifier: DecisionRule, min_margin: float | None = None) -> list:
    """Full sweep -> recenter -> dedupe -> suppress chain.

    min_margin=None picks the calibrated map-level floor for shipped
    rules (MAP_MARGIN_FLOORS) and 0.0 otherwise; pass an explicit value
    to override.  Recentering keeps every center inside the map, so each
    final center is a sweep position and keeps that position's margin.
    """
    if min_margin is None:
        min_margin = MAP_MARGIN_FLOORS.get(classifier.name, 0.0)
    sweep = sweep_classify(rd, classifier)
    finals = recenter(rd, sweep.centers[sweep.hits(min_margin)])
    finals, counts = np.unique(finals, axis=0, return_counts=True)

    hr, hd = SEGMENT_HALF
    index = (finals[:, 0] - hr) * (rd.power.shape[1] - 2 * hd) + (finals[:, 1] - hd)
    # recentering may walk onto a segment the classifier itself rejects
    keep = ~sweep.degenerate[index] & (sweep.margins[index] > 0.0)
    detections = [
        SegmentDetection(r, d, float(sweep.margins[i]), float(rd.power[r, d]), bbox_around((r, d)), n)
        for (r, d), i, n in zip(finals[keep].tolist(), index[keep].tolist(), counts[keep].tolist())
    ]
    return nms(detections)


def segment_detections_to_csv(path, detections, geometry=None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["range_bin", "doppler_bin", "margin", "peak_power", "n_sweep_hits"]
        if geometry is not None:
            header += ["range_m", "velocity_mps"]
        writer.writerow(header)
        for det in detections:
            row = [det.range_bin, det.doppler_bin, f"{det.margin:.6g}",
                   f"{det.peak_power:.6g}", det.n_sweep_hits]
            if geometry is not None:
                row += [f"{geometry.bin_to_range(det.range_bin):.4f}",
                        f"{geometry.bin_to_velocity(det.doppler_bin):.4f}"]
            writer.writerow(row)
