"""Range-Doppler map formation and segment histogram features.

A dwell becomes a power map via a 2-D FFT (fast time then slow time),
square-law detection and an fftshift along Doppler so zero velocity sits
in the center column.  Detection features are per-segment histograms:
a 17x7 block of cells is min-max normalized and binned into M bins on
[0, 1], cut at the np.linspace(0, 1, M+1) doubles; bin heights are counts
divided by the cell count.  For M = 3, 6, 7, 9, 11 and 12 some of those
edge doubles lie one double below k/M, so a value equal to such an edge
lands one bin higher than in the bins [k/M, (k+1)/M) of exact arithmetic.

The kernels take power arrays.  segment_cells is the one gather of the
segments at given centers, and the one check that a segment fits.
bin_rows is the binning rule, used by histogram_feature (one block) and
datasets._map_segments (training).  segment_histogram_map (the sweep) is
the map form of the same rule: it bins whole-map slices with no window
copy, and a property test holds it equal to bin_rows on every window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rdkan.radarsim import IfDataCube, MapGeometry, derive_geometry

SEGMENT_SHAPE = (17, 7)  # range bins x Doppler bins, about 5.98 m x 2.13 m/s
SEGMENT_HALF = (SEGMENT_SHAPE[0] // 2, SEGMENT_SHAPE[1] // 2)


class SegmentError(ValueError):
    pass


@dataclass
class RDMap:
    power: np.ndarray        # (n_range, n_doppler) float64, Doppler-centered
    geometry: MapGeometry

    @property
    def shape(self):
        return self.power.shape


def compute_rd_map(cube: IfDataCube, window: str | None = None) -> RDMap:
    """2-D FFT power map of a dwell.

    window: None (default) or "hann", applied separably before the FFTs.
    A non-finite sample would turn every cell into NaN: ValueError.
    """
    x = cube.samples
    n, l = x.shape
    if (n, l) != (cube.config.n_samples, cube.config.n_chirps):
        raise ValueError(f"cube samples {x.shape} disagree with config "
                         f"({cube.config.n_samples}, {cube.config.n_chirps})")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite IF samples")
    if window == "hann":
        x = x * np.hanning(n)[:, None] * np.hanning(l)[None, :]
    elif window is not None:
        raise ValueError(f"unknown window {window!r}")
    spectrum = np.fft.fft(np.fft.fft(x, axis=0), axis=1)
    power = np.fft.fftshift(np.abs(spectrum) ** 2, axes=1)
    return RDMap(power=power, geometry=derive_geometry(cube.config))


def segment_cells(power, centers) -> np.ndarray:
    """Copies of the segments at an (n, 2) array of (range_bin, doppler_bin)
    centers, shaped (n, *SEGMENT_SHAPE); a segment that does not fit in the
    map raises SegmentError."""
    hr, hd = SEGMENT_HALF
    centers = np.asarray(centers, dtype=np.intp).reshape(-1, 2)
    n_r, n_d = power.shape
    outside = np.any((centers < SEGMENT_HALF) | (centers >= (n_r - hr, n_d - hd)), axis=1)
    if outside.any():
        raise SegmentError(f"center {centers[outside][0].tolist()} too close to the map edge "
                           f"for a {SEGMENT_SHAPE} segment on a {power.shape} map")
    return sliding_window_view(power, SEGMENT_SHAPE)[centers[:, 0] - hr, centers[:, 1] - hd]


@dataclass
class SegmentFeature:
    m_bins: int
    histogram: np.ndarray     # (m_bins,) heights, sums to 1
    degenerate: bool          # constant segment, all mass forced to bin 0


def bin_rows(rows, m_bins):
    """Min-max normalized histograms of the rows of an (n, cells) array of
    finite values, in M bins cut at edges = np.linspace(0, 1, M+1), the
    last closed on the right.

    Bin b holds the cells that reach edge b but not edge b+1, where a cell
    reaches edge k when norm >= edges[k]; every cell reaches edge 0 and none
    reaches edge M.  For M = 3, 6, 7, 9, 11 and 12 some edges[k] lie one
    double below k/M, so a norm equal to such an edge reaches edge k, where
    the bins [k/M, (k+1)/M) of exact arithmetic would not.
    A constant row normalizes to zeros: bin 0, degenerate.
    Returns (X (n, m_bins) float, degenerate (n,) bool).
    """
    n_cells = rows.shape[1]
    if n_cells == 0:
        raise SegmentError("empty cell block")
    if m_bins < 2:
        raise SegmentError(f"m_bins must be >= 2, got {m_bins}")
    lo = rows.min(axis=1)
    span = rows.max(axis=1) - lo
    degenerate = span == 0
    norm = (rows - lo[:, None]) / np.where(degenerate, 1.0, span)[:, None]
    reached = np.stack([np.count_nonzero(norm >= edge, axis=1)
                        for edge in np.linspace(0.0, 1.0, m_bins + 1)[1:-1]], axis=1)
    return -np.diff(reached, prepend=n_cells, append=0, axis=1) / n_cells, degenerate


def histogram_feature(cells, m_bins) -> SegmentFeature:
    """Min-max normalized histogram of one cell block (see bin_rows)."""
    X, degenerate = bin_rows(np.asarray(cells, dtype=float).reshape(1, -1), m_bins)
    return SegmentFeature(m_bins, X[0], bool(degenerate[0]))


def segment_histogram_map(power, m_bins):
    """Histograms of every full segment position of a power map: bin_rows'
    rule over whole-map slices, with no per-window copy.  lo and hi are
    exact running window extrema; for each cell offset of the window, one
    normalized map slice meets all inner edges in one compare, and the edge
    counts add up per window.  Each cell meets the same float ops as in
    bin_rows, so X and the flags equal bin_rows on the windows' rows byte
    for byte.

    Returns (centers (n, 2) int, X (n, m_bins) float, degenerate (n,) bool)
    where centers run row-major over all positions whose segment fits in
    the map.
    """
    sr, sd = SEGMENT_SHAPE
    hr, hd = SEGMENT_HALF
    if power.shape[0] < sr or power.shape[1] < sd:
        raise SegmentError(f"map {power.shape} smaller than segment {SEGMENT_SHAPE}")
    if m_bins < 2:
        raise SegmentError(f"m_bins must be >= 2, got {m_bins}")
    rows = sliding_window_view(power, sd, axis=1)
    lo = sliding_window_view(rows.min(axis=-1), sr, axis=0).min(axis=-1)
    hi = sliding_window_view(rows.max(axis=-1), sr, axis=0).max(axis=-1)
    span = hi - lo
    degenerate = span == 0
    span = np.where(degenerate, 1.0, span)
    n_r, n_d = lo.shape
    edges = np.linspace(0.0, 1.0, m_bins + 1)[1:-1, None, None]
    norm = np.empty_like(span)
    hit = np.empty((m_bins - 1, n_r, n_d), dtype=bool)
    reached = np.zeros(hit.shape, dtype=np.uint8)  # at most sr * sd = 119 per cell
    for a in range(sr):
        for b in range(sd):
            np.divide(np.subtract(power[a:a + n_r, b:b + n_d], lo, out=norm), span, out=norm)
            reached += np.greater_equal(norm, edges, out=hit).view(np.uint8)
    reached = reached.reshape(m_bins - 1, -1).T.astype(np.intp, order="C")
    X = -np.diff(reached, prepend=sr * sd, append=0, axis=1) / (sr * sd)
    rr, dd = np.meshgrid(np.arange(n_r) + hr, np.arange(n_d) + hd, indexing="ij")
    centers = np.stack([rr.ravel(), dd.ravel()], axis=1)
    return centers, X, degenerate.ravel()


# ---------------------------------------------------------------------------
# serialization


def save_rd_map(base_path, rd: RDMap) -> None:
    """Write <base>.bin (float32, C order) plus a <base>.json geometry sidecar."""
    base = Path(base_path)
    rd.power.astype(np.float32).tofile(base.with_suffix(".bin"))
    g = rd.geometry
    sidecar = {
        "n_range": g.n_range,
        "n_doppler": g.n_doppler,
        "range_res_m": g.range_res,
        "vel_res_mps": g.vel_res,
        "max_range_m": g.max_range,
        "max_abs_velocity_mps": g.max_abs_velocity,
        "doppler_centered": True,
        "dtype": "float32",
        "order": "C",
    }
    base.with_suffix(".json").write_text(json.dumps(sidecar, indent=2))


def load_rd_map(base_path) -> RDMap:
    base = Path(base_path)
    meta = json.loads(base.with_suffix(".json").read_text())
    power = np.fromfile(base.with_suffix(".bin"), dtype=np.float32)
    n, l = meta["n_range"], meta["n_doppler"]
    if power.size != n * l:
        raise ValueError(f"{base}: expected {n * l} cells, found {power.size}")
    if not np.all(np.isfinite(power)):
        raise ValueError(f"{base}: non-finite cells")
    geometry = MapGeometry(
        range_res=meta["range_res_m"],
        vel_res=meta["vel_res_mps"],
        max_range=meta["max_range_m"],
        max_abs_velocity=meta["max_abs_velocity_mps"],
        n_range=n,
        n_doppler=l,
    )
    return RDMap(power=power.reshape(n, l).astype(np.float64), geometry=geometry)

