"""Labeled segment-histogram datasets for classifier training and evaluation.

Each map carries one extended target over a fixed noise floor.  Target
examples are segments centered on (and jittered around) the target's
true RD bin; noise examples come from a disjoint tiling of the rest of
the map, so no two noise segments share cells.  Maps are Hann-windowed,
matching the detection pipeline.

Two scenario presets: IN_DISTRIBUTION mirrors the conditions the
shipped rules were fitted under; SHIFTED spreads targets in Doppler,
flattens the scatterer profile, and weakens RCS, which drags the
first-bin mass toward the noise class and degrades a stock classifier
until it is fine-tuned on a few shifted examples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .radarsim import RadarConfig, derive_geometry, sample_target, synth_if_cube
from .rdmap import SEGMENT_HALF, SEGMENT_SHAPE, compute_rd_map, histogram_feature, segment_cells

# Worst in-scenario target (85 m, band-floor RCS) sits at ~18 dB over this
# floor after range compression; the median target is near 33 dB.
NOISE_SIGMA_FLOOR = 1.2

# target-center jitter offsets per map: 5 range x 3 Doppler
TARGET_OFFSETS = tuple((dr, dd) for dr in (-2, -1, 0, 1, 2) for dd in (-1, 0, 1))

DATASET_SIZES = {"train": 20988, "test": 5248, "shifted": 716, "few_shot": 14}


@dataclass(frozen=True)
class TargetScenario:
    name: str
    range_band: tuple = (25.0, 85.0)
    velocity_band: tuple = (-12.0, 12.0)
    aspects: tuple = ("front", "rear", "side")
    n_scatterers_range: tuple = (50, 100)
    # half-extents; walking-scale targets stay compact in range, which keeps
    # their strongest segment concentrated enough for the histogram detector
    extent_r_range: tuple = (0.3, 1.0)
    extent_v_range: tuple = (0.05, 0.25)
    edge_taper_db: float = -18.0
    rcs_band: tuple | None = None     # None: per-aspect default bands
    noise_sigma: float = NOISE_SIGMA_FLOOR


IN_DISTRIBUTION = TargetScenario(name="in-distribution")

SHIFTED = TargetScenario(
    name="shifted",
    n_scatterers_range=(80, 100),
    extent_r_range=(1.5, 3.0),
    extent_v_range=(0.3, 0.6),
    edge_taper_db=0.0,
    rcs_band=(8.0, 16.0),
)


def sample_scene(scenario: TargetScenario, rng: np.random.Generator) -> list:
    r = rng.uniform(*scenario.range_band)
    v = rng.uniform(*scenario.velocity_band)
    aspect = scenario.aspects[rng.integers(len(scenario.aspects))]
    target = sample_target(
        rng, r, v, aspect,
        n_scatterers_range=scenario.n_scatterers_range,
        extent_r_range=scenario.extent_r_range,
        extent_v_range=scenario.extent_v_range,
        edge_taper_db=scenario.edge_taper_db,
        rcs_band=scenario.rcs_band,
    )
    return [target]


def noise_tile_centers(map_shape=(256, 128)) -> np.ndarray:
    """Centers of a disjoint segment tiling of the map interior."""
    hr, hd = SEGMENT_HALF
    rows = np.arange(hr, map_shape[0] - hr, SEGMENT_SHAPE[0])
    cols = np.arange(hd, map_shape[1] - hd, SEGMENT_SHAPE[1])
    return np.array([(r, d) for r in rows for d in cols])


def _map_segments(scenario, m_bins, rng, config, geometry, n_per_class):
    """One synthesized map -> (target_histograms, noise_histograms)."""
    scene = sample_scene(scenario, rng)
    target = scene[0]
    cube = synth_if_cube(scene, config, noise_sigma=scenario.noise_sigma, rng=rng)
    rd = compute_rd_map(cube, window="hann")

    hr, hd = SEGMENT_HALF
    n_r, n_d = rd.power.shape
    tc = (geometry.range_to_bin(target.range_m), geometry.velocity_to_bin(target.velocity_mps))
    # jittered centers, clamped so each segment stays inside the map
    centers = np.clip(np.add(tc, TARGET_OFFSETS[:n_per_class]),
                      SEGMENT_HALF, (n_r - hr - 1, n_d - hd - 1))
    tx = [histogram_feature(cells, m_bins).histogram for cells in segment_cells(rd.power, centers)]

    tiles = noise_tile_centers(rd.power.shape)
    # drop tiles whose segment could touch the target's neighborhood
    clear = (np.abs(tiles[:, 0] - tc[0]) > 2 * SEGMENT_SHAPE[0]) | (
        np.abs(tiles[:, 1] - tc[1]) > 2 * SEGMENT_SHAPE[1]
    )
    tiles = tiles[clear]
    pick = rng.choice(len(tiles), size=n_per_class, replace=False)
    nx = [histogram_feature(cells, m_bins).histogram
          for cells in segment_cells(rd.power, tiles[pick])]
    return tx, nx


def build_labeled_segments(
    scenario: TargetScenario,
    n_total: int,
    m_bins: int,
    rng: np.random.Generator,
    config: RadarConfig | None = None,
):
    """Balanced dataset of n_total histograms: (X, y), y=1 for target.

    Examples are interleaved map by map, so any prefix is near-balanced.
    """
    if n_total % 2:
        raise ValueError("n_total must be even (classes are balanced)")
    config = config or RadarConfig()
    geometry = derive_geometry(config)
    per_class_per_map = len(TARGET_OFFSETS)
    X, y = [], []
    while len(X) < n_total:
        n_pc = min(per_class_per_map, (n_total - len(X)) // 2)
        tx, nx = _map_segments(scenario, m_bins, rng, config, geometry, n_pc)
        for t, n in zip(tx, nx):
            X.append(t)
            y.append(1)
            X.append(n)
            y.append(0)
    return np.asarray(X)[:n_total], np.asarray(y, dtype=int)[:n_total]


def standard_datasets(m_bins: int, seed: int = 0, config: RadarConfig | None = None) -> dict:
    """The four shipped splits, sizes from DATASET_SIZES, disjoint seeds."""
    root = np.random.SeedSequence([seed, m_bins])
    seeds = root.spawn(4)
    out = {}
    for (name, size), ss in zip(DATASET_SIZES.items(), seeds):
        scenario = IN_DISTRIBUTION if name in ("train", "test") else SHIFTED
        X, y = build_labeled_segments(scenario, size, m_bins, np.random.default_rng(ss), config)
        out[name] = (X, y)
    return out
