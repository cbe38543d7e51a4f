"""2-D ordered-statistic CFAR on range-Doppler power maps.

For each cell under test (CUT) the reference set is a window around it
minus a guard block; the k-th smallest reference cell scaled by alpha is
the detection threshold.  For square-law cells in white noise the
false-alarm rate has the closed form

    P_FA(alpha) = prod_{i=0}^{k-1} (N - i) / (N - i + alpha)

with N reference cells, which is solved for alpha by bisection.
The fire map counts, per CUT, the scaled reference cells below it, one
whole-map slice compare per reference offset.  order_statistic_map(power,
config) sorts the reference cells of every CUT instead; it is the
statistic the tests check the fire map against.  Calibration on noise
maps runs one fire map per map, at the smallest alpha, and compares every
design's alpha times the k-th reference cell of those fires with their
CUTs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ALPHA_REL_TOL = 1e-10   # relative bracket width at which solve_alpha stops


@dataclass(frozen=True)
class OsCfarConfig:
    window: tuple[int, int] = (17, 7)   # range x Doppler, odd
    guard: tuple[int, int] = (2, 1)     # per-side guard cells per axis
    k_rank: int = 78                    # 1-based order statistic
    pfa: float = 1e-3
    alpha: float = 0.0

    @property
    def n_ref(self) -> int:
        gw = (2 * self.guard[0] + 1) * (2 * self.guard[1] + 1)
        return self.window[0] * self.window[1] - gw


def default_k_rank(n_ref: int) -> int:
    # conventional 3/4 rank
    return int(round(0.75 * n_ref))


def os_cfar_log_pfa(alpha: float, n_ref: int, k_rank: int) -> float:
    i = np.arange(k_rank)
    return float(np.sum(np.log(n_ref - i) - np.log(n_ref - i + alpha)))


def os_cfar_pfa(alpha: float, n_ref: int, k_rank: int) -> float:
    """Exact false-alarm rate of OS-CFAR on i.i.d. exponential cells.

    The product form is Rohling's, H. Rohling, "Radar CFAR thresholding in
    clutter and multiple target situations", IEEE Trans. Aerosp. Electron.
    Syst. 19(4), 1983.
    """
    if not 0 < k_rank <= n_ref:
        raise ValueError(f"k_rank must be in 1..{n_ref}, got {k_rank}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return float(np.exp(os_cfar_log_pfa(alpha, n_ref, k_rank)))


def solve_alpha(pfa: float, n_ref: int = 104, k_rank: int = 78) -> float:
    """Scaling factor giving a design P_FA, via monotone bisection.

    P_FA(alpha) is continuous and strictly decreasing from 1 at alpha=0,
    so the root is bracketed by doubling and bisected to ALPHA_REL_TOL
    relative width.
    """
    if not 0.0 < pfa < 1.0:
        raise ValueError(f"pfa must be in (0, 1), got {pfa}")
    if not 0 < k_rank <= n_ref:
        raise ValueError(f"k_rank must be in 1..{n_ref}, got {k_rank}")
    target = np.log(pfa)
    lo, hi = 0.0, 1.0
    while os_cfar_log_pfa(hi, n_ref, k_rank) > target:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise RuntimeError("alpha bracket blew up")
    while hi - lo > ALPHA_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if os_cfar_log_pfa(mid, n_ref, k_rank) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def make_os_cfar_config(pfa, window=(17, 7), guard=(2, 1)) -> OsCfarConfig:
    """Config at the conventional rank (default_k_rank), alpha solved for pfa."""
    if window[0] % 2 == 0 or window[1] % 2 == 0:
        raise ValueError(f"window must be odd per axis, got {window}")
    if 2 * guard[0] + 1 > window[0] or 2 * guard[1] + 1 > window[1]:
        raise ValueError(f"guard {guard} does not fit window {window}")
    config = OsCfarConfig(window=tuple(window), guard=tuple(guard), pfa=pfa)
    k = default_k_rank(config.n_ref)
    return replace(config, k_rank=k, alpha=solve_alpha(pfa, config.n_ref, k))


def reference_columns(window, guard):
    """Flat indices of reference cells inside a window (guard block removed)."""
    mask = np.ones(window, dtype=bool)
    cr, cd = window[0] // 2, window[1] // 2
    mask[cr - guard[0]:cr + guard[0] + 1, cd - guard[1]:cd + guard[1] + 1] = False
    return np.flatnonzero(mask.ravel())


def _interior(shape, config):
    """Interior CUT grid (n_r, n_d), CUT offset (hr, hd) and reference columns."""
    (wr, wd), k_rank = config.window, config.k_rank
    if shape[0] < wr or shape[1] < wd:
        raise ValueError(f"map {shape} smaller than window {config.window}")
    cols = reference_columns(config.window, config.guard)
    if not 0 < k_rank <= cols.size:
        raise ValueError(f"k_rank must be in 1..{cols.size}, got {k_rank}")
    return (shape[0] - wr + 1, shape[1] - wd + 1), (wr // 2, wd // 2), cols


def _kth_reference(power, config, r, d):
    """k-th smallest reference cell, by a full sort, of the windows at
    interior grid index (r, d): index arrays or slices."""
    windows = sliding_window_view(power, config.window)[r, d]
    refs = windows.reshape(-1, config.window[0] * config.window[1])
    refs = refs[:, reference_columns(config.window, config.guard)]
    return np.sort(refs, axis=1)[:, config.k_rank - 1]


def order_statistic_map(power, config: OsCfarConfig):
    """k-th smallest reference cell for every interior CUT.

    Returns (stat (R', D'), (hr, hd)) where the CUT at stat[i, j] is
    power[i + hr, j + hd].  Tests use it as the reference and the runtime
    bench times it; detectors count.
    """
    power = np.asarray(power)
    shape, offset, _ = _interior(power.shape, config)
    return _kth_reference(power, config, slice(None), slice(None)).reshape(shape), offset


def os_cfar_fire_map(power, config: OsCfarConfig):
    """Boolean fire matrix for interior CUTs plus the (hr, hd) offset.

    A CUT fires when its power strictly exceeds alpha times its k-th
    smallest reference cell, i.e. when at least k_rank scaled reference
    cells lie below it; fl(alpha * x) is monotone for alpha >= 0, so this
    count decides bit for bit as a sort would.  The count is held in the
    smallest unsigned type that fits n_ref (uint8 for 17x7, uint16 for
    33x11), and each compare adds through one reused bool buffer.
    fires[i, j] refers to power[i + hr, j + hd]; edge cells without a full
    window are never tested.
    """
    (n_r, n_d), (hr, hd), cols = _interior(power.shape, config)
    cut = power[hr:hr + n_r, hd:hd + n_d]
    scaled = config.alpha * power
    count = np.zeros((n_r, n_d), dtype=np.min_scalar_type(cols.size))
    below = np.empty((n_r, n_d), dtype=bool)
    for a, b in zip(*np.divmod(cols, config.window[1])):
        count += np.less(scaled[a:a + n_r, b:b + n_d], cut, out=below).view(np.uint8)
    return count >= config.k_rank, (hr, hd)


def _false_alarm_counts(power, configs):
    """Fires per config on one map, in config order, from one fire map.

    The fire map runs at the smallest alpha, and each config counts the
    fires whose CUT exceeds its alpha times their k-th reference cell.
    The cells are non-negative and the configs share window, guard and
    k_rank.
    """
    low = min(configs, key=lambda c: c.alpha)
    fires, (hr, hd) = os_cfar_fire_map(power, low)
    r, d = np.nonzero(fires)
    stat, cut = _kth_reference(power, low, r, d), power[r + hr, d + hd]
    return np.array([np.count_nonzero(c.alpha * stat < cut) for c in configs], dtype=np.int64)


def empirical_false_alarm_rate(configs, n_cuts, seed, map_shape=(256, 128)):
    """Monte-Carlo false-alarm rates on i.i.d. exponential noise maps.

    Runs whole synthetic maps through the detector until at least n_cuts
    CUTs were tested.  The configs must agree on window, guard and k_rank,
    so that every one tests the same CUTs and one total serves them all;
    a map smaller than the window is a ValueError.  One fire map per noise
    map serves every design: fl(alpha * x) is monotone in alpha and in x
    for x >= 0, so only the fires at the smallest alpha can fire at a
    larger one, and each does exactly when alpha * os_k < cut.  The counts
    equal one os_cfar_fire_map per design bit for bit.  Returns (rates,
    total_cuts), in config order.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    if not n_cuts >= 1:
        raise ValueError(f"n_cuts must be >= 1, got {n_cuts}")
    key = (configs[0].window, configs[0].guard, configs[0].k_rank)
    if any((c.window, c.guard, c.k_rank) != key for c in configs):
        raise ValueError("configs must share window, guard and k_rank")
    (n_r, n_d), _, _ = _interior(map_shape, configs[0])
    rng = np.random.default_rng(seed)
    n_maps = int(np.ceil(n_cuts / (n_r * n_d)))
    false_alarms = np.zeros(len(configs), dtype=np.int64)
    for _ in range(n_maps):
        false_alarms += _false_alarm_counts(rng.exponential(1.0, size=map_shape), configs)
    total = n_maps * n_r * n_d
    return false_alarms / total, total
