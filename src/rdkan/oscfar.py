"""2-D ordered-statistic CFAR on range-Doppler power maps.

For each cell under test (CUT) the reference set is a window around it
minus a guard block; the k-th smallest reference cell scaled by alpha is
the detection threshold.  For square-law cells in white noise the
false-alarm rate has the closed form

    P_FA(alpha) = prod_{i=0}^{k-1} (N - i) / (N - i + alpha)

with N reference cells, which is solved for alpha by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rdkan.rdmap import _as_power

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


def make_os_cfar_config(pfa, window=(17, 7), guard=(2, 1), k_rank=None) -> OsCfarConfig:
    if window[0] % 2 == 0 or window[1] % 2 == 0:
        raise ValueError(f"window must be odd per axis, got {window}")
    if 2 * guard[0] + 1 > window[0] or 2 * guard[1] + 1 > window[1]:
        raise ValueError(f"guard {guard} does not fit window {window}")
    probe = OsCfarConfig(window=tuple(window), guard=tuple(guard), k_rank=1, pfa=pfa)
    k = default_k_rank(probe.n_ref) if k_rank is None else int(k_rank)
    alpha = solve_alpha(pfa, probe.n_ref, k)
    return OsCfarConfig(window=tuple(window), guard=tuple(guard), k_rank=k, pfa=pfa, alpha=alpha)


@lru_cache(maxsize=32)
def reference_columns(window, guard):
    """Flat indices of reference cells inside a window (guard block removed)."""
    wr, wd = window
    mask = np.ones((wr, wd), dtype=bool)
    cr, cd = wr // 2, wd // 2
    mask[cr - guard[0]:cr + guard[0] + 1, cd - guard[1]:cd + guard[1] + 1] = False
    return np.flatnonzero(mask.ravel())


def _interior(shape, window, guard, k_rank):
    """Interior CUT grid (n_r, n_d), CUT offset (hr, hd) and reference columns."""
    wr, wd = window
    if shape[0] < wr or shape[1] < wd:
        raise ValueError(f"map {shape} smaller than window {window}")
    cols = reference_columns(tuple(window), tuple(guard))
    if not 0 < k_rank <= cols.size:
        raise ValueError(f"k_rank must be in 1..{cols.size}, got {k_rank}")
    return (shape[0] - wr + 1, shape[1] - wd + 1), (wr // 2, wd // 2), cols


def order_statistic_map(power, window=(17, 7), guard=(2, 1), k_rank=78):
    """k-th smallest reference cell for every interior CUT.

    Returns (stat (R', D'), (hr, hd)) where the CUT at stat[i, j] is
    power[i + hr, j + hd].  Reference cells are fully sorted per CUT.  Tests
    use it as the reference and the runtime bench times it; detectors count.
    """
    power = np.asarray(power)
    (n_r, n_d), offset, cols = _interior(power.shape, window, guard, k_rank)
    refs = sliding_window_view(power, tuple(window)).reshape(n_r * n_d, -1)[:, cols]
    return np.sort(refs, axis=1)[:, k_rank - 1].reshape(n_r, n_d), offset


def os_cfar_fire_map(power, config: OsCfarConfig):
    """Boolean fire matrix for interior CUTs plus the (hr, hd) offset.

    A CUT fires when its power strictly exceeds alpha times its k-th
    smallest reference cell, i.e. when at least k_rank scaled reference
    cells lie below it; fl(alpha * x) is monotone for alpha >= 0, so this
    count decides bit for bit as a sort would.  fires[i, j] refers to
    power[i + hr, j + hd]; edge cells without a full window are never tested.
    """
    power = _as_power(power)
    (n_r, n_d), (hr, hd), cols = _interior(power.shape, config.window, config.guard, config.k_rank)
    cut = power[hr:hr + n_r, hd:hd + n_d]
    scaled = config.alpha * power
    count = np.zeros((n_r, n_d), dtype=np.int16)  # n_ref reaches 348 (33x11): not uint8
    for a, b in zip(*np.divmod(cols, config.window[1])):
        count += scaled[a:a + n_r, b:b + n_d] < cut
    return count >= config.k_rank, (hr, hd)


def empirical_false_alarm_rate(configs, n_cuts, seed, map_shape=(256, 128)):
    """Monte-Carlo false-alarm rates on i.i.d. exponential noise maps.

    Runs whole synthetic maps through the detector until at least n_cuts
    CUTs were tested.  The configs must agree on window, guard and k_rank,
    so that every one tests the same CUTs and one total serves them all.
    Returns (rates, total_cuts).
    """
    configs = list(configs)
    key = (configs[0].window, configs[0].guard, configs[0].k_rank)
    if any((c.window, c.guard, c.k_rank) != key for c in configs):
        raise ValueError("configs must share window, guard and k_rank")
    rng = np.random.default_rng(seed)
    per_map = (map_shape[0] - key[0][0] + 1) * (map_shape[1] - key[0][1] + 1)
    n_maps = int(np.ceil(n_cuts / per_map))
    false_alarms = np.zeros(len(configs), dtype=np.int64)
    for _ in range(n_maps):
        power = rng.exponential(1.0, size=map_shape)
        for i, cfg in enumerate(configs):
            fires, _ = os_cfar_fire_map(power, cfg)
            false_alarms[i] += int(np.count_nonzero(fires))
    total = n_maps * per_map
    return false_alarms / total, total
