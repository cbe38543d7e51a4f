"""OS-CFAR: exact false-alarm algebra, order statistics, fire-map behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdkan.oscfar import (
    OsCfarConfig,
    default_k_rank,
    empirical_false_alarm_rate,
    make_os_cfar_config,
    order_statistic_map,
    os_cfar_fire_map,
    os_cfar_pfa,
    reference_columns,
    solve_alpha,
)

# Bisection results for the (104, 78) reference set, frozen from an
# independent solver run on the same product formula.
ALPHA_ORACLE = {1e-3: 5.301464, 1e-4: 7.191084, 1e-5: 9.144545, 1e-6: 11.163504}


def pfa_reference(alpha, n_ref, k_rank):
    """Scalar product form, evaluated in log space term by term."""
    acc = 0.0
    for i in range(k_rank):
        acc += math.log(n_ref - i) - math.log(n_ref - i + alpha)
    return math.exp(acc)


class TestFalseAlarmAlgebra:
    @pytest.mark.parametrize("alpha,n_ref,k_rank", [
        (1.0, 24, 18),
        (4.0, 24, 18),
        (5.3, 104, 78),
        (20.0, 104, 104),
        (0.7, 6, 4),
    ])
    def test_pfa_matches_product_form(self, alpha, n_ref, k_rank):
        assert os_cfar_pfa(alpha, n_ref, k_rank) == pytest.approx(
            pfa_reference(alpha, n_ref, k_rank), rel=1e-12
        )

    def test_pfa_limits_and_monotonicity(self):
        assert os_cfar_pfa(0.0, 104, 78) == pytest.approx(1.0)
        alphas = np.linspace(0.5, 30.0, 40)
        vals = [os_cfar_pfa(a, 104, 78) for a in alphas]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # higher rank raises the threshold, so fewer false alarms
        assert os_cfar_pfa(5.0, 104, 90) < os_cfar_pfa(5.0, 104, 60)

    def test_pfa_validation(self):
        with pytest.raises(ValueError):
            os_cfar_pfa(1.0, 104, 0)
        with pytest.raises(ValueError):
            os_cfar_pfa(1.0, 104, 105)
        with pytest.raises(ValueError):
            os_cfar_pfa(-0.1, 104, 78)

    @pytest.mark.parametrize("pfa", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_solve_alpha_round_trip(self, pfa):
        alpha = solve_alpha(pfa)
        assert os_cfar_pfa(alpha, 104, 78) == pytest.approx(pfa, rel=1e-8)

    def test_solve_alpha_frozen_values(self):
        for pfa, want in ALPHA_ORACLE.items():
            assert solve_alpha(pfa) == pytest.approx(want, abs=1e-4)

    def test_solve_alpha_validation(self):
        with pytest.raises(ValueError):
            solve_alpha(0.0)
        with pytest.raises(ValueError):
            solve_alpha(1.5)
        with pytest.raises(ValueError):
            solve_alpha(1e-3, 104, 200)


class TestConfig:
    def test_default_reference_count(self):
        cfg = OsCfarConfig()
        assert cfg.n_ref == 17 * 7 - 5 * 3 == 104
        assert default_k_rank(104) == 78

    def test_make_config(self):
        cfg = make_os_cfar_config(1e-3)
        assert cfg.k_rank == 78
        assert cfg.alpha == pytest.approx(ALPHA_ORACLE[1e-3], abs=1e-4)
        custom = make_os_cfar_config(1e-2, window=(5, 3), guard=(1, 1))
        assert custom.n_ref == 6
        assert custom.k_rank == default_k_rank(6)

    def test_make_config_validation(self):
        with pytest.raises(ValueError):
            make_os_cfar_config(1e-3, window=(16, 7))
        with pytest.raises(ValueError):
            make_os_cfar_config(1e-3, window=(5, 3), guard=(3, 1))


class TestOrderStatistics:
    def test_reference_columns_small_window(self):
        cols = reference_columns((5, 3), (1, 1))
        mask = np.ones((5, 3), dtype=bool)
        mask[1:4, 0:3] = False
        assert np.array_equal(cols, np.flatnonzero(mask.ravel()))
        assert 7 not in cols  # the CUT itself

    def test_matches_brute_force(self, rng):
        power = rng.exponential(1.0, (12, 9))
        window, guard, k = (5, 3), (1, 1), 4
        stat, (hr, hd) = order_statistic_map(power, window, guard, k)
        assert (hr, hd) == (2, 1)
        assert stat.shape == (8, 7)
        for i in range(8):
            for j in range(7):
                block = power[i:i + 5, j:j + 3]
                refs = []
                for a in range(5):
                    for b in range(3):
                        if not (1 <= a <= 3):  # guard rows (includes CUT)
                            refs.append(block[a, b])
                assert stat[i, j] == sorted(refs)[k - 1]

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="smaller"):
            order_statistic_map(rng.exponential(1.0, (10, 5)))
        with pytest.raises(ValueError, match="k_rank"):
            order_statistic_map(rng.exponential(1.0, (32, 32)), (5, 3), (1, 1), 7)


def fired_cells(power, cfg):
    """(range_bin, doppler_bin) of every firing CUT, row-major."""
    fires, offset = os_cfar_fire_map(power, cfg)
    return [tuple(int(v) for v in rc) for rc in np.argwhere(fires) + offset]


class TestDetect:
    def test_planted_spike_detected(self, rng):
        power = rng.exponential(1.0, (64, 32))
        power[30, 16] = 1e6
        cfg = make_os_cfar_config(1e-4, window=(5, 3), guard=(1, 1))
        fires, (hr, hd) = os_cfar_fire_map(power, cfg)
        assert fires[30 - hr, 16 - hd]
        stat, _ = order_statistic_map(power, cfg.window, cfg.guard, cfg.k_rank)
        assert cfg.alpha * stat[30 - hr, 16 - hd] < 1e6

    def test_spike_does_not_raise_own_threshold(self):
        power = np.ones((64, 32))
        power[30, 16] = 100.0
        cfg = make_os_cfar_config(1e-3, window=(5, 3), guard=(1, 1))
        # CUT and guard ring are excluded from the reference set, so the
        # spike is compared against the flat floor only.
        assert fired_cells(power, cfg) == [(30, 16)]

    def test_threshold_is_strict(self):
        cfg = OsCfarConfig(window=(5, 3), guard=(1, 1), k_rank=4, alpha=1.0)
        assert fired_cells(np.ones((20, 10)), cfg) == []

    def test_edges_never_tested(self, rng):
        power = rng.exponential(0.001, (64, 32))
        power[0, 0] = 1e9
        power[63, 31] = 1e9
        cfg = make_os_cfar_config(1e-3)  # 17x7 window: 8/3 margins
        fires, offset = os_cfar_fire_map(power, cfg)
        assert fires.shape == (64 - 16, 32 - 6) and offset == (8, 3)
        for r, d in fired_cells(power, cfg):
            assert 8 <= r <= 55 and 3 <= d <= 28

    def test_fire_map_equals_sorted_statistic(self, rng):
        power = rng.exponential(1.0, (64, 32))
        cfg_a = make_os_cfar_config(1e-2, window=(5, 3), guard=(1, 1))
        cfg_b = make_os_cfar_config(1e-3, window=(5, 3), guard=(1, 1))
        stat, (hr, hd) = order_statistic_map(power, cfg_a.window, cfg_a.guard, cfg_a.k_rank)
        cut = power[hr:hr + stat.shape[0], hd:hd + stat.shape[1]]
        fires_a, _ = os_cfar_fire_map(power, cfg_a)
        fires_b, _ = os_cfar_fire_map(power, cfg_b)
        assert np.array_equal(fires_a, cut > cfg_a.alpha * stat)
        assert np.array_equal(fires_b, cut > cfg_b.alpha * stat)
        assert fires_b.sum() <= fires_a.sum()  # stricter pfa fires less

    def test_count_reaches_every_reference_cell(self):
        # 33x11 window: 348 reference cells, one CUT, k_rank = n_ref, so the
        # CUT fires only when all 348 are counted below it
        cfg = OsCfarConfig(window=(33, 11), guard=(2, 1), k_rank=348, alpha=1.0)
        assert cfg.n_ref == 348
        power = np.ones((33, 11))
        power[16, 5] = 2.0
        fires, offset = os_cfar_fire_map(power, cfg)
        assert fires.shape == (1, 1) and offset == (16, 5) and fires[0, 0]
        power[0, 0] = 2.0  # one reference no longer below the CUT
        assert not os_cfar_fire_map(power, cfg)[0][0, 0]

    def test_map_smaller_than_window(self, rng):
        with pytest.raises(ValueError, match="smaller"):
            os_cfar_fire_map(rng.exponential(1.0, (16, 32)), make_os_cfar_config(1e-3))


# non-negative power cells; 0 or at least 1e-3 so that scaling by 2^k for
# |k| <= 20 never reaches the subnormal range and stays exact
cell_values = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))


class TestFireMapProperties:
    @settings(max_examples=50, deadline=None)
    @given(power=arrays(np.float64, st.tuples(st.integers(5, 12), st.integers(3, 8)),
                        elements=cell_values),
           pfa=st.sampled_from([1e-1, 1e-2, 1e-4]), k=st.integers(-20, 20))
    def test_power_of_two_scaling_is_exact(self, power, pfa, k):
        cfg = make_os_cfar_config(pfa, window=(5, 3), guard=(1, 1))
        fires, offset = os_cfar_fire_map(power, cfg)
        scaled, scaled_offset = os_cfar_fire_map(power * 2.0**k, cfg)
        assert np.array_equal(fires, scaled) and offset == scaled_offset


# cells with zeros and many ties: small integers or multiples of 1/4
tied_cells = st.one_of(st.just(0.0), st.integers(0, 6).map(float),
                       st.integers(0, 24).map(lambda q: q / 4))


@st.composite
def cfar_maps(draw):
    """(power, window, guard): a map of tied cells at least one window big,
    with a constant block planted that is 1e4 times brighter."""
    window, guard = draw(st.sampled_from([((5, 3), (1, 1)), ((9, 5), (2, 1)), ((33, 11), (2, 1))]))
    shape = (draw(st.integers(window[0], window[0] + 10)), draw(st.integers(window[1], window[1] + 6)))
    power = draw(arrays(np.float64, shape, elements=tied_cells))
    r0, d0 = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
    power[r0:r0 + draw(st.integers(1, 6)), d0:d0 + draw(st.integers(1, 4))] = draw(tied_cells) * 1e4
    return power, window, guard


class TestCountedFireMap:
    @settings(max_examples=150, deadline=None)
    @given(case=cfar_maps(), pfa=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4, 1e-6]))
    def test_equals_sorted_order_statistic(self, case, pfa):
        power, window, guard = case
        cfg = make_os_cfar_config(pfa, window=window, guard=guard)
        stat, (hr, hd) = order_statistic_map(power, window, guard, cfg.k_rank)
        cut = power[hr:hr + stat.shape[0], hd:hd + stat.shape[1]]
        fires, offset = os_cfar_fire_map(power, cfg)
        assert offset == (hr, hd)
        assert np.array_equal(fires, cut > cfg.alpha * stat)


class TestEmpiricalRates:
    def test_rate_near_design_point(self):
        cfg = make_os_cfar_config(1e-2, window=(5, 3), guard=(1, 1))
        rates, total = empirical_false_alarm_rate([cfg], 2e5, seed=99, map_shape=(64, 32))
        assert total >= 2e5
        assert 0.6e-2 < rates[0] < 1.6e-2

    def test_shared_sort_requires_matching_configs(self):
        a = make_os_cfar_config(1e-2, window=(5, 3), guard=(1, 1))
        b = make_os_cfar_config(1e-2, window=(7, 3), guard=(1, 1))
        with pytest.raises(ValueError, match="share"):
            empirical_false_alarm_rate([a, b], 1e4, seed=0)
