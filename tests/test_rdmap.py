"""RD map formation and histogram features against brute-force oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from rdkan.radarsim import IfDataCube, RadarConfig, derive_geometry, synth_if_cube
from rdkan.rdmap import (
    SEGMENT_HALF,
    SEGMENT_SHAPE,
    SegmentError,
    RDMap,
    bin_rows,
    compute_rd_map,
    histogram_feature,
    load_rd_map,
    save_rd_map,
    segment_cells,
    segment_histogram_map,
)


def brute_histogram(cells, m_bins):
    """Reference implementation: linear scan over left-closed bins."""
    flat = np.asarray(cells, dtype=float).ravel()
    lo, hi = flat.min(), flat.max()
    heights = np.zeros(m_bins)
    if hi == lo:
        heights[0] = 1.0
        return heights, True
    edges = np.linspace(0.0, 1.0, m_bins + 1)
    for v in (flat - lo) / (hi - lo):
        b = 0
        for i in range(m_bins):
            if v >= edges[i]:
                b = i
        heights[b] += 1
    return heights / flat.size, False


class TestComputeRdMap:
    def test_matches_direct_dft(self):
        # Small cube against an explicit DFT-matrix product, shift included.
        config = RadarConfig(n_samples=8, n_chirps=4)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        cube = IfDataCube(samples=x, config=config, noise_sigma=0.0)
        n, l = 8, 4
        f_n = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        f_l = np.exp(-2j * np.pi * np.outer(np.arange(l), np.arange(l)) / l)
        oracle = np.roll(np.abs(f_n @ x @ f_l.T) ** 2, l // 2, axis=1)
        got = compute_rd_map(cube).power
        assert np.allclose(got, oracle, rtol=1e-12)

    def test_shape_mismatch_rejected(self, config):
        cube = IfDataCube(samples=np.zeros((16, 16), complex), config=config, noise_sigma=0.0)
        with pytest.raises(ValueError, match="disagree"):
            compute_rd_map(cube)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_samples_rejected(self, bad, config, rng):
        cube = synth_if_cube([], config, rng=rng)
        cube.samples[5, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            compute_rd_map(cube, window="hann")

    def test_unknown_window_rejected(self, config, rng):
        cube = synth_if_cube([], config, rng=rng)
        with pytest.raises(ValueError, match="window"):
            compute_rd_map(cube, window="blackman")

    def test_hann_keeps_peak_location(self, config, rng):
        cube = synth_if_cube([], config, noise_sigma=1.0, rng=rng)
        plain = compute_rd_map(cube)
        windowed = compute_rd_map(cube, window="hann")
        assert windowed.power.shape == plain.power.shape
        # Hann loses broadband energy relative to the rectangular window
        assert windowed.power.sum() < plain.power.sum()

    def test_noise_cell_mean(self, config):
        # White CN(0, sigma^2) input: each RD power cell is exponential
        # with mean N*L*sigma^2.
        cube = synth_if_cube([], config, noise_sigma=1.5, rng=np.random.default_rng(11))
        rd = compute_rd_map(cube)
        want = config.n_samples * config.n_chirps * 1.5**2
        assert rd.power.mean() == pytest.approx(want, rel=0.02)

    def test_geometry_attached(self, config, geometry, rng):
        rd = compute_rd_map(synth_if_cube([], config, rng=rng))
        assert rd.geometry == geometry
        assert rd.shape == (256, 128)


class TestSegments:
    def test_segment_half(self):
        assert SEGMENT_SHAPE == (17, 7)
        assert SEGMENT_HALF == (8, 3)

    def test_segment_cells_is_a_copy(self, rng):
        power = rng.exponential(1.0, (40, 30))
        cells = segment_cells(power, [(20, 15)])
        assert cells.shape == (1,) + SEGMENT_SHAPE
        assert np.array_equal(cells[0], power[12:29, 12:19])
        cells[0, 0, 0] = -1.0
        assert power[12, 12] >= 0

    @pytest.mark.parametrize("center", [(7, 10), (248, 10), (100, 2), (100, 125), (-1, 5)])
    def test_segment_cells_edge_centers_rejected(self, center, rng):
        power = rng.exponential(1.0, (256, 128))
        with pytest.raises(SegmentError, match="edge"):
            segment_cells(power, [(20, 15), center])


class TestSegmentCellsProperties:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(17, 40), st.integers(7, 20)), data=st.data())
    def test_equals_slice_copies(self, shape, data):
        power = np.arange(shape[0] * shape[1], dtype=float).reshape(shape)
        hr, hd = SEGMENT_HALF
        last_r, last_d = shape[0] - hr - 1, shape[1] - hd - 1
        inside = st.tuples(st.integers(hr, last_r), st.integers(hd, last_d))
        corners = [(hr, hd), (hr, last_d), (last_r, hd), (last_r, last_d)]
        centers = data.draw(st.lists(inside, max_size=8)) + corners
        cells = segment_cells(power, np.array(centers))
        assert cells.shape == (len(centers),) + SEGMENT_SHAPE
        for seg, (r, d) in zip(cells, centers):
            assert np.array_equal(seg, power[r - hr:r + hr + 1, d - hd:d + hd + 1])
        cells[:] = -1.0
        assert power.min() == 0.0

        r, d = data.draw(inside)
        for outside in [(hr - 1, d), (last_r + 1, d), (r, hd - 1), (r, last_d + 1)]:
            with pytest.raises(SegmentError):
                segment_cells(power, np.array([(r, d), outside]))

    def test_no_centers(self):
        cells = segment_cells(np.ones((20, 10)), np.empty((0, 2), int))
        assert cells.shape == (0,) + SEGMENT_SHAPE


class TestHistogramFeature:
    @pytest.mark.parametrize("m_bins", [5, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, m_bins, seed):
        rng = np.random.default_rng(seed)
        cells = rng.exponential(1.0, SEGMENT_SHAPE)
        feat = histogram_feature(cells, m_bins)
        want, degen = brute_histogram(cells, m_bins)
        assert np.array_equal(feat.histogram, want)
        assert feat.degenerate == degen
        assert feat.histogram.sum() == pytest.approx(1.0, abs=1e-12)

    def test_exact_bin_edges(self):
        # Values sitting exactly on bin edges go to the bin on their right,
        # except 1.0 which closes the final bin.
        cells = np.linspace(0.0, 1.0, 11)
        feat = histogram_feature(cells, 10)
        want = np.full(10, 1.0)
        want[9] = 2.0
        assert np.array_equal(feat.histogram, want / 11)

    def test_degenerate_block(self):
        feat = histogram_feature(np.full(SEGMENT_SHAPE, 3.3), 10)
        assert feat.degenerate
        assert feat.histogram[0] == 1.0 and feat.histogram[1:].sum() == 0.0

    def test_min_max_invariance(self, rng):
        # Affine rescaling of the cells leaves the histogram unchanged.
        cells = rng.exponential(1.0, SEGMENT_SHAPE)
        a = histogram_feature(cells, 10).histogram
        b = histogram_feature(cells * 7.5 + 100.0, 10).histogram
        assert np.allclose(a, b)

    def test_input_validation(self):
        with pytest.raises(SegmentError):
            histogram_feature(np.array([]), 10)
        with pytest.raises(SegmentError):
            histogram_feature(np.ones(5), 1)


def exact_bin(v, m_bins):
    """Bin of a normalized value, floor(v*M) in exact rational arithmetic."""
    return min(int(Fraction(float(v)) * m_bins), m_bins - 1)


class TestBinEdges:
    @pytest.mark.parametrize("m_bins", [5, 10])
    def test_one_ulp_either_side_of_every_edge(self, m_bins):
        # Each interior edge k/M has two candidate doubles: the one nearest
        # k/M and numpy's linspace edge.  Test both and one ulp either side.
        # Float floor(v*M), the convention of gate 10's brute scan, puts the
        # double just below 3/5, 3/10, 6/10, 7/10 and 9/10 one bin too high,
        # so the oracle here is exact rational arithmetic.
        values = set()
        for k in range(1, m_bins):
            for edge in (k / m_bins, np.linspace(0.0, 1.0, m_bins + 1)[k]):
                values.update({np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)})
        for v in sorted(values):
            # cells 0 and 1 make the min-max normalization the identity
            block = np.full(SEGMENT_SHAPE, v)
            block[0, :2] = 0.0, 1.0
            want = np.bincount([exact_bin(c, m_bins) for c in block.ravel()], minlength=m_bins)
            want = want / block.size
            assert np.array_equal(histogram_feature(block, m_bins).histogram, want), v
            _, X, _ = segment_histogram_map(block, m_bins)
            assert np.array_equal(X[0], want), v


# non-negative power cells; 0 or at least 1e-3 so that scaling by 2^k for
# |k| <= 20 never reaches the subnormal range and stays exact
cell_values = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))


class TestHistogramProperties:
    @settings(max_examples=50, deadline=None)
    @given(cells=arrays(np.float64, SEGMENT_SHAPE, elements=cell_values),
           m_bins=st.integers(2, 12))
    def test_sums_to_one(self, cells, m_bins):
        assert histogram_feature(cells, m_bins).histogram.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(cells=arrays(np.float64, SEGMENT_SHAPE, elements=cell_values),
           m_bins=st.integers(2, 12), k=st.integers(-20, 20))
    def test_power_of_two_scaling_is_exact(self, cells, m_bins, k):
        a = histogram_feature(cells, m_bins)
        b = histogram_feature(cells * 2.0**k, m_bins)
        assert np.array_equal(a.histogram, b.histogram)
        assert a.degenerate == b.degenerate

    @settings(max_examples=25, deadline=None)
    @given(power=arrays(np.float64, st.tuples(st.integers(17, 22), st.integers(7, 10)),
                        elements=cell_values),
           m_bins=st.integers(2, 12))
    def test_map_rows_equal_segment_features(self, power, m_bins):
        centers, X, degen = segment_histogram_map(power, m_bins)
        for i, center in enumerate(centers):
            feat = histogram_feature(segment_cells(power, [center])[0], m_bins)
            assert np.array_equal(X[i], feat.histogram)
            assert degen[i] == feat.degenerate


def rule_bin(v, m_bins):
    """Bin of a normalized value in exact rational arithmetic: the number of
    interior edges of np.linspace(0, 1, M+1) that it reaches.  This is
    exact_bin wherever each edge double is the least double >= k/M (M = 2,
    4, 5, 8, 10 among 2..12).  For M = 3, 6, 7, 9, 11 and 12 some edges lie
    one double below k/M, so the double nearest k/M reaches edge k."""
    edges = np.linspace(0.0, 1.0, m_bins + 1)[1:-1]
    return sum(Fraction(float(v)) >= Fraction(float(e)) for e in edges)


N_CELLS = SEGMENT_SHAPE[0] * SEGMENT_SHAPE[1]
# (n, 119) stacks mixing generic rows, rows of tied small integers and constant rows
cell_rows = st.lists(
    st.one_of(
        arrays(np.float64, N_CELLS, elements=cell_values),
        arrays(np.float64, N_CELLS, elements=st.integers(0, 12).map(float)),
        cell_values.map(lambda v: np.full(N_CELLS, v)),
    ),
    min_size=1, max_size=6,
).map(np.stack)


class TestBinRowsProperties:
    @settings(max_examples=60, deadline=None)
    @given(rows=cell_rows, m_bins=st.integers(2, 12), k=st.integers(-20, 20))
    def test_equals_exact_oracle(self, rows, m_bins, k):
        X, degenerate = bin_rows(rows * 2.0**k, m_bins)
        for row, x, degen in zip(rows, X, degenerate):
            lo, span = row.min(), row.max() - row.min()
            if span == 0:
                assert degen and x[0] == 1.0 and not x[1:].any()
                continue
            bins = [rule_bin(v, m_bins) for v in (row - lo) / span]
            assert not degen
            assert np.array_equal(x, np.bincount(bins, minlength=m_bins) / N_CELLS)
            if m_bins in (2, 4, 5, 8, 10):
                assert bins == [exact_bin(v, m_bins) for v in (row - lo) / span]

    @settings(max_examples=40, deadline=None)
    @given(rows=cell_rows, m_bins=st.integers(2, 12))
    def test_stack_equals_rows_alone(self, rows, m_bins):
        X, degenerate = bin_rows(rows, m_bins)
        for row, x, degen in zip(rows, X, degenerate):
            x1, degen1 = bin_rows(row[None], m_bins)
            assert np.array_equal(x, x1[0]) and degen == degen1[0]


class TestSegmentHistogramMap:
    def test_matches_per_position_features(self, rng):
        power = rng.exponential(1.0, (25, 13))
        centers, X, degen = segment_histogram_map(power, 10)
        hr, hd = SEGMENT_HALF
        expect_centers = [(r, d) for r in range(hr, 25 - hr) for d in range(hd, 13 - hd)]
        assert [tuple(c) for c in centers] == expect_centers
        for i, (r, d) in enumerate(expect_centers):
            feat = histogram_feature(segment_cells(power, [(r, d)])[0], 10)
            assert np.array_equal(X[i], feat.histogram), (r, d)
            assert degen[i] == feat.degenerate

    def test_degenerate_rows(self):
        power = np.ones((25, 13))
        centers, X, degen = segment_histogram_map(power, 5)
        assert degen.all()
        assert np.array_equal(X[:, 0], np.ones(len(centers)))
        assert X[:, 1:].sum() == 0.0

    def test_mixed_degenerate(self, rng):
        power = rng.exponential(1.0, (40, 20))
        power[:17, :7] = 2.0          # exactly one all-constant segment
        centers, X, degen = segment_histogram_map(power, 10)
        idx = np.flatnonzero(degen)
        assert idx.size == 1
        assert tuple(centers[idx[0]]) == (8, 3)

    def test_too_small_map_rejected(self, rng):
        with pytest.raises(SegmentError):
            segment_histogram_map(rng.exponential(1.0, (10, 5)), 10)

    def test_count_on_full_map(self, rng):
        power = rng.exponential(1.0, (256, 128))
        centers, X, _ = segment_histogram_map(power, 10)
        assert len(centers) == (256 - 16) * (128 - 6)
        assert X.shape == (len(centers), 10)
        assert np.allclose(X.sum(axis=1), 1.0)


@st.composite
def power_maps(draw):
    """Maps from one segment up to 40x20 cells: generic cells, tied small
    integers, or generic cells around a constant block of at least one
    segment, so that some windows are degenerate."""
    shape = draw(st.tuples(st.integers(SEGMENT_SHAPE[0], 40), st.integers(SEGMENT_SHAPE[1], 20)))
    kind = draw(st.sampled_from(["generic", "tied", "block"]))
    elements = st.integers(0, 12).map(float) if kind == "tied" else cell_values
    power = draw(arrays(np.float64, shape, elements=elements))
    if kind == "block":
        r0 = draw(st.integers(0, shape[0] - SEGMENT_SHAPE[0]))
        d0 = draw(st.integers(0, shape[1] - SEGMENT_SHAPE[1]))
        r1 = draw(st.integers(r0 + SEGMENT_SHAPE[0], shape[0]))
        d1 = draw(st.integers(d0 + SEGMENT_SHAPE[1], shape[1]))
        power[r0:r1, d0:d1] = draw(cell_values)
    return power


class TestSegmentHistogramMapProperties:
    @settings(max_examples=80, deadline=None)
    @given(power=power_maps(), m_bins=st.one_of(st.integers(2, 12), st.just(32)),
           k=st.integers(-20, 20))
    def test_equals_bin_rows_on_every_window(self, power, m_bins, k):
        # the sweep is bin_rows' rule over whole-map slices: byte for byte
        _, X, degenerate = segment_histogram_map(power * 2.0**k, m_bins)
        rows = sliding_window_view(power, SEGMENT_SHAPE).reshape(-1, N_CELLS) * 2.0**k
        want_X, want_degenerate = bin_rows(rows, m_bins)
        assert X.shape == want_X.shape and X.tobytes() == want_X.tobytes()
        assert degenerate.shape == want_degenerate.shape
        assert degenerate.tobytes() == want_degenerate.tobytes()


class TestSerialization:
    def test_rd_map_round_trip(self, tmp_path, config, rng):
        rd = compute_rd_map(synth_if_cube([], config, noise_sigma=2.0, rng=rng))
        base = tmp_path / "map"
        save_rd_map(base, rd)
        back = load_rd_map(base)
        assert back.geometry == rd.geometry
        assert np.allclose(back.power, rd.power, rtol=1e-6)

    def test_rd_map_size_mismatch(self, tmp_path, config, rng):
        rd = compute_rd_map(synth_if_cube([], config, rng=rng))
        base = tmp_path / "map"
        save_rd_map(base, rd)
        data = base.with_suffix(".bin").read_bytes()
        base.with_suffix(".bin").write_bytes(data[:-4])
        with pytest.raises(ValueError, match="cells"):
            load_rd_map(base)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rd_map_non_finite_cell(self, bad, tmp_path, config, rng):
        rd = compute_rd_map(synth_if_cube([], config, rng=rng))
        rd.power[100, 60] = bad
        base = tmp_path / "map"
        save_rd_map(base, rd)
        with pytest.raises(ValueError, match="non-finite cells"):
            load_rd_map(base)


class TestRdMapFileProperties:
    @settings(max_examples=40, deadline=None)
    @given(cells=arrays(np.float32, (8, 4),
                        elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
    def test_round_trip_is_byte_exact(self, cells, tmp_path_factory):
        # float32 on disk, so a float32-representable map survives bit for bit
        rd = RDMap(power=cells.astype(np.float64),
                   geometry=derive_geometry(RadarConfig(n_samples=8, n_chirps=4)))
        base = tmp_path_factory.mktemp("map") / "map"
        save_rd_map(base, rd)
        back = load_rd_map(base)
        assert back.geometry == rd.geometry
        assert back.power.dtype == np.float64
        assert back.power.tobytes() == rd.power.tobytes()
