"""Map-level detection chain: IoU, recentering, suppression, full sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdkan.kan import forward, init_model
from rdkan.pipeline import (
    MAP_MARGIN_FLOORS,
    NMS_IOU_THRESHOLD,
    RECENTER_STEPS,
    SegmentDetection,
    bbox_around,
    detect,
    iou,
    nms,
    recenter,
    segment_detections_to_csv,
    sweep_classify,
)
from rdkan.radarsim import MapGeometry, sample_target, synth_if_cube
from rdkan.rdmap import (
    SEGMENT_HALF,
    SEGMENT_SHAPE,
    RDMap,
    SegmentError,
    compute_rd_map,
    histogram_feature,
    segment_cells,
)
from rdkan.symbolic import builtin_rule, rule_from_model, rule_scores


def as_rd(power):
    """Wrap a bare power matrix with placeholder unit-cell geometry."""
    n_r, n_d = power.shape
    geometry = MapGeometry(1.0, 1.0, float(n_r), n_d / 2.0, n_r, n_d)
    return RDMap(power=np.asarray(power, dtype=float), geometry=geometry)


def det_at(r, d, peak):
    return SegmentDetection(r, d, margin=1.0, peak_power=peak, bbox=bbox_around((r, d)))


def scalar_walk(power, center):
    """One center at a time, the walk recenter vectorizes (test oracle)."""
    hr, hd = SEGMENT_HALF
    n_r, n_d = power.shape
    r, d = center
    for _ in range(RECENTER_STEPS):
        seg = power[r - hr:r + hr + 1, d - hd:d + hd + 1]
        flat = int(np.argmax(seg))
        pr, pd = r - hr + flat // SEGMENT_SHAPE[1], d - hd + flat % SEGMENT_SHAPE[1]
        pr = min(max(pr, hr), n_r - hr - 1)
        pd = min(max(pd, hd), n_d - hd - 1)
        if (pr, pd) == (r, d) or power[pr, pd] <= power[r, d]:
            break
        r, d = pr, pd
    return (r, d)


class TestBoxes:
    def test_bbox_around(self):
        assert bbox_around((100, 64)) == (92, 108, 61, 67)

    def test_iou_identical_and_disjoint(self):
        a = bbox_around((50, 50))
        assert iou(a, a) == 1.0
        assert iou(a, bbox_around((100, 100))) == 0.0
        assert iou(a, bbox_around((67, 50))) == 0.0  # exactly adjacent in range

    def test_iou_known_overlap(self):
        # 9-row offset of two 17x7 boxes: 8*7 = 56 shared cells out of
        # 2*119 - 56 = 182
        a = bbox_around((50, 50))
        b = bbox_around((59, 50))
        assert iou(a, b) == pytest.approx(56 / 182)
        assert iou(b, a) == iou(a, b)
        assert iou(a, b) < NMS_IOU_THRESHOLD  # neighboring targets survive NMS

    def test_iou_inclusive_bins(self):
        # single-cell boxes overlap fully with themselves
        assert iou((3, 3, 4, 4), (3, 3, 4, 4)) == 1.0
        assert iou((0, 1, 0, 1), (1, 2, 1, 2)) == pytest.approx(1 / 7)


class TestRecenter:
    def test_walks_up_a_cone(self):
        power = -(np.abs(np.arange(64)[:, None] - 30) + np.abs(np.arange(32)[None, :] - 16)).astype(float)
        finals = recenter(as_rd(power), [(22, 12), (30, 16)])
        assert finals.tolist() == [[30, 16], [30, 16]]

    def test_tie_prefers_row_major_first(self):
        power = np.zeros((64, 32))
        power[28, 14] = 5.0
        power[32, 18] = 5.0
        assert recenter(as_rd(power), [(30, 16)]).tolist() == [[28, 14]]

    def test_clamped_to_interior(self):
        power = np.zeros((64, 32))
        power[2, 1] = 100.0  # peak too close to the edge for a segment
        assert recenter(as_rd(power), [(8, 3)]).tolist() == [[8, 3]]

    def test_plateau_stays_put(self):
        assert recenter(as_rd(np.ones((64, 32))), [(20, 10)]).tolist() == [[20, 10]]

    def test_iteration_cap(self):
        # each step climbs 8 rows of a long ramp (and moves to the first
        # column of the row's ties), so the walk stops short of the top
        power = np.arange(200, dtype=float)[:, None] * np.ones(32)
        finals = recenter(as_rd(power), [(8, 16)])
        assert finals.tolist() == [[8 + 8 * RECENTER_STEPS, 3]]
        assert finals[0, 0] < 200 - 1 - SEGMENT_HALF[0]

    def test_no_centers(self):
        assert recenter(as_rd(np.ones((64, 32))), np.empty((0, 2), int)).shape == (0, 2)

    @pytest.mark.parametrize("center", [(7, 10), (56, 10), (20, 2), (20, 29)])
    def test_edge_center_rejected(self, center):
        with pytest.raises(SegmentError, match="edge"):
            recenter(as_rd(np.ones((64, 32))), [center])


@st.composite
def maps_and_centers(draw):
    """Small-integer maps (plateaus, ties) tilted by an integer ramp (long
    walks), with centers anywhere in the interior, edges included."""
    n_r, n_d = draw(st.integers(17, 40)), draw(st.integers(7, 20))
    cells = draw(st.lists(st.integers(0, 3), min_size=n_r * n_d, max_size=n_r * n_d))
    tilt_r, tilt_d = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    power = (np.array(cells, dtype=float).reshape(n_r, n_d)
             + tilt_r * np.arange(n_r)[:, None] + tilt_d * np.arange(n_d)[None, :])
    hr, hd = SEGMENT_HALF
    center = st.tuples(st.integers(hr, n_r - hr - 1), st.integers(hd, n_d - hd - 1))
    return power, draw(st.lists(center, min_size=1, max_size=30))


class TestRecenterProperties:
    @settings(max_examples=100, deadline=None)
    @given(case=maps_and_centers())
    def test_equals_scalar_walk(self, case):
        power, centers = case
        finals = recenter(as_rd(power), centers)
        assert [tuple(f) for f in finals.tolist()] == [scalar_walk(power, c) for c in centers]


class TestNms:
    def test_strongest_first_suppression(self):
        a = det_at(50, 50, peak=10.0)
        b = det_at(59, 50, peak=8.0)   # iou 0.308 with a: kept
        c = det_at(53, 50, peak=9.0)   # iou 0.70 with a: suppressed
        kept = nms([c, b, a])
        assert [(k.range_bin, k.doppler_bin) for k in kept] == [(50, 50), (59, 50)]

    def test_boundary_iou_is_kept(self):
        # overlap exactly at the threshold passes (suppression is strict);
        # 17x7 boxes 3 Doppler bins apart share 68 of 170 cells
        a = det_at(50, 50, peak=5.0)
        at = det_at(50, 53, peak=4.0)
        above = det_at(57, 50, peak=4.0)  # the next IoU up: 70 of 168 cells
        assert iou(a.bbox, at.bbox) == NMS_IOU_THRESHOLD == 0.40
        assert iou(a.bbox, above.bbox) == 70 / 168
        assert len(nms([a, at])) == 2
        assert len(nms([a, above])) == 1

    def test_tie_on_peak_prefers_row_major(self):
        a = det_at(53, 50, peak=7.0)
        b = det_at(50, 50, peak=7.0)
        kept = nms([a, b])
        assert (kept[0].range_bin, kept[0].doppler_bin) == (50, 50)

    def test_empty(self):
        assert nms([]) == []


detections = st.lists(
    st.builds(det_at, st.integers(8, 60), st.integers(3, 30), st.integers(1, 4).map(float)),
    max_size=25,
)


class TestNmsProperties:
    @settings(max_examples=100, deadline=None)
    @given(dets=detections)
    def test_idempotent(self, dets):
        kept = nms(dets)
        assert nms(kept) == kept

    @settings(max_examples=100, deadline=None)
    @given(dets=detections)
    def test_kept_boxes_overlap_at_most_the_threshold(self, dets):
        kept = nms(dets)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert iou(a.bbox, b.bbox) <= NMS_IOU_THRESHOLD

    @settings(max_examples=50, deadline=None)
    @given(dets=detections, seed=st.integers(0, 2**32 - 1))
    def test_input_order_does_not_matter(self, dets, seed):
        shuffled = list(dets)
        np.random.default_rng(seed).shuffle(shuffled)
        assert nms(shuffled) == nms(dets)


class TestSweep:
    def test_margins_match_rule_scores(self, rng):
        rule = builtin_rule("paper-eq7-m10")
        rd = as_rd(rng.exponential(1.0, (40, 20)))
        sweep = sweep_classify(rd, rule)
        assert len(sweep.centers) == (40 - 16) * (20 - 6)
        for i in rng.choice(len(sweep.centers), 5, replace=False):
            r, d = sweep.centers[i]
            feat = histogram_feature(segment_cells(rd.power, [(r, d)])[0], 10)
            s = rule_scores(rule, feat.histogram[None])[0]
            assert sweep.margins[i] == pytest.approx(s[1] - s[0], abs=1e-12)

    def test_model_classifier_margins(self, rng):
        # a checkpoint sweeps as its exact rule
        model = init_model(10, rng)
        rd = as_rd(rng.exponential(1.0, (40, 20)))
        sweep = sweep_classify(rd, rule_from_model(model, "kan"))
        feat = histogram_feature(segment_cells(rd.power, sweep.centers[:1])[0], 10)
        logits = forward(model, feat.histogram[None])[0]
        assert sweep.margins[0] == pytest.approx(logits[1] - logits[0], abs=1e-10)

    def test_hits_respect_floor_and_degeneracy(self):
        rule = builtin_rule("paper-eq7-m10")
        rd = as_rd(np.ones((30, 15)))  # all segments degenerate
        sweep = sweep_classify(rd, rule)
        assert sweep.hits(0.0).size == 0


class TestDetect:
    def test_planted_target_found_once(self, config, rng):
        scene = [sample_target(rng, 50.0, 5.0, "front")]
        cube = synth_if_cube(scene, config, snr_db=20.0, rng=rng)
        rd = compute_rd_map(cube, window="hann")
        dets = detect(rd, builtin_rule("paper-eq7-m10"))
        assert len(dets) == 1
        det = dets[0]
        assert det.range_bin == pytest.approx(rd.geometry.range_to_bin(50.0), abs=3)
        assert det.doppler_bin == pytest.approx(rd.geometry.velocity_to_bin(5.0), abs=3)
        assert det.margin > 0
        assert det.n_sweep_hits > 1  # many sweep positions collapse onto the peak

    def test_noise_only_map_is_clean(self, config):
        rng = np.random.default_rng(77)
        rd = compute_rd_map(synth_if_cube([], config, noise_sigma=1.2, rng=rng), window="hann")
        assert detect(rd, builtin_rule("paper-eq7-m10")) == []

    def test_min_margin_override(self, config, rng):
        scene = [sample_target(rng, 50.0, 5.0, "front")]
        rd = compute_rd_map(synth_if_cube(scene, config, snr_db=20.0, rng=rng), window="hann")
        assert detect(rd, builtin_rule("paper-eq7-m10"), min_margin=1e9) == []

    @pytest.mark.parametrize("kind", ["rule", "kan"])
    def test_margin_is_the_score_at_the_final_center(self, kind, config):
        # the sweep's margin at a detection's center equals a fresh
        # one-segment score there, bit for bit
        rng = np.random.default_rng(5)
        if kind == "rule":
            classifier = builtin_rule("paper-eq7-m10")
        else:
            classifier = rule_from_model(init_model(10, rng), "kan")
        scene = [sample_target(rng, r_m, v, "front") for r_m, v in ((30.0, -4.0), (55.0, 6.0))]
        rd = compute_rd_map(synth_if_cube(scene, config, snr_db=20.0, rng=rng), window="hann")
        dets = detect(rd, classifier)
        assert dets
        for det in dets:
            feat = histogram_feature(segment_cells(rd.power, [det.center])[0], 10)
            s = rule_scores(classifier, feat.histogram[None])[0]
            assert det.margin == s[1] - s[0]

    def test_floor_table_has_shipped_rule(self):
        assert MAP_MARGIN_FLOORS["paper-eq7-m10"] > 0.0


class TestCsv:
    def test_round_trip_lines(self, tmp_path, geometry):
        dets = [det_at(100, 70, 6.0), det_at(40, 60, 3.5)]
        path = tmp_path / "dets.csv"
        segment_detections_to_csv(path, dets, geometry=geometry)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("range_bin,doppler_bin,margin,peak_power")
        assert lines[0].endswith("range_m,velocity_mps")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[5]) == pytest.approx(100 * geometry.range_res, abs=1e-3)

    def test_empty_list_writes_header(self, tmp_path, geometry):
        path = tmp_path / "dets.csv"
        segment_detections_to_csv(path, [], geometry)
        assert path.read_text().strip() == (
            "range_bin,doppler_bin,margin,peak_power,n_sweep_hits,range_m,velocity_mps")
