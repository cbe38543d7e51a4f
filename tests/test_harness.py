"""Detector ids, trial scoring, and the common-random-numbers sweep."""

import json

import numpy as np
import pytest

from rdkan.harness import (
    DetectorError,
    EvalReport,
    KanDetector,
    OsCfarDetector,
    detector_from_id,
    gt_coverage,
    ground_truth_box,
    oscfar_runtime_scaling,
    run_monte_carlo,
    score_kan_trial,
    score_oscfar_trial,
    sweep_runtime_scaling,
)
from rdkan.oscfar import make_os_cfar_config
from rdkan.pipeline import SegmentDetection, bbox_around
from rdkan.radarsim import ExtendedTarget, Scatterer
from rdkan.rdmap import RDMap
from rdkan.symbolic import DecisionRule


def two_point_target(range_m=50.0, velocity_mps=5.0, dr=1.0, dv=0.1):
    scatterers = (
        Scatterer(-dr, -dv, 1.0, 0.0),
        Scatterer(dr, dv, 1.0, 0.0),
    )
    return ExtendedTarget(range_m, velocity_mps, 10.0, "front", dr, dv, scatterers)


class TestDetectorIds:
    def test_kan_id(self):
        det = detector_from_id("kan:paper-eq7-m10")
        assert isinstance(det, KanDetector)
        assert isinstance(det.classifier, DecisionRule)
        assert det.classifier.name == "paper-eq7-m10"
        assert det.id == "kan:paper-eq7-m10"

    def test_oscfar_id(self):
        det = detector_from_id("oscfar:1e-3")
        assert isinstance(det, OsCfarDetector)
        assert det.config.pfa == 1e-3
        assert det.config.alpha == pytest.approx(5.3015, abs=1e-3)

    @pytest.mark.parametrize("bad", ["oscfar:abc", "foo:1", "kan:", "oscfar:", "kan"])
    def test_malformed_ids(self, bad):
        with pytest.raises(DetectorError):
            detector_from_id(bad)

    def test_unknown_rule_name_propagates(self):
        with pytest.raises(ValueError, match="available"):
            detector_from_id("kan:paper-eq9-m3")


class TestGroundTruth:
    def test_box_spans_scatterers(self, geometry):
        target = two_point_target()
        r0, r1, d0, d1 = ground_truth_box(target, geometry)
        assert r0 == geometry.range_to_bin(49.0) - 1
        assert r1 == geometry.range_to_bin(51.0) + 1
        assert d0 == geometry.velocity_to_bin(4.9) - 1
        assert d1 == geometry.velocity_to_bin(5.1) + 1

    def test_box_clipped_to_map(self, geometry):
        target = two_point_target(range_m=0.5, velocity_mps=-19.2)
        r0, r1, d0, d1 = ground_truth_box(target, geometry)
        assert r0 >= 0 and d0 >= 0
        assert r1 <= 255 and d1 <= 127

    def test_coverage_fraction(self):
        gt = (10, 19, 5, 9)  # 10 x 5 = 50 cells
        assert gt_coverage([], gt) == 0.0
        assert gt_coverage([(0, 14, 0, 7)], gt) == pytest.approx(15 / 50)
        both = [(0, 14, 0, 7), (15, 19, 5, 9)]
        assert gt_coverage(both, gt) == pytest.approx(40 / 50)
        assert gt_coverage([gt], gt) == 1.0


class TestTrialScoring:
    def test_kan_scoring(self):
        gt = bbox_around((100, 64))
        on_target = SegmentDetection(100, 64, 1.0, 5.0, bbox=bbox_around((100, 64)))
        elsewhere = SegmentDetection(200, 30, 1.0, 5.0, bbox=bbox_around((200, 30)))
        hit, n_false = score_kan_trial([on_target, elsewhere], gt)
        assert hit and n_false == 1
        hit, n_false = score_kan_trial([elsewhere], gt)
        assert not hit and n_false == 1
        assert score_kan_trial([], gt) == (False, 0)

    def test_oscfar_scoring(self):
        fires = np.zeros((20, 20), dtype=bool)
        gt = (10, 12, 5, 6)
        offset = (8, 3)
        assert score_oscfar_trial(fires, offset, gt) == (False, 0)
        fires[3, 2] = True  # cell (11, 5): inside the box
        assert score_oscfar_trial(fires, offset, gt) == (True, 0)
        fires[15, 15] = True  # cell (23, 18): outside
        assert score_oscfar_trial(fires, offset, gt) == (True, 1)

    def test_oscfar_box_outside_tested_region(self):
        fires = np.zeros((5, 5), dtype=bool)
        fires[0, 0] = True
        hit, n_false = score_oscfar_trial(fires, (8, 3), (0, 2, 0, 1))
        assert not hit and n_false == 1


def mixed_detectors():
    """A rule, a 17x7 CFAR and a 9x5 CFAR."""
    return [
        detector_from_id("kan:paper-eq7-m10"),
        detector_from_id("oscfar:1e-3"),
        OsCfarDetector(config=make_os_cfar_config(1e-3, window=(9, 5)), id="oscfar-9x5:1e-3"),
    ]


class TestTrialProtocol:
    def test_one_tested_count_per_map(self, geometry, rng):
        rd = RDMap(power=rng.exponential(1.0, (256, 128)), geometry=geometry)
        gt = (100, 110, 60, 66)
        counts = [det.trial(rd, gt)[2] for det in mixed_detectors()[:2]]
        assert counts == [(256 - 16) * (128 - 6)] * 2


class TestMonteCarlo:
    def test_small_sweep(self):
        report = run_monte_carlo(
            ["kan:paper-eq7-m10", "oscfar:1e-3"],
            snr_grid_db=[-25, 20],
            n_trials=4,
            seed=123,
        )
        assert report.pd.shape == (2, 2) and report.fa.shape == (2, 2)
        assert np.all((0 <= report.pd) & (report.pd <= 1))
        assert np.all(report.fa >= 0)
        kan_pd, _ = report.row("kan:paper-eq7-m10")
        assert kan_pd[1] == 1.0  # every 20 dB trial detected

    def test_rows_independent_of_company_and_order(self):
        # each detector's row is bit-identical whether it runs alone, with
        # others sharing the map's sort memo, or in reversed order
        kwargs = dict(snr_grid_db=[-5, 10], n_trials=2, seed=11)
        mixed = run_monte_carlo(mixed_detectors(), **kwargs)
        reversed_ = run_monte_carlo(mixed_detectors()[::-1], **kwargs)
        for det in mixed_detectors():
            alone = run_monte_carlo([det], **kwargs)
            for report in (mixed, reversed_):
                pd, fa = report.row(det.id)
                assert pd.tobytes() == alone.pd[0].tobytes()
                assert fa.tobytes() == alone.fa[0].tobytes()

    def test_common_random_numbers(self):
        kwargs = dict(snr_grid_db=[0], n_trials=3, seed=7)
        a = run_monte_carlo(["oscfar:1e-3"], **kwargs)
        b = run_monte_carlo(["oscfar:1e-3"], **kwargs)
        assert np.array_equal(a.pd, b.pd)
        assert np.array_equal(a.fa, b.fa)


class TestEvalReport:
    def make_report(self):
        return EvalReport(
            detector_ids=["kan:paper-eq7-m10", "oscfar:1e-4"],
            snr_grid_db=[-5, 0],
            n_trials=10,
            seed=0,
            pd=np.array([[0.5, 1.0], [0.2, 0.9]]),
            fa=np.array([[0.0, 0.0], [1e-4, 2e-4]]),
        )

    def test_row_and_table(self):
        report = self.make_report()
        pd, fa = report.row("oscfar:1e-4")
        assert pd.tolist() == [0.2, 0.9]
        assert fa.tolist() == [1e-4, 2e-4]
        with pytest.raises(ValueError):
            report.row("nope")
        text = report.table()
        assert "SNR(dB)" in text and "Pd=0.500" in text

    def test_json_and_csv(self, tmp_path):
        report = self.make_report()
        jpath = tmp_path / "report.json"
        report.to_json(jpath)
        doc = json.loads(jpath.read_text())
        assert doc["format"] == "rdkan-eval-v1"
        assert doc["pd"][0][1] == 1.0
        cpath = tmp_path / "report.csv"
        report.to_csv(cpath)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "snr_db"
        assert len(lines) == 3


class TestRuntimeScaling:
    def test_sweep_scaling_shape(self):
        out = sweep_runtime_scaling(n_rows_list=(64, 128))
        assert out["n_segments"] == [(64 - 16) * 122, (128 - 16) * 122]
        assert all(t > 0 for t in out["seconds"])
        assert np.isfinite(out["exponent"])

    def test_oscfar_scaling_shape(self):
        out = oscfar_runtime_scaling(windows=((9, 5), (17, 7)))
        assert out["n_ref"] == [9 * 5 - 15, 104]
        assert out["seconds"][1] > out["seconds"][0]
