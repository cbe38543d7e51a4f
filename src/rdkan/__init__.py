"""Desk-scale range-Doppler detection workbench.

Synthesizes FMCW IF data cubes with extended fluctuating targets, forms
range-Doppler maps, and compares two detectors on them: a histogram-driven
spline-network (KAN) classifier swept over RD segments, and a 2-D
ordered-statistic CFAR baseline.
"""

from rdkan.radarsim import (
    RadarConfig,
    MapGeometry,
    Scatterer,
    ExtendedTarget,
    IfDataCube,
    derive_geometry,
    sample_target,
    synth_if_cube,
)
from rdkan.rdmap import RDMap, SegmentFeature, compute_rd_map, histogram_feature, segment_cells
from rdkan.oscfar import OsCfarConfig, solve_alpha, make_os_cfar_config, os_cfar_fire_map
from rdkan.kan import KanModel, init_model, fit, fit_sparse, prune, fine_tune
from rdkan.symbolic import DecisionRule, SymbolicExpr, snap, eval_rule, fit_decay_rates, builtin_rule
from rdkan.pipeline import SegmentDetection, sweep_classify, recenter, iou, nms, detect
from rdkan.datasets import (
    IN_DISTRIBUTION,
    SHIFTED,
    TargetScenario,
    build_labeled_segments,
    standard_datasets,
)
from rdkan.harness import EvalReport, detector_from_id, run_monte_carlo

__version__ = "0.1.0"
