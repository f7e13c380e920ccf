"""kannanlab: exact-arithmetic laboratory for Kannan-type contractive maps.

Everything numeric in verdicts and reports is an exact rational; floats
appear only in the Khan long-double cross-check.  See README for the
tour.  The package root exports the names the README, the demos and the
tests use; everything else is imported from its module.
"""

from .rationals import lt_sqrt
from .spaces import (FiniteSpace, GornickiNat, HalfLineUsual, MembershipError,
                     SplitSet, UnitIntervalRight, split_set_sample,
                     verify_metric_axioms)
from .maps import (PiecewiseDrop, Scale, StairScale, TableMap, TripleNat,
                   orbit, orbit_cluster_probe)
from .conditions import (ChenYeh, Fisher, KannanK, Khan, StrictKannan,
                         check_epsdelta_orbit, evaluate_condition,
                         kannan_ratio, load_condition, sample_pairs)
from .picard import (orbit_trace_csv, run_picard, uniqueness_probe,
                     verify_fixed_point)
from .completeness import (build_reciprocal_witness,
                           construct_counterexample_map, scan_fixed_point_free,
                           verify_counterexample, verify_gornicki_answer)
from .census import (enumerate_census, khan_float_crosscheck, map_from_id,
                     random_finite_space, render_census, tightness_scan)

__version__ = "0.1.0"

__all__ = [
    "lt_sqrt",
    "FiniteSpace", "GornickiNat", "HalfLineUsual", "MembershipError",
    "SplitSet", "UnitIntervalRight", "split_set_sample", "verify_metric_axioms",
    "PiecewiseDrop", "Scale", "StairScale", "TableMap", "TripleNat", "orbit",
    "orbit_cluster_probe",
    "ChenYeh", "Fisher", "KannanK", "Khan", "StrictKannan",
    "check_epsdelta_orbit", "evaluate_condition", "kannan_ratio",
    "load_condition", "sample_pairs",
    "orbit_trace_csv", "run_picard", "uniqueness_probe", "verify_fixed_point",
    "build_reciprocal_witness", "construct_counterexample_map",
    "scan_fixed_point_free", "verify_counterexample", "verify_gornicki_answer",
    "enumerate_census", "khan_float_crosscheck", "map_from_id",
    "random_finite_space", "render_census", "tightness_scan",
]
