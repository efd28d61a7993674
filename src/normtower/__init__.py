"""normtower: formal-group local points and norm-subgroup structure over
cyclotomic towers of unramified p-adic fields, verified at finite precision."""

from .curve import (
    CurveParams,
    curve_from_preset,
    formal_exp,
    formal_group_law,
    formal_log,
    multiplication_by_p_series,
)
from .groupring import delta_of, omega_family, q_values
from .honda import HondaLog, honda_exp, honda_log, series_bundle
from .lambda_modules import (
    NotZpFinite,
    Presentation,
    coinvariant_rank_law,
    coinvariants,
    freeness_test,
    kernel_freeness_property,
    module_report,
    present_minus,
    present_plus,
    supplementary_structure_check,
)
from .lattice import (
    Lattice,
    check_exact_sequence,
    cyclicity_check,
    galois_span,
    maximal_ideal_lattice,
    uniformizer_generates_quotient,
)
from .localpoints import InsufficientDegree, LocalPoint, local_point_direct
from .padic import PrecisionExhausted
from .points import epsilon_log, point_log, verify_trace_relations
from .series import TruncSeries
from .snf import SnfResult, smith_divisors, smith_normal_form
from .tower import TowerDesc, TowerElt, build_tower, check_g_iterate, uniformizer
from .unramified import FieldDesc, build_unramified

__all__ = [
    "CurveParams", "curve_from_preset", "formal_exp",
    "formal_group_law", "formal_log", "multiplication_by_p_series",
    "delta_of", "omega_family", "q_values",
    "HondaLog", "honda_exp", "honda_log", "series_bundle",
    "NotZpFinite", "Presentation", "coinvariant_rank_law", "coinvariants",
    "freeness_test", "kernel_freeness_property", "module_report",
    "present_minus", "present_plus", "supplementary_structure_check",
    "Lattice", "check_exact_sequence", "cyclicity_check", "galois_span",
    "maximal_ideal_lattice", "uniformizer_generates_quotient",
    "InsufficientDegree", "LocalPoint", "local_point_direct",
    "PrecisionExhausted",
    "epsilon_log", "point_log", "verify_trace_relations",
    "TruncSeries", "SnfResult", "smith_divisors", "smith_normal_form",
    "TowerDesc", "TowerElt", "build_tower", "check_g_iterate", "uniformizer",
    "FieldDesc", "build_unramified",
]
