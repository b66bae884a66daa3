"""Partial isometries of cycle graphs.

The distance-preserving partial injections of the n-vertex cycle form
an inverse monoid, and every one of them is a restriction of one of the
2n dihedral symmetries of the cycle.  This package builds these monoids
by three independent routes, computes their Green's structure, and
machine-checks two finite presentations for them (on n + 2 and on 3
generators) by congruence enumeration.
"""

from .congruence import (
    BridgeReport,
    BudgetExceededError,
    CongruenceTable,
    VerifyReport,
    check_consequence,
    check_tietze_bridge,
    enumerate_quotient,
    verify_defines,
)
from .cycle import CycleMetric
from .dihedral import DihedralElement, extensions_of, group_elements
from .green import GreenClasses, green_J, green_LRH, green_oracle
from .monoid import (
    FiniteMonoid,
    RankReport,
    b2_set,
    build_by_bruteforce,
    build_by_closure,
    build_by_restrictions,
    cardinality_formula,
    monoid_closure,
    rank_search,
    restriction_layout,
    standard_generators,
    units,
)
from .orientation import (
    SequenceClass,
    classify_sequence,
    is_order_preserving,
    is_order_reversing,
    is_oriented,
    is_orientation_preserving,
    is_orientation_reversing,
)
from .partial_perm import PartialPerm, idempotent
from .presentations import (
    Presentation,
    SatisfactionReport,
    absorption_relation_suites,
    build_Q,
    build_R,
    canonical_images,
    check_satisfaction,
    evaluate,
    relation_count_formula,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "BridgeReport",
    "BudgetExceededError",
    "CongruenceTable",
    "CycleMetric",
    "DihedralElement",
    "FiniteMonoid",
    "GreenClasses",
    "PartialPerm",
    "Presentation",
    "RankReport",
    "SatisfactionReport",
    "SequenceClass",
    "VerifyReport",
    "absorption_relation_suites",
    "b2_set",
    "build_Q",
    "build_R",
    "build_by_bruteforce",
    "build_by_closure",
    "build_by_restrictions",
    "canonical_images",
    "cardinality_formula",
    "check_consequence",
    "check_satisfaction",
    "check_tietze_bridge",
    "classify_sequence",
    "enumerate_quotient",
    "evaluate",
    "extensions_of",
    "green_J",
    "green_LRH",
    "green_oracle",
    "group_elements",
    "idempotent",
    "is_order_preserving",
    "is_order_reversing",
    "is_oriented",
    "is_orientation_preserving",
    "is_orientation_reversing",
    "monoid_closure",
    "rank_search",
    "relation_count_formula",
    "restriction_layout",
    "standard_generators",
    "substitute",
    "units",
    "verify_defines",
]
