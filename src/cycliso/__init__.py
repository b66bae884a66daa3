"""Partial isometries of cycle graphs.

The distance-preserving partial injections of the n-vertex cycle form
an inverse monoid, and every one of them is a restriction of one of the
2n dihedral symmetries of the cycle.  This package builds these monoids
by three independent routes, computes their Green's structure, and
machine-checks two finite presentations for them (on n + 2 and on 3
generators) by congruence enumeration.

``import cycliso`` loads no submodule: each exported name imports its
submodule on first use (PEP 562), so a command pays only for the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE = {
    "BridgeReport": "congruence",
    "BudgetExceededError": "congruence",
    "CongruenceTable": "congruence",
    "CycleMetric": "cycle",
    "DihedralElement": "dihedral",
    "FiniteMonoid": "monoid",
    "GreenClasses": "green",
    "PartialPerm": "partial_perm",
    "Presentation": "presentations",
    "RankReport": "monoid",
    "SatisfactionReport": "presentations",
    "SequenceClass": "orientation",
    "VerifyReport": "congruence",
    "absorption_relation_suites": "presentations",
    "b2_set": "monoid",
    "build_Q": "presentations",
    "build_R": "presentations",
    "build_by_bruteforce": "monoid",
    "build_by_closure": "monoid",
    "build_by_restrictions": "monoid",
    "canonical_images": "presentations",
    "cardinality_formula": "monoid",
    "check_consequence": "congruence",
    "check_satisfaction": "presentations",
    "check_tietze_bridge": "congruence",
    "classify_sequence": "orientation",
    "enumerate_quotient": "congruence",
    "evaluate": "presentations",
    "extensions_of": "dihedral",
    "green_J": "green",
    "green_LRH": "green",
    "green_oracle": "green",
    "group_elements": "dihedral",
    "idempotent": "partial_perm",
    "is_order_preserving": "orientation",
    "is_order_reversing": "orientation",
    "is_oriented": "orientation",
    "is_orientation_preserving": "orientation",
    "is_orientation_reversing": "orientation",
    "monoid_closure": "monoid",
    "rank_search": "monoid",
    "relation_count_formula": "presentations",
    "restriction_layout": "monoid",
    "standard_generators": "monoid",
    "substitute": "presentations",
    "units": "monoid",
    "verify_defines": "congruence",
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
