import pickle
import subprocess
import sys

import pytest

import cycliso
from cycliso.record import Record

EXPORTS = {
    "BridgeReport", "BudgetExceededError", "CongruenceTable", "CycleMetric",
    "DihedralElement", "FiniteMonoid", "GreenClasses", "PartialPerm",
    "Presentation", "RankReport", "SatisfactionReport", "SequenceClass",
    "VerifyReport", "absorption_relation_suites", "b2_set", "build_Q",
    "build_R", "build_by_bruteforce", "build_by_closure",
    "build_by_restrictions", "canonical_images", "cardinality_formula",
    "check_consequence", "check_satisfaction", "check_tietze_bridge",
    "classify_sequence", "enumerate_quotient", "evaluate", "extensions_of",
    "green_J", "green_LRH", "green_oracle", "group_elements", "idempotent",
    "is_order_preserving", "is_order_reversing", "is_oriented",
    "is_orientation_preserving", "is_orientation_reversing",
    "monoid_closure", "rank_search", "relation_count_formula",
    "restriction_layout", "standard_generators", "substitute", "units",
    "verify_defines",
}


def test_all_lists_the_exported_names():
    assert len(cycliso.__all__) == len(EXPORTS)
    assert set(cycliso.__all__) == EXPORTS


def test_each_export_is_the_object_its_submodule_defines():
    for name in EXPORTS:
        obj = getattr(cycliso, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("cycliso."), name
        assert vars(module)[name] is obj, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cycliso import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == EXPORTS
    assert all(value is getattr(cycliso, name) for name, value in namespace.items())


def test_dir_lists_every_export():
    assert EXPORTS <= set(dir(cycliso))


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(cycliso, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        cycliso.no_such_name
    with pytest.raises(ImportError):
        exec("from cycliso import no_such_name", {})


def test_a_name_loads_only_its_own_submodule():
    # a fresh interpreter: this one has loaded every submodule already
    probe = (
        "import sys, cycliso\n"
        "before = sorted(m for m in sys.modules if m.startswith('cycliso'))\n"
        "cycliso.CycleMetric\n"
        "after = sorted(m for m in sys.modules if m.startswith('cycliso'))\n"
        "print(' '.join(before), '|', ' '.join(after))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "cycliso | cycliso cycliso.cycle cycliso.record\n"


def test_the_command_line_starts_without_dataclasses():
    # dataclasses imports inspect, a large share of the start-up
    probe = (
        "import sys, cycliso.cli\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "False False\n"


def test_no_module_imports_dataclasses():
    probe = (
        "import sys, cycliso.cli, cycliso.green, cycliso.cycle, cycliso.congruence,"
        " cycliso.presentations, cycliso.orientation\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "False False\n"


# name -> (fields in order, an instance, one that differs from it)
RECORDS = {
    "BridgeReport": (
        ("n", "r_to_q", "q_to_r"),
        lambda: cycliso.check_tietze_bridge(3),
        lambda: cycliso.check_tietze_bridge(4),
    ),
    "CongruenceTable": (
        ("alphabet", "size", "edges", "slots_used", "merges", "peak_live"),
        lambda: cycliso.enumerate_quotient(cycliso.build_R(3)),
        lambda: cycliso.enumerate_quotient(cycliso.build_Q(3)),
    ),
    "CycleMetric": (("n",), lambda: cycliso.CycleMetric(5), lambda: cycliso.CycleMetric(6)),
    "GreenClasses": (
        ("relation", "classes"),
        lambda: cycliso.green_LRH(cycliso.build_by_restrictions(3), "L"),
        lambda: cycliso.green_LRH(cycliso.build_by_restrictions(3), "R"),
    ),
    "Presentation": (
        ("name", "n", "alphabet", "relations", "labels"),
        lambda: cycliso.build_Q(3),
        lambda: cycliso.build_R(3),
    ),
    "SatisfactionReport": (
        ("name", "n", "checked", "failures"),
        lambda: cycliso.check_satisfaction(cycliso.build_Q(3)),
        lambda: cycliso.check_satisfaction(cycliso.build_R(3)),
    ),
    "SequenceClass": (
        ("cyclic", "anticyclic"),
        lambda: cycliso.classify_sequence((2, 3, 1)),
        lambda: cycliso.classify_sequence((1, 3, 2)),
    ),
    "VerifyReport": (
        ("name", "n", "target_size", "quotient_size", "verdict", "slots_used",
         "merges", "wall_ms"),
        lambda: cycliso.verify_defines(cycliso.build_Q(3), cycliso.build_by_restrictions(3)),
        lambda: cycliso.verify_defines(cycliso.build_R(3), cycliso.build_by_restrictions(3)),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_each_record_is_a_frozen_value(name):
    fields, make, make_other = RECORDS[name]
    cls = getattr(cycliso, name)
    assert issubclass(cls, Record) and cls.__slots__ == fields
    obj = make()
    values = tuple(getattr(obj, f) for f in fields)
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(obj) == f"{name}({body})"
    assert obj == cls(*values) and hash(obj) == hash(cls(*values)) == hash(values)
    assert obj != values and obj != make_other()
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is cls and copy == obj and hash(copy) == hash(obj)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(obj, f, None)
        with pytest.raises(AttributeError):
            delattr(obj, f)
    assert obj == cls(*values)
