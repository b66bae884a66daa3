"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (the verbose listing is
the per-criterion pass/fail report; each test also prints a [PASS] line
visible with -s).  Criteria that carry a wall-clock budget assert it.
"""

import time
from itertools import product

from cycliso import (
    CycleMetric,
    b2_set,
    build_by_bruteforce,
    build_by_closure,
    build_by_restrictions,
    build_Q,
    build_R,
    canonical_images,
    cardinality_formula,
    check_consequence,
    check_tietze_bridge,
    check_satisfaction,
    evaluate,
    extensions_of,
    green_J,
    green_LRH,
    green_oracle,
    group_elements,
    is_oriented,
    monoid_closure,
    rank_search,
    relation_count_formula,
    units,
    verify_defines,
)
from conftest import drop_family

R_FAMILY_RECOUNT = {
    3: {"R1": 3, "R2": 3, "R3": 3, "R4": 3, "R5": 3, "R6": 1},
    4: {"R1": 3, "R2": 4, "R3": 6, "R4": 4, "R5": 4, "R6": 2},
}
Q_FAMILY_RECOUNT = {
    3: {"Q1": 3, "Q2": 2, "Q3": 3, "Q4": 1},
    4: {"Q1": 3, "Q2": 2, "Q3": 6, "Q5": 2},
}


def report(line):
    print(f"[PASS] {line}")


def test_c01_enumeration_matches_cardinality_formula():
    t0 = time.perf_counter()
    for n in range(3, 13):
        assert len(build_by_restrictions(n)) == cardinality_formula(n), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"budget 60s exceeded: {elapsed:.1f}s"
    report(f"c01 enumerated sizes equal the closed formula for n=3..12 ({elapsed:.1f}s)")


def test_c02_independent_builders_agree():
    t0 = time.perf_counter()
    for n in range(3, 11):
        assert build_by_restrictions(n).elements == build_by_closure(n).elements, n
    for n in range(3, 8):
        assert build_by_restrictions(n).elements == build_by_bruteforce(n).elements, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"budget 120s exceeded: {elapsed:.1f}s"
    report(
        "c02 closure (n=3..10) and bruteforce (n=3..7) builders reproduce "
        f"the restriction enumeration ({elapsed:.1f}s)"
    )


def test_c03_extension_dichotomy():
    for n in range(3, 9):
        metric = CycleMetric(n)
        for a in build_by_restrictions(n):
            exts = extensions_of(metric, a)
            for e in exts:
                assert e.to_partial_perm().restrict(a.domain()) == a
            if a.rank == 0:
                assert len(exts) == 2 * n
                continue
            antipodal = (
                a.rank == 2 and 2 * metric.distance(*a.domain()) == n
            )
            expected = 2 if (a.rank == 1 or antipodal) else 1
            assert len(exts) == expected, (n, a)
    report(
        "c03 every element extends to 1 symmetry, or 2 exactly at rank 1 "
        "and antipodal rank 2, the empty map to all 2n (n=3..8)"
    )


def test_c04_antipodal_pair_maps():
    for n in (4, 6, 8):
        m = build_by_restrictions(n)
        metric = CycleMetric(n)
        b2 = b2_set(n)
        assert len(b2) == n * n // 2
        assert len(set(b2)) == len(b2)
        for a in b2:
            assert a in m
            assert len(extensions_of(metric, a)) == 2
        doubly = [
            a for a in m if a.rank == 2 and len(extensions_of(metric, a)) == 2
        ]
        assert doubly == b2
    report(
        "c04 the antipodal rank-2 set has n^2/2 members and is exactly the "
        "doubly-extendable rank-2 part (n=4,6,8)"
    )


def test_c05_green_relations_match_ideal_oracle():
    for n in range(3, 7):
        m = build_by_restrictions(n)
        metric = CycleMetric(n)
        for rel in ("L", "R", "H"):
            assert (
                green_LRH(m, rel).partition() == green_oracle(m, rel).partition()
            ), (n, rel)
        assert green_J(m, metric).partition() == green_oracle(m, "J").partition(), n
        assert green_oracle(m, "D").partition() == green_oracle(m, "J").partition(), n
    report(
        "c05 L/R/H/J characterizations equal the ideal-based oracle and "
        "D = J (n=3..6)"
    )


def test_c06_units_are_the_symmetry_group():
    for n in range(3, 9):
        u = units(build_by_restrictions(n))
        assert len(u) == 2 * n
        assert set(u.elements) == {e.to_partial_perm() for e in group_elements(n)}
        for a in u:
            assert a.inverse() in u
    report("c06 the unit group is the full symmetry group of order 2n (n=3..8)")


def test_c07_every_element_is_oriented():
    for n in range(3, 9):
        for a in build_by_restrictions(n):
            assert is_oriented(a), (n, a)
    report("c07 every element is an oriented partial injection (n=3..8)")


def test_c08_relation_counts():
    for n, recount in R_FAMILY_RECOUNT.items():
        from collections import Counter

        got = dict(Counter(build_R(n).labels))
        assert got == recount, (
            f"relation family recount mismatch at n={n}: {got} != {recount}"
        )
    for n, recount in Q_FAMILY_RECOUNT.items():
        from collections import Counter

        got = dict(Counter(build_Q(n).labels))
        assert got == recount, (
            f"relation family recount mismatch at n={n}: {got} != {recount}"
        )
    for n in range(3, 13):
        assert len(build_R(n).relations) == relation_count_formula("R", n), n
        assert len(build_Q(n).relations) == relation_count_formula("Q", n), n
    report(
        "c08 relation counts match the closed forms for n=3..12 and the "
        "family-by-family recounts at n=3,4"
    )


def test_c09_canonical_generators_satisfy_all_relations():
    for n in range(3, 11):
        for pres in (build_R(n), build_Q(n)):
            rep = check_satisfaction(pres)
            assert rep.ok, (pres.name, n, rep.failures)
    report("c09 the canonical maps satisfy every relation of both families (n=3..10)")


def test_c10_presentations_define_the_monoid(tables):
    for n in range(3, 9):
        m = build_by_restrictions(n)
        for which, build in (("R", build_R), ("Q", build_Q)):
            t0 = time.perf_counter()
            table = tables(which, n)
            rep = check_satisfaction(build(n))
            assert rep.ok
            elapsed = time.perf_counter() - t0
            assert table.size == len(m), (which, n, table.size, len(m))
            assert elapsed < 300, f"{which} n={n} run took {elapsed:.1f}s"
    report(
        "c10 congruence enumeration closes onto exactly |M| classes for "
        "both presentations, n=3..8, each run within 300s"
    )


def test_c11_negative_control_detects_a_missing_relation():
    m = build_by_restrictions(3)
    trimmed = drop_family(build_R(3), "R6")
    rep = verify_defines(trimmed, m)
    assert rep.verdict == "differs"
    assert rep.quotient_size != len(m)
    report(
        "c11 dropping the gluing family at n=3 is caught: quotient closes "
        f"at {rep.quotient_size} != 34"
    )


def test_c12_absorption_identities_and_tietze_bridge(tables):
    from cycliso import absorption_relation_suites

    for n in range(3, 9):
        table = tables("R", n)
        images = canonical_images(build_R(n))
        for name, instances in absorption_relation_suites(n).items():
            for label, lhs, rhs in instances:
                assert check_consequence(table, lhs, rhs), (n, name, label)
                assert evaluate(lhs, images) == evaluate(rhs, images), (n, name, label)
    for n in range(3, 7):
        bridge = check_tietze_bridge(n)
        assert bridge.ok, (n, bridge)
    report(
        "c12 the absorption identities are consequences of the wide "
        "presentation (n=3..8) and each family derives the other (n=3..6)"
    )


def test_c13_generating_rank():
    t0 = time.perf_counter()
    for n in range(3, 11):
        m = build_by_restrictions(n)
        closure = monoid_closure(n, m.generators.values())
        assert len(closure) == len(m)
        assert set(closure) == set(m.elements)
    for n in (3, 4, 5):
        m = build_by_restrictions(n)
        rep = rank_search(m, exhaustive_pairs=True)
        assert rep.minimum_is_three, (n, rep)
        assert rep.pairs_checked == len(m) * (len(m) - 1) // 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"budget 600s exceeded: {elapsed:.1f}s"
    report(
        "c13 {g, h, e_n} generates (n=3..10) and no 1- or 2-element subset "
        f"does (exhaustive, n=3..5) ({elapsed:.1f}s)"
    )


def test_c14_word_soundness_and_completeness(tables):
    for n in (3, 4):
        table = tables("R", n)
        images = canonical_images(build_R(n))
        slot_to_element = {}
        element_to_slot = {}
        words = 0
        for length in range(0, 7):
            for word in product(range(table.width), repeat=length):
                slot = table.trace(word)
                value = evaluate(word, images)
                words += 1
                if slot in slot_to_element:
                    assert slot_to_element[slot] == value, ("soundness", n, word)
                else:
                    slot_to_element[slot] = value
                if value in element_to_slot:
                    assert element_to_slot[value] == slot, ("completeness", n, word)
                else:
                    element_to_slot[value] = slot
        assert len(slot_to_element) == cardinality_formula(n)
    report(
        "c14 over all words of length <= 6 (n=3,4): equal slots evaluate "
        "equal and equal values share a slot; every class is reached"
    )
