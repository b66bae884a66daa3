import tracemalloc
from collections import Counter
from itertools import compress
from math import gcd

import pytest

from cycliso import (
    CycleMetric,
    FiniteMonoid,
    GreenClasses,
    PartialPerm,
    build_by_restrictions,
    cardinality_formula,
    green_J,
    green_LRH,
    green_oracle,
    group_elements,
    units,
)
from cycliso import green
from cycliso.green import cayley_oracle
from cycliso.dihedral import mask_images, symmetry_rows
from cycliso.monoid import closure_rows, standard_generators
from cycliso.partial_perm import canonical_bytes_key


def class_of(classes, m, a):
    i = m.rows.index(bytes(a.row))
    for c in classes.classes:
        if i in c:
            return c
    raise AssertionError("partition misses an element")


def test_same_image_means_same_L_class():
    m = build_by_restrictions(3)
    L = green_LRH(m, "L")
    a = PartialPerm.from_pairs(3, {1: 1, 2: 2})
    b = PartialPerm.from_pairs(3, {2: 1, 3: 2})  # same image {1, 2}
    c = PartialPerm.from_pairs(3, {1: 2, 2: 3})
    assert class_of(L, m, a) == class_of(L, m, b)
    assert class_of(L, m, a) != class_of(L, m, c)


def test_same_domain_means_same_R_class():
    m = build_by_restrictions(3)
    R = green_LRH(m, "R")
    a = PartialPerm.from_pairs(3, {1: 1, 2: 2})
    b = PartialPerm.from_pairs(3, {1: 2, 2: 3})  # same domain {1, 2}
    c = PartialPerm.from_pairs(3, {2: 2, 3: 3})
    assert class_of(R, m, a) == class_of(R, m, b)
    assert class_of(R, m, a) != class_of(R, m, c)


def test_units_are_one_H_class():
    m = build_by_restrictions(4)
    H = green_LRH(m, "H")
    u = units(m)
    ordinals = sorted(m.rows.index(bytes(a.row)) for a in u)
    assert tuple(ordinals) in H.classes


def test_H_keeps_no_pair_key_per_element():
    # H groups each domain run by image key, so it holds one run's keys
    # at a time and the classes themselves; a (domain, image) key for
    # each of the 98,065 elements, hashed in one dict, peaked at 29 MB
    m = build_by_restrictions(12)
    tracemalloc.start()
    try:
        H = green_LRH(m, "H")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, H.classes)) == len(m)
    assert peak < 16_000_000


def test_J_examples():
    m = build_by_restrictions(4)
    metric = CycleMetric(4)
    J = green_J(m, metric)
    a = PartialPerm.from_pairs(4, {1: 1, 2: 2})
    b = PartialPerm.from_pairs(4, {2: 3, 3: 4})  # domain distance 1 as well
    c = PartialPerm.from_pairs(4, {1: 1, 3: 3})  # domain distance 2
    assert class_of(J, m, a) == class_of(J, m, b)
    assert class_of(J, m, a) != class_of(J, m, c)


def test_rank_zero_and_one_J_classes():
    m = build_by_restrictions(5)
    J = green_J(m, CycleMetric(5))
    empty_class = class_of(J, m, PartialPerm.empty(5))
    assert len(empty_class) == 1
    rank1 = class_of(J, m, PartialPerm.from_pairs(5, {1: 1}))
    assert len(rank1) == 25  # n^2 rank-one maps


def test_rank_two_J_class_count_is_floor_half():
    for n in (3, 4, 5, 6):
        m = build_by_restrictions(n)
        J = green_J(m, CycleMetric(n))
        rank2 = [
            c for c in J.classes if m[c[0]].rank == 2
        ]
        assert len(rank2) == n // 2


def test_characterization_matches_oracle():
    for n in (3, 4, 5):
        m = build_by_restrictions(n)
        metric = CycleMetric(n)
        for rel in ("L", "R", "H"):
            assert green_LRH(m, rel).partition() == green_oracle(m, rel).partition()
        assert green_J(m, metric).partition() == green_oracle(m, "J").partition()


def reference_classes(m, relation):
    """L, R, H or J classes from int bitmask keys, grouped element by element.

    The reference for the keys ``green`` reads in C and for its R and J
    classes from the runs of the canonical order: each key is a bitmask
    read off the row, J's the least mask in its domain's dihedral orbit,
    and no order of the rows is assumed.
    """
    n = m.n
    bits = [1 << i for i in range(n)]
    domains = [sum(compress(bits, row)) for row in m.rows]
    bit = (0, *bits)
    images = [sum(map(bit.__getitem__, row)) for row in m.rows]
    if relation == "L":
        keys = images
    elif relation == "R":
        keys = domains
    elif relation == "H":
        keys = list(zip(domains, images))
    else:
        orbit = {d: min(mask_images(n, d)) for d in set(domains)}
        keys = [orbit[d] for d in domains]
    buckets = {}
    for i, key in enumerate(keys):
        buckets.setdefault(key, []).append(i)
    return GreenClasses(relation, tuple(map(tuple, buckets.values())))


def rotations_and_idempotents(n):
    """The submonoid generated by g and e_n, canonical but not all of M."""
    gens = {k: a for k, a in standard_generators(n).items() if k != "h"}
    rows = closure_rows(n, [a.row for a in gens.values()])
    return FiniteMonoid(n, sorted(rows, key=canonical_bytes_key), gens)


@pytest.mark.parametrize(
    "build",
    [build_by_restrictions, lambda n: units(build_by_restrictions(n)), rotations_and_idempotents],
    ids=["M", "units", "rotations"],
)
@pytest.mark.parametrize("n", range(3, 13))
def test_keys_read_in_C_give_the_int_mask_classes(n, build):
    m = build(n)
    if build is rotations_and_idempotents:
        assert len(m) < cardinality_formula(n)
    for relation in "LRH":
        assert green_LRH(m, relation) == reference_classes(m, relation), relation
    assert green_J(m, CycleMetric(n)) == reference_classes(m, "J")


def _domains_related(metric, dom_a, dom_b):
    """Does some symmetry of the k index positions carry dom_b onto dom_a
    through a partial isometry of the n-cycle?

    dom_a and dom_b are ascending tuples of equal length k >= 3.  For a
    symmetry s of the k-cycle of positions, the candidate map sends
    dom_b[p] to dom_a[s(p)]; relatedness means some candidate preserves
    the distance on the big cycle.
    """
    k = len(dom_a)
    for s in group_elements(k):
        pairs = {dom_b[p - 1]: dom_a[s.act(p) - 1] for p in range(1, k + 1)}
        if metric.is_partial_isometry(PartialPerm.from_pairs(metric.n, pairs)):
            return True
    return False


def reference_J(m, metric):
    """J classes by rank and domain shape, with a pairwise search at rank
    >= 3: the structure-theory route before the orbit key, kept as a
    second reference where the ideal oracle is too big to run."""
    label = {}  # domain -> class key
    reps = []  # one domain per rank >= 3 class found so far
    for dom in sorted({a.domain() for a in m.elements}):
        if len(dom) <= 1:
            label[dom] = len(dom)
        elif len(dom) == 2:
            label[dom] = (2, metric.distance(*dom))
        else:
            for r, rep in enumerate(reps):
                if len(rep) == len(dom) and _domains_related(metric, rep, dom):
                    label[dom] = (3, r)
                    break
            else:
                label[dom] = (3, len(reps))
                reps.append(dom)
    by_key = {}
    for i, a in enumerate(m.elements):
        by_key.setdefault(label[a.domain()], []).append(i)
    return GreenClasses("J", tuple(sorted(tuple(c) for c in by_key.values())))


def test_J_matches_pairwise_reference_beyond_oracle_range():
    for n in range(3, 10):
        m = build_by_restrictions(n)
        metric = CycleMetric(n)
        assert green_J(m, metric) == reference_J(m, metric), n


def bracelets(n):
    """Binary bracelets of length n by Burnside's lemma over D_n."""
    fixed = sum(2 ** gcd(k, n) for k in range(n))  # rotations
    if n % 2:
        fixed += n * 2 ** ((n + 1) // 2)  # each reflection fixes one point
    else:
        fixed += n // 2 * (2 ** (n // 2 + 1) + 2 ** (n // 2))
    return fixed // (2 * n)


def test_J_class_count_is_binary_bracelets():
    counts = [bracelets(n) for n in range(3, 13)]
    assert counts == [4, 6, 8, 13, 18, 30, 46, 78, 126, 224]
    for n, count in zip(range(3, 13), counts):
        assert green_J(build_by_restrictions(n), CycleMetric(n)).class_count == count


def test_class_sizes_match_stabiliser_closed_forms():
    # D_n acts on the vertex masks.  With Fix(A) the pointwise and
    # Stab(A) the setwise stabiliser of A, 2n/|Fix(A)| symmetries differ
    # on A, so that many elements have domain A (an R class) or image A
    # (an L class).  The maps from A onto one B in its orbit are an H
    # class of |Stab(A)|/|Fix(A)| elements, and a J class is one orbit.
    for n in range(3, 13):
        rows = symmetry_rows(n)
        lr, h, j = Counter(), Counter(), Counter()
        for mask in range(1 << n):
            points = [x for x in range(1, n + 1) if mask >> (x - 1) & 1]
            fix = sum(all(row[x] == x for x in points) for row in rows)
            images = mask_images(n, mask)
            orbit = len(set(images))
            lr[2 * n // fix] += 1
            h[images.count(mask) // fix] += orbit
            if mask == min(images):
                j[orbit * 2 * n // fix] += 1
        m = build_by_restrictions(n)
        for relation, expected in (("L", lr), ("R", lr), ("H", h)):
            assert green_LRH(m, relation).class_sizes_histogram() == dict(expected), n
        assert green_J(m, CycleMetric(n)).class_sizes_histogram() == dict(j), n


def test_J_rejects_metric_of_another_cycle():
    # with the 6-cycle metric this once gave 12 classes instead of 8
    m = build_by_restrictions(5)
    with pytest.raises(ValueError):
        green_J(m, CycleMetric(6))


@pytest.mark.parametrize(
    "build",
    [build_by_restrictions, lambda n: units(build_by_restrictions(n)), rotations_and_idempotents],
    ids=["M", "units", "rotations"],
)
@pytest.mark.parametrize("n", range(3, 7))
def test_cayley_oracle_equals_the_ideal_oracle(n, build):
    m = build(n)
    for relation in "LRHJ":
        assert cayley_oracle(m, relation) == green_oracle(m, relation), relation


@pytest.mark.parametrize("n", range(7, 11))
def test_cayley_oracle_equals_the_structure_route(n):
    m = build_by_restrictions(n)
    for relation in "LRH":
        assert cayley_oracle(m, relation) == green_LRH(m, relation), relation
    assert cayley_oracle(m, "J") == green_J(m, CycleMetric(n))


def test_cayley_oracle_refuses_rows_its_generators_do_not_generate():
    m = build_by_restrictions(4)
    gens = standard_generators(4)
    # the identity alone, the rotations of g alone, and the identity and
    # g, not closed since g * g is no row
    rows = sorted([bytes(range(1, 5)), bytes(gens["g"].row)], key=canonical_bytes_key)
    for monoid, relation in (
        (FiniteMonoid(4, m.rows, {}), "R"),
        (FiniteMonoid(4, units(m).rows, {"g": gens["g"]}), "J"),
        (FiniteMonoid(4, rows, {"g": gens["g"]}), "L"),
    ):
        with pytest.raises(ValueError, match="do not generate exactly"):
            cayley_oracle(monoid, relation)


def test_cayley_oracle_validation():
    m = build_by_restrictions(3)
    for relation in ("D", "X"):
        with pytest.raises(ValueError, match="relation must be"):
            cayley_oracle(m, relation)


def test_oracle_checks_its_bound_before_tabulating(monkeypatch):
    tabulated = []
    tabulate = green.product_table
    monkeypatch.setattr(
        green, "product_table", lambda m: tabulated.append(len(m)) or tabulate(m)
    )
    big = build_by_restrictions(7)  # |M| = 1730, above the oracle's bound of 1024
    with pytest.raises(ValueError):
        green_oracle(big, "L")
    assert tabulated == []
    green_oracle(build_by_restrictions(4), "L")
    assert tabulated == [97]


def test_D_equals_J():
    for n in (3, 4, 5):
        m = build_by_restrictions(n)
        assert green_oracle(m, "D").partition() == green_oracle(m, "J").partition()


def test_H_refines_L_R_and_J():
    m = build_by_restrictions(4)
    metric = CycleMetric(4)
    h_part = green_LRH(m, "H").partition()
    for coarser in (
        green_LRH(m, "L").partition(),
        green_LRH(m, "R").partition(),
        green_J(m, metric).partition(),
    ):
        for h_class in h_part:
            assert any(h_class <= c for c in coarser)


def test_partitions_cover_everything_once():
    m = build_by_restrictions(4)
    for classes in (
        green_LRH(m, "L"),
        green_LRH(m, "R"),
        green_LRH(m, "H"),
        green_J(m, CycleMetric(4)),
        *(green_oracle(m, rel) for rel in "LRHJD"),
        *(cayley_oracle(m, rel) for rel in "LRHJ"),
    ):
        seen = [i for c in classes.classes for i in c]
        assert sorted(seen) == list(range(len(m)))
        hist = classes.class_sizes_histogram()
        assert sum(k * v for k, v in hist.items()) == len(m)
        # members increase within a class, and classes by their least member
        assert all(a < b for c in classes.classes for a, b in zip(c, c[1:]))
        firsts = [c[0] for c in classes.classes]
        assert firsts == sorted(firsts)


def test_oracle_validation():
    m = build_by_restrictions(3)
    with pytest.raises(ValueError):
        green_oracle(m, "X")
    with pytest.raises(ValueError):
        green_oracle(build_by_restrictions(7), "L")  # |M| = 1730 > 1024
    with pytest.raises(ValueError):
        green_LRH(m, "J")  # J needs the metric route
