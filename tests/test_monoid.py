import gc
import random
import tracemalloc
import weakref
from array import array
from itertools import combinations, permutations
from operator import lt, mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycliso import (
    CycleMetric,
    FiniteMonoid,
    PartialPerm,
    RankReport,
    b2_set,
    build_by_bruteforce,
    build_by_closure,
    build_by_restrictions,
    cardinality_formula,
    extensions_of,
    green_oracle,
    group_elements,
    idempotent,
    monoid_closure,
    rank_search,
    restriction_layout,
    standard_generators,
    units,
)
import cycliso.monoid
import cycliso.partial_perm
from cycliso.cli import BUILDERS
from cycliso.dihedral import DihedralElement, symmetry_rows
from cycliso.monoid import (
    _checked_chunk,
    _in_order,
    _sorted_canonically,
    closure_rows,
    generates_exactly,
    product_table,
    restriction_rows,
)
from cycliso.partial_perm import canonical_bytes_key, canonical_key, check_row

# first few values of the closed formula, frozen from an independent
# evaluation of n 2^(n+1) - ((-1)^n + 5)/4 n^2 - 2n + 1
KNOWN_SIZES = {
    3: 34,
    4: 97,
    5: 286,
    6: 703,
    7: 1730,
    8: 3985,
    9: 9118,
    10: 20311,
    11: 44914,
    12: 98065,
}


def test_cardinality_formula_known_values():
    for n, size in KNOWN_SIZES.items():
        assert cardinality_formula(n) == size


def test_cardinality_formula_matches_unified_form():
    for n in range(3, 21):
        unified = n * 2 ** (n + 1) - ((-1) ** n + 5) * n * n // 4 - 2 * n + 1
        assert cardinality_formula(n) == unified


def test_cardinality_formula_validates():
    with pytest.raises(ValueError):
        cardinality_formula(2)


def test_builders_agree():
    for n in (3, 4, 5):
        a = build_by_restrictions(n)
        b = build_by_closure(n)
        c = build_by_bruteforce(n)
        assert a.elements == b.elements == c.elements
        assert len(a) == KNOWN_SIZES[n]


def test_monoid_is_closed_and_inverse_closed():
    for n in range(3, 7):
        m = build_by_restrictions(n)
        rows = set(map(tuple, m.rows))
        for a in m:
            assert a.inverse().row in rows
            for b in m:
                assert (a * b).row in rows, (n, a, b)


def test_elements_are_partial_isometries():
    for n in (4, 5, 6):
        metric = CycleMetric(n)
        for a in build_by_restrictions(n):
            assert metric.is_partial_isometry(a)


def test_canonical_element_order():
    m = build_by_restrictions(4)
    keys = [a.sort_key() for a in m]
    assert keys == sorted(keys)
    assert m.elements[0] == PartialPerm.empty(4)
    assert PartialPerm.identity(4) in m


@pytest.mark.parametrize("n", range(3, 13))
def test_restriction_counts_per_domain_give_the_formula(n):
    totals = [e.to_partial_perm().row for e in group_elements(n)]
    counts = {}
    for mask in range(1 << n):
        keep = [mask >> i & 1 for i in range(n)]
        counts[mask] = len({tuple(y * k for y, k in zip(t, keep)) for t in totals})
    half = n // 2
    antipodal = (
        {1 << i | 1 << (i + half) for i in range(half)} if n % 2 == 0 else set()
    )
    for mask, count in counts.items():
        if mask == 0:
            assert count == 1
        elif mask & (mask - 1) == 0 or mask in antipodal:
            assert count == n, bin(mask)
        else:
            assert count == 2 * n, bin(mask)
    total = sum(counts.values())
    even = 1 - n % 2
    assert total == 2 * n * 2**n - (2 * n - 1) - n * n - even * n * n // 2
    assert total == cardinality_formula(n) == len(build_by_restrictions(n))


def restriction_rows_by_sorting(n):
    """The restriction builder as it ran with a set and a sort per domain."""
    totals = [e.to_partial_perm().row for e in group_elements(n)]
    rows = []
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            selector = [0] * n
            for i in dom:
                selector[i] = 1
            rows.extend(sorted({tuple(map(mul, total, selector)) for total in totals}))
    return rows


@pytest.mark.parametrize("n", range(3, 14))
def test_restrictions_in_d0_d1_order_match_the_sorted_sets(n):
    assert list(map(tuple, build_by_restrictions(n).rows)) == restriction_rows_by_sorting(n)


@pytest.mark.parametrize("n", range(3, 13))
def test_the_layout_gives_the_checked_rows(n):
    symmetries = group_elements(n)
    rows = build_by_restrictions(n).rows
    at = 0
    for dom, ks in restriction_layout(n):
        for k in ks:
            row = tuple(symmetries[k].act(x) if x in dom else 0 for x in range(1, n + 1))
            assert tuple(rows[at]) == row, (dom, k)
            at += 1
    assert at == len(rows)


def test_generators_are_elements():
    m = build_by_closure(5)
    assert set(m.generators) == {"g", "h", "e_n"}
    for a in m.generators.values():
        assert a in m


def test_closure_of_rotations_and_reflection_is_the_symmetry_group():
    for n in (3, 4, 6):
        gens = standard_generators(n)
        elems = monoid_closure(n, (gens["g"], gens["h"]))
        assert len(elems) == 2 * n
        assert set(elems) == {e.to_partial_perm() for e in group_elements(n)}


def test_closure_of_removal_idempotents_is_all_partial_identities():
    n = 5
    elems = monoid_closure(n, [idempotent(n, i) for i in range(1, n + 1)])
    assert len(elems) == 2**n
    assert all(a == PartialPerm.identity_on(n, a.domain()) for a in elems)


def test_closure_discovery_order_is_deterministic():
    gens = list(standard_generators(4).values())
    assert monoid_closure(4, gens) == monoid_closure(4, gens)


def test_bruteforce_bound():
    with pytest.raises(ValueError):
        build_by_bruteforce(8)
    with pytest.raises(ValueError):
        build_by_restrictions(2)


def test_b2_set_basics():
    b2 = b2_set(4)
    assert len(b2) == 8
    assert len(set(b2)) == 8
    assert PartialPerm.from_pairs(4, {1: 1, 3: 3}) in b2
    assert PartialPerm.from_pairs(4, {1: 3, 3: 1}) in b2
    assert PartialPerm.from_pairs(4, {2: 1, 4: 3}) in b2
    with pytest.raises(ValueError):
        b2_set(5)


def test_b2_set_is_exactly_the_doubly_extendable_rank_two_part():
    for n in (4, 6):
        m = build_by_restrictions(n)
        metric = CycleMetric(n)
        b2 = b2_set(n)
        assert len(b2) == n * n // 2
        doubly = [
            a
            for a in m
            if a.rank == 2 and len(extensions_of(metric, a)) == 2
        ]
        assert doubly == b2  # both canonically sorted


def test_units_form_the_symmetry_group():
    for n in (3, 5, 8):
        u = units(build_by_restrictions(n))
        assert len(u) == 2 * n
        assert set(u.elements) == {e.to_partial_perm() for e in group_elements(n)}
        ident = PartialPerm.identity(n)
        for a in u:
            assert a.inverse() in u
            assert a * a.inverse() == ident


def test_removal_idempotents_conjugate_around_the_cycle():
    # e_j equals (h g^(j-1)) e_n (h g^(j-1)) as maps, for every j
    for n in range(3, 11):
        h = DihedralElement.reflection(n).to_partial_perm()
        g = DihedralElement.rotation(n).to_partial_perm()
        e_n = idempotent(n, n)
        for j in range(1, n + 1):
            w = h
            for _ in range(j - 1):
                w = w * g
            assert w * e_n * w == idempotent(n, j), (n, j)


@pytest.mark.parametrize(
    "rows, generators",
    [
        pytest.param([(1, 2, 3), (1, 1, 0)], {}, id="repeated-image"),
        pytest.param([(1, 2, 3), (4, 2, 3)], {}, id="image-above-n"),
        pytest.param([(1, 2, 3), (1, 2)], {}, id="short-row"),
        pytest.param([(1, 2, 3), (0, 0, 0), (0, 0, 0)], {}, id="duplicate-row"),
        pytest.param([(0, 0, 0), (0, 0, 0), (1, 2, 3)], {}, id="duplicate-row-in-order"),
        pytest.param([(0, 0, 0)], {}, id="missing-identity"),
        pytest.param([(1, 2, 3)], {"e": idempotent(3, 3)}, id="generator-not-a-member"),
    ],
)
def test_identity_must_be_present(rows, generators):
    with pytest.raises(ValueError):
        FiniteMonoid(3, rows, generators)


@pytest.mark.parametrize(
    "bad",
    [
        (-1, 0, 0),
        (2.0, 0, 0),
        (0.0, 0, 0),
        (0, 2, 2),
        array("i", [0, 2, 2]),
        (1, 2),
        (1, 2, 3, 0),
        ("1", 0, 0),
        (300, 0, 0),
    ],
    ids=[
        "negative",
        "float",
        "float-zero",
        "repeated-image",
        "repeated-image-int-array",
        "short",
        "long",
        "str",
        "above-255",
    ],
)
@pytest.mark.parametrize(
    "place", ["first", "after-identity", "after-an-order-error", "after-an-int-array"]
)
def test_constructor_rejects_what_check_row_rejects(bad, place):
    # before, check_row raised TypeError for the float and the string and
    # passed the float zero, which the constructor then stored as a 0 byte
    with pytest.raises(ValueError) as expected:
        check_row(3, bad)
    ident = (1, 2, 3)
    rows = {
        "first": [bad, ident],
        "after-identity": [ident, bad],
        # the order fails first, but every row is checked before that is raised
        "after-an-order-error": [ident, (0, 0, 0), bad],
        # a good row whose buffer holds 4-byte items, not its images
        "after-an-int-array": [array("i", ident), bad],
    }[place]
    with pytest.raises(expected.type) as got:
        FiniteMonoid(3, rows, {})
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("odd", [(True, 0, 0)], ids=["true"])
def test_constructor_accepts_what_check_row_accepts(odd):
    check_row(3, odd)
    assert tuple(FiniteMonoid(3, [odd, (1, 2, 3)], {}).rows[0]) == odd


@pytest.mark.parametrize(
    "n, build",
    [(n, build_by_bruteforce) for n in range(3, 8)]
    + [(n, build_by_restrictions) for n in range(8, 11)],
)
def test_bytes_key_orders_rows_as_the_tuple_key_does(n, build):
    rows = list(build(n).rows)
    random.Random(n).shuffle(rows)
    by_bytes = sorted(rows, key=canonical_bytes_key)
    by_tuples = sorted(map(tuple, rows), key=canonical_key)
    assert list(map(tuple, by_bytes)) == by_tuples


@pytest.mark.parametrize("n", [256, 300])
def test_rows_as_bytes_need_n_at_most_255(n):
    def rows():
        raise AssertionError("the rows were read")
        yield

    message = f"rows as bytes need n <= 255, got {n}"
    with pytest.raises(ValueError, match=message):
        FiniteMonoid(n, rows(), {})
    with pytest.raises(ValueError, match=message):
        closure_rows(n, rows())
    # a PartialPerm has no bound on n
    ident = PartialPerm.identity(n)
    assert ident.compose(ident) == ident == ident.inverse()
    # 255 points still fit
    top = PartialPerm.identity(255)
    assert list(FiniteMonoid(255, [top.row], {})) == [top]
    assert closure_rows(255, [top.row]) == [bytes(top.row)]


@pytest.mark.parametrize("method", ["restrictions", "bruteforce"])
def test_builders_check_the_byte_bound_before_any_work(method, monkeypatch):
    def work(n):
        raise AssertionError("work began")

    monkeypatch.setattr(cycliso.monoid, "symmetry_rows", work)
    monkeypatch.setattr(cycliso.monoid, "standard_generators", work)
    with pytest.raises(ValueError, match="rows as bytes need n <= 255, got 300"):
        BUILDERS[method](300)


@pytest.mark.parametrize("n, maps", [(4, 209), (5, 1546)])
def test_membership_is_exactly_the_distance_test(n, maps):
    m = build_by_restrictions(n)
    metric = CycleMetric(n)
    points = range(1, n + 1)
    every = [
        PartialPerm.from_pairs(n, zip(dom, img))
        for k in range(n + 1)
        for dom in combinations(points, k)
        for img in permutations(points, k)
    ]
    assert len(every) == maps
    for a in every:
        assert (a in m) == metric.is_partial_isometry(a), a
    assert PartialPerm.identity(n + 1) not in m
    assert PartialPerm.empty(n + 1) not in m


@pytest.mark.parametrize("n", range(3, 7))
def test_rows_must_arrive_in_canonical_order(n):
    m = build_by_closure(n)
    with pytest.raises(ValueError, match="canonical order"):
        FiniteMonoid(n, reversed(m.rows), m.generators)


def test_constructor_holds_no_key_per_element():
    # the rows arrive in canonical order and are checked a chunk at a
    # time, so beyond the buffer the constructor holds the chunk in
    # flight and BytesIO's growth margin (up to an eighth of the buffer),
    # and no key or row object per element
    extra = {}
    for n in (10, 12):
        tracemalloc.start()
        try:
            m = build_by_restrictions(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(m) == KNOWN_SIZES[n]
        buffer = len(m.rows.buffer)
        assert buffer == n * len(m)
        extra[n] = peak - buffer * 9 / 8
    # at n=12 the rows held as a tuple of bytes took 5.2 MB
    assert peak < 3_000_000
    # |M| grows by 77,754 rows from n=10 to n=12; one bytes object per
    # row would add over 3 MB, and the extra grows by under a byte a row
    assert extra[12] - extra[10] < KNOWN_SIZES[12] - KNOWN_SIZES[10]


@pytest.mark.parametrize("n", range(3, 11))
def test_the_rows_are_the_layout_rows(n):
    assert list(build_by_restrictions(n).rows) == list(restriction_rows(n))


@pytest.mark.parametrize("chunk", [1, 2, 5])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_small_chunks_give_the_same_monoid(n, chunk, monkeypatch):
    # with one row a chunk every consecutive pair is ordered across chunks
    monkeypatch.setattr(cycliso.monoid, "CHECK_CHUNK", chunk)
    for build in (build_by_restrictions, build_by_closure):
        assert list(build(n).rows) == list(restriction_rows(n))


@pytest.mark.parametrize(
    "bad",
    [
        lambda n: bytes([1, 1] + [0] * (n - 2)),
        lambda n: bytes([n + 1] + [0] * (n - 1)),
        lambda n: bytes(n - 1),
        lambda n: [2, 2] + [0] * (n - 2),
        lambda n: (1.5,) + (0,) * (n - 1),
    ],
    ids=["repeated-image", "image-above-n", "short", "list-that-converts", "non-integer"],
)
@pytest.mark.parametrize("at", [4, 5, 9, 10])
@pytest.mark.parametrize("n", [4, 5])
def test_a_bad_row_at_a_chunk_boundary_raises_what_check_row_raises(
    n, at, bad, monkeypatch
):
    # chunks of 5 rows: row 4 ends the first chunk, row 5 starts the
    # second, and rows 9 and 10 sit at the next boundary
    monkeypatch.setattr(cycliso.monoid, "CHECK_CHUNK", 5)
    bad = bad(n)
    with pytest.raises(ValueError) as expected:
        check_row(n, bad)
    rows = list(restriction_rows(n))
    rows[at] = bad
    with pytest.raises(ValueError) as got:
        FiniteMonoid(n, rows, {})
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("error", ["swap", "duplicate"])
@pytest.mark.parametrize("at", [5, 10])
@pytest.mark.parametrize("n", [4, 5])
def test_the_order_is_checked_across_chunk_boundaries(n, at, error, monkeypatch):
    # rows at-1 and at lie in two chunks; each chunk is in order on its
    # own.  At n=4, rows 4 and 5 have different domains ({1} and {2}),
    # at n=5 the same domain {1}.
    monkeypatch.setattr(cycliso.monoid, "CHECK_CHUNK", 5)
    rows = list(restriction_rows(n))
    if error == "swap":
        rows[at - 1], rows[at] = rows[at], rows[at - 1]
    else:
        rows[at] = rows[at - 1]
    with pytest.raises(ValueError, match="rows not in strictly increasing canonical order"):
        FiniteMonoid(n, rows, {})


def test_every_row_is_checked_after_an_order_error_in_an_earlier_chunk(monkeypatch):
    monkeypatch.setattr(cycliso.monoid, "CHECK_CHUNK", 5)
    rows = list(restriction_rows(4))
    rows[1], rows[2] = rows[2], rows[1]
    rows[12] = (0, 0, 5, 0)
    with pytest.raises(ValueError, match="^image 5 outside 1..4$"):
        FiniteMonoid(4, rows, {})


def _checks_like_check_row(n, chunk):
    """Check ``_checked_chunk(n, chunk)`` against ``check_row`` on each row.

    A chunk whose rows all pass must pass in C, with no ``check_row``
    call; otherwise it must raise what ``check_row`` raises for the first
    bad row.
    """
    try:
        expected = [bytes(check_row(n, row)) for row in chunk]
    except ValueError as error:
        with pytest.raises(ValueError) as got:
            _checked_chunk(n, chunk)
        assert str(got.value) == str(error)
        return False
    calls = []

    def counted(n, row):
        calls.append(row)
        return check_row(n, row)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycliso.monoid, "check_row", counted)
        rows, joined = _checked_chunk(n, chunk)
    assert (rows, joined, calls) == (expected, b"".join(expected), [])
    return True


def _with_images(n, *images):
    """A row of n slots holding ``images`` from slot 1 on, the rest 0."""
    return bytes(images) + bytes(n - len(images))


@pytest.mark.parametrize("n", [8, 9, 16, 17, 20])
def test_images_at_each_plane_boundary(n):
    # images are checked 8 at a time: 1..8, 9..16, 17..24, each in its plane
    edges = [y for y in (1, 8, 9, 16, 17, 20) if y <= n]
    full = bytes(range(n, 0, -1))
    good = [bytes(n), *(_with_images(n, y) for y in edges), _with_images(n, *edges), full]
    assert _checks_like_check_row(n, good)
    for y in edges:
        # the image twice, alone and among the other edges
        assert not _checks_like_check_row(n, [*good, _with_images(n, y, y)])
        others = [x for x in edges if x != y]
        assert not _checks_like_check_row(n, [_with_images(n, y, *others, y), *good])
    # n + 1 maps to no bit, in the last plane or in one past it
    assert not _checks_like_check_row(n, [*good, _with_images(n, n + 1)])
    assert not _checks_like_check_row(n, [_with_images(n, 1, n + 1), *good])


def test_repeated_images_in_the_second_and_third_plane():
    n = 20
    assert _checks_like_check_row(n, [_with_images(n, 10, 18, 1)])
    for y in (10, 18):
        row = _with_images(n, 10, 18, 1, y)
        assert not _checks_like_check_row(n, [_with_images(n, 2), row])


@pytest.mark.parametrize(
    "chunk",
    [
        [b"\1", b"\2\3\0\1\2"],
        [b"\1\2\3\0", b"\1\2"],
        [(1, 2, 3), (1,), (2, 3, 0, 1, 2)],
    ],
    ids=["short-then-long", "long-then-short", "tuples"],
)
def test_rows_of_unequal_length_that_join_to_whole_rows(chunk):
    # joined, each chunk reads as whole rows of injective maps
    assert len(b"".join(map(bytes, chunk))) % 3 == 0
    assert not _checks_like_check_row(3, chunk)


# one row per domain: the partial identities of {1..4} in canonical order
PARTIAL_IDENTITIES_4 = [
    bytes(x if x in dom else 0 for x in range(1, 5))
    for k in range(5)
    for dom in combinations(range(1, 5), k)
]


def test_runs_of_one_row():
    assert _in_order(4, PARTIAL_IDENTITIES_4)
    assert len(FiniteMonoid(4, PARTIAL_IDENTITIES_4, {})) == 16
    swapped = list(PARTIAL_IDENTITIES_4)
    swapped[6], swapped[7] = swapped[7], swapped[6]
    assert not _in_order(4, swapped)
    assert not _in_order(4, PARTIAL_IDENTITIES_4[::-1])


@pytest.mark.parametrize(
    "rows, ordered",
    [
        # domains {1}, {2}, {1}: each run is in order, the key comes back
        ([(1, 0, 0), (0, 1, 0), (2, 0, 0)], False),
        ([(1, 0, 0), (2, 0, 0), (0, 1, 0)], True),
        # a duplicate row inside the run of {1}, first and last
        ([(1, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)], False),
        ([(1, 0, 0), (2, 0, 0), (2, 0, 0), (0, 1, 0)], False),
        ([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (3, 0, 0)], False),
        # rank first: a rank-2 row before a rank-1 row
        ([(1, 2, 0), (0, 0, 1)], False),
    ],
    ids=["key-returns", "in-order", "duplicate-first", "duplicate-last", "duplicate-end", "rank"],
)
def test_runs_of_equal_domain_keys(rows, ordered):
    rows = list(map(bytes, rows))
    assert _in_order(3, rows) is ordered
    keys = list(map(canonical_bytes_key, rows))
    assert all(map(lt, keys, keys[1:])) is ordered


@pytest.mark.parametrize("error", [None, "swap", "duplicate"])
@pytest.mark.parametrize("chunk, at", [(4, 28), (5, 30), (7, 35)])
def test_a_domain_run_split_across_a_chunk_boundary(chunk, at, error, monkeypatch):
    # at n=5 the 10 rows of domain {1, 2} are rows 26..35; row ``at``
    # starts a chunk inside that run (row 35 ends it)
    monkeypatch.setattr(cycliso.monoid, "CHECK_CHUNK", chunk)
    n = 5
    rows = list(restriction_rows(n))
    keys = [row.translate(cycliso.monoid._OFF_DOMAIN) for row in rows[25:37]]
    assert keys == [b"\1\1\1\1\0"] + [b"\0\0\1\1\1"] * 10 + [b"\0\1\0\1\1"]
    assert at % chunk == 0
    if error == "swap":
        rows[at - 1], rows[at] = rows[at], rows[at - 1]
    elif error == "duplicate":
        rows[at] = rows[at - 1]
    if error is None:
        assert list(FiniteMonoid(n, rows, {}).rows) == rows
    else:
        with pytest.raises(ValueError, match="canonical order"):
            FiniteMonoid(n, rows, {})


@st.composite
def chunks_of_rows(draw):
    """(n, rows): mostly injective partial maps, some with one slot spoilt."""
    n = draw(st.integers(1, 20))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        images = draw(st.permutations(range(1, n + 1)))
        kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        row = [y if keep else 0 for y, keep in zip(images, kept)]
        spoil = draw(st.sampled_from(["none", "none", "slot", "length"]))
        if spoil == "slot":
            i = draw(st.integers(0, n - 1))
            row[i] = draw(st.sampled_from([-1, n + 1, 255, 256, *range(n + 1)]))
        elif spoil == "length":
            row = row[:-1] if draw(st.booleans()) else [*row, 0]
        kind = draw(st.sampled_from([tuple, list, bytes]))
        if kind is bytes and not all(0 <= y < 256 for y in row):
            kind = tuple
        rows.append(kind(row))
    return n, rows


@given(chunks_of_rows())
def test_a_chunk_passes_in_c_iff_check_row_passes_every_row(case):
    _checks_like_check_row(*case)


@given(chunks_of_rows())
def test_the_order_check_is_the_canonical_key_order(case):
    n, chunk = case
    try:
        rows = [bytes(check_row(n, row)) for row in chunk]
    except ValueError:
        return
    # sorted, or nearly so, most rows share domains with their neighbours
    for rows in (rows, sorted(rows, key=canonical_bytes_key)):
        keys = list(map(canonical_bytes_key, rows))
        assert _in_order(n, rows) == all(map(lt, keys, keys[1:]))


def _synthetic_monoid_rows(n):
    """The restrictions of the 2n symmetries to the domains {1..k}, sorted."""
    rows = {
        bytes(row[x] if x <= k else 0 for x in range(1, n + 1))
        for row in symmetry_rows(n)
        for k in range(n + 1)
    }
    return sorted(rows, key=canonical_bytes_key)


@pytest.mark.parametrize("n", range(3, 10))
def test_the_builders_never_check_a_row_in_python(n, monkeypatch):
    def refuses(n, row):
        raise AssertionError("a row was checked by check_row")

    monkeypatch.setattr(cycliso.monoid, "check_row", refuses)
    builders = [build_by_restrictions, build_by_closure]
    if n <= cycliso.monoid.BRUTEFORCE_BOUND:
        builders.append(build_by_bruteforce)
    for build in builders:
        assert len(build(n)) == KNOWN_SIZES[n]


def test_rows_with_three_planes_of_images_are_checked_in_c(monkeypatch):
    def refuses(n, row):
        raise AssertionError("a row was checked by check_row")

    monkeypatch.setattr(cycliso.monoid, "check_row", refuses)
    # images 1..8, 9..16 and 17..20: the empty row, 20 rows of rank 1
    # and 40 for each larger k
    rows = _synthetic_monoid_rows(20)
    assert len(rows) == 1 + 20 + 19 * 40
    assert list(FiniteMonoid(20, rows, {}).rows) == rows


@pytest.mark.parametrize("n", range(3, 10))
def test_the_closure_sort_is_the_canonical_key_sort(n):
    rows = closure_rows(n, [a.row for a in standard_generators(n).values()])
    random.Random(n).shuffle(rows)
    assert _sorted_canonically(rows) == sorted(rows, key=canonical_bytes_key)
    assert _sorted_canonically(rows[:n]) == sorted(rows[:n], key=canonical_bytes_key)


def test_rows_read_as_a_sequence_of_slices():
    m = build_by_restrictions(4)
    rows = m.rows
    buffer = rows.buffer
    assert type(buffer) is bytes and len(rows) == len(m) == len(buffer) // 4
    for i in (0, 1, 50, len(rows) - 1):
        assert rows[i] == buffer[4 * i:4 * i + 4]
        assert rows[i - len(rows)] == rows[i]
        assert rows.index(rows[i]) == i
    assert rows[0] == bytes(4) and rows[-1] == bytes([4, 3, 2, 1])
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[i]
    # one row at a time: a slice or a float is refused as no integer
    for i in (slice(0, 2), 1.0):
        for seq in (rows, m):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                seq[i]
    assert list(rows) == [buffer[i:i + 4] for i in range(0, len(buffer), 4)]
    assert list(reversed(rows)) == list(rows)[::-1]
    # a map that is not an isometry, a row of another length, a tuple
    for row in (bytes([1, 0, 2, 0]), bytes(5), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            rows.index(row)


@pytest.mark.parametrize("n", range(3, 9))
def test_views_are_the_checked_rows(n, monkeypatch):
    m = build_by_restrictions(n)
    views = list(m)
    assert len(views) == len(m)
    for i, row in enumerate(m.rows):
        assert m[i] == PartialPerm(n, row) == views[i]
        assert m[i].row == check_row(n, row)
    assert m.elements == tuple(views)

    # a view reads a checked row, so it builds no check_row call
    def rejects(n, row):
        raise AssertionError("a view re-checked its row")

    monkeypatch.setattr(cycliso.partial_perm, "check_row", rejects)
    assert list(m) == views and m[-1] == views[-1]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_generates_exactly_is_the_set_comparison(n):
    m = build_by_restrictions(n)
    gens = standard_generators(n)
    cases = [
        [a.row for a in gens.values()],
        [gens["g"].row, gens["h"].row],
        [gens["g"].row, gens["e_n"].row],
        [a.row for a in m],
    ]
    for gen_rows in cases:
        want = set(closure_rows(n, gen_rows)) == set(m.rows)
        assert generates_exactly(m, gen_rows) is want
    assert generates_exactly(m, cases[0]) and not generates_exactly(m, cases[1])
    # g and h generate the units; with e_n the closure is larger than them
    assert generates_exactly(units(m), cases[1])
    assert not generates_exactly(units(m), cases[0])


@pytest.mark.parametrize("method", sorted(BUILDERS))
def test_builders_keep_no_monoid_alive(method):
    build = BUILDERS[method]
    m = build(4)
    assert build(4) is not m
    assert set(vars(m)) == {"n", "rows", "generators"}
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


def test_rank_report_is_a_frozen_value():
    report = rank_search(build_by_restrictions(3))
    fields = (3, 34, True, None, None, (), ())
    assert repr(report) == (
        "RankReport(n=3, size=34, triple_generates=True, singles_checked=None,"
        " pairs_checked=None, generating_singles=(), generating_pairs=())"
    )
    assert report == RankReport(*fields)
    assert report != RankReport(3, 34, False, None, None, (), ())
    assert report != fields
    assert hash(report) == hash(fields)
    with pytest.raises(AttributeError):
        report.size = 0
    with pytest.raises(AttributeError):
        del report.n
    assert report == RankReport(*fields)


def test_rank_search_small():
    m = build_by_restrictions(3)
    report = rank_search(m, exhaustive_pairs=True)
    assert report.triple_generates
    assert report.minimum_is_three
    assert report.singles_checked == len(m)
    assert report.pairs_checked == len(m) * (len(m) - 1) // 2
    assert report.generating_singles == ()
    assert report.generating_pairs == ()


def test_rank_search_respects_pair_bound():
    m = build_by_restrictions(6)
    report = rank_search(m, exhaustive_pairs=True)  # n=6 > bound, scan skipped
    assert report.triple_generates
    assert not report.pair_search_ran


@pytest.mark.parametrize("n", [3, 4, 5])
def test_structural_rank_bound_agrees_with_the_pair_scan(n):
    m = build_by_restrictions(n)
    rows = m.rows
    # A product is total only if both factors are, so the units in a
    # generating set must generate the unit group D_n on their own.
    for ra in rows:
        for rb in rows:
            if all(rb[y - 1] if y else 0 for y in ra):
                assert all(ra) and all(rb)
    # D_n is not cyclic, so that takes two units; and units multiply to
    # units, so a non-unit is needed as well: the rank is at least 3.
    group = [a for a in m if a.is_total]
    assert len(group) == 2 * n
    assert all(len(monoid_closure(n, [u])) < 2 * n for u in group)
    assert rank_search(m, exhaustive_pairs=True).minimum_is_three


def assert_table_is_exact(m):
    prod = product_table(m)
    elements = m.elements
    assert len(prod) == len(m)
    for a, line in zip(elements, prod):
        assert [tuple(m.rows[k]) for k in line] == [a.compose(b).row for b in elements]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_product_table_holds_the_ordinal_of_every_product(n):
    for method in sorted(BUILDERS):
        assert_table_is_exact(BUILDERS[method](n))
    assert_table_is_exact(units(build_by_restrictions(n)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_product_table_reads_no_generators(n):
    tables = []
    for method in sorted(BUILDERS):
        m = BUILDERS[method](n)
        m.generators = None  # any read of the generators raises
        tables.append(product_table(m))
    assert tables[0] == tables[1] == tables[2]
    assert_table_is_exact(m)


def test_product_table_composes_three_rows():
    # one row translated through every table per composed row; every
    # other row is derived
    composed = set()

    class Row(bytes):
        def translate(self, table):
            composed.add(bytes(self))
            return bytes.translate(self, table)

    for n in range(3, 8):
        m = build_by_restrictions(n)
        u = units(m)
        m.rows = tuple(map(Row, m.rows))
        product_table(m)
        assert len(composed) == 3, n
        composed.clear()
        u.rows = tuple(map(Row, u.rows))
        product_table(u)
        assert len(composed) == 2, n
        composed.clear()


@pytest.mark.parametrize("generators", ["rotation", "none", "empty_map"])
def test_product_table_is_exact_when_the_generators_do_not_generate(generators):
    m = build_by_restrictions(4)
    gens = {
        "rotation": {"g": m.generators["g"]},
        "none": {},
        "empty_map": {"0": m[0]},
    }[generators]
    assert_table_is_exact(FiniteMonoid(4, m.rows, gens))


def test_product_table_rejects_a_monoid_that_is_not_closed():
    g = standard_generators(4)["g"]
    m = FiniteMonoid(4, [PartialPerm.identity(4).row, g.row], {})  # g * g is missing
    with pytest.raises(ValueError, match="not closed under composition"):
        product_table(m)
    # g alone closes to 4 > |m| rows, which a size test would read as generating m
    with pytest.raises(ValueError, match="not closed under composition"):
        rank_search(m, exhaustive_pairs=True)


@pytest.mark.parametrize("path", ["generator_row", "unreached_row"])
def test_product_table_finds_a_missing_product_on_either_path(path):
    ident, g = PartialPerm.identity(4), standard_generators(4)["g"]
    if path == "generator_row":
        # g * g is missing from the row of g, the first one composed
        m = FiniteMonoid(4, [ident.row, g.row], {"g": g})
    else:
        # the identity's row is composed and closed, and derives no other;
        # a * a = {1: 3} is missing from the row of a, composed second
        empty, a = PartialPerm(4, (0, 0, 0, 0)), PartialPerm(4, (2, 3, 0, 0))
        m = FiniteMonoid(4, [empty.row, a.row, ident.row], {"0": empty})
    with pytest.raises(ValueError, match="not closed under composition"):
        product_table(m)
    with pytest.raises(ValueError, match="not closed under composition"):
        rank_search(m, exhaustive_pairs=True)


@pytest.mark.parametrize(
    "n, rows",
    [
        (1, [(0,), (1,)]),
        # the symmetric inverse monoid on two points
        (2, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 1)]),
    ],
)
def test_products_on_fewer_than_three_points(n, rows):
    # with one point a gather over one index yields the item, not a 1-tuple
    m = FiniteMonoid(n, rows, {})
    prod = product_table(m)
    for i, a in enumerate(m):
        assert [tuple(m.rows[k]) for k in prod[i]] == [a.compose(b).row for b in m]
    # both monoids hold every partial bijection, so a L b iff a, b share an image
    by_image = {}
    for i, row in enumerate(m.rows):
        by_image.setdefault(frozenset(row) - {0}, set()).add(i)
    assert green_oracle(m, "L").partition() == frozenset(map(frozenset, by_image.values()))
    assert set(closure_rows(n, m.rows)) == set(m.rows)
    report = rank_search(m, exhaustive_pairs=True)
    assert report.singles_checked == len(m)
    assert report.generating_pairs == row_closure_pair_scan(m)[3]


def closure_by_compose(n, gens):
    """closure_rows' breadth-first search, with PartialPerm.compose."""
    order = [PartialPerm.identity(n)]
    seen = set(order)
    for a in order:
        for g in gens:
            p = a.compose(g)
            if p not in seen:
                seen.add(p)
                order.append(p)
    return [a.row for a in order]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_translate_products_match_compose(n):
    if n < 3:
        # as in test_products_on_fewer_than_three_points: every partial bijection
        points = range(1, n + 1)
        gens = [
            PartialPerm.from_pairs(n, zip(dom, img))
            for k in range(n + 1)
            for dom in combinations(points, k)
            for img in permutations(points, k)
        ]
    else:
        gens = list(standard_generators(n).values())
    rows = closure_rows(n, [a.row for a in gens])
    assert list(map(tuple, rows)) == closure_by_compose(n, gens)
    assert_table_is_exact(FiniteMonoid(n, sorted(rows, key=canonical_bytes_key), {}))


def row_closure_pair_scan(m):
    """The pair scan as it ran on rows: one row closure per candidate."""
    n, rows, size = m.n, m.rows, len(m)

    def generates(*seeds):
        return len(closure_rows(n, seeds)) >= size

    singles = tuple(i for i in range(size) if generates(rows[i]))
    pairs = tuple(
        (i, j) for i, j in combinations(range(size), 2) if generates(rows[i], rows[j])
    )
    return size, size * (size - 1) // 2, singles, pairs


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pair_scan_matches_row_closures(n):
    m = build_by_restrictions(n)
    for sub, pair_count in ((m, 0), (units(m), {3: 9, 4: 12, 5: 30}[n])):
        report = rank_search(sub, exhaustive_pairs=True)
        got = (
            report.singles_checked,
            report.pairs_checked,
            report.generating_singles,
            report.generating_pairs,
        )
        assert got == row_closure_pair_scan(sub)
        assert len(report.generating_pairs) == pair_count


def generated(n, *gens):
    """The submonoid the given elements generate, with no generators named."""
    return FiniteMonoid(n, _sorted_canonically(closure_rows(n, [a.row for a in gens])), {})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pair_scan_matches_row_closures_on_proper_submonoids(n):
    g, e_n = standard_generators(n)["g"], idempotent(n, n)
    # in <g, e_n> the rows that are not total close to a proper submonoid,
    # which decides most pairs; in <e_(n-1), e_n> they close to the whole
    # monoid, which must then decide none
    for sub, pair_count in (
        (generated(n, g, e_n), {3: 18, 4: 32, 5: 100}[n]),
        (generated(n, idempotent(n, n - 1), e_n), 1),
    ):
        report = rank_search(sub, exhaustive_pairs=True)
        got = (
            report.singles_checked,
            report.pairs_checked,
            report.generating_singles,
            report.generating_pairs,
        )
        assert got == row_closure_pair_scan(sub)
        assert len(report.generating_pairs) == pair_count


def test_pair_scan_at_six(monkeypatch):
    monkeypatch.setattr(cycliso.monoid, "PAIR_SEARCH_BOUND", 6)
    report = rank_search(build_by_restrictions(6), exhaustive_pairs=True)
    assert report.minimum_is_three
    assert (report.singles_checked, report.pairs_checked) == (703, 246_753)
