import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycliso import PartialPerm, build_by_bruteforce, build_by_restrictions, idempotent
from cycliso.dihedral import DihedralElement


def pperm(n, mapping):
    return PartialPerm.from_pairs(n, mapping)


def partial_perms(n):
    """Every partial injection of {1..n} is a masked permutation."""
    return st.builds(
        lambda perm, mask: PartialPerm(
            n, tuple(p if mask >> i & 1 else 0 for i, p in enumerate(perm))
        ),
        st.permutations(list(range(1, n + 1))),
        st.integers(0, 2**n - 1),
    )


sized_perms = st.integers(3, 6).flatmap(
    lambda n: st.tuples(st.just(n), partial_perms(n))
)
sized_pairs = st.integers(3, 6).flatmap(
    lambda n: st.tuples(partial_perms(n), partial_perms(n))
)
sized_triples = st.integers(3, 6).flatmap(
    lambda n: st.tuples(partial_perms(n), partial_perms(n), partial_perms(n))
)


def test_compose_with_identity():
    a = pperm(4, {1: 2, 3: 4})
    ident = PartialPerm.identity(4)
    assert a * ident == a
    assert ident * a == a


def test_compose_chains_domains():
    assert pperm(3, {1: 2}) * pperm(3, {2: 3}) == pperm(3, {1: 3})


def test_compose_disjoint_is_empty():
    assert pperm(3, {1: 2}) * pperm(3, {1: 3}) == PartialPerm.empty(3)


def test_compose_mismatched_sizes():
    with pytest.raises(ValueError):
        pperm(3, {1: 1}).compose(pperm(4, {1: 1}))


def test_inverse_swaps_domain_and_image():
    a = pperm(4, {1: 2, 2: 3})
    assert a.inverse() == pperm(4, {2: 1, 3: 2})
    assert a.inverse().domain() == a.image()
    assert a.inverse().image() == a.domain()


def test_idempotent_removes_one_point():
    e = idempotent(4, 4)
    assert e == PartialPerm.identity_on(4, (1, 2, 3))
    assert e * e == e


def test_idempotents_commute_and_accumulate():
    n = 5
    e1, e2 = idempotent(n, 1), idempotent(n, 2)
    assert e1 * e2 == e2 * e1 == PartialPerm.identity_on(n, (3, 4, 5))


def test_idempotent_range_check():
    with pytest.raises(ValueError):
        idempotent(4, 5)
    with pytest.raises(ValueError):
        idempotent(4, 0)


def test_restrict():
    g = DihedralElement.rotation(5).to_partial_perm()
    assert g.restrict((1, 3)) == pperm(5, {1: 2, 3: 4})
    assert g.restrict(range(1, 6)) == g
    assert g.restrict(()) == PartialPerm.empty(5)
    # points outside the domain are silently dropped
    assert pperm(5, {1: 2}).restrict((1, 4)) == pperm(5, {1: 2})


def test_constructor_rejects_bad_rows():
    with pytest.raises(ValueError):
        PartialPerm(3, (1, 1, 0))  # not injective
    with pytest.raises(ValueError):
        PartialPerm(3, (4, 0, 0))  # image out of range
    with pytest.raises(ValueError):
        PartialPerm(3, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        PartialPerm(0, ())


@pytest.mark.parametrize("n", [3.0, "3", None], ids=["float", "str", "none"])
def test_the_point_count_must_be_an_integer(n):
    # before, PartialPerm(3.0, (1, 2, 3)) was built and its domain() raised TypeError
    with pytest.raises(ValueError, match=f"point count {n!r} is not an integer"):
        PartialPerm(n, (1, 2, 3))


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: idempotent(3, 1.5), "point 1.5"),
        (lambda: idempotent(3.0, 1), "point count 3.0"),
        (lambda: PartialPerm.from_pairs(3.0, {1: 2}), "point count 3.0"),
        (lambda: PartialPerm.from_pairs(3, {1.5: 2}), "domain point 1.5"),
        (lambda: PartialPerm.from_pairs(3, {1: 2.5}), "image 2.5"),
        (lambda: PartialPerm.from_json({"n": 3, "dom": [1.0], "img": [2]}), "domain point 1.0"),
    ],
    ids=["idempotent-point", "idempotent-n", "pairs-n", "pairs-point", "pairs-image", "json-point"],
)
def test_points_must_be_integers(build, what):
    # before, idempotent(3, 1.5) was the identity and the rest raised TypeError
    with pytest.raises(ValueError, match=f"^{what} is not an integer$"):
        build()


def test_from_pairs_rejects_bad_domain():
    with pytest.raises(ValueError):
        PartialPerm.from_pairs(3, {4: 1})


def test_json_round_trip():
    a = pperm(4, {1: 2, 3: 4})
    obj = a.to_json()
    assert obj == {"n": 4, "dom": [1, 3], "img": [2, 4]}
    assert PartialPerm.from_json(obj) == a
    assert PartialPerm.from_json(PartialPerm.empty(3).to_json()) == PartialPerm.empty(3)


def test_from_json_requires_ascending_domain():
    with pytest.raises(ValueError):
        PartialPerm.from_json({"n": 3, "dom": [2, 1], "img": [1, 2]})
    with pytest.raises(ValueError):
        PartialPerm.from_json({"n": 3, "dom": [1], "img": [1, 2]})


def test_accessors():
    a = pperm(4, {1: 2, 3: 4})
    assert a[1] == 2
    with pytest.raises(KeyError):
        a[2]
    b = pperm(4, {4: 2})
    for x in (0, -1, 5):  # row[-1] once read as point 0
        with pytest.raises(KeyError):
            b[x]
    assert a.domain() == (1, 3)
    assert a.image() == (2, 4)
    assert a.rank == 2
    assert not a.is_total
    assert PartialPerm.identity(4).is_total
    assert list(a) == [(1, 2), (3, 4)]


def test_sort_key_orders_by_rank_first():
    empty = PartialPerm.empty(3)
    small = pperm(3, {1: 1})
    big = PartialPerm.identity(3)
    assert empty.sort_key() < small.sort_key() < big.sort_key()


def test_sort_key_gives_the_rank_domain_images_order():
    def images_along_domain(a):
        dom = a.domain()
        return (len(dom), dom, tuple(a.row[x - 1] for x in dom))

    shuffled = list(build_by_bruteforce(6).elements)
    random.Random(4).shuffle(shuffled)
    assert sorted(shuffled, key=PartialPerm.sort_key) == sorted(
        shuffled, key=images_along_domain
    )
    for n in range(3, 11):
        keys = [a.sort_key() for a in build_by_restrictions(n)]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:])), n


@given(sized_triples)
def test_composition_is_associative(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@given(sized_perms)
def test_inverse_is_an_involution(na):
    _, a = na
    assert a.inverse().inverse() == a


@given(sized_perms)
def test_inverse_products_are_partial_identities(na):
    n, a = na
    assert a * a.inverse() == PartialPerm.identity_on(n, a.domain())
    assert a.inverse() * a == PartialPerm.identity_on(n, a.image())


@given(sized_pairs)
def test_rank_never_grows_under_composition(ab):
    a, b = ab
    assert (a * b).rank <= min(a.rank, b.rank)


@given(sized_perms)
def test_json_round_trip_property(na):
    _, a = na
    assert PartialPerm.from_json(a.to_json()) == a
