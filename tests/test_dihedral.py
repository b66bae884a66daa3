import pytest

from cycliso import CycleMetric, PartialPerm, extensions_of, group_elements
from cycliso.dihedral import DihedralElement, mask_images, symmetry_rows


def test_act_examples():
    assert DihedralElement(5, 0, 3).act(4) == 2
    assert DihedralElement(5, 1, 2).act(1) == 2
    assert DihedralElement(5, 1, 2).act(2) == 1
    ident = DihedralElement.identity(5)
    assert [ident.act(i) for i in range(1, 6)] == [1, 2, 3, 4, 5]


def test_reflection_flips():
    h = DihedralElement.reflection(4)
    assert [h.act(i) for i in range(1, 5)] == [4, 3, 2, 1]


def test_act_validates_vertex():
    with pytest.raises(ValueError):
        DihedralElement.identity(4).act(5)


def test_normal_form_validation():
    with pytest.raises(ValueError):
        DihedralElement(2, 0, 0)
    with pytest.raises(ValueError):
        DihedralElement(4, 2, 0)
    with pytest.raises(ValueError):
        DihedralElement(4, 0, 4)
    assert DihedralElement.rotation(4, 7).rot == 3


@pytest.mark.parametrize(
    "args, message",
    [
        ((3.5, 0, 1.0), "vertex count 3.5"),
        ((4.0, 0, 1), "vertex count 4.0"),
        ((4, 1.0, 1), "ref 1.0"),
        ((4, 0, 1.0), "rot 1.0"),
        (("4", 0, 1), "vertex count '4'"),
    ],
    ids=["n-fraction", "n-float", "ref-float", "rot-float", "n-str"],
)
def test_non_integers_are_refused(args, message):
    # before, DihedralElement(3.5, 0, 1.0) was built and act(1) gave 2.0
    with pytest.raises(ValueError, match=f"{message} is not an integer"):
        DihedralElement(*args)


def test_dihedral_element_is_a_frozen_value():
    a = DihedralElement(5, 1, 2)
    assert repr(a) == "DihedralElement(n=5, ref=1, rot=2)"
    assert a == DihedralElement(5, 1, 2)
    assert a != DihedralElement(5, 0, 2) and a != DihedralElement(6, 1, 2)
    assert a != (5, 1, 2)
    assert hash(a) == hash((5, 1, 2))
    for name in ("n", "ref", "rot", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        del a.rot
    assert a == DihedralElement(5, 1, 2)


def test_group_axioms_and_action_compatibility():
    for n in range(3, 9):
        elems = group_elements(n)
        assert len(elems) == len(set(elems)) == 2 * n
        ident = DihedralElement.identity(n)
        for a in elems:
            assert a * a.inverse() == ident
            for b in elems:
                ab = a * b
                assert ab in elems
                for i in range(1, n + 1):
                    assert ab.act(i) == b.act(a.act(i)), (n, a, b, i)


def test_defining_relations():
    for n in (3, 4, 5, 8):
        g = DihedralElement.rotation(n)
        h = DihedralElement.reflection(n)
        gn = DihedralElement.identity(n)
        for _ in range(n):
            gn = gn * g
        assert gn == DihedralElement.identity(n)
        assert h * h == DihedralElement.identity(n)
        lhs = h * g
        rhs = h
        for _ in range(n - 1):
            rhs = g * rhs  # g^(n-1) h, built as g * (g * ... * h)
        assert lhs == rhs


def test_to_partial_perm():
    assert DihedralElement.rotation(3).to_partial_perm() == PartialPerm.from_pairs(
        3, {1: 2, 2: 3, 3: 1}
    )
    assert DihedralElement.reflection(3).to_partial_perm() == PartialPerm.from_pairs(
        3, {1: 3, 2: 2, 3: 1}
    )
    maps = {e.to_partial_perm() for e in group_elements(5)}
    assert len(maps) == 10
    assert all(a.is_total for a in maps)


def test_symmetry_rows_match_act():
    for n in range(3, 11):
        rows = symmetry_rows(n)
        assert len(rows) == 2 * n
        for row, e in zip(rows, group_elements(n)):
            assert row == (0,) + tuple(e.act(x) for x in range(1, n + 1)), (n, e)


def test_mask_images_match_act():
    # bit x - 1 of a mask stands for point x
    for n in range(3, 11):
        elems = group_elements(n)
        for mask in range(1 << n):
            points = [x for x in range(1, n + 1) if mask >> (x - 1) & 1]
            expected = [sum(1 << (e.act(x) - 1) for x in points) for e in elems]
            assert mask_images(n, mask) == expected, (n, mask)


@pytest.mark.parametrize(
    "n, mask, message",
    [(4, 16, "outside 0..15"), (4, -1, "outside 0..15"), (2, 1, "need n >= 3")],
    ids=["mask-above-range", "negative-mask", "n-below-3"],
)
def test_mask_images_validates_input(n, mask, message):
    # unchecked, the bit arithmetic answers anyway: (4, 16) rotates as {1}
    # and reflects as the empty set, and (4, -1) gives eight full masks
    with pytest.raises(ValueError, match=message):
        mask_images(n, mask)


def test_to_partial_perm_is_a_homomorphism():
    for n in (3, 4, 6):
        for a in group_elements(n):
            for b in group_elements(n):
                assert (a * b).to_partial_perm() == a.to_partial_perm() * b.to_partial_perm()


def test_rendering():
    assert str(DihedralElement.identity(5)) == "1"
    assert str(DihedralElement.rotation(5)) == "g"
    assert str(DihedralElement(5, 0, 3)) == "g^3"
    assert str(DihedralElement.reflection(5)) == "h"
    assert str(DihedralElement(5, 1, 1)) == "hg"
    assert str(DihedralElement(5, 1, 3)) == "hg^3"


def test_extension_examples():
    metric = CycleMetric(5)
    exts = extensions_of(metric, PartialPerm.from_pairs(5, {1: 2}))
    assert exts == [DihedralElement(5, 0, 1), DihedralElement(5, 1, 2)]

    exts = extensions_of(CycleMetric(4), PartialPerm.from_pairs(4, {1: 1, 3: 3}))
    assert exts == [DihedralElement.identity(4), DihedralElement(4, 1, 1)]

    exts = extensions_of(metric, PartialPerm.from_pairs(5, {1: 1, 2: 2, 3: 3}))
    assert exts == [DihedralElement.identity(5)]

    assert extensions_of(metric, PartialPerm.empty(5)) == list(group_elements(5))
    assert extensions_of(metric, PartialPerm.from_pairs(5, {1: 1, 2: 3})) == []


def test_extensions_match_scan_oracle():
    # oracle: try every symmetry and keep those restricting to the map
    from cycliso import build_by_restrictions

    for n in range(3, 7):
        metric = CycleMetric(n)
        for a in build_by_restrictions(n):
            dom = a.domain()
            oracle = [
                e
                for e in group_elements(n)
                if e.to_partial_perm().restrict(dom) == a
            ]
            assert extensions_of(metric, a) == oracle, (n, a)


def test_extensions_size_mismatch():
    with pytest.raises(ValueError):
        extensions_of(CycleMetric(4), PartialPerm.empty(5))
