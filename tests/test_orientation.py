from itertools import permutations, product

from hypothesis import given
from hypothesis import strategies as st

from cycliso import (
    PartialPerm,
    build_by_restrictions,
    classify_sequence,
    group_elements,
    is_order_preserving,
    is_order_reversing,
    is_oriented,
    is_orientation_preserving,
    is_orientation_reversing,
)


def rotation_oracle(seq):
    """Independent route: a sequence is cyclic iff some rotation of it is
    weakly ascending, anti-cyclic iff some rotation is weakly descending."""
    t = len(seq)
    rots = [seq[i:] + seq[:i] for i in range(max(t, 1))]
    cyc = any(all(r[i] <= r[i + 1] for i in range(t - 1)) for r in rots)
    ant = any(all(r[i] >= r[i + 1] for i in range(t - 1)) for r in rots)
    return cyc, ant


def test_classify_examples():
    s = classify_sequence((2, 3, 1))
    assert s.cyclic and not s.anticyclic and s.oriented
    s = classify_sequence((3, 2, 1))
    assert s.anticyclic and not s.cyclic and s.oriented
    # (1, 3, 2) rotates to the descending (3, 2, 1), so it is anti-cyclic
    s = classify_sequence((1, 3, 2))
    assert s.anticyclic and not s.cyclic
    # length 4 is the first place both flags can fail
    s = classify_sequence((2, 4, 1, 3))
    assert not s.cyclic and not s.anticyclic and not s.oriented


def test_short_and_constant_sequences_are_both():
    for seq in ((), (7,), (1, 2), (2, 1), (3, 3, 3)):
        s = classify_sequence(seq)
        assert s.cyclic and s.anticyclic


def test_injective_length_three_is_always_oriented():
    for seq in permutations((1, 4, 6)):
        s = classify_sequence(seq)
        assert s.oriented
        assert s.cyclic != s.anticyclic, seq


def test_classifier_matches_rotation_oracle():
    for t in range(0, 6):
        for seq in product(range(1, 5), repeat=t):
            s = classify_sequence(seq)
            assert (s.cyclic, s.anticyclic) == rotation_oracle(seq), seq


def test_map_orientation_examples():
    g = group_elements(4)[1].to_partial_perm()  # the unit rotation
    assert is_orientation_preserving(g) and not is_orientation_reversing(g)
    h = group_elements(4)[4].to_partial_perm()  # the reflection
    assert is_orientation_reversing(h) and not is_orientation_preserving(h)
    # an injection that is not an isometry and not oriented either
    a = PartialPerm.from_pairs(4, {1: 1, 2: 3, 3: 2, 4: 4})
    assert not is_oriented(a)


def test_order_preserving_and_reversing():
    assert is_order_preserving(PartialPerm.identity_on(5, (2, 4)))
    g = group_elements(5)[1].to_partial_perm()
    assert not is_order_preserving(g)  # 5 wraps to 1
    assert is_oriented(g)
    h = group_elements(5)[5].to_partial_perm()
    assert is_order_reversing(h)
    assert is_order_preserving(PartialPerm.empty(4))
    assert is_order_reversing(PartialPerm.empty(4))


def test_monoid_elements_are_oriented_with_exclusive_flags():
    for n in (4, 5):
        for a in build_by_restrictions(n):
            p = is_orientation_preserving(a)
            r = is_orientation_reversing(a)
            assert p or r, (n, a)
            if a.rank >= 3:
                assert p != r, (n, a)
            else:
                assert p and r, (n, a)


_m5 = build_by_restrictions(5)
_elems5 = st.sampled_from(_m5.elements)


@given(_elems5, _elems5)
def test_parity_laws_under_products(a, b):
    pa, ra = is_orientation_preserving(a), is_orientation_reversing(a)
    pb, rb = is_orientation_preserving(b), is_orientation_reversing(b)
    ab = a * b
    pab, rab = is_orientation_preserving(ab), is_orientation_reversing(ab)
    if pa and pb:
        assert pab
    if pa and rb:
        assert rab
    if ra and pb:
        assert rab
    if ra and rb:
        assert pab


def test_parity_laws_exhaustive_small():
    m = build_by_restrictions(4)
    flags = [
        (is_orientation_preserving(a), is_orientation_reversing(a))
        for a in m
    ]
    for i, a in enumerate(m):
        pa, ra = flags[i]
        for j, b in enumerate(m):
            pb, rb = flags[j]
            ab = a * b
            pab = is_orientation_preserving(ab)
            rab = is_orientation_reversing(ab)
            assert not (pa and pb) or pab
            assert not (pa and rb) or rab
            assert not (ra and pb) or rab
            assert not (ra and rb) or pab
