"""Cyclic orientation classes of finite sequences and of partial injections.

Read a sequence (a_1, ..., a_t) cyclically, i.e. with the extra pair
(a_t, a_1).  It is *cyclic* when at most one of those t adjacent pairs
steps down, and *anti-cyclic* when at most one steps up; equivalently,
some rotation of it is weakly ascending (resp. descending).  A partial
injection is *oriented* when its image sequence, read along the
ascending domain, is cyclic or anti-cyclic.

Sequences of length <= 2 are both cyclic and anti-cyclic.  An injective
sequence of length 3 is exactly one of the two: (1, 2, 3) is cyclic only
and (1, 3, 2) anti-cyclic only.  Sequences that are neither, such as
(1, 3, 2, 4), first appear at length 4.
"""

from dataclasses import dataclass

__all__ = [
    "SequenceClass",
    "classify_sequence",
    "is_oriented",
    "is_orientation_preserving",
    "is_orientation_reversing",
    "is_order_preserving",
    "is_order_reversing",
]


@dataclass(frozen=True)
class SequenceClass:
    cyclic: bool
    anticyclic: bool

    @property
    def oriented(self):
        return self.cyclic or self.anticyclic


def classify_sequence(seq):
    """Count cyclic descents and ascents of seq and flag both classes.

    >>> classify_sequence((2, 3, 1))
    SequenceClass(cyclic=True, anticyclic=False)
    """
    vals = tuple(seq)
    t = len(vals)
    descents = ascents = 0
    for i in range(t):
        a, b = vals[i], vals[(i + 1) % t]
        if a > b:
            descents += 1
        elif a < b:
            ascents += 1
    return SequenceClass(cyclic=descents <= 1, anticyclic=ascents <= 1)


def _image_sequence(a):
    return tuple(y for _, y in a)


def is_oriented(a):
    """Is the image sequence along the ascending domain cyclic or anti-cyclic?"""
    return classify_sequence(_image_sequence(a)).oriented


def is_orientation_preserving(a):
    return classify_sequence(_image_sequence(a)).cyclic


def is_orientation_reversing(a):
    return classify_sequence(_image_sequence(a)).anticyclic


def is_order_preserving(a):
    """x <= y implies x.a <= y.a on the domain (adjacent checks suffice)."""
    seq = _image_sequence(a)
    return all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))


def is_order_reversing(a):
    seq = _image_sequence(a)
    return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))
