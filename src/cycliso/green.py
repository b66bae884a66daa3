"""Green's relations on the cycle-isometry monoid.

Two routes, kept independent on purpose:

- ``green_LRH`` and ``green_J`` use the structure theory, reading every
  key off the element's row as a bitmask: L is "same image", R is "same
  domain", H is both, and J is "same dihedral orbit of the domain".
  Every element is a restriction of one of the 2n symmetries, so a
  partial isometry carries one domain onto another exactly when a
  symmetry does.
- ``green_oracle`` uses only the definitions, computing principal ideals
  M a, a M and M a M from the full multiplication table.

The two must produce identical partitions; tests enforce that.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_

from .monoid import product_table

__all__ = ["GreenClasses", "green_LRH", "green_J", "green_oracle"]

ORACLE_SIZE_BOUND = 1024  # |M|; the oracle holds an |M|^2 product table, so n <= 6


@dataclass(frozen=True)
class GreenClasses:
    """A partition of element ordinals, classes and members both sorted."""

    relation: str
    classes: tuple

    @property
    def class_count(self):
        return len(self.classes)

    def partition(self):
        return frozenset(frozenset(c) for c in self.classes)

    def class_sizes_histogram(self):
        hist = {}
        for c in self.classes:
            hist[len(c)] = hist.get(len(c), 0) + 1
        return dict(sorted(hist.items()))


def _group_by(keyed):
    """(key, ordinal) pairs, ordinals increasing -> sorted GreenClasses body."""
    buckets = {}
    for key, i in keyed:
        buckets.setdefault(key, []).append(i)
    return tuple(map(tuple, buckets.values()))


def _domain_masks(m):
    """Each element's domain mask: bit i is set iff point i + 1 is in it."""
    bits = [1 << i for i in range(m.n)]
    return (sum(compress(bits, row)) for row in m.rows)


def _image_masks(m):
    """Each element's image mask: bit y - 1 is set iff point y is in it."""
    bit = (0,) + tuple(1 << i for i in range(m.n))
    return (sum(map(bit.__getitem__, row)) for row in m.rows)


def _orbit_keys(n):
    """key[mask]: the least mask in the dihedral orbit of ``mask``.

    The orbit is the n cyclic shifts of the mask and of its bit
    reversal, i.e. the images of the point set under the 2n symmetries.
    Masks are visited in increasing order, so the first one met in an
    orbit is its least member.

    >>> _orbit_keys(4)
    [0, 1, 1, 3, 1, 5, 3, 7, 1, 3, 5, 7, 3, 7, 7, 15]
    >>> len(set(_orbit_keys(6)))  # binary bracelets of length 6
    13
    """
    full = (1 << n) - 1
    key = [None] * (1 << n)
    for mask in range(1 << n):
        if key[mask] is not None:
            continue
        rev = int(format(mask, f"0{n}b")[::-1], 2)
        for x in (mask, rev):
            for k in range(n):
                key[(x << k | x >> (n - k)) & full] = mask
    return key


def green_LRH(m, relation):
    """L, R or H classes via image mask / domain mask / both."""
    if relation not in ("L", "R", "H"):
        raise ValueError(f"relation must be L, R or H, got {relation!r}")
    if relation == "L":
        keys = _image_masks(m)
    elif relation == "R":
        keys = _domain_masks(m)
    else:
        keys = zip(_domain_masks(m), _image_masks(m))
    return GreenClasses(relation, _group_by(zip(keys, range(len(m)))))


def green_J(m, metric):
    """J classes: two elements are related iff a symmetry of the cycle
    carries one domain onto the other.

    ``metric`` must be the cycle metric the monoid lives on.
    """
    if metric.n != m.n:
        raise ValueError(f"metric on {metric.n} points, monoid on {m.n}")
    key = _orbit_keys(m.n)
    keyed = zip(map(key.__getitem__, _domain_masks(m)), range(len(m)))
    return GreenClasses("J", _group_by(keyed))


def green_oracle(m, relation):
    """Green classes straight from the definitions, via principal ideals.

    Builds the |M| x |M| product table from composition and
    associativity alone (``monoid.product_table``) and reads off each
    principal ideal as a bitmask of ordinals: row a of the table is the
    right ideal a M, column a the left ideal M a, and

        a L b  iff  M a = M b        a R b  iff  a M = b M
        a H b  iff  both             a J b  iff  M a M = M b M

    with M a M the union of M c over c in a M.  Each relation builds
    only the masks it reads.  "D" gives the join of the L and R
    partitions, which for these finite monoids must equal J.
    """
    if relation not in ("L", "R", "H", "J", "D"):
        raise ValueError(f"relation must be one of L R H J D, got {relation!r}")
    size = len(m)
    if size > ORACLE_SIZE_BOUND:
        raise ValueError(f"|M| = {size} above oracle size bound {ORACLE_SIZE_BOUND}")
    prod = product_table(m)
    bit = [1 << k for k in range(size)]

    def masks(lines):
        return [sum(map(bit.__getitem__, set(line))) for line in lines]

    if relation == "L":
        keys = masks(zip(*prod))
    elif relation == "R":
        keys = masks(prod)
    elif relation == "H":
        keys = zip(masks(zip(*prod)), masks(prod))
    elif relation == "J":
        left = masks(zip(*prod))
        keys = [reduce(or_, map(left.__getitem__, set(line))) for line in prod]
    else:  # D: join of the L and R partitions
        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ideals in (masks(zip(*prod)), masks(prod)):
            for first, *rest in _group_by(zip(ideals, range(size))):
                for x in rest:
                    parent[find(x)] = find(first)
        keys = map(find, range(size))

    return GreenClasses(relation, _group_by(zip(keys, range(size))))
