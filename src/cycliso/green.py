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
from itertools import compress

from .monoid import product_table

__all__ = ["GreenClasses", "check_oracle_size", "green_LRH", "green_J", "green_oracle"]

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


def check_oracle_size(size):
    """Raise ValueError if a monoid of this size is above the oracle's bound."""
    if size > ORACLE_SIZE_BOUND:
        raise ValueError(f"|M| = {size} above oracle size bound {ORACLE_SIZE_BOUND}")


def _principal_ideals(m):
    """(prod, left, right): prod is ``monoid.product_table(m)``, left[j]
    the bitmask of the left ideal M·m[j] and right[i] that of m[i]·M.

    Builds the |M|^2 table on every call, so callers bound |M| first.
    """
    prod = product_table(m)
    bit = [1 << k for k in range(len(prod))]
    right = [sum(map(bit.__getitem__, set(line))) for line in prod]
    left = [sum(map(bit.__getitem__, set(col))) for col in zip(*prod)]
    return prod, left, right


def green_oracle(m, relation):
    """Green classes straight from the definitions, via principal ideals.

    Builds the |M| x |M| product table from composition and
    associativity alone, with each left ideal M a and right ideal a M
    as a bitmask, and reads off:

        a L b  iff  M a = M b        a R b  iff  a M = b M
        a H b  iff  both             a J b  iff  M a M = M b M

    with M a M accumulated as the union of M c over c in a M.  "D" gives
    the join of L and R, which for these finite monoids must equal J.
    """
    if relation not in ("L", "R", "H", "J", "D"):
        raise ValueError(f"relation must be one of L R H J D, got {relation!r}")
    size = len(m)
    check_oracle_size(size)
    prod, left_mask, right_mask = _principal_ideals(m)

    if relation == "L":
        keyed = [(left_mask[i], i) for i in range(size)]
    elif relation == "R":
        keyed = [(right_mask[i], i) for i in range(size)]
    elif relation == "H":
        keyed = [((left_mask[i], right_mask[i]), i) for i in range(size)]
    elif relation == "J":
        keyed = []
        for i in range(size):
            two_sided = 0
            for c in set(prod[i]):
                two_sided |= left_mask[c]
            keyed.append((two_sided, i))
    else:  # D: join of L and R as partitions
        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union_all(keyfn):
            buckets = {}
            for i in range(size):
                buckets.setdefault(keyfn(i), []).append(i)
            for members in buckets.values():
                r = find(members[0])
                for x in members[1:]:
                    parent[find(x)] = r

        union_all(lambda i: left_mask[i])
        union_all(lambda i: right_mask[i])
        keyed = [(find(i), i) for i in range(size)]

    return GreenClasses(relation, _group_by(keyed))
