"""Green's relations on the cycle-isometry monoid.

Two routes, kept independent on purpose:

- ``green_LRH`` and ``green_J`` use the structure theory: L is "same
  image", R is "same domain", H is both, and J is "same dihedral orbit
  of the domain".  Every element is a restriction of one of the 2n
  symmetries, so a partial isometry carries one domain onto another
  exactly when a symmetry does.  Each key is read off the element's
  bytes row by C calls, with no Python frame per element: the domain
  key is ``row.translate(_OFF_DOMAIN)``, the middle term of
  ``canonical_bytes_key``, and the image key comes from
  ``bytes.maketrans``.  R and J rely on the order the monoid's
  constructor checked (rank, then domain, then images), which keeps the
  rows of each domain consecutive: an R class is a run of equal domain
  keys, and a J class joins the runs whose domains share a dihedral
  orbit, looked up once per run.
- ``green_oracle`` uses only the definitions, computing principal ideals
  M a, a M and M a M from the full multiplication table.

The two must produce identical partitions; tests enforce that.
"""

from collections import Counter
from functools import reduce
from itertools import chain, groupby, repeat
from operator import getitem, or_

from .dihedral import mask_images
from .monoid import product_table
from .partial_perm import _OFF_DOMAIN
from .record import Record

__all__ = ["GreenClasses", "green_LRH", "green_J", "green_oracle"]

ORACLE_SIZE_BOUND = 1024  # |M|; the oracle holds an |M|^2 product table, so n <= 6


class GreenClasses(Record):
    """A partition of element ordinals, classes and members both sorted."""

    __slots__ = ("relation", "classes")

    @property
    def class_count(self):
        return len(self.classes)

    def partition(self):
        return frozenset(frozenset(c) for c in self.classes)

    def class_sizes_histogram(self):
        return dict(sorted(Counter(map(len, self.classes)).items()))


def _group_by(keyed):
    """(key, item) pairs -> the items of each key, keys in order of first item.

    Fed ordinals in increasing order, this is a sorted GreenClasses body.
    """
    buckets = {}
    for key, i in keyed:
        buckets.setdefault(key, []).append(i)
    return tuple(map(tuple, buckets.values()))


def _domain_keys(m):
    """Each row's domain key: byte i is 1 iff point i + 1 is off the domain."""
    return map(bytes.translate, m.rows, repeat(_OFF_DOMAIN))


def _image_keys(m):
    """Each row's image key: byte y - 1 is 0 iff point y is in the image.

    ``bytes.maketrans(row, zeros)`` is the identity table with 0 at each
    value of the row; bytes 1..n of it mark the image.
    """
    n = m.n
    tables = map(bytes.maketrans, m.rows, repeat(bytes(n)))
    return map(getitem, tables, repeat(slice(1, n + 1)))


def _domain_runs(m):
    """(domain key, ordinals) for each domain, the ordinals a range.

    The monoid's constructor checked that its rows are in canonical
    order, by rank, then domain, then images, so the rows of one domain
    are consecutive and each domain is one run of equal keys.
    """
    runs = []
    start = 0
    for key, rows in groupby(_domain_keys(m)):
        stop = start + len(list(rows))
        runs.append((key, range(start, stop)))
        start = stop
    return runs


# a domain key read through it spells the domain in binary, point 1 first
_MASK_DIGITS = bytes.maketrans(b"\0\1", b"10")


def _domain_mask(key):
    """The mask of a domain key's domain: bit i is set iff point i + 1 is in it."""
    return int(key.translate(_MASK_DIGITS)[::-1], 2)


def _orbit_keys(n):
    """key[mask]: the least mask in the dihedral orbit of ``mask``.

    The orbit is the images of the point set under the 2n symmetries.
    Masks are visited in increasing order, so the first one met in an
    orbit is its least member.

    >>> _orbit_keys(4)
    [0, 1, 1, 3, 1, 5, 3, 7, 1, 3, 5, 7, 3, 7, 7, 15]
    >>> len(set(_orbit_keys(6)))  # binary bracelets of length 6
    13
    """
    key = [None] * (1 << n)
    for mask in range(1 << n):
        if key[mask] is None:
            for image in mask_images(n, mask):
                key[image] = mask
    return key


def green_LRH(m, relation):
    """L, R or H classes: same image, same domain, or both.

    R classes are the domain runs of the canonical order; L and H group
    the ordinals by image key, and H by domain key too.
    """
    if relation not in ("L", "R", "H"):
        raise ValueError(f"relation must be L, R or H, got {relation!r}")
    if relation == "R":
        return GreenClasses("R", tuple(tuple(run) for _, run in _domain_runs(m)))
    keys = _image_keys(m)
    if relation == "H":
        keys = zip(_domain_keys(m), keys)
    return GreenClasses(relation, _group_by(zip(keys, range(len(m)))))


def green_J(m, metric):
    """J classes: two elements are related iff a symmetry of the cycle
    carries one domain onto the other.

    Each domain run of the canonical order joins the class of its
    domain's dihedral orbit, so the orbit is looked up once per domain.
    ``metric`` must be the cycle metric the monoid lives on.
    """
    if metric.n != m.n:
        raise ValueError(f"metric on {metric.n} points, monoid on {m.n}")
    key = _orbit_keys(m.n)
    keyed = ((key[_domain_mask(dom)], run) for dom, run in _domain_runs(m))
    classes = _group_by(keyed)
    return GreenClasses("J", tuple(tuple(chain.from_iterable(runs)) for runs in classes))


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
