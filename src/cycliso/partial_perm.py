"""Partial permutations (injective partial maps) of {1, ..., n}.

Conventions used throughout this package:

- Points are written 1..n and act on the RIGHT: the image of x under a
  is ``a[x]``, and a product ``a * b`` means "apply a first, then b",
  so ``(a * b)[x] == b[a[x]]`` wherever that chain is defined.
- A map is stored densely as an n-slot row; slot i (0-based) holds the
  image of point i + 1, with 0 marking "undefined".

>>> a = PartialPerm.from_pairs(4, {1: 2})
>>> b = PartialPerm.from_pairs(4, {2: 3})
>>> (a * b).to_json()
{'n': 4, 'dom': [1], 'img': [3]}
"""

from itertools import compress, count, repeat

from .record import integer

__all__ = [
    "PartialPerm",
    "canonical_bytes_key",
    "canonical_key",
    "check_row",
    "idempotent",
]


def check_row(n, row):
    """The sequence ``row`` as a tuple of ints, once it is checked to be an
    injective partial map of {1, ..., n}: n slots, each 0 or an image in
    1..n, no image twice.  Otherwise raise ValueError.

    Each image is taken through ``record.integer``, so a non-integer
    raises ValueError naming it.

    >>> check_row(3, (True, 0, 2))
    (1, 0, 2)
    >>> check_row(3, (2.0, 0, 0))
    Traceback (most recent call last):
    ValueError: image 2.0 is not an integer
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if len(row) != n:
        raise ValueError(f"row has {len(row)} slots, expected {n}")
    ints = tuple(map(integer, row, repeat("image")))
    seen = 0
    for y in ints:
        if y == 0:
            continue
        if not 1 <= y <= n:
            raise ValueError(f"image {y!r} outside 1..{n}")
        bit = 1 << y
        if seen & bit:
            raise ValueError(f"not injective: image {y} repeated")
        seen |= bit
    return ints


def canonical_key(row):
    """Canonical order of rows: by rank, then domain, then images along it.

    Rows with the same domain have zeros in the same slots, so they
    compare exactly as their images along the domain do.

    >>> sorted([(2, 0, 0), (0, 0, 1), (1, 2, 0), (0, 0, 0)], key=canonical_key)
    [(0, 0, 0), (2, 0, 0), (0, 0, 1), (1, 2, 0)]
    """
    dom = tuple(compress(count(1), row))
    return (len(dom), dom, row)


# 0 -> 1 and every image -> 0: a row read through it marks the points
# off its domain
_OFF_DOMAIN = bytes([1]) + bytes(255)


def canonical_bytes_key(row):
    """``canonical_key`` for a row held as bytes: the same order.

    The middle term marks the points off the domain with 1 and the
    domain with 0.  For domains of one size, the first point where two
    of these differ is the least point in one domain and not the other,
    and the domain holding it has a 0 there and is first in both
    orders.

    >>> rows = [bytes(row) for row in [(2, 0, 0), (0, 0, 1), (1, 2, 0), (0, 0, 0)]]
    >>> [tuple(row) for row in sorted(rows, key=canonical_bytes_key)]
    [(0, 0, 0), (2, 0, 0), (0, 0, 1), (1, 2, 0)]
    """
    return (len(row) - row.count(0), row.translate(_OFF_DOMAIN), row)


class PartialPerm:
    """An injective partial self-map of {1, ..., n}, immutable once built.

    ``row`` is the dense form: a tuple of n values in {0, 1, ..., n}
    where row[i] == 0 means point i + 1 is outside the domain.
    """

    __slots__ = ("n", "row")

    def __init__(self, n, row):
        n = integer(n, "point count")
        self.n = n
        self.row = check_row(n, tuple(row))

    # -- constructors ------------------------------------------------

    @classmethod
    def from_pairs(cls, n, pairs):
        """Build from a dict {x: y} or an iterable of (x, y) pairs."""
        n = integer(n, "point count")
        mapping = dict(pairs) if not isinstance(pairs, dict) else pairs
        row = [0] * n
        for x, y in mapping.items():
            x = integer(x, "domain point")
            if not 1 <= x <= n:
                raise ValueError(f"domain point {x!r} outside 1..{n}")
            row[x - 1] = integer(y, "image")
        return cls(n, row)

    @classmethod
    def identity(cls, n):
        return cls(n, range(1, n + 1))

    @classmethod
    def identity_on(cls, n, points):
        """The identity restricted to the given set of points."""
        keep = set(points)
        return cls(n, tuple(i if i in keep else 0 for i in range(1, n + 1)))

    @classmethod
    def empty(cls, n):
        return cls(n, (0,) * n)

    @classmethod
    def from_json(cls, obj):
        n, dom, img = obj["n"], obj["dom"], obj["img"]
        if len(dom) != len(img):
            raise ValueError("dom and img lengths differ")
        if list(dom) != sorted(set(dom)):
            raise ValueError("dom must be strictly ascending")
        return cls.from_pairs(n, zip(dom, img))

    # -- queries -----------------------------------------------------

    def __getitem__(self, x):
        y = self.row[x - 1] if 1 <= x <= self.n else 0
        if y == 0:
            raise KeyError(f"{x} not in domain")
        return y

    def domain(self):
        return tuple(compress(range(1, self.n + 1), self.row))

    def image(self):
        return tuple(sorted(y for y in self.row if y))

    @property
    def rank(self):
        return sum(1 for y in self.row if y)

    @property
    def is_total(self):
        return all(self.row)

    def __iter__(self):
        """Yield (x, x·self) pairs in ascending domain order."""
        for i, y in enumerate(self.row):
            if y:
                yield i + 1, y

    # -- algebra -----------------------------------------------------

    def compose(self, other):
        """Left-to-right product: apply self first, then other.

        >>> g = PartialPerm.from_pairs(3, {1: 2, 2: 3, 3: 1})
        >>> g.compose(g).to_json()
        {'n': 3, 'dom': [1, 2, 3], 'img': [3, 1, 2]}
        """
        if not isinstance(other, PartialPerm):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mismatched sizes {self.n} and {other.n}")
        orow = other.row
        return PartialPerm(
            self.n, tuple(orow[y - 1] if y else 0 for y in self.row)
        )

    __mul__ = compose

    def inverse(self):
        """The inverse partial map (domain and image swap roles)."""
        row = [0] * self.n
        for x, y in self:
            row[y - 1] = x
        return PartialPerm(self.n, row)

    def restrict(self, points):
        """Restriction to the given points; points outside Dom are dropped."""
        keep = set(points)
        return PartialPerm(
            self.n,
            tuple(y if (i + 1) in keep else 0 for i, y in enumerate(self.row)),
        )

    # -- plumbing ----------------------------------------------------

    def sort_key(self):
        """Canonical order; see ``canonical_key``."""
        return canonical_key(self.row)

    def to_json(self):
        dom = list(self.domain())
        return {"n": self.n, "dom": dom, "img": list(filter(None, self.row))}

    def __eq__(self, other):
        return (
            isinstance(other, PartialPerm)
            and self.n == other.n
            and self.row == other.row
        )

    def __hash__(self):
        return hash((self.n, self.row))

    def __repr__(self):
        body = ", ".join(f"{x}:{y}" for x, y in self)
        return f"PartialPerm({self.n}, {{{body}}})"


def _view(n, row):
    """A ``PartialPerm`` on a row already checked, with no ``check_row`` call.

    Only for the rows a ``FiniteMonoid`` has checked; every other row
    goes through the constructor.
    """
    a = object.__new__(PartialPerm)
    a.n = n
    a.row = tuple(row)
    return a


def idempotent(n, i):
    """The identity of {1..n} with the single point i removed.

    These n maps, together with the identity, generate all the partial
    identities: the product of the maps for a set X is the identity off X.
    """
    n = integer(n, "point count")
    i = integer(i, "point")
    if not 1 <= i <= n:
        raise ValueError(f"point {i!r} outside 1..{n}")
    return PartialPerm(n, tuple(0 if j == i else j for j in range(1, n + 1)))
