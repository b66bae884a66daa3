"""Builders for the monoid of partial isometries of the n-cycle.

Three independent construction routes are kept deliberately separate so
they can cross-check one another:

- ``build_by_restrictions``: restrict each of the 2n cycle symmetries to
  every subset of the vertices, domain by domain in canonical order, as
  ``restriction_layout`` lists them (the characterization route; fast,
  the default).
- ``build_by_closure``: generate from {g, h, e_n} by right multiplication
  (the rank-3 route).
- ``build_by_bruteforce``: filter every injective partial map through the
  distance test (the definition route; exponential, small n only).

Each route emits dense rows in canonical order, and a ``FiniteMonoid``
checks that order (it never sorts) and holds the rows once, as one
``bytes`` buffer of |M| * n bytes (so n <= 255), read as the ``Rows``
sequence of its n-byte slices; the constructor checks the stream in
chunks of CHECK_CHUNK rows, in C, and keeps no object per element.  A
chunk of valid rows takes O(n) C calls: its injectivity is read from the
columns of the joined rows, and its order from the runs of equal domain
keys.
``PartialPerm`` objects are only views built when an element is read.
A product a * b is one C call, ``a.translate(_table(b))``: b's row with
a leading 0, padded to 256 bytes.
The element count has a closed form split by parity, ``cardinality_formula``.
"""

import io
import re
from bisect import bisect_left
from functools import reduce
from itertools import chain, combinations, compress, islice, permutations, repeat, starmap
from operator import index, itemgetter, lt, methodcaller, or_
from struct import iter_unpack

from .dihedral import DihedralElement, symmetry_rows
from .partial_perm import (
    _OFF_DOMAIN,
    PartialPerm,
    _view,
    canonical_bytes_key,
    check_row,
    idempotent,
)
from .record import Record

__all__ = [
    "FiniteMonoid",
    "product_table",
    "standard_generators",
    "closure_rows",
    "generates_exactly",
    "monoid_closure",
    "restriction_layout",
    "restriction_rows",
    "build_by_restrictions",
    "build_by_closure",
    "build_by_bruteforce",
    "cardinality_formula",
    "b2_set",
    "units",
    "rank_search",
    "RankReport",
]

BYTE_N_BOUND = 255  # rows are held as bytes
BRUTEFORCE_BOUND = 7  # candidate maps grow like n! * 2^n; keep the oracle honest
# the pair scan holds an |M|^2 product table, and searches the pairs not
# inside one computed proper submonoid (see rank_search)
PAIR_SEARCH_BOUND = 5


def _check_n(n):
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"need an integer n >= 3, got {n!r}")


def _check_byte_n(n):
    if n > BYTE_N_BOUND:
        raise ValueError(f"rows as bytes need n <= {BYTE_N_BOUND}, got {n}")


def _table(row):
    """The 256-byte table through which ``a.translate`` gives a * row.

    Byte x of the table is the image of point x under row, byte 0 is 0
    for the points off a's domain, and bytes above n are never read.
    """
    return (b"\0" + bytes(row)).ljust(256, b"\0")


CHECK_CHUNK = 4096  # rows the constructor checks with each batch of C calls

_BITS = bytes(1 << b for b in range(8))


def _distinct_images(n, joined):
    """The number of distinct images in 1..n of each n-byte row of
    ``joined``, summed over the rows, in O(n) C calls.

    Column i of the rows is ``joined[i::n]``.  Images are taken 8 at a
    time: a plane's table maps each of its images to one bit of a byte,
    and every other byte (0, the images of other planes, those above n)
    to 0.  Each column read through it is one int, and the OR of the n
    columns holds, in row r's byte, one bit per distinct image of the
    plane in row r.
    """
    columns = [joined[i::n] for i in range(n)]
    total = 0
    for low in range(0, n, 8):
        high = min(low + 8, n)
        plane = bytes(low + 1) + _BITS[:high - low] + bytes(255 - high)
        marks = map(int.from_bytes, map(bytes.translate, columns, repeat(plane)))
        total += reduce(or_, marks).bit_count()
    return total


def _checked_chunk(n, chunk):
    """(rows, joined): the chunk's rows as bytes, each checked as
    ``check_row`` checks it, and the rows joined.

    Only when a row will not convert, or the chunk fails the checks in C,
    are its rows checked one by one, so that the first bad row raises
    just what ``check_row`` raises for it.  ``check_row`` takes only
    integers, so a row it passes converts and passes in C too.
    """
    try:
        if not set(map(type, chunk)) <= {bytes}:
            # tuple() first, since bytes(3) would be three zero bytes
            chunk = [bytes(tuple(row)) for row in chunk]
        joined = b"".join(chunk)
        # rows of unequal length can join to whole rows, so each length
        # is checked.  A row has at most as many distinct images in 1..n
        # as nonzero slots, and exactly as many only when its images are
        # distinct and at most n; so the totals agree only when every
        # row passes.
        whole_rows = set(map(len, chunk)) == {n}
        if whole_rows and _distinct_images(n, joined) == len(joined) - joined.count(0):
            return chunk, joined
    except (TypeError, ValueError):
        pass
    chunk = [bytes(check_row(n, row)) for row in chunk]
    return chunk, b"".join(chunk)


def _key_runs(n, keys):
    """The runs of equal n-byte keys in the bytes ``keys``, found in C.

    One ``re.Match`` per run, in order: group 1 is the run's key, and
    ``start()`` and ``end()`` bound its bytes, so the run holds keys
    ``start() // n`` to ``end() // n - 1``.
    """
    return re.finditer(rb"(.{%d})\1*" % n, keys, re.S)


def _in_order(n, rows):
    """Whether the bytes rows strictly increase in canonical order, checked in C.

    The order is ``canonical_bytes_key``'s: rank, then the domain key,
    then the row.  The keys of all rows are one ``translate`` of the
    joined rows, and their runs are found in C.  Rows inside a run must
    increase as bytes; from run to run the rank and key (rank is the
    key's count of 0) must increase, which is compared once per run.
    """
    runs = list(_key_runs(n, b"".join(rows).translate(_OFF_DOMAIN)))
    # same[j] is 1 when rows j and j + 1 lie in one run
    same = b"\0".join(b"\1" * ((run.end() - run.start()) // n - 1) for run in runs)
    if not all(map(lt, compress(rows, same), compress(rows[1:], same))):
        return False
    keys = [run[1] for run in runs]
    ranked = list(zip(map(bytes.count, keys, repeat(0)), keys))
    return all(map(lt, ranked, ranked[1:]))


def _row_buffer(n, rows):
    """The rows, checked, as ``Rows`` over one buffer.

    The stream is read CHECK_CHUNK rows at a time, and the last row of
    each chunk is carried into the order check of the next.  An order
    error is raised only once every row has passed ``_checked_chunk``,
    so a bad row raises what ``check_row`` raises for it even when an
    earlier chunk is out of order.  ``BytesIO`` grows its buffer in
    place and hands it out without a copy, so the rows are held once.
    """
    stream = iter(rows)
    out = io.BytesIO()
    ordered = True
    last = None
    while chunk := list(islice(stream, CHECK_CHUNK)):
        chunk, joined = _checked_chunk(n, chunk)
        out.write(joined)
        if ordered:
            ordered = _in_order(n, chunk if last is None else [last, *chunk])
            last = chunk[-1]
    if not ordered:
        raise ValueError("rows not in strictly increasing canonical order")
    return Rows(out.getvalue(), n)


def _row_slices(buffer, n):
    """The n-byte rows of ``buffer``, as bytes, in order."""
    return map(itemgetter(0), iter_unpack(f"{n}s", buffer))


class Rows:
    """The rows of a ``FiniteMonoid``: one bytes buffer of |M| * n bytes.

    Row i is ``buffer[i * n:(i + 1) * n]``.  The rows read as a
    read-only sequence of those slices: ``len``, ``rows[i]`` (negative
    i counts from the end), iteration and ``index``, a binary search,
    since the monoid's constructor checked the canonical order.
    """

    __slots__ = ("buffer", "n")

    def __init__(self, buffer, n):
        self.buffer = buffer
        self.n = n

    def __len__(self):
        return len(self.buffer) // self.n

    def __getitem__(self, i):
        n = self.n
        # the range checks i and counts a negative i from the end; index
        # refuses a slice, which the range would take
        start = range(0, len(self.buffer), n)[index(i)]
        return self.buffer[start:start + n]

    def __iter__(self):
        return _row_slices(self.buffer, self.n)

    def index(self, row):
        """The ordinal of the bytes ``row``; ValueError if it is not a row."""
        if isinstance(row, bytes) and len(row) == self.n:
            key = canonical_bytes_key(row)
            i = bisect_left(self, key, key=canonical_bytes_key)
            if i < len(self) and self[i] == row:
                return i
        raise ValueError(f"{row!r} is not a row")


class FiniteMonoid:
    """A finite monoid of partial permutations, closed under composition.

    The elements are held once, as ``rows``: a ``Rows`` sequence over
    one buffer of dense rows, each n bytes, in canonical order (rank,
    then domain, then image row), in which the rows must arrive, each
    once; the constructor checks this and never sorts.  Rows may arrive
    as any sequences of ints and are stored as bytes, so n is at most
    255.  Indexing and iteration hand out ``PartialPerm`` views built
    on access; membership is a binary search.  An instance holds only
    ``n``, ``rows`` and ``generators`` and caches nothing.

    >>> FiniteMonoid(3, [(1, 2, 3), (1, 2, 0)], {})
    Traceback (most recent call last):
    ValueError: rows not in strictly increasing canonical order
    """

    def __init__(self, n, rows, generators):
        _check_byte_n(n)
        self.n = n
        self.rows = _row_buffer(n, rows)
        if PartialPerm.identity(n) not in self:
            raise ValueError("identity map missing")
        self.generators = dict(generators)
        for name, a in self.generators.items():
            if a not in self:
                raise ValueError(f"generator {name} is not an element")

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return map(_view, repeat(self.n), self.rows)

    def __getitem__(self, i):
        return _view(self.n, self.rows[i])

    @property
    def elements(self):
        return tuple(self)

    def __contains__(self, a):
        if not isinstance(a, PartialPerm) or a.n != self.n:
            return False
        try:
            self.rows.index(bytes(a.row))
        except ValueError:
            return False
        return True


def product_table(m):
    """The multiplication table: prod[i][j] is the ordinal of m[i] * m[j].

    No generators are read.  The ordinals are walked from the last (the
    highest rank) down, and a row that no earlier row has derived is
    composed element by element.  From each composed row, and from every
    row already known, a breadth-first search follows the left Cayley
    graph of the rows composed so far: a = h * c is reached from c, and
    since (h * c) * b = h * (c * b), row a is row c read through row h.

    A product outside m raises ValueError, since a ``FiniteMonoid`` does
    not check closure itself.  Every entry of a derived row is an entry
    of a composed row, so a missing product can lie only in a composed
    row, and composing that row raises.

    The table holds |M|^2 entries, so callers bound |M| first.

    >>> m = build_by_restrictions(3)
    >>> prod = product_table(m)
    >>> m[prod[5][9]] == m[5].compose(m[9])
    True
    >>> product_table(FiniteMonoid(3, m.rows, {})) == prod
    True
    """
    rows = m.rows
    index = {row: i for i, row in enumerate(rows)}
    tables = list(map(_table, rows))
    prod = [None] * len(rows)
    composed = []
    known = []
    for i in reversed(range(len(rows))):
        if prod[i] is not None:
            continue
        try:
            prod[i] = list(map(index.__getitem__, map(rows[i].translate, tables)))
        except KeyError:
            raise ValueError("not closed under composition") from None
        composed.append(prod[i])
        known = order = [i, *known]
        for c in order:
            row_c = prod[c]
            for row_h in composed:
                a = row_h[c]
                if prod[a] is None:
                    prod[a] = list(map(row_h.__getitem__, row_c))
                    order.append(a)
    return prod


def standard_generators(n):
    """The rank-3 generating set: unit rotation, reflection, one idempotent."""
    return {
        "g": DihedralElement.rotation(n).to_partial_perm(),
        "h": DihedralElement.reflection(n).to_partial_perm(),
        "e_n": idempotent(n, n),
    }


def _closure(n, gen_rows):
    """(order, seen): ``closure_rows`` and the set of its rows."""
    _check_byte_n(n)
    tables = list(map(_table, gen_rows))
    ident = bytes(range(1, n + 1))
    order = [ident]
    seen = {ident}
    for r in order:
        for pr in map(r.translate, tables):
            if pr not in seen:
                seen.add(pr)
                order.append(pr)
    return order, seen


def closure_rows(n, gen_rows):
    """Rows of the monoid the given rows generate, as bytes, in discovery order.

    Breadth-first from the identity over right products by the
    generators, each one ``translate`` through a generator's table.
    """
    return _closure(n, gen_rows)[0]


def generates_exactly(m, gen_rows):
    """Whether the rows ``gen_rows`` generate exactly the monoid m.

    The closure's own set is kept, and m's rows are streamed through it:
    m's rows are distinct (the constructor checked a strict order), so
    the sets are equal when the sizes are and every row of m is in the
    closure.
    """
    seen = _closure(m.n, gen_rows)[1]
    return len(seen) == len(m) and all(map(seen.__contains__, m.rows))


def monoid_closure(n, gens):
    """Smallest composition-closed set containing the identity and gens."""
    gen_rows = list(dict.fromkeys(a.row for a in gens))
    return [PartialPerm(n, row) for row in closure_rows(n, gen_rows)]


def restriction_layout(n):
    """The elements as (domain, symmetries): the restriction theorem as a layout.

    Yields ``(dom, ks)`` for each domain in canonical order: by rank,
    then lexicographically, starting with the empty domain.  ``dom`` is
    a tuple of points (1..n); ``ks`` holds the ordinals, numbered as in
    ``symmetry_rows(n)``, of symmetries whose restrictions to ``dom``
    are the distinct elements with that domain, in row order.

    That order needs no set and no sort per domain.  Let d0 be the least
    point of the domain and d1 the least domain point that is neither d0
    nor antipodal to d0.  A symmetry is fixed by its images of d0 and
    d1, and its image of the antipode of d0 follows from that of d0, so
    the 2n restrictions are distinct and in row order when the
    symmetries are ordered by their images of (d0, d1).  Without a d1 (a
    single point or an antipodal pair) the image of d0 fixes the
    restriction, and the n rotations give the n distinct ones.  The
    empty domain has one element, given by the identity.  Only the pair
    (d0, d1) matters, so each of the at most n^2 orders is formed once
    per call, and domains with the same pair share it.

    For even n, d1 is not simply the second point: on the 6-cycle the
    domain {1, 4, 5} has 4 antipodal to 1, so d1 = 5, and the two
    symmetries sending 1 to 1 (and so 4 to 4) are told apart at 5:

    >>> ks = dict(restriction_layout(6))[1, 4, 5]
    >>> [[symmetry_rows(6)[k][x] for x in (1, 4, 5)] for k in ks][:4]
    [[1, 4, 3], [1, 4, 5], [2, 5, 4], [2, 5, 6]]
    >>> layout = restriction_layout(3)
    >>> [next(layout) for _ in range(3)]
    [((), (0,)), ((1,), (0, 1, 2)), ((2,), (2, 0, 1))]
    """
    _check_n(n)
    images = symmetry_rows(n)
    symmetries = range(2 * n)
    antipode_gap = n // 2 if n % 2 == 0 else None
    orders = {}
    yield (), (0,)
    for rank in range(1, n + 1):
        for dom in combinations(range(1, n + 1), rank):
            d0 = dom[0]
            # d0 is the least point, so its antipode, if any, is d0 + n/2
            d1 = next((d for d in dom[1:] if d - d0 != antipode_gap), None)
            order = orders.get((d0, d1))
            if order is None:
                if d1 is None:
                    # the rotations, ordinals 0..n-1, send d0 to each point once
                    order = sorted(range(n), key=lambda k: images[k][d0])
                else:
                    order = sorted(symmetries, key=lambda k: (images[k][d0], images[k][d1]))
                order = orders[d0, d1] = tuple(order)
            yield dom, order


def restriction_rows(n):
    """The rows of ``restriction_layout(n)`` as bytes, in its order, unchecked.

    Reads each domain's partial identity through the tables of the
    symmetries the layout lists for it, one row at a time.

    >>> rows = restriction_rows(3)
    >>> [tuple(next(rows)) for _ in range(3)]
    [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    """
    _check_n(n)
    _check_byte_n(n)
    tables = [_table(row[1:]) for row in symmetry_rows(n)]

    def restrictions(dom, ks):
        ident = bytearray(n)
        for x in dom:
            ident[x - 1] = x
        return map(bytes(ident).translate, map(tables.__getitem__, ks))

    return chain.from_iterable(starmap(restrictions, restriction_layout(n)))


def build_by_restrictions(n):
    """Every restriction of every cycle symmetry; the reference builder.

    The rows of ``restriction_rows(n)`` arrive in canonical order with
    no sort, streamed into the monoid.

    >>> m = build_by_restrictions(4)
    >>> len(m)
    97
    >>> m[0].to_json(), m[1].to_json()
    ({'n': 4, 'dom': [], 'img': []}, {'n': 4, 'dom': [1], 'img': [1]})
    """
    return FiniteMonoid(n, restriction_rows(n), standard_generators(n))


def _sorted_canonically(rows):
    """The bytes rows sorted by ``canonical_bytes_key``, by three stable
    sorts whose keys are C calls: by row, then by domain key, then by
    rank (as the count of 0, descending).  Each sort keeps the order of
    the one before among its ties.
    """
    rows = sorted(rows)
    rows.sort(key=methodcaller("translate", _OFF_DOMAIN))
    rows.sort(key=methodcaller("count", 0), reverse=True)
    return rows


def build_by_closure(n):
    """Closure of {g, h, e_n}, sorted: breadth-first order is not canonical."""
    _check_n(n)
    gens = standard_generators(n)
    rows = closure_rows(n, [a.row for a in gens.values()])
    return FiniteMonoid(n, _sorted_canonically(rows), gens)


def build_by_bruteforce(n):
    """All injective partial maps that pass the distance test, by scan.

    Exists purely as an oracle for the other builders, so it refuses to
    run above BRUTEFORCE_BOUND rather than grind.
    """
    from .cycle import CycleMetric  # not loaded by the other builders

    _check_n(n)
    _check_byte_n(n)
    if n > BRUTEFORCE_BOUND:
        raise ValueError(f"n={n} above configured bruteforce bound {BRUTEFORCE_BOUND}")
    points = range(1, n + 1)
    distance = CycleMetric(n).distance
    # half[x][y] is the distance from x to y; row 0 and column 0 are unused
    half = [[0] * (n + 1)] + [[0] + [distance(x, y) for y in points] for x in points]
    rows = [bytes(n)]
    for k in range(1, n + 1):
        for dom in combinations(points, k):
            for img in permutations(points, k):
                ok = True
                for s in range(k):
                    ds = half[dom[s]]
                    is_ = half[img[s]]
                    for t in range(s + 1, k):
                        if ds[dom[t]] != is_[img[t]]:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    row = [0] * n
                    for x, y in zip(dom, img):
                        row[x - 1] = y
                    rows.append(bytes(row))
    return FiniteMonoid(n, rows, standard_generators(n))


def cardinality_formula(n):
    """Closed-form element count, split by the parity of n."""
    _check_n(n)
    if n % 2:
        return n * 2 ** (n + 1) - n * n - 2 * n + 1
    return n * 2 ** (n + 1) - 3 * n * n // 2 - 2 * n + 1


def b2_set(n):
    """The rank-2 maps between antipodal vertex pairs of an even cycle.

    For each ordered choice of source pair {i, i + n/2} and target pair
    {j, j + n/2} (1 <= i, j <= n/2) there is a straight and a crossed
    map, giving n^2 / 2 in all.  These are exactly the rank-2 elements
    with antipodal domain, the ones two distinct symmetries restrict to.
    """
    _check_n(n)
    if n % 2:
        raise ValueError(f"antipodal pairs need even n, got {n}")
    half = n // 2
    out = []
    for i in range(1, half + 1):
        for j in range(1, half + 1):
            out.append(PartialPerm.from_pairs(n, {i: j, i + half: j + half}))
            out.append(PartialPerm.from_pairs(n, {i: j + half, i + half: j}))
    return sorted(out, key=PartialPerm.sort_key)


def units(m):
    """The group of total elements, as a monoid on the same points."""
    gens = {k: v for k, v in standard_generators(m.n).items() if k != "e_n"}
    return FiniteMonoid(m.n, filter(all, m.rows), gens)


class RankReport(Record):
    __slots__ = (
        "n",
        "size",
        "triple_generates",
        "singles_checked",  # int or None
        "pairs_checked",  # int or None
        "generating_singles",
        "generating_pairs",
    )

    @property
    def pair_search_ran(self):
        return self.pairs_checked is not None

    @property
    def minimum_is_three(self):
        return (
            self.triple_generates
            and self.pair_search_ran
            and not self.generating_singles
            and not self.generating_pairs
        )


def rank_search(m, exhaustive_pairs=False):
    """Confirm {g, h, e_n} generates m and (optionally) that no 1- or
    2-element subset does.

    The triple is checked by a row closure.  The pair scan builds the
    product table once and transposes it, so column g lists the ordinal
    of r * m[g] for every ordinal r; ``closure`` is a breadth-first
    search on ordinals from the identity's, over the columns of the
    given members.  Before the scan it computes C, the closure of every
    row that is not total.  When |C| < |M|, C is a proper submonoid, and
    a candidate inside C generates at most C, so it is decided as not
    generating without a search; when |C| = |M|, C is dropped.  Only the
    choice of seed comes from theory (a product is total only when both
    factors are, so C tends to miss the non-identity units); the verdict
    rests on C's computed size.  Every other candidate (a single i is the
    pair (i, i)) is searched, and ``pairs_checked`` counts every pair,
    searched or not.  The scan holds |M|^2 table entries, and so is
    gated on n <= PAIR_SEARCH_BOUND; above that the report simply
    records that the scan did not run.
    """
    n = m.n
    size = len(m)
    rows = m.rows
    triple_ok = generates_exactly(m, [a.row for a in m.generators.values()])

    if not exhaustive_pairs or n > PAIR_SEARCH_BOUND:
        return RankReport(n, size, triple_ok, None, None, (), ())

    right = list(zip(*product_table(m)))
    ident = rows.index(bytes(range(1, n + 1)))

    def closure(columns):
        order = [ident]
        seen = {ident}
        for r in order:
            for column in columns:
                p = column[r]
                if p not in seen:
                    seen.add(p)
                    order.append(p)
        return seen

    inside = closure([right[i] for i, row in enumerate(rows) if 0 in row])
    if len(inside) == size:  # C is m itself, and decides nothing
        inside = ()

    def generates(i, j):
        if i in inside and j in inside:
            return False
        return len(closure((right[i], right[j]))) == size

    singles = tuple(i for i in range(size) if generates(i, i))
    pairs = tuple((i, j) for i, j in combinations(range(size), 2) if generates(i, j))
    checked = size * (size - 1) // 2
    return RankReport(n, size, triple_ok, size, checked, singles, pairs)
