"""Green's relations on the cycle-isometry monoid.

Three routes, kept independent on purpose:

- ``green_LRH`` and ``green_J`` use the structure theory: L is "same
  image", R is "same domain", H is both, and J is "same dihedral orbit
  of the domain".  Every element is a restriction of one of the 2n
  symmetries, so a partial isometry carries one domain onto another
  exactly when a symmetry does.  The keys are read by C calls, with no
  Python frame per element: one ``translate`` of the monoid's buffer
  through ``_OFF_DOMAIN`` gives the domain keys (the middle term of
  ``canonical_bytes_key``), and ``bytes.maketrans`` each row's image
  key.  R, H and J rely on the order the constructor checked (rank,
  then domain, then images), which keeps the rows of each domain
  consecutive: an R class is a run of equal domain keys, found in C by
  the constructor's run finder, an H class the rows of one image in a
  run, and a J class the runs whose domains share a dihedral orbit.
- ``cayley_oracle`` uses only the definitions and the monoid's declared
  generators: R, L and J classes are the strongly connected components
  of the right, left and two-sided Cayley graphs, and H is R and L
  together.  It reads no restriction layout, no structure theory and no
  product table, and it backs ``green --verify-oracle``.
- ``green_oracle`` uses only the definitions, computing principal ideals
  M a, a M and M a M from the full multiplication table.  It needs no
  generators, and its |M|^2 table keeps it to n <= 6, where the tests
  hold it as the reference for the other two.

All three must produce identical partitions; tests enforce that.
"""

from collections import Counter
from functools import reduce
from itertools import chain, islice, repeat
from operator import getitem, or_

from .dihedral import mask_images
from .monoid import _key_runs, _row_slices, _table, generates_exactly, product_table
from .partial_perm import _OFF_DOMAIN
from .record import Record

__all__ = ["GreenClasses", "green_LRH", "green_J", "cayley_oracle", "green_oracle"]

ORACLE_SIZE_BOUND = 1024  # |M|; the oracle holds an |M|^2 product table, so n <= 6
# |M|; the CLI runs cayley_oracle up to here, so n <= 12 (|M| = 98,065).
# Its time and memory about double with each n: green --n 12 --relation H
# --verify-oracle peaks near 70 MB, and n = 13 near 150 MB.
CAYLEY_SIZE_BOUND = 100_000


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
    are consecutive and each domain is one run of equal keys, found in C
    with no object per row.
    """
    n = m.n
    runs = []
    start = 0  # shared with the range before, so a run adds one int
    for run in _key_runs(n, m.rows.buffer.translate(_OFF_DOMAIN)):
        stop = run.end() // n
        runs.append((run[1], range(start, stop)))
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

    R classes are the domain runs of the canonical order, L groups the
    ordinals by image key, and H groups each run by image key, taking
    exactly len(run) keys from one stream.  At n = 4 the H classes of
    rank 2 and 3 are pairs, and the units are one class of 2n:

    >>> from cycliso.monoid import build_by_restrictions
    >>> green_LRH(build_by_restrictions(4), "H").class_sizes_histogram()
    {1: 17, 2: 36, 8: 1}
    """
    if relation not in ("L", "R", "H"):
        raise ValueError(f"relation must be L, R or H, got {relation!r}")
    if relation == "R":
        return GreenClasses("R", tuple(tuple(run) for _, run in _domain_runs(m)))
    keys = _image_keys(m)
    if relation == "L":
        return GreenClasses("L", _group_by(zip(keys, range(len(m)))))
    groups = (_group_by(zip(islice(keys, len(run)), run)) for _, run in _domain_runs(m))
    return GreenClasses("H", tuple(chain.from_iterable(groups)))


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


def _left_products(m, s):
    """The buffer of s * r for every row r of m, in m's order.

    Point x of s * r is r's image of s's image of x, as ``s`` read
    through r's table gives it, so column x of the result is column
    s[x] of m's buffer, or zeros off s's domain: n strided copies.
    """
    n = m.n
    buffer = m.rows.buffer
    out = bytearray(len(buffer))
    for x, y in enumerate(s):
        if y:
            out[x::n] = buffer[y - 1::n]
    return bytes(out)


def _scc_keys(size, columns):
    """Each node's strongly connected component, by one iterative Tarjan.

    The nodes are 0..size-1, and node v's successors are ``col[v]`` for
    each flat int list in ``columns``.  Components are numbered in the
    order Tarjan completes them.
    """
    degree = len(columns)
    succ = [0] * (size * degree)  # node v's successors at v*degree onwards
    for j, col in enumerate(columns):
        succ[j::degree] = col
    number = [-1] * size  # discovery order
    low = [0] * size
    comp = [-1] * size  # -1 until the node's component is complete
    stack = []
    count = done = 0
    for root in range(size):
        if number[root] >= 0:
            continue
        number[root] = low[root] = count
        count += 1
        # (node, its unread successors, the stack's height below it)
        path = [(root, iter(succ[root * degree:root * degree + degree]), 0)]
        stack.append(root)
        while path:
            v, edges, height = path[-1]
            for w in edges:
                if number[w] < 0:
                    number[w] = low[w] = count
                    count += 1
                    path.append((w, iter(succ[w * degree:w * degree + degree]), len(stack)))
                    stack.append(w)
                    break
                if comp[w] < 0 and number[w] < low[v]:
                    low[v] = number[w]
            else:
                path.pop()
                if low[v] == number[v]:  # v roots a component: it and all above it
                    for w in stack[height:]:
                        comp[w] = done
                    del stack[height:]
                    done += 1
                elif low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
    return comp


def cayley_oracle(m, relation):
    """Green classes from the Cayley graphs of m's declared generators.

    Every element of M is a word in the generators, so a M is the set
    of the a w, reached from a along the right Cayley graph (edges
    r -> r s for each generator s).  Hence a R b iff each reaches the
    other there, and the R classes are that graph's strongly connected
    components; L classes are those of the left graph (r -> s r), J
    classes those of the union (M a M), and H is R and L together.

    The classes are those of M only if m's rows are exactly what its
    generators generate, so ValueError is raised unless the closure of
    the generators is m's rows (``generates_exactly``); then every
    product is a row.  The products are read in C: ``translate`` of m's
    buffer through s's table gives every r s, and ``_left_products``
    every s r; one dict built from ``m.rows`` turns them into ordinals.
    No restriction layout, structure theory or product table is read.
    """
    if relation not in ("L", "R", "H", "J"):
        raise ValueError(f"relation must be one of L R H J, got {relation!r}")
    n = m.n
    size = len(m)
    gens = [bytes(a.row) for a in m.generators.values()]
    if not generates_exactly(m, gens):
        raise ValueError("the generators do not generate exactly the monoid's rows")
    ordinal = {row: i for i, row in enumerate(m.rows)}

    def ordinals(products):
        return list(map(ordinal.__getitem__, _row_slices(products, n)))

    right = [ordinals(m.rows.buffer.translate(_table(s))) for s in gens]
    if relation == "R":
        keys = _scc_keys(size, right)
    else:
        left = [ordinals(_left_products(m, s)) for s in gens]
        if relation == "L":
            keys = _scc_keys(size, left)
        elif relation == "H":
            keys = zip(_scc_keys(size, right), _scc_keys(size, left))
        else:
            keys = _scc_keys(size, right + left)
    return GreenClasses(relation, _group_by(zip(keys, range(size))))


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
