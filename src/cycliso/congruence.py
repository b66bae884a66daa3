"""Coset-style enumeration of finite monoid congruences.

Given a presentation on alphabet A with relation pairs (u, v), this
module enumerates the quotient of the free monoid A* by the two-sided
congruence the relations generate, in the style of the Todd-Coxeter
procedure adapted to monoids: no inverses, a single distinguished slot
for the class of the empty word, and every relation pushed at every
class (not just at the identity).

The table is a partial deterministic automaton over A, one row of
edges per slot.  Each live slot is a tentative congruence class;
pushing relation (u, v) at slot s traces both words from s, defining
missing edges as brand-new slots, and merges the two endpoints.
Merging is processed to a fixed point over a union-find keeping the
smaller id as representative, so slot 0 (the empty word) can never
die; a merged slot's edges move into its representative's row and its
own row is dropped.  If the sweep completes, the table is a total
automaton whose slot count is exactly the size of the presented
monoid; if the slot budget runs out first the enumeration is
inconclusive, never wrong.

The sweep visits the live slots in id order and pushes the distinct
relations at each in a fixed order (u, then v, relation by relation).
The words are compiled once into a prefix trie and a flat list of ops
(``sweep_ops``): a step follows one letter from a trie node's slot, and
a check merges the ends of one relation.  A prefix shared with an
earlier word is not traced again, which changes nothing: an edge once
defined stays defined, so the re-trace would define no slot and would
reach the class of the slot recorded at the prefix's node.  Slots are
therefore defined in the same order as by tracing each word in full.
The partition after each merge closure does not depend on the order
the queue is processed in, and its representatives are the least ids,
so ``slots_used`` and ``merges`` (= ``slots_used`` minus the size, on a
closed table) are fixed by the sweep order alone.

Each call turns the ops into straight-line Python (``sweep_source``),
compiled once and run at every live slot: a trie node is a local
variable, a letter an integer literal, and the slot's own row is read
once.  Only a merge kills a slot, so a node set by a step after the
last check is still live and is used without a ``find``; so is the
swept slot, since the sweep leaves it as soon as a check merges it
away.  Most checks merge nothing, so a check's merge branch refreshes
the nodes and rows that the ops up to the next check read, and these
stay known live on either path; no slot dies between the refresh and
the read, so it finds the same classes.  A merged slot's row is None,
and so is the last entry of ``rows``, which a missing edge (-1) reads:
fetching a node's row is then the test for both a missing edge and a
dead target, the rare cases, which go to a helper (``fix``) that
defines the slot or follows the edge to its class, halving the path on
the way.  A new slot's row takes the place of that last None, and a
new None is appended.  The table and the helpers are locals of each
compiled function, bound as default arguments when it is defined.  A
step that comes just before the check of its relation glues instead: a
missing edge there would be a new slot with a blank row that the check
merges into the relation's other end at once, so the step takes that
slot's id and counts that merge but stores no row, and points the edge
straight at the other end (``glue``).  A later read of that edge finds the same
class either way, so no count moves.  The ops are cut into functions of
at least ``CHUNK_OPS`` ops, each ending at a check, because the compiler's
transient memory grows with the size of one function: a single function
for R at n=7 peaks at more than twice the memory of the enumeration.
Nodes that a later chunk reads are handed over in a list.  The compiled
code takes the same steps and checks in the same order as the ops, so
it defines the same slots.

A run that runs out of memory before the table closes is inconclusive
as well: the table is dropped and ``BudgetExceededError`` reports how
far the sweep got.

Used to machine-check that a presentation defines a given finite
monoid: the canonical generator assignment makes the monoid a quotient
of the presented one, so equality of (finite) sizes pins them equal.
"""

import gc
import time
from itertools import chain, compress, islice, repeat
from operator import index

from .monoid import cardinality_formula, generates_exactly
from .presentations import (
    aligned_images,
    build_Q,
    build_R,
    check_satisfaction,
    q_to_r_substitution,
    r_to_q_substitution,
    substitute,
)
from .record import Record

__all__ = [
    "BudgetExceededError",
    "CongruenceTable",
    "enumerate_quotient",
    "check_consequence",
    "VerifyReport",
    "verify_defines",
    "BridgeReport",
    "check_tietze_bridge",
    "DEFAULT_BUDGET_FACTOR",
]

DEFAULT_BUDGET_FACTOR = 64  # default max slots per element of the presented monoid
CHUNK_OPS = 32  # sweep ops per compiled function, at least; see module notes


class BudgetExceededError(RuntimeError):
    """The slot budget or memory ran out before the table closed: inconclusive."""

    def __init__(
        self, max_slots, slots_used, merges, swept, peak_live=None, reason="budget"
    ):
        super().__init__(
            f"inconclusive ({reason}): {slots_used} slots created, "
            f"budget {max_slots}, {merges} merges, {swept} slots swept"
        )
        self.max_slots = max_slots
        self.slots_used = slots_used
        self.merges = merges
        self.swept = swept
        self.peak_live = peak_live


class CongruenceTable(Record):
    """A closed enumeration: a total automaton on the congruence classes.

    ``edges`` is flat, ``edges[s * width + a]`` being the class of
    (word of s) followed by letter a.  Slot 0 is the class of the empty
    word.  ``slots_used``, ``merges`` and ``peak_live``, the most slots
    live at once, record how hard the run was.  Every field, ``peak_live``
    too, takes part in comparisons.
    """

    __slots__ = ("alphabet", "size", "edges", "slots_used", "merges", "peak_live")

    @property
    def width(self):
        return len(self.alphabet)

    def trace(self, word):
        """Class reached from class 0, the empty word, by the word's letters."""
        cur = 0
        width = self.width
        edges = self.edges
        for a in map(index, word):
            if not 0 <= a < width:
                raise ValueError(f"letter index {a} outside 0..{width - 1}")
            cur = edges[cur * width + a]
        return cur


def sweep_ops(relations):
    """The ops that push every relation at one slot, over a prefix trie.

    Node 0 of the trie is the empty word.  Walking u, then v, for each
    relation in order emits ``(node, from_node, letter)`` for every new
    node, and ``(-1, end_u, end_v)`` after each relation.  Returns the
    ops and the number of nodes.  Letters are taken through
    ``operator.index``, so the ops hold ints only.

    >>> sweep_ops([((0, 0, 0), ())])
    ([(1, 0, 0), (2, 1, 0), (3, 2, 0), (-1, 3, 0)], 4)
    >>> sweep_ops([((0, 1), (1,)), ((0, 0), (0, 1))])[0]
    [(1, 0, 0), (2, 1, 1), (3, 0, 1), (-1, 2, 3), (4, 1, 0), (-1, 4, 2)]
    """
    child = {}
    ops = []
    for u, v in relations:
        ends = []
        for word in (u, v):
            node = 0
            for a in map(index, word):
                nxt = child.get((node, a))
                if nxt is None:
                    nxt = child[node, a] = len(child) + 1
                    ops.append((nxt, node, a))
                node = nxt
            ends.append(node)
        ops.append((-1, *ends))
    return ops, len(child) + 1


def sweep_source(ops, width):
    """Python source for the sweep at one slot: one function per chunk.

    Each chunk is the text of a function ``chunk(s, rs)`` of the live slot
    s and its row; it returns True if s merged away, and the last chunk
    ends by defining every missing edge of s.  The table and the helpers
    are default arguments, so that the function reads them as locals.
    Trie node k is the local ``nk``, and its row is ``rk`` while it is
    known to be live.  A node that a later chunk reads goes through
    ``at[k]``.  A step that ends a relation glues a missing edge to the
    relation's other end.  A check's merge branch refreshes what the ops
    up to the next check read.

    >>> ops = sweep_ops([((0, 1), (1,)), ((0, 0), (0, 1))])[0]
    >>> print(sweep_source(ops, 2)[0])
    def chunk(
        s, rs, rows=rows, parent=parent, at=at, find=find, fix=fix, glue=glue, merge=merge
    ):
        n1 = rs[0]
        r1 = rows[n1]
        if r1 is None: n1 = fix(rs, 0); r1 = rows[n1]
        n2 = r1[1]
        if rows[n2] is None: n2 = fix(r1, 1)
        n3 = rs[1]
        if rows[n3] is None: n3 = glue(rs, 1, n2)
        if n2 != n3:
            merge(n2, n3)
            if parent[s] != s: return True
            r1 = rows[n1]
            if r1 is None: n1 = find(n1); r1 = rows[n1]
            if parent[n2] != n2: n2 = find(n2)
        n4 = r1[0]
        if rows[n4] is None: n4 = glue(r1, 0, n2)
        if n4 != n2:
            merge(n4, n2)
            if parent[s] != s: return True
        if rs[0] == -1: fix(rs, 0)
        if rs[1] == -1: fix(rs, 1)
    """
    chunks = [[]]
    for op in ops:
        if len(chunks[-1]) >= CHUNK_OPS and chunks[-1][-1][0] < 0:
            chunks.append([])
        chunks[-1].append(op)
    sets = [{op[0] for op in chunk if op[0] >= 0} for chunk in chunks]
    # a node is set before it is read, so what a chunk reads and does not
    # set, an earlier chunk set
    needs = [
        {k for op in chunk for k in (op[1:] if op[0] < 0 else op[1:2])} - sets[i] - {0}
        for i, chunk in enumerate(chunks)
    ]
    handed = set().union(*needs)

    sources = []
    for i, chunk in enumerate(chunks):
        lines = [
            "def chunk(",
            "    s, rs, rows=rows, parent=parent, at=at,"
            " find=find, fix=fix, glue=glue, merge=merge",
            "):",
        ]
        lines += [f"    n{k:d} = at[{k:d}]" for k in sorted(needs[i])]
        live = set()  # nodes set since the last check: only a merge kills
        rowed = set()  # live nodes whose row is in rk

        def refresh(k, pad, with_row):  # lines that make nk live, and rk its row
            if with_row:  # the row of a merged slot is None
                lines.append(f"{pad}r{k:d} = rows[n{k:d}]")
                lines.append(
                    f"{pad}if r{k:d} is None: n{k:d} = find(n{k:d}); r{k:d} = rows[n{k:d}]"
                )
            else:
                lines.append(f"{pad}if parent[n{k:d}] != n{k:d}: n{k:d} = find(n{k:d})")

        def slot(k):
            if k == 0:
                return "s"
            if k not in live:
                refresh(k, "    ", False)
                live.add(k)
            return f"n{k:d}"

        def row(k):
            if k == 0:
                return "rs"
            if k not in rowed:
                if k in live:
                    lines.append(f"    r{k:d} = rows[n{k:d}]")
                else:
                    refresh(k, "    ", True)
                    live.add(k)
                rowed.add(k)
            return f"r{k:d}"

        for j, (node, src, a) in enumerate(chunk):
            if node < 0:  # check: merge the ends of one relation
                x, y = slot(src), slot(a)
                if x != y:
                    lines.append(f"    if {x} != {y}:")
                    lines.append(f"        merge({x}, {y})")
                    lines.append("        if parent[s] != s: return True")
                    # What the ops up to the next check read, the merge
                    # branch refreshes, so it stays known live on both paths.
                    read_rows, read_slots = set(), set()
                    for op in islice(chunk, j + 1, None):
                        if op[0] < 0:
                            read_slots.update(op[1:])
                            break
                        read_rows.add(op[1])
                    rowed &= read_rows
                    live &= read_rows | read_slots
                    for k in sorted(live):
                        refresh(k, "        ", k in rowed)
                continue
            # step; a missing edge reads -1, and rows[-1] is None as the
            # row of a merged slot is, so one test sends both to fix
            r, k = row(src), f"n{node:d}"
            lines.append(f"    {k} = {r}[{a:d}]")
            # A chunk ends at a check, so a step has a next op.  The walk
            # that made this node new goes on from it at once, if at all.
            after = chunk[j + 1]
            if after[0] >= 0 and after[1] == node:  # fetch the row it reads
                lines.append(f"    r{node:d} = rows[{k}]")
                lines.append(
                    f"    if r{node:d} is None: {k} = fix({r}, {a:d}); r{node:d} = rows[{k}]"
                )
                rowed.add(node)
            else:
                helper = f"fix({r}, {a:d})"
                if after[0] < 0 and node in after[1:] and after[1] != after[2]:
                    # the next op checks this node against the other end: a
                    # missing edge is a new slot the check would merge there
                    other = slot(after[2] if after[1] == node else after[1])
                    helper = f"glue({r}, {a:d}, {other})"
                lines.append(f"    if rows[{k}] is None: {k} = {helper}")
            live.add(node)
        lines += [f"    at[{k:d}] = n{k:d}" for k in sorted(sets[i] & handed)]
        if i == len(chunks) - 1:
            lines += [
                f"    if rs[{a:d}] == -1: fix(rs, {a:d})" for a in range(width)
            ]
        sources.append("\n".join(lines))
    return sources


def enumerate_quotient(presentation, max_slots=None):
    """Enumerate the monoid the presentation defines; see module notes.

    Deterministic: slots are created in a fixed sweep order, so repeated
    runs produce identical tables.  Raises BudgetExceededError when more
    than max_slots slots would be needed before closing, or when memory
    runs out first; by default max_slots is DEFAULT_BUDGET_FACTOR *
    cardinality_formula(n).
    """
    width = len(presentation.alphabet)
    if width == 0:
        raise ValueError("empty alphabet")
    if max_slots is None:
        max_slots = DEFAULT_BUDGET_FACTOR * cardinality_formula(presentation.n)
    if max_slots < 1:
        raise ValueError(f"slot budget must be positive, got {max_slots!r}")
    # Duplicate relation pairs impose nothing new; skipping them keeps
    # the sweep linear in the number of distinct relations.
    ops, nodes = sweep_ops(dict.fromkeys(presentation.relations))

    blank = [-1] * width
    # rows[s][a]: the edge of slot s by letter a; None for a merged slot,
    # and a last None that a missing edge, -1, reads
    rows = [[-1] * width, None]
    parent = [0]
    merges = 0
    peak_live = 0  # the most live slots before any merge so far
    at = [0] * nodes  # at[node]: a node's slot, handed to a later chunk
    s = 0

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def over_budget(t):  # the error for slot t, one past the budget
        return BudgetExceededError(max_slots, t, merges, s, max(peak_live, t - merges))

    def fix(row, a):  # the edge by a, to a live slot, defined if missing
        t = row[a]
        if t != -1:  # a merged slot: halve its path to the root
            while True:
                p = parent[t]
                if p == t:
                    row[a] = t
                    return t
                parent[t] = p = parent[p]
                t = p
        t = len(parent)
        if t >= max_slots:
            raise over_budget(t)
        parent.append(t)
        rows[t] = [-1] * width  # in place of the last None, which moves up
        rows.append(None)
        row[a] = t
        return t

    def glue(row, a, x):  # fix, but a new slot is merged at once into live x
        nonlocal merges, peak_live
        if row[a] != -1:
            return fix(row, a)
        t = len(parent)
        if t >= max_slots:
            raise over_budget(t)
        live = t + 1 - merges  # as merge counts it on entry
        if live > peak_live:
            peak_live = live
        parent.append(x)
        rows.append(None)  # slot t keeps the old last None as its row
        merges += 1
        row[a] = x
        return x

    def merge(x, y):  # two live slots of different classes, and the closure
        nonlocal merges, peak_live
        # live slots only grow between merges, so they peak just before one
        live = len(parent) - merges
        if live > peak_live:
            peak_live = live
        pending = []
        while True:
            if y < x:
                x, y = y, x
            parent[y] = x
            merges += 1
            moved = rows[y]
            rows[y] = None  # a merged slot is never read again
            if moved != blank:
                row = rows[x]
                for k, t in enumerate(moved):
                    if t != -1:
                        u = row[k]
                        if u == -1:
                            row[k] = t
                        elif u != t:
                            pending.append(u)
                            pending.append(t)
            while pending:
                y = pending.pop()
                if parent[y] != y:
                    y = find(y)
                x = pending.pop()
                if parent[x] != x:
                    x = find(x)
                if x != y:
                    break
            else:
                return

    namespace = {
        "parent": parent, "rows": rows, "at": at,
        "find": find, "fix": fix, "glue": glue, "merge": merge,
    }
    chunks = []
    for source in sweep_source(ops, width):
        exec(compile(source, "<sweep>", "exec"), namespace)
        # popped, so that no cycle holds the table: chunk -> globals -> chunk
        chunks.append(namespace.pop("chunk"))

    # the rows are lists, so the cyclic collector would walk the growing
    # table again and again; they form no cycles, so it waits for the end
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # rows grows while it is swept, and a list iterator reads each
        # position as it reaches it, so every slot defined is swept; the
        # rows of merged slots, None, are skipped in C
        for s, rs in compress(enumerate(rows), rows):
            for chunk in chunks:
                if chunk(s, rs):
                    # s was absorbed by a smaller slot, which was already
                    # swept in full while live; nothing left to do here.
                    break
        s = len(parent)  # swept to the end, for the report if memory runs out
        # The live rows are the rows that are not None, in id order; rows
        # lets go of the rest before the numbering allocates.  A slot's
        # parent is never larger than the slot, so one pass in id order
        # turns parent into every slot's class number.
        live_rows = list(filter(None, rows))
        rows.clear()
        assert -1 not in chain.from_iterable(live_rows), (
            "live slot with an undefined edge after closure"
        )
        size = 0
        for i, p in enumerate(parent):
            if p == i:
                parent[i] = size
                size += 1
            else:
                parent[i] = parent[p]
        edges = tuple(
            chain.from_iterable(
                map(map, repeat(parent.__getitem__), live_rows)
            )
        )
    except MemoryError:
        # Free the rows before anything else allocates.  Until then any
        # allocation can fail, and a MemoryError raised in this clause
        # would leave without the inconclusive verdict.  This clause runs
        # before the finally clause, so the collector comes back on only
        # once the table is gone, and never walks it while memory is full.
        rows.clear()
        slots_used = len(parent)
        parent.clear()
        raise BudgetExceededError(
            max_slots, slots_used, merges, s,
            max(peak_live, slots_used - merges), reason="out of memory",
        ) from None
    finally:
        if gc_was_enabled:
            gc.enable()

    slots_used = len(parent)
    return CongruenceTable(
        presentation.alphabet,
        size,
        edges,
        slots_used,
        merges,
        max(peak_live, slots_used - merges),
    )


def check_consequence(table, lhs, rhs):
    """Does lhs = rhs hold in the presented monoid?

    Sound and complete over a closed table: two words land in the same
    slot iff the congruence identifies them.
    """
    return table.trace(lhs) == table.trace(rhs)


class VerifyReport(Record):
    __slots__ = (
        "name", "n", "target_size", "quotient_size",
        "verdict",  # "defines" | "differs"
        "slots_used", "merges", "wall_ms",
    )

    @property
    def ok(self):
        return self.verdict == "defines"


def verify_defines(presentation, monoid, images=None, max_slots=None):
    """Decide whether the presentation defines the given monoid.

    First requires the generator images to lie in the monoid and to
    satisfy every relation, so that the submonoid they generate is a
    quotient of the presented monoid.  Then enumerates the presented
    monoid and compares cardinalities.  When the sizes are equal it also
    requires the closure of the images, every product of them formed as
    a row, to equal the monoid's rows; the check reads no table.  Only
    then do equal finite sizes force the quotient map to be an
    isomorphism.  Unequal sizes prove the two monoids differ whatever the
    images.  An assignment that fails a requirement raises ValueError,
    and a slot budget that runs out before the table closes raises
    BudgetExceededError.
    """
    if presentation.n != monoid.n:
        raise ValueError(
            f"presentation on {presentation.n} points, monoid on {monoid.n}"
        )
    images = aligned_images(presentation, images)
    for name, a in zip(presentation.alphabet, images):
        if a not in monoid:
            raise ValueError(f"image of {name} is not an element of the monoid")
    report = check_satisfaction(presentation, images)
    if not report.ok:
        raise ValueError(
            f"assignment violates {len(report.failures)} relation(s), "
            f"e.g. {report.failures[0][2]} = {report.failures[0][3]}"
        )
    target = len(monoid)
    t0 = time.perf_counter()
    table = enumerate_quotient(presentation, max_slots)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if table.size == target:
        # Run after the enumeration so that its memory does not add to
        # the enumeration's peak.
        if not generates_exactly(monoid, [a.row for a in images]):
            raise ValueError("the images do not generate the monoid")
        verdict = "defines"
    else:
        verdict = "differs"
    return VerifyReport(
        presentation.name,
        presentation.n,
        target,
        table.size,
        verdict,
        table.slots_used,
        table.merges,
        wall_ms,
    )


class BridgeReport(Record):
    """Cross-derivability of the two presentation families at one n."""

    __slots__ = (
        "n",
        "r_to_q",  # (label, ok) per wide relation rewritten over 3 letters
        "q_to_r",  # (label, ok) per 3-letter relation rewritten over the wide alphabet
    )

    @property
    def ok(self):
        return all(ok for _, ok in self.r_to_q) and all(
            ok for _, ok in self.q_to_r
        )


def check_tietze_bridge(n, max_slots=None):
    """Check each family's relations are consequences of the other's.

    The wide letters are rewritten by e_i -> h g^(i-1) e h g^(i-1) and
    tested in the 3-letter quotient; the 3-letter relations are
    rewritten by e -> e_n and tested in the wide quotient.  Together
    with the satisfaction checks this exhibits the two presentations as
    defining the same monoid.  Both quotients are enumerated here, so
    the verdict rests on no table from outside.
    """
    pres_r = build_R(n)
    pres_q = build_Q(n)
    r_table = enumerate_quotient(pres_r, max_slots)
    q_table = enumerate_quotient(pres_q, max_slots)

    into_q = r_to_q_substitution(n)
    r_to_q = tuple(
        (label, check_consequence(q_table, substitute(u, into_q), substitute(v, into_q)))
        for (u, v), label in zip(pres_r.relations, pres_r.labels)
    )
    into_r = q_to_r_substitution(n)
    q_to_r = tuple(
        (label, check_consequence(r_table, substitute(u, into_r), substitute(v, into_r)))
        for (u, v), label in zip(pres_q.relations, pres_q.labels)
    )
    return BridgeReport(n, r_to_q, q_to_r)
