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

Used to machine-check that a presentation defines a given finite
monoid: the canonical generator assignment makes the monoid a quotient
of the presented one, so equality of (finite) sizes pins them equal.
"""

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .monoid import cardinality_formula
from .presentations import (
    aligned_images,
    build_Q,
    build_R,
    check_satisfaction,
    q_to_r_substitution,
    r_to_q_substitution,
    substitute,
)

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


class BudgetExceededError(RuntimeError):
    """The slot budget ran out before the table closed: inconclusive."""

    def __init__(self, max_slots, slots_used, merges, swept):
        super().__init__(
            f"inconclusive (budget): {slots_used} slots created, "
            f"budget {max_slots}, {merges} merges, {swept} slots swept"
        )
        self.max_slots = max_slots
        self.slots_used = slots_used
        self.merges = merges
        self.swept = swept


@dataclass(frozen=True)
class CongruenceTable:
    """A closed enumeration: a total automaton on the congruence classes.

    ``edges`` is flat, ``edges[s * width + a]`` being the class of
    (word of s) followed by letter a.  Slot 0 is the class of the empty
    word.  ``slots_used`` and ``merges`` record how hard the run was.
    """

    alphabet: tuple
    size: int
    edges: tuple
    slots_used: int
    merges: int

    @property
    def width(self):
        return len(self.alphabet)

    def trace(self, word):
        """Class reached from class 0, the empty word, by the word's letters."""
        cur = 0
        width = self.width
        edges = self.edges
        for a in word:
            cur = edges[cur * width + a]
        return cur


def sweep_ops(relations):
    """The ops that push every relation at one slot, over a prefix trie.

    Node 0 of the trie is the empty word.  Walking u, then v, for each
    relation in order emits ``(node, from_node, letter)`` for every new
    node, and ``(-1, end_u, end_v)`` after each relation.  Returns the
    ops and the number of nodes.

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
            for a in word:
                nxt = child.get((node, a))
                if nxt is None:
                    nxt = child[node, a] = len(child) + 1
                    ops.append((nxt, node, a))
                node = nxt
            ends.append(node)
        ops.append((-1, *ends))
    return ops, len(child) + 1


@contextmanager
def _gc_paused():
    """Cyclic garbage collection off for the block, then as the caller had it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def enumerate_quotient(presentation, max_slots=None):
    """Enumerate the monoid the presentation defines; see module notes.

    Deterministic: slots are created in a fixed sweep order, so repeated
    runs produce identical tables.  Raises BudgetExceededError when more
    than max_slots slots would be needed before closing; by default
    max_slots is DEFAULT_BUDGET_FACTOR * cardinality_formula(n).
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

    rows = [[-1] * width]  # rows[s][a]: the edge of slot s by letter a
    parent = [0]
    merges = 0
    at = [0] * nodes  # at[node]: a slot in the class of (word of s)(node's word)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def define():  # a new slot, with no edges yet
        t = len(parent)
        if t >= max_slots:
            raise BudgetExceededError(max_slots, t, merges, s)
        parent.append(t)
        rows.append([-1] * width)
        return t

    # the rows are lists, so the cyclic collector would walk the growing
    # table again and again; they form no cycles, so it waits for the end
    with _gc_paused():
        s = 0
        while s < len(parent):
            if parent[s] != s:
                s += 1
                continue
            at[0] = s
            for node, src, a in ops:
                if node >= 0:
                    # step: follow letter a from the class of at[src],
                    # defining the edge as a new slot if it is missing
                    cur = at[src]
                    if parent[cur] != cur:
                        cur = find(cur)
                    row = rows[cur]
                    t = row[a]
                    if t == -1:
                        t = row[a] = define()
                    elif parent[t] != t:
                        t = row[a] = find(t)
                    at[node] = t
                    continue
                # check: the relation's two ends must be one class
                x = at[src]
                if parent[x] != x:
                    x = find(x)
                y = at[a]
                if parent[y] != y:
                    y = find(y)
                if x == y:
                    continue
                pending = [x, y]
                while pending:
                    y = pending.pop()
                    if parent[y] != y:
                        y = find(y)
                    x = pending.pop()
                    if parent[x] != x:
                        x = find(x)
                    if x == y:
                        continue
                    if y < x:
                        x, y = y, x
                    parent[y] = x
                    merges += 1
                    row = rows[x]
                    for k, t in enumerate(rows[y]):
                        if t != -1:
                            u = row[k]
                            if u == -1:
                                row[k] = t
                            else:
                                pending += (u, t)
                    rows[y] = None  # a merged slot is never read again
                if parent[s] != s:
                    # s was absorbed by a smaller slot, which was already
                    # swept in full while live; nothing left to do here.
                    break
            if parent[s] == s:
                row = rows[s]
                for a in range(width):
                    if row[a] == -1:
                        row[a] = define()
            s += 1

    live = [i for i in range(len(parent)) if parent[i] == i]
    number = {old: new for new, old in enumerate(live)}

    def renumbered():
        for old in live:
            for t in rows[old]:
                assert t != -1, "live slot with an undefined edge after closure"
                yield number[find(t)]

    return CongruenceTable(
        alphabet=presentation.alphabet,
        size=len(live),
        # from a generator: no list of the edges is held next to the tuple
        edges=tuple(renumbered()),
        slots_used=len(parent),
        merges=merges,
    )


def check_consequence(table, lhs, rhs):
    """Does lhs = rhs hold in the presented monoid?

    Sound and complete over a closed table: two words land in the same
    slot iff the congruence identifies them.
    """
    return table.trace(lhs) == table.trace(rhs)


def class_rows(table, images):
    """One product of the images for each class reached from class 0.

    Breadth-first over the table from class 0, the empty word, whose
    row is the identity: each newly reached class gets the row of the
    class it was reached from times the image of the letter.  Every row
    is a product of the images whatever the table says, so rows that
    are |M| distinct elements of M prove that the images generate M.
    """
    padded = [(0,) + a.row for a in images]
    width = table.width
    edges = table.edges
    rows = {0: tuple(range(1, images[0].n + 1))}
    order = [0]
    for c in order:
        row = rows[c]
        base = c * width
        for a, image in enumerate(padded):
            d = edges[base + a]
            if d not in rows:
                rows[d] = tuple(map(image.__getitem__, row))
                order.append(d)
    return rows


@dataclass(frozen=True)
class VerifyReport:
    name: str
    n: int
    target_size: int
    quotient_size: int
    verdict: str  # "defines" | "differs"
    slots_used: int
    merges: int
    wall_ms: float

    @property
    def ok(self):
        return self.verdict == "defines"


def verify_defines(presentation, monoid, images=None, max_slots=None):
    """Decide whether the presentation defines the given monoid.

    First requires the generator images to lie in the monoid and to
    satisfy every relation, so that the submonoid they generate is a
    quotient of the presented monoid.  Then enumerates the presented
    monoid and compares cardinalities.  When the sizes are equal it also
    requires the images to generate the whole monoid: only then do equal
    finite sizes force the quotient map to be an isomorphism.  Unequal
    sizes prove the two monoids differ whatever the images.  An assignment
    that fails a requirement raises ValueError, and a slot budget that
    runs out before the table closes raises BudgetExceededError.
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
        if len(set(class_rows(table, images).values())) != target:
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


@dataclass(frozen=True)
class BridgeReport:
    """Cross-derivability of the two presentation families at one n."""

    n: int
    r_to_q: tuple  # (label, ok) per wide relation rewritten over 3 letters
    q_to_r: tuple  # (label, ok) per 3-letter relation rewritten over the wide alphabet

    @property
    def ok(self):
        return all(ok for _, ok in self.r_to_q) and all(
            ok for _, ok in self.q_to_r
        )


def check_tietze_bridge(n, r_table=None, q_table=None, max_slots=None):
    """Check each family's relations are consequences of the other's.

    The wide letters are rewritten by e_i -> h g^(i-1) e h g^(i-1) and
    tested in the 3-letter quotient; the 3-letter relations are
    rewritten by e -> e_n and tested in the wide quotient.  Together
    with the satisfaction checks this exhibits the two presentations as
    defining the same monoid.
    """
    pres_r = build_R(n)
    pres_q = build_Q(n)
    if r_table is None:
        r_table = enumerate_quotient(pres_r, max_slots)
    if q_table is None:
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
