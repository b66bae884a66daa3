import gc
import tracemalloc
from collections import deque

import pytest

from cycliso import (
    BudgetExceededError,
    FiniteMonoid,
    PartialPerm,
    Presentation,
    build_by_restrictions,
    build_Q,
    build_R,
    canonical_images,
    cardinality_formula,
    check_consequence,
    check_satisfaction,
    check_tietze_bridge,
    enumerate_quotient,
    evaluate,
    rank_search,
    standard_generators,
    verify_defines,
)
from cycliso.congruence import DEFAULT_BUDGET_FACTOR, CongruenceTable
from cycliso.partial_perm import canonical_key
from conftest import drop_family


def cyclic_group_presentation(order):
    return Presentation(
        "C", 3, ("g",), (((0,) * order, ()),), ("pow",)
    )


def test_cyclic_group_fixture():
    table = enumerate_quotient(cyclic_group_presentation(3), 100)
    assert table.size == 3
    assert table.trace((0, 0, 0)) == 0
    assert table.trace((0,)) != table.trace((0, 0))


def test_free_monoid_exhausts_budget():
    free = Presentation("F", 3, ("a",), (), ())
    with pytest.raises(BudgetExceededError) as info:
        enumerate_quotient(free, 50)
    assert info.value.slots_used == 50
    # slots 0..48 each defined their successor; slot 49 could not
    assert info.value.swept == 49
    assert info.value.merges == 0
    assert info.value.peak_live == 50  # nothing merged: every slot is live
    assert "inconclusive" in str(info.value)
    assert "49 slots swept" in str(info.value)


def test_default_budget_is_the_factor_times_the_formula():
    free = Presentation("F", 3, ("a",), (), ())
    with pytest.raises(BudgetExceededError) as info:
        enumerate_quotient(free)
    assert info.value.max_slots == DEFAULT_BUDGET_FACTOR * cardinality_formula(3)
    assert info.value.slots_used == info.value.max_slots


def test_merged_rows_are_freed():
    # A table that kept the row of every merged slot would hold at least
    # one pointer per edge of every slot ever defined; R at n=7 merges
    # all but 1730 of its 18486 slots.
    pres = build_R(7)
    tracemalloc.start()
    try:
        table = enumerate_quotient(pres, 64 * cardinality_formula(7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.size == cardinality_formula(7)
    assert peak < table.slots_used * table.width * 8


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_the_sweep_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert enumerate_quotient(build_R(4)).size == cardinality_formula(4)
        assert gc.isenabled() is enabled
        with pytest.raises(BudgetExceededError):
            enumerate_quotient(build_R(4), 200)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_budget_validation():
    with pytest.raises(ValueError):
        enumerate_quotient(cyclic_group_presentation(3), 0)


def test_quotient_sizes_match_the_monoid(tables):
    for n in (3, 4):
        for which in ("R", "Q"):
            assert tables(which, n).size == cardinality_formula(n)


def test_closed_table_is_total_and_deterministic(tables):
    t = tables("R", 3)
    assert len(t.edges) == t.size * t.width
    assert all(0 <= e < t.size for e in t.edges)
    t2 = enumerate_quotient(build_R(3), 64 * 34)
    assert t2 == t


def test_normal_forms(tables):
    t = tables("R", 3)
    p = build_R(3)
    g, h = p.letter("g"), p.letter("h")
    e2, e3 = p.letter("e_2"), p.letter("e_3")
    assert t.trace((g, g, g)) == 0
    assert t.trace((h, h)) == 0
    # the odd-n gluing relation: hg absorbed by e_2 e_3
    assert t.trace((h, g, e2, e3)) == t.trace((e2, e3))
    assert t.trace((e2,)) != t.trace((e3,))


def test_normal_form_classes_count_elements(tables):
    # tracing every element's extension data is overkill here; instead
    # confirm the identity class is slot 0 and slots are exactly classes
    t = tables("Q", 3)
    assert t.trace(()) == 0
    seen = {t.trace((a,)) for a in range(t.width)}
    assert len(seen) == 3  # g, h, e land in three distinct classes


def test_check_consequence(tables):
    t = tables("R", 3)
    p = build_R(3)
    g, h = p.letter("g"), p.letter("h")
    assert check_consequence(t, (g,) * 6, ())
    assert check_consequence(t, (h, g), (g, g, h))
    assert not check_consequence(t, (g,), (h,))


def test_trace_rejects_letters_outside_the_alphabet(tables):
    # a letter past the row once read the next slot's edges: (3,) landed
    # in the class of (0, 0) and (-1,) in a slot of the last row
    t = tables("Q", 3)
    assert t.width == 3
    for bad in ((3,), (-1,), (0, 0, 3)):
        with pytest.raises(ValueError):
            t.trace(bad)
        with pytest.raises(ValueError):
            check_consequence(t, bad, (0, 0))
    with pytest.raises(TypeError):
        t.trace((1.0,))


def test_consequences_respect_evaluation(tables):
    # sound: words identified by the table evaluate to the same map
    t = tables("R", 4)
    p = build_R(4)
    images = canonical_images(p)
    from itertools import product

    slot_value = {}
    for length in range(0, 4):
        for word in product(range(t.width), repeat=length):
            s = t.trace(word)
            val = evaluate(word, images)
            assert slot_value.setdefault(s, val) == val, word


def test_verify_defines(tables):
    for n in (3, 4):
        m = build_by_restrictions(n)
        for build in (build_R, build_Q):
            report = verify_defines(build(n), m)
            assert report.verdict == "defines"
            assert report.ok
            assert report.quotient_size == report.target_size == len(m)
            assert report.wall_ms >= 0


def test_verify_defines_differs_without_the_gluing_family():
    m = build_by_restrictions(3)
    trimmed = drop_family(build_R(3), "R6")
    report = verify_defines(trimmed, m)
    assert report.verdict == "differs"
    assert report.quotient_size == 48  # strictly bigger quotient
    assert not report.ok


def test_verify_defines_inconclusive_on_tiny_budget():
    m = build_by_restrictions(3)
    with pytest.raises(BudgetExceededError) as info:
        verify_defines(build_R(3), m, max_slots=10)
    assert info.value.slots_used == 10
    assert info.value.max_slots == 10


def test_verify_defines_rejects_bad_assignment():
    p = build_Q(3)
    images = dict(zip(p.alphabet, canonical_images(p)))
    images["g"], images["h"] = images["h"], images["g"]
    with pytest.raises(ValueError):
        verify_defines(p, build_by_restrictions(3), images=images)


@pytest.mark.parametrize(
    "monoid_n, image, message",
    [
        (4, PartialPerm.identity(4), "do not generate"),
        (5, None, "on 4 points, monoid on 5"),
        (4, PartialPerm.identity(5), "not an element"),
    ],
    ids=["images-do-not-generate", "monoid-on-other-n", "images-outside-monoid"],
)
def test_verify_defines_rejects_assignments_that_prove_nothing(
    monoid_n, image, message
):
    # Every assignment satisfies the Q relations at n=4, but the identity
    # images generate only {1}, the canonical images act on 4 points and
    # the monoid on 5, and the identity on 5 points is not in M_4.
    images = None if image is None else (image,) * 3
    with pytest.raises(ValueError, match=message):
        verify_defines(build_Q(4), build_by_restrictions(monoid_n), images=images)


@pytest.mark.parametrize("build", [build_Q, build_R], ids=["Q", "R"])
def test_verify_defines_rejects_a_monoid_that_is_not_closed(build):
    # 97 rows, sorted and distinct, but one is not an isometry: the
    # presented size matches and the images lie in it and satisfy every
    # relation, yet what they generate is M_4, not these rows.
    rows = list(build_by_restrictions(4).rows)
    rows[rows.index(bytes((1, 2, 0, 0)))] = bytes((1, 3, 0, 0))
    m = FiniteMonoid(4, sorted(rows, key=canonical_key), standard_generators(4))
    assert not rank_search(m).triple_generates
    with pytest.raises(ValueError, match="do not generate"):
        verify_defines(build(4), m)


@pytest.mark.parametrize("check", [check_satisfaction, verify_defines])
@pytest.mark.parametrize("count", ["too-many", "too-few"])
def test_image_sequence_must_match_the_alphabet(check, count):
    # Unchecked, extra images pass check_satisfaction unread, and
    # verify_defines would count their products as generated by the
    # letters; a missing one fails only where a relation uses it.
    p = build_R(3)
    if count == "too-many":
        images = (PartialPerm.identity(3),) * 5 + tuple(standard_generators(3).values())
    else:
        images = canonical_images(p)[:-1]
    args = (p, build_by_restrictions(3)) if check is verify_defines else (p,)
    with pytest.raises(ValueError, match=f"{len(images)} images for 5 letters"):
        check(*args, images=images)


def test_duplicate_relations_do_not_change_the_result():
    p = cyclic_group_presentation(4)
    doubled = Presentation(
        p.name, p.n, p.alphabet, p.relations * 3, p.labels * 3
    )
    assert enumerate_quotient(doubled, 100) == enumerate_quotient(p, 100)


def test_tietze_bridge(tables):
    for n in (3, 4):
        report = check_tietze_bridge(
            n, r_table=tables("R", n), q_table=tables("Q", n)
        )
        assert report.ok
        assert len(report.r_to_q) == len(build_R(n).relations)
        assert len(report.q_to_r) == len(build_Q(n).relations)


def test_tietze_bridge_builds_its_own_tables():
    assert check_tietze_bridge(3).ok


def reference_enumerate(presentation, max_slots):
    """The enumerator as it was before the op-list sweep, kept as a reference.

    Unchanged but for its budget error, which has no sweep position to
    report.
    """
    width = len(presentation.alphabet)
    if width == 0:
        raise ValueError("empty alphabet")
    if max_slots < 1:
        raise ValueError(f"slot budget must be positive, got {max_slots!r}")
    # Duplicate relation pairs impose nothing new; skipping them keeps
    # the sweep linear in the number of distinct relations.
    relations = list(dict.fromkeys(presentation.relations))

    tab = [-1] * width
    parent = [0]
    merges = 0
    pending = deque()

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge(a, b):
        nonlocal merges
        pending.append((a, b))
        while pending:
            x, y = pending.popleft()
            x = find(x)
            y = find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            merges += 1
            bx = x * width
            by = y * width
            for k in range(width):
                t = tab[by + k]
                if t != -1:
                    u = tab[bx + k]
                    if u == -1:
                        tab[bx + k] = t
                    else:
                        pending.append((u, t))

    def define():
        s = len(parent)
        if s >= max_slots:
            raise BudgetExceededError(max_slots, s, merges, None)
        parent.append(s)
        tab.extend([-1] * width)
        return s

    def trace_defining(start, word):
        cur = start
        for a in word:
            k = cur * width + a
            t = tab[k]
            if t == -1:
                t = define()
            else:
                t = find(t)
            tab[k] = t
            cur = t
        return cur

    s = 0
    while s < len(parent):
        if parent[s] != s:
            s += 1
            continue
        for u, v in relations:
            x = trace_defining(s, u)
            y = trace_defining(s, v)
            if x != y:
                merge(x, y)
            if parent[s] != s:
                # s was absorbed by a smaller slot, which was already
                # swept in full while live; nothing left to do here.
                break
        if parent[s] == s:
            base = s * width
            for k in range(width):
                if tab[base + k] == -1:
                    tab[base + k] = define()
        s += 1

    live = [i for i in range(len(parent)) if parent[i] == i]
    number = {old: new for new, old in enumerate(live)}
    edges = []
    for old in live:
        base = old * width
        for k in range(width):
            t = tab[base + k]
            assert t != -1, "live slot with an undefined edge after closure"
            edges.append(number[find(t)])
    return CongruenceTable(
        alphabet=presentation.alphabet,
        size=len(live),
        edges=tuple(edges),
        slots_used=len(parent),
        merges=merges,
    )


def outcome(enumerate_fn, presentation, max_slots):
    """The closed table, or the counters of an inconclusive run."""
    try:
        return enumerate_fn(presentation, max_slots)
    except BudgetExceededError as exc:
        assert exc.slots_used == max_slots
        return exc.slots_used, exc.merges


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("which", ["R", "Q"])
def test_sweep_matches_the_reference_slot_for_slot(tables, which, n):
    pres = build_R(n) if which == "R" else build_Q(n)
    size = cardinality_formula(n)
    # one below the closed run's count refuses the run's last definition
    last = tables(which, n).slots_used - 1
    for budget in (1, 50, 1000, size, last, 64 * size):
        got = outcome(enumerate_quotient, pres, budget)
        assert got == outcome(reference_enumerate, pres, budget), budget
        assert isinstance(got, CongruenceTable) == (budget > last), budget
        if isinstance(got, CongruenceTable):
            assert got.merges == got.slots_used - got.size


@pytest.mark.parametrize(
    "which, n, slots_used, merges, peak_live",
    [
        pytest.param("R", 6, 7122, 6419, 1320, id="R-6-7122-6419"),
        pytest.param("Q", 6, 8394, 7691, 3058, id="Q-6-8394-7691"),
        pytest.param("R", 8, 51535, 47550, 7793, id="R-8-51535-47550"),
        pytest.param("Q", 8, 65200, 61215, 18090, id="Q-8-65200-61215"),
    ],
)
def test_sweep_counters(tables, which, n, slots_used, merges, peak_live):
    t = tables(which, n)
    assert (t.slots_used, t.merges, t.peak_live) == (slots_used, merges, peak_live)
    assert t.size == cardinality_formula(n)


@pytest.mark.parametrize(
    "presentation, budget, swept, merges",
    [
        # tracing g^3 from slot 0 needs slots 1, 2 and 3
        (cyclic_group_presentation(3), 3, 0, 0),
        (build_R(4), 200, 7, 114),
    ],
    ids=["C3", "R4"],
)
def test_budget_error_reports_how_far_the_sweep_got(presentation, budget, swept, merges):
    with pytest.raises(BudgetExceededError) as info:
        enumerate_quotient(presentation, budget)
    exc = info.value
    assert (exc.slots_used, exc.merges, exc.swept) == (budget, merges, swept)
    assert f"{swept} slots swept" in str(exc)
