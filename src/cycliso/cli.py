"""Command-line front end.

Subcommands:

- ``enumerate``: build one monoid and emit its elements as JSON lines.
- ``count``: element counts over a range of n, as CSV, optionally
  checked against the closed formula.
- ``green``: Green's-relation class structure, optionally verified
  against the Cayley-graph oracle.
- ``rank``: confirm the 3-element generating set, optionally scanning
  all 1- and 2-element subsets.
- ``present show`` / ``present verify``: print a presentation, or
  enumerate its quotient and compare with the monoid.
- ``lemmas``: absorption identities as consequences of the wide
  presentation.
- ``tietze``: cross-derivability of the two presentations.

Exit codes: 0 all checks passed, 1 a verification failed, an internal
error, output that could not be written, or memory that ran out outside
the congruence enumeration (``error: out of memory``), 2 a bad command
line (refused before any work), 3 the congruence enumeration hit its
slot budget or ran out of memory (inconclusive; every such command
prints ``{"n", "verdict", "detail"}``).
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from itertools import starmap, zip_longest
from operator import eq

import cycliso
from .dihedral import symmetry_rows
from .monoid import (
    BRUTEFORCE_BOUND,
    BYTE_N_BOUND,
    PAIR_SEARCH_BOUND,
    build_by_bruteforce,
    build_by_closure,
    build_by_restrictions,
    cardinality_formula,
    rank_search,
    restriction_layout,
    restriction_rows,
)

# The commands that read congruences, presentations or Green's classes
# import those modules in their handlers, so that `enumerate`, `count` and
# `rank` start without them.

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# lines per write in `enumerate`, at least: a write ends at the end of a
# domain, which has at most 2n lines, so it holds fewer than
# ENUMERATE_BATCH + 2n lines (the last write may hold fewer)
ENUMERATE_BATCH = 4096

BUILDERS = {
    "restrictions": build_by_restrictions,
    "closure": build_by_closure,
    "bruteforce": build_by_bruteforce,
}


class UsageError(Exception):
    """A command line that parses but asks for more than a bound allows."""


def _bounded_int(low, name, high=None):
    """An argparse type: an integer no less than ``low``, nor above ``high``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{name} must be <= {high}, got {value}")
        return value

    return parse


_positive_n = _bounded_int(3, "n")
_monoid_n = _bounded_int(3, "n", BYTE_N_BOUND)  # for the commands that build one
_slot_budget = _bounded_int(1, "--max-slots")


def _n_range(text):
    """Parse '4' or '3..8' into an inclusive range."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, want N or A..B")
    if a < 3 or b < a:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: need 3 <= A <= B")
    if b > BYTE_N_BOUND:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: B must be <= {BYTE_N_BOUND}")
    return range(a, b + 1)


@contextmanager
def _output(path):
    """The file at ``path``, opened for text and closed after, or stdout."""
    if path:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(obj, out):
    with _output(out) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _layout_lines(n):
    """The lines of ``build_by_restrictions(n)``, from its layout.

    Yields ``(count, text)`` per domain, in canonical order: ``text``
    holds the domain's ``count`` lines.  Every ``enumerate`` prints
    through here, whichever route built and checked the monoid.

    Each (d0, d1) order of the layout is read once into label columns:
    ``cols[x][j]`` is the label of the image of point x under the
    order's j-th symmetry.  A domain's image lists are then the columns
    of its points zipped together, and its lines one join of them, so
    no Python frame runs per element.
    """
    label = ("",) + tuple(map(str, range(1, n + 1)))
    images = [tuple(map(label.__getitem__, row)) for row in symmetry_rows(n)]
    columns = {}  # this call's label columns, per order
    for dom, ks in restriction_layout(n):
        cols = columns.get(ks)
        if cols is None:
            cols = columns[ks] = tuple(zip(*map(images.__getitem__, ks)))
        prefix = '{"n":%d,"dom":[%s],"img":[' % (n, ",".join(map(label.__getitem__, dom)))
        imgs = map(",".join, zip(*map(cols.__getitem__, dom)))
        # the empty domain zips no column, so its one line joins nothing
        yield len(ks), prefix + ("]}\n" + prefix).join(imgs) + "]}\n"


def cmd_enumerate(args):
    if args.method == "bruteforce" and args.n > BRUTEFORCE_BOUND:
        raise UsageError(f"n={args.n} above configured bruteforce bound {BRUTEFORCE_BOUND}")
    rows = BUILDERS[args.method](args.n).rows
    # the restriction theorem at this n: another route's checked monoid
    # must hold the layout's rows, row for row (the restriction route's
    # monoid is built from those rows)
    if args.method != "restrictions" and not all(
        starmap(eq, zip_longest(rows, restriction_rows(args.n)))
    ):
        raise ValueError(f"the {args.method} rows differ from the restriction layout")
    del rows  # checked; the lines come from the layout alone
    # each line has the bytes of json.dumps(a.to_json(), separators=(",", ":"))
    with _output(args.out) as fh:
        # whole domains per write, until a write holds ENUMERATE_BATCH lines:
        # neither the whole text nor one write per domain
        batch, held = [], 0
        for count, text in _layout_lines(args.n):
            batch.append(text)
            held += count
            if held >= ENUMERATE_BATCH:
                fh.write("".join(batch))
                batch, held = [], 0
        if batch:
            fh.write("".join(batch))
    return EXIT_OK


def cmd_count(args):
    import csv

    rows = []
    mismatch = False
    for n in args.n:
        enumerated = len(build_by_restrictions(n))
        formula = cardinality_formula(n)
        ok = enumerated == formula
        mismatch = mismatch or not ok
        rows.append((n, enumerated, formula, "true" if ok else "false"))
    with _output(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "enumerated", "formula", "match"])
        writer.writerows(rows)
    if args.check_formula and mismatch:
        return EXIT_FAIL
    return EXIT_OK


def cmd_green(args):
    from .green import CAYLEY_SIZE_BOUND, cayley_oracle, green_J, green_LRH

    size = cardinality_formula(args.n)
    if args.verify_oracle and size > CAYLEY_SIZE_BOUND:
        raise UsageError(f"|M| = {size} above oracle size bound {CAYLEY_SIZE_BOUND}")
    monoid = build_by_restrictions(args.n)
    if args.relation == "J":
        # only J reads the cycle metric, so only J imports cycle.py
        from .cycle import CycleMetric

        classes = green_J(monoid, CycleMetric(args.n))
    else:
        classes = green_LRH(monoid, args.relation)
    verified = None
    if args.verify_oracle:
        oracle = cayley_oracle(monoid, args.relation)
        # both are sorted partitions, so the records are equal iff the partitions are
        verified = oracle == classes
    _emit(
        {
            "n": args.n,
            "relation": args.relation,
            "class_count": classes.class_count,
            "class_sizes_histogram": {
                str(k): v for k, v in classes.class_sizes_histogram().items()
            },
            "verified": verified,
        },
        args.out,
    )
    return EXIT_FAIL if verified is False else EXIT_OK


def cmd_rank(args):
    monoid = build_by_restrictions(args.n)
    report = rank_search(monoid, exhaustive_pairs=args.exhaustive_pairs)
    if not report.pair_search_ran:
        if args.exhaustive_pairs:
            pair_search = f"skipped: n > {PAIR_SEARCH_BOUND} exceeds the pair-scan bound"
        else:
            pair_search = "skipped: pass --exhaustive-pairs to run"
        message = "{g, h, e_n} generates" if report.triple_generates else "triple failed"
    else:
        pair_search = "ran"
        if report.minimum_is_three:
            message = "no generating set of size <= 2; {g, h, e_n} generates"
        else:
            message = "unexpected small generating set found"
    _emit(
        {
            "n": args.n,
            "size": report.size,
            "triple_generates": report.triple_generates,
            "singles_checked": report.singles_checked,
            "pairs_checked": report.pairs_checked,
            "generating_singles": list(report.generating_singles),
            "generating_pairs": [list(p) for p in report.generating_pairs],
            "pair_search": pair_search,
            "message": message,
        },
        args.out,
    )
    failed = not report.triple_generates or (
        report.pair_search_ran and not report.minimum_is_three
    )
    return EXIT_FAIL if failed else EXIT_OK


def _build_presentation(which, n):
    from .presentations import build_Q, build_R

    return build_R(n) if which == "R" else build_Q(n)


def cmd_present_show(args):
    _emit(_build_presentation(args.which, args.n).to_json(), args.out)
    return EXIT_OK


def cmd_present_verify(args):
    from .congruence import verify_defines

    presentation = _build_presentation(args.which, args.n)
    monoid = build_by_restrictions(args.n)
    report = verify_defines(presentation, monoid, max_slots=args.max_slots)
    _emit(
        {
            "n": args.n,
            "which": args.which,
            "target_size": report.target_size,
            "quotient_size": report.quotient_size,
            "verdict": report.verdict,
            "slots_used": report.slots_used,
            "merges": report.merges,
            "wall_ms": round(report.wall_ms, 3),
        },
        args.out,
    )
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_lemmas(args):
    from .congruence import check_consequence, enumerate_quotient
    from .presentations import absorption_relation_suites, build_R

    table = enumerate_quotient(build_R(args.n))
    suites = {}
    all_pass = True
    for name, instances in absorption_relation_suites(args.n).items():
        failures = [
            label for label, lhs, rhs in instances
            if not check_consequence(table, lhs, rhs)
        ]
        all_pass = all_pass and not failures
        suites[name] = {"checked": len(instances), "failures": failures}
    _emit({"n": args.n, "suites": suites, "all_pass": all_pass}, args.out)
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_tietze(args):
    from .congruence import check_tietze_bridge

    report = check_tietze_bridge(args.n, max_slots=args.max_slots)
    _emit(
        {
            "n": args.n,
            "r_to_q": {
                "checked": len(report.r_to_q),
                "failures": [label for label, ok in report.r_to_q if not ok],
            },
            "q_to_r": {
                "checked": len(report.q_to_r),
                "failures": [label for label, ok in report.q_to_r if not ok],
            },
            "all_pass": report.ok,
        },
        args.out,
    )
    return EXIT_OK if report.ok else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cycliso",
        description="Partial isometries of the n-cycle: enumeration, Green's "
        "structure, and presentation checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("enumerate", help="emit all elements as JSON lines")
    p.add_argument("--n", type=_monoid_n, required=True)
    p.add_argument("--method", choices=tuple(BUILDERS), default="restrictions")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="element counts over a range of n, as CSV")
    p.add_argument("--n", type=_n_range, required=True, metavar="A..B")
    p.add_argument("--check-formula", action="store_true")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("green", help="Green's relation classes")
    p.add_argument("--n", type=_monoid_n, required=True)
    p.add_argument("--relation", choices=("L", "R", "H", "J"), required=True)
    p.add_argument("--verify-oracle", action="store_true")
    common(p)
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("rank", help="generating-set checks")
    p.add_argument("--n", type=_monoid_n, required=True)
    p.add_argument("--exhaustive-pairs", action="store_true")
    common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("present", help="presentations")
    psub = p.add_subparsers(dest="present_command", required=True)
    q = psub.add_parser("show", help="print a presentation as JSON")
    q.add_argument("--n", type=_positive_n, required=True)
    q.add_argument("--which", choices=("R", "Q"), required=True)
    common(q)
    q.set_defaults(func=cmd_present_show)
    q = psub.add_parser("verify", help="enumerate the quotient and compare sizes")
    q.add_argument("--n", type=_monoid_n, required=True)
    q.add_argument("--which", choices=("R", "Q"), required=True)
    q.add_argument("--max-slots", type=_slot_budget)
    common(q)
    q.set_defaults(func=cmd_present_verify)

    p = sub.add_parser("lemmas", help="absorption identities as consequences")
    p.add_argument("--n", type=_positive_n, required=True)
    common(p)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("tietze", help="cross-derive the two presentations")
    p.add_argument("--n", type=_positive_n, required=True)
    p.add_argument("--max-slots", type=_slot_budget)
    common(p)
    p.set_defaults(func=cmd_tietze)

    return parser


def _run(args):
    """The command's exit code, with its inconclusive and error outcomes.

    An except clause names its class only when an exception reaches it, so
    ``cycliso.BudgetExceededError`` loads congruence.py no sooner than that,
    and a ``MemoryError`` is caught before that load is tried.
    """
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        pass  # reported below, once the traceback's frames have freed their data
    except cycliso.BudgetExceededError as exc:
        _emit({"n": args.n, "verdict": "inconclusive", "detail": str(exc)}, args.out)
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print("error: out of memory", file=sys.stderr)
    return EXIT_FAIL


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        if sys.stdout is sys.__stdout__:  # the stream flushed at exit
            sys.stdout.flush()  # so a reader that went away shows here
        return code
    except BrokenPipeError:
        # as in the Python docs' SIGPIPE note: the flush at exit must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
