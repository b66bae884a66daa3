"""The benchmark's workloads: fixed cycliso CLI commands and their output checks.

Every command answers a fixed-n mathematical question, so a workload has
no random inputs; the seed only permutes the order of its commands.  Each
command's output must match the sha256 recorded below and pass closed-form
checks that do not depend on the digest.
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass


def cardinality(n):
    """|M| for the n-cycle: the paper's closed form, restated here so the
    check does not trust the package under test."""
    if n % 2:
        return n * 2 ** (n + 1) - n * n - 2 * n + 1
    return n * 2 ** (n + 1) - 3 * n * n // 2 - 2 * n + 1


def bracelets(n):
    """Binary bracelets of length n, by Burnside's lemma over the dihedral
    group; equals the number of J-classes."""
    rotations = sum(2 ** math.gcd(k, n) for k in range(n))
    if n % 2:
        reflections = n * 2 ** ((n + 1) // 2)
    else:
        reflections = n // 2 * (2 ** (n // 2 + 1) + 2 ** (n // 2))
    return (rotations + reflections) // (2 * n)


def _problems(**conditions):
    """Names of the conditions that do not hold, comma-separated, or None."""
    failed = [name for name, ok in conditions.items() if not ok]
    return ", ".join(failed) or None


def check_enumerate(n):
    def check(out):
        return _problems(size=out.count(b"\n") == cardinality(n))
    return check


def check_count(lo, hi):
    def check(out):
        rows = list(csv.reader(io.StringIO(out.decode())))
        want = [["n", "enumerated", "formula", "match"]] + [
            [str(n), str(cardinality(n)), str(cardinality(n)), "true"]
            for n in range(lo, hi + 1)
        ]
        return _problems(rows_match_formula=rows == want)
    return check


def check_rank(n, pairs):
    def check(out):
        r = json.loads(out)
        size = cardinality(n)
        scanned = r["singles_checked"] == size and r["pairs_checked"] == size * (size - 1) // 2
        return _problems(
            size=r["size"] == size,
            triple_generates=r["triple_generates"] is True,
            pair_search=r["pair_search"] == "ran" if pairs else r["pairs_checked"] is None,
            scanned=scanned if pairs else True,
            no_small_generating_set=not r["generating_singles"] and not r["generating_pairs"],
        )
    return check


def check_green(n, relation, oracle):
    # L and R classes are the 2^n possible images and domains; J classes are
    # the dihedral orbits of domains.  H has no closed form used here.
    classes = {"L": 2 ** n, "R": 2 ** n, "J": bracelets(n)}.get(relation)

    def check(out):
        r = json.loads(out)
        sizes = sum(int(k) * v for k, v in r["class_sizes_histogram"].items())
        return _problems(
            class_count=classes is None or r["class_count"] == classes,
            covers_monoid=sizes == cardinality(n),
            verified=r["verified"] is (True if oracle else None),
        )
    return check


def check_present(n):
    def check(out):
        r = json.loads(out)
        return _problems(
            verdict=r["verdict"] == "defines",
            quotient_size=r["quotient_size"] == r["target_size"] == cardinality(n),
        )
    return check


def check_all_pass(out):
    r = json.loads(out)
    return _problems(all_pass=r["all_pass"] is True)


def drop_wall_ms(out):
    """present verify output without its timing field, as the CLI prints it."""
    r = json.loads(out)
    r.pop("wall_ms")
    return (json.dumps(r, indent=2) + "\n").encode()


@dataclass(frozen=True)
class Command:
    argv: tuple
    sha256: str  # of the output after `normalize`
    check: object  # output bytes -> None, or a description of what failed
    normalize: object = None  # output bytes -> the bytes that are hashed

    def digest(self, out):
        return hashlib.sha256(self.normalize(out) if self.normalize else out).hexdigest()

    def verify(self, code, out):
        """None if the command succeeded, else what went wrong."""
        if code != 0:
            return f"exit code {code}"
        try:
            problem = self.check(out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        if problem:
            return f"check failed: {problem}"
        digest = self.digest(out)
        if digest != self.sha256:
            return f"sha256 {digest} != recorded {self.sha256}"
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple


def _cmd(line, check, sha256, normalize=None):
    return Command(tuple(line.split()), sha256, check, normalize)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census",
            "restriction builder, PartialPerm construction and sorting, and CLI serialization; no Green or congruence work",
            (
                _cmd("enumerate --n 13", check_enumerate(13),
                     "0b3c01a2bd92a49612aa1b23993ff57bf19b24ad21c9a74970f702310c3ef9c4"),
                _cmd("count --n 3..12 --check-formula", check_count(3, 12),
                     "0ac4f76b391febb4d9e1e5498f437c50b6f5686c34acd7fdd260dd73b4fe4c13"),
            ),
        ),
        Workload(
            "generate",
            "products of elements in closures and the pair scan, with little construction or sorting",
            (
                _cmd("rank --n 5 --exhaustive-pairs", check_rank(5, pairs=True),
                     "c9da2567443e93279c5c066bd474cac8b02e4bea348cd58cd00380d44875d0ce"),
                _cmd("enumerate --n 11 --method closure", check_enumerate(11),
                     "d9bb57862e0006766e4d541b8c3520693bd825f10bace6cb6d5b60628437bf64"),
                _cmd("rank --n 11", check_rank(11, pairs=False),
                     "02576233a47740aaf42aef3396b4f77c6d1716d8d9c3e5669b43f12bfdfc67b3"),
            ),
        ),
        Workload(
            "green",
            "Green's classes: green_J at n=12 dominates, plus the |M|^2 ideal oracle on all four relations at n=6",
            (
                _cmd("green --n 12 --relation J", check_green(12, "J", oracle=False),
                     "ea658f06ce1e0001a6c9eb0908cde880186b1df615250f8aeb8b62e3a050733b"),
                _cmd("green --n 12 --relation R", check_green(12, "R", oracle=False),
                     "70e2cc86260e11bdbd5e6d7d2c5734216d89106caf79341b482983504684abc2"),
                _cmd("green --n 6 --relation L --verify-oracle", check_green(6, "L", oracle=True),
                     "48cefb18e86c934add9a5f6f7a088533fbdf79a90ff545310a541bd9bd965563"),
                _cmd("green --n 6 --relation R --verify-oracle", check_green(6, "R", oracle=True),
                     "8580d304301ce11e3c29f4bec53e7062f2ce0e9831a538e19ca0cb08b41957a3"),
                _cmd("green --n 6 --relation H --verify-oracle", check_green(6, "H", oracle=True),
                     "fa21c9d14d13fb6589e61a3d90165f423c4bdf7cb2b22cf51b5551919c1f3db3"),
                _cmd("green --n 6 --relation J --verify-oracle", check_green(6, "J", oracle=True),
                     "2d3c0889a1e7102d3b64aef4b6eb9f2eadcabda9310ebf0c9dc90753a91bc0f7"),
            ),
        ),
        Workload(
            "present",
            "congruence enumeration of both presentations at n=10, plus the Tietze bridge and the lemmas at n=8",
            (
                _cmd("present verify --n 10 --which R", check_present(10),
                     "80d6f19e0cfc3a668a53944e90542770a3b2eebfb62f21d485ef08a47831d710", drop_wall_ms),
                _cmd("present verify --n 10 --which Q", check_present(10),
                     "48dedf8f810218b41631e615e56aa41c519d9fc160dafc615a270d0ad1a15395", drop_wall_ms),
                _cmd("tietze --n 8", check_all_pass,
                     "9dcca88527c5d56deec84c80b4fde877f3272904e8f7c67bd67aa16fd019bf92"),
                _cmd("lemmas --n 8", check_all_pass,
                     "54d7f3c389c31899f452e10149b67de994d519ebd5d5e4344c1c98da25b43c29"),
            ),
        ),
    )
}
