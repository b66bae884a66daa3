"""Monoid presentations for the cycle-isometry monoids.

Two families are built here, named by their conventional tags:

- ``build_R``: alphabet {g, h, e_1, ..., e_n} — a letter per removal
  idempotent.  Families R1 (dihedral relations), R2 (idempotency), R3
  (commuting idempotents), R4/R5 (how g and h shuffle the e_i), and R6
  (one relation for odd n, two for even n, gluing the reflection to the
  idempotent kernel).  |R| = (n^2 + 5n + 9 + (-1)^n) / 2.
- ``build_Q``: alphabet {g, h, e} — the rank-3 presentation obtained by
  eliminating e_i in favour of h g^(i-1) e h g^(i-1).  Families Q1
  (dihedral), Q2, Q3 (one instance per index pair i < j, kept verbatim
  even though only the gap j - i matters), and a tail Q4 (odd) or Q5
  (even).  |Q| = (n^2 - n + 13 + (-1)^n) / 2.

Words are tuples of letter indices into the presentation's alphabet;
relations are (lhs, rhs) word pairs, and evaluation folds the product
left to right.
"""

from dataclasses import dataclass

from .monoid import _check_n, standard_generators
from .partial_perm import PartialPerm, idempotent

__all__ = [
    "Presentation",
    "SatisfactionReport",
    "build_R",
    "build_Q",
    "canonical_images",
    "aligned_images",
    "evaluate",
    "check_satisfaction",
    "substitute",
    "r_to_q_substitution",
    "q_to_r_substitution",
    "absorption_relation_suites",
    "relation_count_formula",
]


@dataclass(frozen=True)
class Presentation:
    """A finite monoid presentation with per-relation family labels."""

    name: str
    n: int
    alphabet: tuple
    relations: tuple  # of (word, word), words are tuples of letter indices
    labels: tuple  # family tag per relation, parallel to `relations`

    def __post_init__(self):
        if len(self.labels) != len(self.relations):
            raise ValueError("labels and relations out of step")
        width = len(self.alphabet)
        for lhs, rhs in self.relations:
            for a in (*lhs, *rhs):
                if not 0 <= a < width:
                    raise ValueError(f"letter index {a} outside the alphabet")

    def letter(self, name):
        return self.alphabet.index(name)

    def render_word(self, word):
        """Human-readable word with powers folded, e.g. 'h g^2 e_3'."""
        if not word:
            return "1"
        parts = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            name = self.alphabet[word[i]]
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return " ".join(parts)

    def to_json(self):
        return {
            "name": self.name,
            "n": self.n,
            "alphabet": list(self.alphabet),
            "relations": [
                {
                    "label": label,
                    "lhs": [self.alphabet[a] for a in lhs],
                    "rhs": [self.alphabet[a] for a in rhs],
                }
                for (lhs, rhs), label in zip(self.relations, self.labels)
            ],
        }

    @classmethod
    def from_json(cls, obj):
        alphabet = tuple(obj["alphabet"])
        pos = {name: i for i, name in enumerate(alphabet)}
        rels = []
        labels = []
        for item in obj["relations"]:
            rels.append(
                (
                    tuple(pos[x] for x in item["lhs"]),
                    tuple(pos[x] for x in item["rhs"]),
                )
            )
            labels.append(item.get("label", ""))
        return cls(obj["name"], obj["n"], alphabet, tuple(rels), tuple(labels))


def build_R(n):
    """The presentation on n + 2 letters g, h, e_1, ..., e_n."""
    _check_n(n)
    G, H = 0, 1

    def E(i):
        return 1 + i

    alphabet = ("g", "h", *(f"e_{i}" for i in range(1, n + 1)))
    rels = []
    labels = []

    def add(label, lhs, rhs):
        rels.append((tuple(lhs), tuple(rhs)))
        labels.append(label)

    add("R1", [G] * n, [])
    add("R1", [H, H], [])
    add("R1", [H, G], [G] * (n - 1) + [H])
    for i in range(1, n + 1):
        add("R2", [E(i), E(i)], [E(i)])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            add("R3", [E(i), E(j)], [E(j), E(i)])
    add("R4", [G, E(1)], [E(n), G])
    for i in range(1, n):
        add("R4", [G, E(i + 1)], [E(i), G])
    for i in range(1, n + 1):
        add("R5", [H, E(i)], [E(n - i + 1), H])
    all_e = [E(i) for i in range(1, n + 1)]
    if n % 2:
        tail = [E(i) for i in range(2, n + 1)]
        add("R6", [H, G] + tail, tail)
    else:
        tail = [E(i) for i in range(2, n + 1) if i != n // 2 + 1]
        add("R6", [H, G] + tail, tail)
        add("R6", [H] + all_e, all_e)
    return Presentation("R", n, alphabet, tuple(rels), tuple(labels))


def build_Q(n):
    """The presentation on the 3 letters g, h, e."""
    _check_n(n)
    G, H, E = 0, 1, 2
    alphabet = ("g", "h", "e")
    rels = []
    labels = []

    def add(label, lhs, rhs):
        rels.append((tuple(lhs), tuple(rhs)))
        labels.append(label)

    add("Q1", [G] * n, [])
    add("Q1", [H, H], [])
    add("Q1", [H, G], [G] * (n - 1) + [H])
    add("Q2", [E, E], [E])
    add("Q2", [G, H, E, G, H], [E])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d = j - i
            add(
                "Q3",
                [E] + [G] * d + [E] + [G] * (n - d),
                [G] * d + [E] + [G] * (n - d) + [E],
            )
    eg = [E, G]
    if n % 2:
        body = eg * (n - 2) + [E]
        add("Q4", [H, G] + body, body)
    else:
        body = eg * (n // 2 - 1) + [G] + eg * (n // 2 - 2) + [E]
        add("Q5", [H, G] + body, body)
        full = eg * (n - 1) + [E]
        add("Q5", [H] + full, full)
    return Presentation("Q", n, alphabet, tuple(rels), tuple(labels))


def relation_count_formula(name, n):
    """Closed-form |R| or |Q|; the builders must recount to this."""
    _check_n(n)
    sign = 1 if n % 2 == 0 else -1
    if name == "R":
        return (n * n + 5 * n + 9 + sign) // 2
    if name == "Q":
        return (n * n - n + 13 + sign) // 2
    raise ValueError(f"unknown presentation family {name!r}")


def canonical_images(presentation):
    """The intended generator images, aligned with the alphabet.

    'g', 'h' and 'e' are g, h and e_n of ``monoid.standard_generators``;
    'e_i' is the identity with point i removed.
    """
    n = presentation.n
    named = standard_generators(n)
    named["e"] = named["e_n"]
    out = []
    for name in presentation.alphabet:
        if name in named:
            out.append(named[name])
        elif name.startswith("e_"):
            out.append(idempotent(n, int(name[2:])))
        else:
            raise ValueError(f"no canonical image for letter {name!r}")
    return tuple(out)


def evaluate(word, images):
    """Fold a word to a partial permutation, multiplying left to right."""
    if not images:
        raise ValueError("empty image assignment")
    acc = PartialPerm.identity(images[0].n)
    for a in word:
        if not 0 <= a < len(images):
            raise ValueError(f"letter index {a} has no assigned image")
        acc = acc * images[a]
    return acc


@dataclass(frozen=True)
class SatisfactionReport:
    name: str
    n: int
    checked: int
    failures: tuple  # of (relation index, label, lhs text, rhs text)

    @property
    def ok(self):
        return not self.failures


def aligned_images(presentation, images=None):
    """The generator assignment as a tuple aligned with the alphabet.

    `images` may be a sequence aligned with the alphabet, one image per
    letter, or a mapping from letter name to partial permutation; by
    default the canonical assignment is used.
    """
    if images is None:
        return canonical_images(presentation)
    if hasattr(images, "keys"):
        try:
            return tuple(images[name] for name in presentation.alphabet)
        except KeyError as exc:
            raise ValueError(f"letter {exc.args[0]!r} unassigned") from None
    images = tuple(images)
    if len(images) != len(presentation.alphabet):
        raise ValueError(f"{len(images)} images for {len(presentation.alphabet)} letters")
    return images


def check_satisfaction(presentation, images=None):
    """Evaluate every relation under the assignment; report any that fail.

    `images` is taken as by `aligned_images`.
    """
    images = aligned_images(presentation, images)
    failures = []
    for k, (lhs, rhs) in enumerate(presentation.relations):
        if evaluate(lhs, images) != evaluate(rhs, images):
            failures.append(
                (
                    k,
                    presentation.labels[k],
                    presentation.render_word(lhs),
                    presentation.render_word(rhs),
                )
            )
    return SatisfactionReport(
        presentation.name, presentation.n, len(presentation.relations), tuple(failures)
    )


def substitute(word, table):
    """Rewrite a word letter-by-letter through a substitution table.

    table[a] is the replacement word, over some other alphabet, for
    letter a.
    """
    out = []
    for a in word:
        out.extend(table[a])
    return tuple(out)


def r_to_q_substitution(n):
    """Replacement of each wide-alphabet letter by a 3-letter word:
    g -> g, h -> h, e_i -> h g^(i-1) e h g^(i-1)."""
    G, H, E = 0, 1, 2
    table = [(G,), (H,)]
    for i in range(1, n + 1):
        prefix = (H,) + (G,) * (i - 1)
        table.append(prefix + (E,) + prefix)
    return tuple(table)


def q_to_r_substitution(n):
    """Replacement of the 3-letter alphabet inside the wide one:
    g -> g, h -> h, e -> e_n."""
    return ((0,), (1,), (1 + n,))


def absorption_relation_suites(n):
    """Families of word identities over the wide alphabet in which a
    dihedral prefix is absorbed by a product of removal idempotents.

    Returns suite name -> list of (instance label, lhs, rhs):

    - "corank1": h g^(2i-1) e_1..e_n (skipping e_i) equals the product
      alone, for each i — the prefix fixes the one surviving point.
    - "antipodal_pair" (even n only): likewise skipping e_j and
      e_(j+n/2), for 1 <= j <= n/2.
    - "empty_map": h^l g^m times the full product e_1..e_n equals the
      full product, sampled over l < 3 and m < 2n; the full family is
      infinite, and this truncation already covers both reflection
      parities and two whole turns of rotation.
    """
    _check_n(n)
    G, H = 0, 1

    def E(i):
        return 1 + i

    def e_product(skip=()):
        return tuple(E(i) for i in range(1, n + 1) if i not in skip)

    suites = {}
    suite = []
    for i in range(1, n + 1):
        tail = e_product(skip={i})
        suite.append((f"i={i}", (H,) + (G,) * (2 * i - 1) + tail, tail))
    suites["corank1"] = suite

    if n % 2 == 0:
        suite = []
        for j in range(1, n // 2 + 1):
            tail = e_product(skip={j, j + n // 2})
            suite.append((f"j={j}", (H,) + (G,) * (2 * j - 1) + tail, tail))
        suites["antipodal_pair"] = suite

    suite = []
    full = e_product()
    for l in range(3):
        for m in range(2 * n):
            suite.append((f"l={l},m={m}", (H,) * l + (G,) * m + full, full))
    suites["empty_map"] = suite
    return suites
