"""The 2n symmetries of the n-cycle, in rotation/reflection normal form.

Every symmetry is written uniquely as h^r g^k with r in {0, 1} and
0 <= k < n, where g is the unit rotation and h the reflection fixing
the "axis" through vertex positions that sends i to n - i + 1.  Acting
on the right (h first, then the rotation):

    i . g^k     = ((i - 1 + k) mod n) + 1
    i . h g^k   = ((k - i) mod n) + 1

The multiplication rule follows from h g = g^(n-1) h.
"""

from .partial_perm import PartialPerm
from .record import Record

__all__ = ["DihedralElement", "group_elements", "symmetry_rows", "mask_images", "extensions_of"]


class DihedralElement(Record):
    """h^ref g^rot acting on the n-cycle; ref in {0,1}, 0 <= rot < n."""

    __slots__ = ("n", "ref", "rot")

    def __init__(self, n, ref, rot):
        if n < 3:
            raise ValueError(f"dihedral symmetries need n >= 3, got {n}")
        if ref not in (0, 1):
            raise ValueError(f"ref must be 0 or 1, got {ref!r}")
        if not 0 <= rot < n:
            raise ValueError(f"rot {rot!r} outside 0..{n - 1}")
        super().__init__(n, ref, rot)

    @classmethod
    def identity(cls, n):
        return cls(n, 0, 0)

    @classmethod
    def rotation(cls, n, k=1):
        return cls(n, 0, k % n)

    @classmethod
    def reflection(cls, n, k=0):
        return cls(n, 1, k % n)

    def act(self, i):
        """Image of vertex i under this symmetry (right action)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex {i!r} outside 1..{self.n}")
        if self.ref:
            return (self.rot - i) % self.n + 1
        return (i - 1 + self.rot) % self.n + 1

    def multiply(self, other):
        """Product in acting order: self first, then other."""
        if not isinstance(other, DihedralElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mismatched sizes {self.n} and {other.n}")
        # x.(h^r1 g^k1)(h^r2 g^k2): the second reflection conjugates the
        # first rotation, giving h^(r1 xor r2) g^(k2 +- k1).
        if other.ref:
            k = (other.rot - self.rot) % self.n
        else:
            k = (self.rot + other.rot) % self.n
        return DihedralElement(self.n, self.ref ^ other.ref, k)

    __mul__ = multiply

    def inverse(self):
        if self.ref:
            return self
        return DihedralElement(self.n, 0, (-self.rot) % self.n)

    def to_partial_perm(self):
        """The symmetry as a total map in the partial-permutation algebra."""
        return PartialPerm(self.n, tuple(self.act(i) for i in range(1, self.n + 1)))

    def __str__(self):
        if self.rot == 0:
            return "h" if self.ref else "1"
        power = "g" if self.rot == 1 else f"g^{self.rot}"
        return f"h{power}" if self.ref else power


def group_elements(n):
    """All 2n symmetries: rotations g^0..g^(n-1), then reflections hg^0..hg^(n-1)."""
    return tuple(
        DihedralElement(n, r, k) for r in (0, 1) for k in range(n)
    )


def symmetry_rows(n):
    """The 2n symmetries as total rows, numbered as in ``group_elements(n)``.

    Each row has a leading 0, so ``symmetry_rows(n)[k][x]`` is the image
    of point x under symmetry k.

    >>> symmetry_rows(3)
    [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1), (0, 1, 3, 2), (0, 2, 1, 3)]
    """
    return [(0,) + e.to_partial_perm().row for e in group_elements(n)]


def mask_images(n, mask):
    """The images of a vertex mask under the 2n symmetries, numbered as in
    ``group_elements(n)``.  Bit x - 1 of a mask stands for point x.

    g^k sends bit b to bit (b + k) mod n, a left rotation by k, and
    h g^k sends it to bit (k - 1 - b) mod n: the bit reversal, then the
    same rotation.

    >>> [format(m, "04b") for m in mask_images(4, 0b0011)]
    ['0011', '0110', '1100', '1001', '1100', '1001', '0011', '0110']
    """
    if n < 3:
        raise ValueError(f"dihedral symmetries need n >= 3, got {n}")
    full = (1 << n) - 1
    if not 0 <= mask <= full:
        raise ValueError(f"mask {mask!r} outside 0..{full}")
    rev = sum(1 << (n - 1 - x) for x in range(n) if mask >> x & 1)
    return [(x << k | x >> (n - k)) & full for x in (mask, rev) for k in range(n)]


def extensions_of(metric, a):
    """All symmetries of the cycle restricting to the partial isometry a.

    Empty iff a fails to be a partial isometry; the whole group for the
    empty map.  Otherwise at most one rotation and one reflection qualify,
    pinned down by where the least domain point goes: with i = min Dom
    and j = i.a, the only candidates are g^((j-i) mod n) and
    h g^((i+j-1) mod n).  Rotation candidate first in the result.
    """
    n = metric.n
    if a.n != n:
        raise ValueError(f"map on {a.n} points, metric on {n}")
    dom = a.domain()
    if not dom:
        return list(group_elements(n))
    i = dom[0]
    j = a[i]
    out = []
    for cand in (
        DihedralElement(n, 0, (j - i) % n),
        DihedralElement(n, 1, (i + j - 1) % n),
    ):
        if all(cand.act(x) == a[x] for x in dom):
            out.append(cand)
    return out
