"""The n-vertex cycle graph: geodesic distance, spheres, isometry test.

Vertices are 1..n arranged in a ring, so the graph distance is the
shorter way around: d(x, y) = min(|x - y|, n - |x - y|).  A partial
permutation is a partial isometry of the cycle when it preserves this
distance on every pair of points where it is defined.
"""

from dataclasses import dataclass
from operator import index

__all__ = ["CycleMetric"]


def _integer(value, what):
    """``operator.index(value)``; a non-integer raises ValueError."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


@dataclass(frozen=True)
class CycleMetric:
    """Distance structure of the cycle on n >= 3 vertices."""

    n: int

    def __post_init__(self):
        if _integer(self.n, "vertex count") < 3:
            raise ValueError(f"cycle needs at least 3 vertices, got {self.n}")

    def _point(self, x):
        """The vertex x as an int, checked to lie in 1..n."""
        x = _integer(x, "vertex")
        if not 1 <= x <= self.n:
            raise ValueError(f"vertex {x!r} outside 1..{self.n}")
        return x

    def distance(self, x, y):
        """Geodesic distance between vertices x and y.

        >>> CycleMetric(5).distance(1, 4)
        2
        """
        k = abs(self._point(x) - self._point(y))
        return min(k, self.n - k)

    def sphere(self, x, d):
        """Vertices at distance exactly d from x, ascending.

        Has two points except at the antipode of an even cycle, where it
        collapses to one.  Requires 1 <= d <= n/2.
        """
        x = self._point(x)
        d = _integer(d, "radius")
        if not (1 <= d and 2 * d <= self.n):
            raise ValueError(f"radius {d!r} outside 1..{self.n}/2")
        a = (x - 1 + d) % self.n + 1
        b = (x - 1 - d) % self.n + 1
        return (a,) if a == b else tuple(sorted((a, b)))

    def is_partial_isometry(self, a):
        """Does the partial permutation preserve the cycle distance?

        Checks every pair of domain points; rank <= 1 maps pass vacuously.
        """
        if a.n != self.n:
            raise ValueError(f"map on {a.n} points, metric on {self.n}")
        dom = a.domain()
        row = a.row
        n = self.n
        for s in range(len(dom)):
            x = dom[s]
            fx = row[x - 1]
            for t in range(s + 1, len(dom)):
                y = dom[t]
                k = y - x  # 0 < k < n since dom is ascending
                j = abs(fx - row[y - 1])
                if min(k, n - k) != min(j, n - j):
                    return False
        return True
