from collections import deque
from itertools import combinations

import pytest

from cycliso import CycleMetric, PartialPerm


def bfs_distances(n, start):
    """Graph distance on the n-cycle by breadth-first search; the oracle
    the closed formula is checked against."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in ((x % n) + 1, ((x - 2) % n) + 1):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def test_distance_examples():
    assert CycleMetric(5).distance(1, 4) == 2
    assert CycleMetric(4).distance(1, 3) == 2
    assert CycleMetric(6).distance(2, 2) == 0


def test_distance_matches_bfs_oracle():
    for n in range(3, 11):
        metric = CycleMetric(n)
        for x in range(1, n + 1):
            oracle = bfs_distances(n, x)
            for y in range(1, n + 1):
                assert metric.distance(x, y) == oracle[y], (n, x, y)


def test_distance_is_a_metric():
    for n in (4, 5, 7):
        metric = CycleMetric(n)
        pts = range(1, n + 1)
        for x in pts:
            for y in pts:
                d = metric.distance(x, y)
                assert d == metric.distance(y, x)
                assert (d == 0) == (x == y)
                assert 2 * d <= n
                for z in pts:
                    assert d <= metric.distance(x, z) + metric.distance(z, y)


def test_point_validation():
    metric = CycleMetric(4)
    with pytest.raises(ValueError):
        metric.distance(0, 1)
    with pytest.raises(ValueError):
        metric.distance(1, 5)
    with pytest.raises(ValueError):
        CycleMetric(2)


def test_sphere_examples():
    assert CycleMetric(4).sphere(1, 2) == (3,)
    assert CycleMetric(5).sphere(1, 2) == (3, 4)
    assert CycleMetric(6).sphere(2, 3) == (5,)
    assert CycleMetric(6).sphere(2, 1) == (1, 3)


def test_sphere_contents_and_order():
    for n in range(3, 11):
        metric = CycleMetric(n)
        for x in range(1, n + 1):
            for d in range(1, n // 2 + 1):
                s = metric.sphere(x, d)
                assert list(s) == sorted(s)
                assert set(s) == {
                    y for y in range(1, n + 1) if metric.distance(x, y) == d
                }
                assert len(s) == (1 if 2 * d == n else 2)


def test_sphere_radius_validation():
    metric = CycleMetric(5)
    with pytest.raises(ValueError):
        metric.sphere(1, 0)
    with pytest.raises(ValueError):
        metric.sphere(1, 3)  # 3 > 5/2


def test_spheres_nearly_separate_points():
    # equal spheres force equal centres, except that on an even cycle a
    # two-point sphere is shared by the antipodal centre at the
    # complementary radius; a one-point sphere pins the centre down
    for n in range(3, 11):
        metric = CycleMetric(n)
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                for dx in range(1, n // 2 + 1):
                    for dy in range(1, n // 2 + 1):
                        sphere = metric.sphere(x, dx)
                        if sphere != metric.sphere(y, dy):
                            continue
                        if len(sphere) == 1:
                            assert x == y
                        elif x != y:
                            assert 2 * metric.distance(x, y) == n
                            assert dy == n // 2 - dx
                        else:
                            assert dx == dy


def test_is_partial_isometry_examples():
    metric = CycleMetric(5)
    assert metric.is_partial_isometry(PartialPerm.from_pairs(5, {1: 1, 2: 5}))
    assert not metric.is_partial_isometry(PartialPerm.from_pairs(5, {1: 1, 2: 3}))
    assert metric.is_partial_isometry(PartialPerm.empty(5))
    assert metric.is_partial_isometry(PartialPerm.from_pairs(5, {3: 1}))


def test_is_partial_isometry_matches_pairwise_definition():
    # independent route: check the distance condition pair by pair with
    # BFS distances, over every rank <= 3 injection of a 6-cycle
    n = 6
    metric = CycleMetric(n)
    oracle = {x: bfs_distances(n, x) for x in range(1, n + 1)}
    points = range(1, n + 1)
    from itertools import permutations

    for k in (2, 3):
        for dom in combinations(points, k):
            for img in permutations(points, k):
                a = PartialPerm.from_pairs(n, zip(dom, img))
                expect = all(
                    oracle[dom[s]][dom[t]] == oracle[img[s]][img[t]]
                    for s in range(k)
                    for t in range(s + 1, k)
                )
                assert metric.is_partial_isometry(a) == expect


def test_is_partial_isometry_size_mismatch():
    with pytest.raises(ValueError):
        CycleMetric(4).is_partial_isometry(PartialPerm.identity(5))


@pytest.mark.parametrize(
    "call",
    [
        lambda: CycleMetric(4.0),
        lambda: CycleMetric("5"),
        lambda: CycleMetric(5).distance(1, 2.5),
        lambda: CycleMetric(5).distance(1.0, 2),
        lambda: CycleMetric(5).sphere(1, 1.5),
        lambda: CycleMetric(5).sphere(1.0, 1),
    ],
    ids=["n-float", "n-str", "vertex-fraction", "vertex-float", "radius-fraction", "centre-float"],
)
def test_non_integers_are_refused(call):
    # before, CycleMetric(4.0).sphere(1, 1) gave (2.0, 4.0) and
    # CycleMetric(5).distance(1, 2.5) gave 1.5
    with pytest.raises(ValueError, match="is not an integer"):
        call()
