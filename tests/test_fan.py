"""The fan core on a second instance.

Loday's realization (`minkowski.build_minkowski`) is the polytope of the
fan with ray -1_I on the diagonal (lo, hi), where I = [lo+1, hi-1], and
support value h(lo, hi) = -sum of the weights a_J over J inside I, moved
into the sum-zero hyperplane by the centroid shift sum(a)/(n+1).
"""

import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from associahedra import cluster, polygon
from associahedra.fan import _scaled, make_fan, tight_vertices, wall_slacks
from associahedra.minkowski import loday_vertex, ones_weights
from associahedra.sampling import random_weights


def loday_fan(n):
    rays = {(lo, hi): tuple(-int(lo < k < hi) for k in range(1, n + 2))
            for lo, hi in polygon.all_diagonals(n)}
    return make_fan(rays, polygon.all_triangulations(n))


def loday_support_values(a, n):
    shift = Fraction(sum(a.values()), n + 1)
    return {
        (lo, hi): -sum(v for (i, j), v in a.items() if lo < i and j < hi) + (hi - lo - 1) * shift
        for lo, hi in polygon.all_diagonals(n)
    }, shift


def reference_tight_vertices(fan, h):
    """The scalar check the lane certificate replaced, kept verbatim: one
    integer dot product per cone and other ray."""
    if fan.problems:
        raise ValueError(f"not a complete simplicial fan: {fan.problems[:3]}")
    hs, scale = _scaled(h)
    common = lcm(*(cone.denominator for cone in fan.cones))
    rows = []
    for cone in fan.cones:
        rhs = [hs[d] for d in cone.diagonals] + [0]
        x = [sum(map(mul, row, rhs)) for row in cone.inverse]
        for d, ray in fan.rays.items():
            if d not in cone.diagonals and sum(map(mul, ray, x)) >= cone.denominator * hs[d]:
                raise AssertionError(f"vertex of {cone.diagonals} violates inequality of {d}")
        rows.append(tuple(v * (common // cone.denominator) for v in x))
    return rows, common * scale


def _outcome(fan, h, vertices):
    try:
        return vertices(fan, h)
    except AssertionError as exc:
        return str(exc)


def _jittered(h, rng, size):
    """h with every value moved by a seeded multiple of 1/7 below `size`."""
    return {d: v + Fraction(rng.randint(-7 * size, 7 * size), 7) for d, v in h.items()}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tight_vertices_match_the_scalar_reference(n):
    rng = random.Random(60 + n)
    fans = [
        (loday_fan(n), loday_support_values(random_weights(n, rng), n)[0]),
        (cluster._fan(n), cluster._by_diagonal(cluster.default_support_values(n), n)),
    ]
    outcomes = []
    for fan, h in fans:
        # the seeded draw itself, then jitters that break convexity at
        # some cones, often several, and leave it at others
        for size in (0, 0, 1, 1, 3, 3, 10, 10):
            g = _jittered(h, rng, size) if size else h
            got = _outcome(fan, g, tight_vertices)
            assert got == _outcome(fan, g, reference_tight_vertices)
            outcomes.append(isinstance(got, str))
    assert any(outcomes) and not all(outcomes)


def test_tight_vertices_name_the_first_failing_cone_and_ray():
    fan = loday_fan(3)
    h, _ = loday_support_values(ones_weights(3), 3)
    # lowered far enough, one support value cuts off vertices of cones that
    # do not use its ray; the first such cone is named
    d = polygon.all_diagonals(3)[-1]
    h[d] -= 100
    want = _outcome(fan, h, reference_tight_vertices)
    first = next(t for t in polygon.all_triangulations(3) if d not in t)
    assert want == f"vertex of {first} violates inequality of {d}"
    assert _outcome(fan, h, tight_vertices) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_minkowski_is_a_fan_instance(n):
    fan = loday_fan(n)
    assert not fan.problems
    rng = random.Random(n)
    for a in [ones_weights(n)] + [random_weights(n, rng) for _ in range(3)]:
        h, shift = loday_support_values(a, n)
        assert all(s > 0 for s in wall_slacks(fan, h))
        rows, scale = tight_vertices(fan, h)
        for x, t in zip(rows, polygon.all_triangulations(n)):
            assert tuple(Fraction(v, scale) + shift for v in x) == loday_vertex(a, t, n)


def test_tight_vertices_reject_a_tie():
    fan = loday_fan(2)
    h, _ = loday_support_values(ones_weights(2), 2)
    # flat across the first wall: the vertices of its two cones coincide
    beta = fan.relations[0][0]
    h[beta] -= wall_slacks(fan, h)[0]
    assert wall_slacks(fan, h)[0] == 0
    with pytest.raises(AssertionError):
        tight_vertices(fan, h)


def test_make_fan_reports_a_double_cover():
    # the pentagon's five cones in flip order take rays 144 degrees apart:
    # every wall separates, yet the cones wind twice around the origin
    plane = {(0, 2): (10, 0), (0, 3): (-8, 6), (1, 3): (3, -10), (1, 4): (3, 10), (2, 4): (-8, -6)}
    fan = make_fan({d: (x, y, 0) for d, (x, y) in plane.items()}, polygon.all_triangulations(2))
    assert [p[:2] for p in fan.problems] == [("point_covered_by", 2)]
    assert len(fan.walls) == 5


def test_make_fan_reports_a_wall_that_does_not_separate():
    # n = 1: both rays on one side of the origin
    fan = make_fan({(0, 2): (1, 0), (1, 3): (2, 0)}, polygon.all_triangulations(1))
    assert ("wall_not_separating", ()) in fan.problems and not fan.walls
