"""The reference fan (`oracles.make_fan`, one integer inverse per cone)
on a second instance and off a fan, and the cluster's closed-form
vertices, under the lane pass (`oracles.lane_pass_vertices`) and under
the build's wall check, against its per-cone solve
(`oracles.cone_vertices`).

Loday's realization (`minkowski.build_minkowski`) is the polytope of the
fan with ray -1_I on the diagonal (lo, hi), where I = [lo+1, hi-1], and
support value h(lo, hi) = -sum of the weights a_J over J inside I, moved
into the sum-zero hyperplane by the centroid shift sum(a)/(n+1).
"""

import random
from fractions import Fraction
from operator import mul

import pytest

from associahedra import cluster, polygon
from associahedra.exactlin import integer_inverse
from associahedra.minkowski import ones_weights
from associahedra.sampling import perturbed_support_values, random_weights

from oracles import (
    Cone,
    Fan,
    by_diagonal,
    cluster_fan,
    cone_vertices,
    lane_pass_vertices,
    loday_vertex,
    make_fan,
    reference_wall_relations,
    reference_wall_slacks,
)


def loday_fan(n):
    rays = {(lo, hi): tuple(-int(lo < k < hi) for k in range(1, n + 2))
            for lo, hi in polygon.all_diagonals(n)}
    return make_fan(rays, n)


def loday_support_values(a, n):
    shift = Fraction(sum(a.values()), n + 1)
    return {
        (lo, hi): -sum(v for (i, j), v in a.items() if lo < i and j < hi) + (hi - lo - 1) * shift
        for lo, hi in polygon.all_diagonals(n)
    }, shift


def _outcome(vertices, *args):
    """The vertices as Fraction rows, or the AssertionError's text."""
    try:
        rows, scale = vertices(*args)
    except AssertionError as exc:
        return str(exc)
    return [tuple(Fraction(v, scale) for v in row) for row in rows]


def _cluster_outcomes(h, n):
    """The lane pass's outcome on the cluster's closed-form vertices
    (`oracles.lane_pass_vertices`), and the per-cone solve's on the
    cluster fan (`oracles.cone_vertices`).  The build's vertices
    (`cluster.tight_vertices`) are the lane pass's, or its wall check
    fails exactly where the lane pass does."""
    got = _outcome(lane_pass_vertices, h, n)
    try:
        built = _outcome(cluster.tight_vertices, h, n)
    except ValueError:
        built = None
    assert built == (None if isinstance(got, str) else got)
    return got, _outcome(cone_vertices, cluster_fan(n), by_diagonal(h, n))


def _jittered(h, rng, size):
    """h with every value moved by a seeded multiple of 1/7 below `size`."""
    return {d: v + Fraction(rng.randint(-7 * size, 7 * size), 7) for d, v in h.items()}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tight_vertices_match_the_scalar_reference(n):
    # the cluster's closed-form vertices and lane pass, and the build's
    # wall check, against the fan's per-cone solve and scalar checks: the
    # default and a seeded draw, then jitters that break convexity at some
    # cones, often several, and leave it at others
    rng = random.Random(60 + n)
    outcomes = []
    for h in (cluster.default_support_values(n), perturbed_support_values(n, rng)):
        for size in (0, 0, 1, 1, 3, 3, 10, 10):
            g = _jittered(h, rng, size) if size else h
            got, want = _cluster_outcomes(g, n)
            assert got == want
            outcomes.append(isinstance(got, str))
    assert any(outcomes) and not all(outcomes)


def test_tight_vertices_name_the_first_failing_cone_and_ray():
    # raised far enough, one support value pushes the vertices of the
    # clusters holding its ray past other rays' inequalities; the first
    # such cluster is not the first one, and the ray named is not the one
    # raised
    h = cluster.default_support_values(3)
    h[cluster.diagonal_to_root((1, 3), 3)] += 100
    got, want = _cluster_outcomes(h, 3)
    assert want == "vertex of ((0, 3), (0, 4), (1, 3)) violates inequality of (1, 4)"
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_minkowski_is_a_fan_instance(n):
    fan = loday_fan(n)
    assert not fan.problems
    rng = random.Random(n)
    for a in [ones_weights(n)] + [random_weights(n, rng) for _ in range(3)]:
        # each vertex meets every other ray's inequality strictly, so h is
        # strictly convex across every wall
        h, shift = loday_support_values(a, n)
        rows, scale = cone_vertices(fan, h)
        for x, t in zip(rows, polygon.all_triangulations(n)):
            assert tuple(Fraction(v, scale) + shift for v in x) == loday_vertex(a, t, n)


def test_tight_vertices_reject_a_tie():
    h = cluster.default_support_values(2)
    # flat across the first wall: the vertices of its two cones coincide
    beta = reference_wall_relations(2)[0][0]
    h[beta] -= reference_wall_slacks(h, 2)[0]
    assert reference_wall_slacks(h, 2)[0] == 0
    got, want = _cluster_outcomes(h, 2)
    assert got == want and "violates inequality" in got


def test_make_fan_reports_a_double_cover():
    # the pentagon's five cones in flip order take rays 144 degrees apart:
    # every wall separates, yet the cones wind twice around the origin
    plane = {(0, 2): (10, 0), (0, 3): (-8, 6), (1, 3): (3, -10), (1, 4): (3, 10), (2, 4): (-8, -6)}
    fan = make_fan({d: (x, y, 0) for d, (x, y) in plane.items()}, 2)
    assert [p[:2] for p in fan.problems] == [("point_covered_by", 2)]
    assert len(fan.walls) == 5


def test_make_fan_reports_a_wall_that_does_not_separate():
    # n = 1: both rays on one side of the origin
    fan = make_fan({(0, 2): (1, 0), (1, 3): (2, 0)}, 1)
    assert ("wall_not_separating", ()) in fan.problems and not fan.walls


def inverts(cone, rays):
    """Whether the cone's inverse over its denominator inverts the matrix
    of its rays plus the all-ones row."""
    rows = [rays[d] for d in cone.diagonals] + [(1,) * len(rays[cone.diagonals[0]])]
    k = len(rows)
    return all(
        sum(rows[i][r] * cone.inverse[r][j] for r in range(k)) == cone.denominator * (i == j)
        for i in range(k)
        for j in range(k)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_every_cone_is_a_fresh_inverse(n):
    ts = polygon.all_triangulations(n)
    for fan in (loday_fan(n), cluster_fan(n)):
        assert [cone.diagonals for cone in fan.cones] == list(ts)
        assert all(inverts(cone, fan.rays) for cone in fan.cones)


def test_cones_off_a_fan_are_fresh_inverses():
    # a double cover, a wall that does not separate and dependent cones:
    # every cone with independent rays is inverted, the others are None
    plane = {(0, 2): (10, 0), (0, 3): (-8, 6), (1, 3): (3, -10), (1, 4): (3, 10), (2, 4): (-8, -6)}
    # (0, 3) makes cone 0 dependent; (2, 4) makes cone 1 dependent
    dependent = []
    for d in ((0, 3), (2, 4)):
        rays = dict(cluster_fan(2).rays)
        rays[d] = tuple(2 * x for x in rays[(0, 2)])
        dependent.append((rays, 2))
    cases = dependent + [
        ({d: (x, y, 0) for d, (x, y) in plane.items()}, 2),
        ({(0, 2): (1, 0), (1, 3): (2, 0)}, 1),
    ]
    for rays, n in cases:
        fan = make_fan(rays, n)
        assert all(cone is None or inverts(cone, rays) for cone in fan.cones)
    assert [make_fan(*case).cones.index(None) for case in dependent] == [0, 1]


def reference_make_fan(rays, triangulations):
    """The walk from before `make_fan` read its walls off a table, with a
    fresh inverse per cone: each wall slices and hashes its ridge, finds
    beta' by set difference and its position by `index`, and takes a dense
    product with the inverse's columns."""

    def coefficients(cone, v):
        return [sum(map(mul, v, col)) for col in zip(*cone.inverse)]

    ones = (1,) * len(next(iter(rays.values())))
    containing = {}
    for i, t in enumerate(triangulations):
        for k in range(len(t)):
            containing.setdefault(t[:k] + t[k + 1 :], []).append(i)
    cones, dependent, problems, walls = [], [], [], []
    for t in triangulations:
        try:
            cones.append(Cone(t, *integer_inverse([rays[d] for d in t] + [ones])))
        except ValueError:
            cones.append(None)
            dependent.append(("dependent_cone", t))
    for i, t in enumerate(triangulations):
        for k, beta in enumerate(t):
            ridge = t[:k] + t[k + 1 :]
            members = containing[ridge]
            if len(members) != 2:
                if members[0] == i:
                    problems.append(("ridge_in_cones", len(members), ridge))
                continue
            j = sum(members) - i
            if j < i or cones[i] is None:
                continue
            (beta_p,) = set(triangulations[j]) - set(ridge)
            if coefficients(cones[i], rays[beta_p])[k] >= 0:
                problems.append(("wall_not_separating", ridge))
                continue
            walls.append((i, j))
    point = tuple(map(sum, zip(*(rays[d] for d in triangulations[0]))))
    covering = sum(
        all(y >= 0 for y in coefficients(cone, point)[:-1]) for cone in cones if cone is not None
    )
    if covering != 1:
        problems.append(("point_covered_by", covering, point))
    return Fan(rays, tuple(cones), tuple(walls), tuple(dependent + problems))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_make_fan_matches_the_reference_walk(n):
    # cones, walls and problems, in order
    ts = polygon.all_triangulations(n)
    for fan in (cluster_fan(n), loday_fan(n)):
        assert fan == reference_make_fan(fan.rays, ts)


def test_make_fan_matches_the_reference_walk_off_a_fan():
    # every problem kind make_fan reports, in walk order; a ridge in other
    # than two cones is `flip_table`'s to refuse (test_cluster)
    rays = dict(cluster_fan(3).rays)
    rays[(1, 4)] = tuple(-x for x in rays[(1, 4)])
    dependent = dict(rays)
    dependent[(0, 3)] = tuple(2 * x for x in rays[(0, 2)])
    kinds = set()
    for case in (rays, dependent):
        fan = make_fan(case, 3)
        assert fan == reference_make_fan(case, polygon.all_triangulations(3))
        kinds |= {p[0] for p in fan.problems}
    assert kinds == {"dependent_cone", "wall_not_separating", "point_covered_by"}
