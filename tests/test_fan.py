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

from associahedra import cluster, exactlin, polygon
from associahedra.exactlin import exchange_inverse, integer_inverse
from associahedra.fan import Cone, Fan, _scaled, make_fan, tight_vertices, wall_slacks
from associahedra.minkowski import loday_vertex, ones_weights
from associahedra.sampling import random_weights


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
    fan = make_fan({d: (x, y, 0) for d, (x, y) in plane.items()}, 2)
    assert [p[:2] for p in fan.problems] == [("point_covered_by", 2)]
    assert len(fan.walls) == 5


def test_make_fan_reports_a_wall_that_does_not_separate():
    # n = 1: both rays on one side of the origin
    fan = make_fan({(0, 2): (1, 0), (1, 3): (2, 0)}, 1)
    assert ("wall_not_separating", ()) in fan.problems and not fan.walls


def fresh_cones(fan, triangulations):
    """Each cone's `integer_inverse`, None where its rays are dependent."""
    ones = (1,) * len(next(iter(fan.rays.values())))
    cones = []
    for t in triangulations:
        try:
            cones.append(Cone(t, *integer_inverse([fan.rays[d] for d in t] + [ones])))
        except ValueError:
            cones.append(None)
    return tuple(cones)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_every_cone_is_a_fresh_inverse(n):
    ts = polygon.all_triangulations(n)
    for fan in (loday_fan(n), cluster._fan(n)):
        assert fan.cones == fresh_cones(fan, ts)


def test_cones_off_a_fan_are_fresh_inverses():
    # a double cover, a wall that does not separate and dependent cones:
    # the pivots still give every fresh inverse
    plane = {(0, 2): (10, 0), (0, 3): (-8, 6), (1, 3): (3, -10), (1, 4): (3, 10), (2, 4): (-8, -6)}
    # (0, 3) makes cone 0 dependent, which is eliminated; (2, 4) makes
    # cone 1 dependent, which is a zero pivot from cone 0
    dependent = []
    for d in ((0, 3), (2, 4)):
        rays = dict(cluster._fan(2).rays)
        rays[d] = tuple(2 * x for x in rays[(0, 2)])
        dependent.append((rays, 2))
    cases = dependent + [
        ({d: (x, y, 0) for d, (x, y) in plane.items()}, 2),
        ({(0, 2): (1, 0), (1, 3): (2, 0)}, 1),
    ]
    for rays, n in cases:
        fan = make_fan(rays, n)
        assert fan.cones == fresh_cones(fan, polygon.all_triangulations(n))
    assert [make_fan(*case).cones.index(None) for case in dependent] == [0, 1]


def test_make_fan_eliminates_once(monkeypatch):
    # cone 0 is eliminated; every later cluster cone at n = 6 has an earlier
    # flip and is one pivot from it
    calls = []
    eliminate = exactlin._eliminate
    monkeypatch.setattr(exactlin, "_eliminate", lambda m: calls.append(1) or eliminate(m))
    fan = make_fan(cluster._fan(6).rays, 6)
    assert len(calls) == 1 and not fan.problems


def reference_make_fan(rays, triangulations):
    """The walk from before `make_fan` read its walls off a table, kept
    verbatim: each wall slices and hashes its ridge, finds beta' by set
    difference and its position by `index`, and takes a dense product with
    the inverse's columns."""

    def coefficients(cone, v):
        return [sum(map(mul, v, col)) for col in zip(*cone.inverse)]

    ones = (1,) * len(next(iter(rays.values())))
    containing = {}
    for i, t in enumerate(triangulations):
        for k in range(len(t)):
            containing.setdefault(t[:k] + t[k + 1 :], []).append(i)
    cones, dependent, problems = {}, [], []
    walls, relations = [], []
    for i, t in enumerate(triangulations):
        if i not in cones:
            try:
                cones[i] = Cone(t, *integer_inverse([rays[d] for d in t] + [ones]))
            except ValueError:
                cones[i] = None
        if cones[i] is None:
            dependent.append(("dependent_cone", t))
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
            y = coefficients(cones[i], rays[beta_p])
            if j not in cones:
                inverse = exchange_inverse(
                    cones[i].inverse, cones[i].denominator, k, y, triangulations[j].index(beta_p)
                )
                cones[j] = inverse and Cone(triangulations[j], *inverse)
            if y[k] >= 0:
                problems.append(("wall_not_separating", ridge))
                continue
            walls.append((i, j))
            shared = tuple(zip(ridge, y[:k] + y[k + 1 : -1]))
            relations.append((beta, beta_p, -y[k], cones[i].denominator, shared))
    cones = tuple(cones[i] for i in range(len(triangulations)))
    point = tuple(map(sum, zip(*(rays[d] for d in triangulations[0]))))
    covering = sum(
        all(y >= 0 for y in coefficients(cone, point)[:-1]) for cone in cones if cone is not None
    )
    if covering != 1:
        problems.append(("point_covered_by", covering, point))
    return Fan(rays, cones, tuple(walls), tuple(relations), tuple(dependent + problems))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_make_fan_matches_the_reference_walk(n):
    # cones, walls, relations and problems, in order
    ts = polygon.all_triangulations(n)
    for fan in (cluster._fan(n), loday_fan(n)):
        assert fan == reference_make_fan(fan.rays, ts)


def test_make_fan_matches_the_reference_walk_off_a_fan():
    # every problem kind make_fan reports, in walk order; a ridge in other
    # than two cones is `flip_table`'s to refuse (test_cluster)
    rays = dict(cluster._fan(3).rays)
    rays[(1, 4)] = tuple(-x for x in rays[(1, 4)])
    dependent = dict(rays)
    dependent[(0, 3)] = tuple(2 * x for x in rays[(0, 2)])
    kinds = set()
    for case in (rays, dependent):
        fan = make_fan(case, 3)
        assert fan == reference_make_fan(case, polygon.all_triangulations(3))
        kinds |= {p[0] for p in fan.problems}
    assert kinds == {"dependent_cone", "wall_not_separating", "point_covered_by"}
