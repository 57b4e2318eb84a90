"""Complete simplicial fans with one ray per diagonal of the (n+3)-gon.

Rays are int rows in (n+1)-space read modulo the all-ones vector; the
cones are the triangulations and the walls their flips.  `make_fan` builds
each cone's integer inverse, the walls with their integer relations and
the exact fan certificate in one pass.  Support values h, one per
diagonal, that are strictly convex across every wall give the polytope
with this normal fan: the vertex of a triangulation is the point of the
sum-zero hyperplane where the inequalities <ray, x> <= h of its diagonals
are tight.  `tight_vertices` certifies that every other ray's inequality
holds strictly there with the lane certificate (`exactlin.lane_failures`):
at a vertex, all the rays' slacks sit in the W-bit lanes of one Python int,
W one bit over the bound |ray|_1 max|x| + |h| + 1, so a negative slack
borrows into its own lane's top bit and two masks read the verdict.
"""

from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from .exactlin import integer_inverse, integer_scaling, lane_failures


class Cone(NamedTuple):
    """A triangulation's diagonals; `inverse / denominator` inverts the
    matrix of their rays plus the all-ones row."""

    diagonals: tuple
    inverse: tuple
    denominator: int


class Fan(NamedTuple):
    rays: dict  # diagonal -> int row
    cones: tuple  # one Cone per triangulation, None where its rays are dependent
    walls: tuple  # (i, j) cone index pairs, i < j
    relations: tuple  # one (beta, beta', a, b, ((g, c_g), ...)) per wall
    problems: tuple  # what fails the certificate; empty iff it holds


def _coefficients(cone, v):
    """d times the coefficients of v in the cone's rays, then the all-ones row."""
    return [sum(map(mul, v, col)) for col in zip(*cone.inverse)]


def make_fan(rays, triangulations):
    """The fan of `triangulations` (sorted tuples of diagonals) on `rays`.

    Walls come from ridge incidence in flip order: each triangulation in
    turn, its diagonals in order, a wall kept where the other cone comes
    later.  The relation of a wall exchanging beta in the earlier cone for
    beta' is a*beta + b*beta' = sum c_g*g over the shared diagonals g,
    modulo the all-ones vector, in ints with a, b > 0.

    The certificate (De Loera-Rambau-Santos, Triangulations, section 4.5):
    (a) the rays of each cone are independent modulo all-ones, (b) every
    ridge lies in exactly two cones, whose exchanged rays lie on opposite
    sides of it, and (c) the sum of the rays of the first cone lies in
    exactly one closed cone.  (b) makes the cones a pseudomanifold without
    boundary, so the number of cones covering a point off the walls is the
    same everywhere, and (c) makes that number 1.
    """
    ones = (1,) * len(next(iter(rays.values())))
    cones, problems, containing = [], [], {}
    for i, t in enumerate(triangulations):
        try:
            cones.append(Cone(t, *integer_inverse([rays[d] for d in t] + [ones])))
        except ValueError:
            cones.append(None)
            problems.append(("dependent_cone", t))
        for k in range(len(t)):
            containing.setdefault(t[:k] + t[k + 1 :], []).append(i)
    walls, relations = [], []
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
            y = _coefficients(cones[i], rays[beta_p])
            if y[k] >= 0:
                problems.append(("wall_not_separating", ridge))
                continue
            walls.append((i, j))
            shared = tuple(zip(ridge, y[:k] + y[k + 1 : -1]))
            relations.append((beta, beta_p, -y[k], cones[i].denominator, shared))
    point = tuple(map(sum, zip(*(rays[d] for d in triangulations[0]))))
    covering = sum(
        all(y >= 0 for y in _coefficients(cone, point)[:-1]) for cone in cones if cone is not None
    )
    if covering != 1:
        problems.append(("point_covered_by", covering, point))
    return Fan(rays, tuple(cones), tuple(walls), tuple(relations), tuple(problems))


def _scaled(h):
    """h times the lcm of its denominators, as ints, and that lcm."""
    (row,), scale = integer_scaling([h.values()])
    return dict(zip(h, row)), scale


def wall_slacks(fan, h):
    """h(beta) + (b/a)*h(beta') - sum (c_g/a)*h(g) per wall, in wall order,
    computed on h scaled to ints: all positive iff h is strictly convex
    across every wall."""
    hs, scale = _scaled(h)
    return [
        Fraction(a * hs[beta] + b * hs[beta_p] - sum(c * hs[g] for g, c in cs), a * scale)
        for beta, beta_p, a, b, cs in fan.relations
    ]


def tight_vertices(fan, h):
    """(rows, scale): the vertex of each cone, in cone order, is its int
    row over the one positive scale.

    Each is one integer matrix-vector product on h scaled to ints, scaled
    to the common denominator of the cones.  Every other ray's inequality
    must hold strictly there, ray . x < scale h(ray) on the rows: one
    `exactlin.lane_failures` over all rows, with functional
    scale h(ray) - ray . x per ray, tight on the cone's own rays.  It packs
    the rays' slacks at a row into lanes of one Python int, each W bits
    with W one more than the bit length of max(|ray|_1 max|x| + |h| + 1),
    and a negative slack borrows into its own lane's top bit, so a row is
    one packed product per coordinate and two masks.  A tie or violation
    means h is not strictly convex; the first failing cone and, in ray
    order, its first failing ray are named.
    """
    if fan.problems:
        raise ValueError(f"not a complete simplicial fan: {fan.problems[:3]}")
    hs, scale = _scaled(h)
    common = lcm(*(cone.denominator for cone in fan.cones))
    rows = []
    for cone in fan.cones:
        rhs = [hs[d] for d in cone.diagonals] + [0]
        factor = common // cone.denominator
        rows.append(tuple(factor * sum(map(mul, row, rhs)) for row in cone.inverse))
    rays = list(fan.rays)
    index = {d: f for f, d in enumerate(rays)}
    functionals = [(tuple(-a for a in ray), -common * hs[d]) for d, ray in fan.rays.items()]
    tight = [[index[d] for d in cone.diagonals] for cone in fan.cones]
    failures = lane_failures(functionals, rows, tight)
    if failures:
        i, (f, *_) = failures[0]
        raise AssertionError(
            f"vertex of {fan.cones[i].diagonals} violates inequality of {rays[f]}"
        )
    return rows, common * scale
