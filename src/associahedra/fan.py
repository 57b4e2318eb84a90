"""Complete simplicial fans with one ray per diagonal of the (n+3)-gon.

Rays are int rows in (n+1)-space read modulo the all-ones vector; the
cones are the triangulations and the walls their flips.  `make_fan` builds
the walls with their integer relations, each cone's integer inverse (one
pivot across a wall from an earlier cone's) and the exact fan certificate
in one walk over `polygon.flip_table(n)`, whose one ridge incidence pass
per n proves that every ridge lies in exactly two cones, so no wall hashes
a ridge.  A ray's coefficients in a cone are the sum of the inverse's rows
at the ray's few nonzero entries, and the covering check (c) stops at a
cone's first negative coefficient.  Support values h, one per
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
from itertools import islice
from math import lcm
from operator import add, mul
from typing import NamedTuple

from . import polygon
from .exactlin import exchange_inverse, integer_inverse, integer_scaling, lane_failures


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


def _coefficients(inverse, terms):
    """d times the coefficients of a ray in a cone's rays, then the all-ones
    row: the sum of c times the inverse's row r over the ray's nonzero
    entries (r, c), `terms`."""
    y = [0] * len(inverse)
    for r, c in terms:
        y = list(map(add, y, map(c.__mul__, inverse[r])))
    return y


def make_fan(rays, n):
    """The fan on `rays` whose cones are the triangulations of the
    (n+3)-gon, `polygon.all_triangulations(n)`.

    Walls come from `polygon.flip_table(n)` in flip order: each
    triangulation i in turn, its diagonals in order, a wall kept where the
    flip j across position k comes later; beta' is the diagonal of cone j
    at the position `at` where j flips back to i, and the ridge is cone i
    less its position k.  The relation of a wall exchanging beta in the
    earlier cone for beta' is a*beta + b*beta' = sum c_g*g over the
    shared diagonals g, modulo the all-ones vector, in ints with a, b > 0.
    Its coefficients y, beta' in the earlier cone's inverse, are the sum of
    the inverse's rows at beta''s nonzero entries (two for a cluster ray,
    `_coefficients`).  They are also the one pivot that inverts the later
    cone (`exactlin.exchange_inverse`): each cone's inverse comes from the
    first earlier cone across a wall that has one, and only a cone with
    none, cone 0 among them, is eliminated (`integer_inverse`).

    The certificate (De Loera-Rambau-Santos, Triangulations, section 4.5):
    (a) the rays of each cone are independent modulo all-ones, (b) every
    ridge lies in exactly two cones, whose exchanged rays lie on opposite
    sides of it, and (c) the sum of the rays of the first cone lies in
    exactly one closed cone, each cone tested up to its first negative
    coefficient.  The combinatorial half of (b) is `flip_table`'s, which
    raises AssertionError unless it holds, once per n; the opposite sides
    are checked here.  (b) makes the cones a pseudomanifold without
    boundary, so the number of cones covering a point off the walls is the
    same everywhere, and (c) makes that number 1.
    """
    triangulations, flips = polygon.all_triangulations(n), polygon.flip_table(n)
    ones = (1,) * len(next(iter(rays.values())))
    terms = {d: [(r, c) for r, c in enumerate(ray) if c] for d, ray in rays.items()}
    cones, dependent, problems = {}, [], []  # cone index -> Cone, None where dependent
    walls, relations = [], []
    for i, t in enumerate(triangulations):
        if i not in cones:
            try:
                cones[i] = Cone(t, *integer_inverse([rays[d] for d in t] + [ones]))
            except ValueError:
                cones[i] = None
        if cones[i] is None:
            dependent.append(("dependent_cone", t))
            continue
        inverse, denominator = cones[i].inverse, cones[i].denominator
        for k, j in enumerate(flips[i]):
            if j < i:
                continue
            at = flips[j].index(i)
            beta_p = triangulations[j][at]
            y = _coefficients(inverse, terms[beta_p])
            if j not in cones:
                inverse_j = exchange_inverse(inverse, denominator, k, y, at)
                cones[j] = inverse_j and Cone(triangulations[j], *inverse_j)
            a = -y.pop(k)
            ridge = t[:k] + t[k + 1 :]
            if a <= 0:
                problems.append(("wall_not_separating", ridge))
                continue
            walls.append((i, j))
            # y less its entry k: the shared diagonals' coefficients, then all-ones'
            relations.append((t[k], beta_p, a, denominator, tuple(zip(ridge, y))))
    cones = tuple(cones[i] for i in range(len(triangulations)))
    point = tuple(map(sum, zip(*(rays[d] for d in triangulations[0]))))
    # the point's coefficients in a cone's rays, column by column of its
    # inverse up to the first negative one
    covering = sum(
        all(sum(map(mul, point, col)) >= 0 for col in islice(zip(*cone.inverse), len(point) - 1))
        for cone in cones
        if cone is not None
    )
    if covering != 1:
        problems.append(("point_covered_by", covering, point))
    return Fan(rays, cones, tuple(walls), tuple(relations), tuple(dependent + problems))


def _scaled(h):
    """h times the lcm of its denominators, as ints, and that lcm."""
    (row,), scale = integer_scaling([h.values()])
    return dict(zip(h, row)), scale


def wall_numerators(fan, h):
    """(numerators, scale): the slack of wall i (`wall_slacks`) is
    numerators[i] / (a_i scale), with a_i > 0 its relation's coefficient of
    beta and scale > 0 the lcm of h's denominators, so its sign is the
    int's."""
    hs, scale = _scaled(h)
    return [
        a * hs[beta] + b * hs[beta_p] - sum(c * hs[g] for g, c in cs)
        for beta, beta_p, a, b, cs in fan.relations
    ], scale


def wall_slacks(fan, h):
    """h(beta) + (b/a)*h(beta') - sum (c_g/a)*h(g) per wall, in wall order,
    computed on h scaled to ints: all positive iff h is strictly convex
    across every wall."""
    numerators, scale = wall_numerators(fan, h)
    return [Fraction(x, a * scale) for x, (_, _, a, *_) in zip(numerators, fan.relations)]


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
