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
are tight.  `wall_slacks` evaluates each wall's relation on h; it is
positive at every wall iff every cone's vertex meets every other ray's
inequality strictly, the lane pass by which `cluster.tight_vertices`
certifies the cluster polytope's vertices and facets, which it reads in
closed form with no fan.
"""

from fractions import Fraction
from itertools import islice
from operator import add, mul
from typing import NamedTuple

from . import polygon
from .exactlin import exchange_inverse, integer_inverse, integer_scaling


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


def wall_slacks(fan, h):
    """h(beta) + (b/a) h(beta') - sum (c_g/a) h(g) per wall, in wall order,
    as Fractions, each relation evaluated on h scaled to ints: all positive
    iff h is strictly convex across every wall.

    Let the wall exchange beta in cone i for beta' in cone j, with relation
    a beta + b beta' = sum c_g g + c 1 (a, b > 0), and x_i cone i's vertex:
    beta . x_i = h(beta), g . x_i = h(g) on the ridge's diagonals g and
    1 . x_i = 0.  Applied to x_i the relation makes the slack
    (b/a) (h(beta') - beta' . x_i), a positive multiple of the slack of
    beta''s inequality at cone i's vertex, one slack of a lane pass over
    the vertices (`cluster.tight_vertices`), so that pass passes only if
    every wall is strict.  Conversely a function on a complete fan, linear
    on each cone and strictly convex across every wall, is strictly convex
    on the whole space (the local-to-global step of De Loera-Rambau-Santos,
    Triangulations): each cone's vertex then meets every other ray's
    inequality strictly, and the lane pass passes.
    """
    hs, scale = _scaled(h)
    return [
        Fraction(a * hs[beta] + b * hs[beta_p] - sum(c * hs[g] for g, c in cs), a * scale)
        for beta, beta_p, a, b, cs in fan.relations
    ]
