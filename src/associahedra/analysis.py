"""Construction-agnostic polytope analysis.

Facets are located combinatorially (the vertices whose triangulation label
contains a given diagonal) and then certified geometrically: a facet normal
is solved inside the affine hull through n affinely independent members,
and one integer evaluation per vertex shows that every member lies on its
hyperplane and every other vertex strictly on one side.  The solve and the
evaluations run on the vertices scaled to integers once per polytope.
Each polytope object certifies its facets once, on first use, and keeps
them; the manifest checks, the search and the CLI that ask again read them.
Parallelism of facets is equality of their direction subspaces, compared
in canonical form.

Each polytope's affine hull is eliminated once, when it is made: its `Hull`
record holds the integer vertex rows and their common scale, the first n+1
affinely independent vertices and the canonical (reduced echelon) basis of
the direction space.  On the hull the entries at the basis' pivot columns
are an affine chart, so the equivalence search keeps, per polytope, each
vertex's integer pivot entries and its affine weights on the independent
vertices over one denominator.  Each of the 2(n+3) dihedral relabelings
is then an integer check per vertex that stops at the first mismatch; only
a hit is lifted to a Fraction ambient map, checked again on every vertex.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

from . import exactlin, polygon
from .exactlin import (
    ONE,
    Subspace,
    affine_frame,
    affinely_independent,
    dot,
    integer_inverse,
    integer_normal,
    integer_scaling,
    invert,
    make_hyperplane,
    mat_vec,
    primitive_rows,
    # unused here, but perfbench's tracer test checks that this by-name
    # binding gets patched
    solve_linear,  # noqa: F401
    span,
    transpose,
    vadd,
    vsub,
)


class CertificationError(Exception):
    """A combinatorially located facet failed its geometric certificate."""


class Hull(NamedTuple):
    """A polytope's affine hull, eliminated once by `make_polytope`."""

    rows: tuple  # the vertices scaled to ints by one positive factor
    scale: int  # that factor
    independent: tuple  # indices of the first n+1 affinely independent vertices
    space: Subspace  # the direction space, in canonical form


@dataclass(frozen=True)
class LabeledPolytope:
    construction: str
    n: int
    ambient_dim: int
    vertices: tuple  # of (coords, triangulation) pairs, sorted by label
    params: dict = field(default_factory=dict, compare=False)
    hull: Hull = field(compare=False, repr=False, kw_only=True)

    @cached_property
    def certified_facets(self):
        """The facets, certified on first use and kept on this object (not
        a field: equality, repr and files do not see it).  A failed
        certificate is not kept, so it raises again on the next use."""
        return tuple(_certify_facets(self))


def make_polytope(construction, n, ambient_dim, pairs, params=None):
    """Validate and freeze a vertex-labeled polytope.

    Labels must be exactly the triangulations of the (n+3)-gon, coordinates
    must be pairwise distinct, and the affine hull must have dimension n.
    The hull's elimination (`affine_frame` on the integer vertex rows) is
    kept as the polytope's `Hull` record for the facets and the search.
    """
    pairs = sorted(pairs, key=lambda p: p[1])
    labels = [label for _, label in pairs]
    if labels != sorted(polygon.all_triangulations(n)):
        raise ValueError("labels are not exactly the triangulations")
    rows, scale = integer_scaling([c for c, _ in pairs])
    # one positive scale for all rows: distinct rows are distinct vertices
    if len(set(rows)) != len(rows):
        raise ValueError("vertex coordinates are not distinct")
    independent, space = affine_frame(rows)
    if space.dim != n:
        raise ValueError(f"affine hull has dimension {space.dim}, expected {n}")
    return LabeledPolytope(
        construction=construction,
        n=n,
        ambient_dim=ambient_dim,
        vertices=tuple(pairs),
        params=dict(params or {}),
        hull=Hull(tuple(rows), scale, tuple(independent), space),
    )


@dataclass(frozen=True)
class FacetDescriptor:
    diagonal: tuple
    vertex_indices: frozenset
    hyperplane: object
    direction: Subspace


def extract_facets(p):
    """One certified facet per diagonal of the (n+3)-gon, as a new list.

    A polytope's facets are certified once, on the first call for that
    polytope object, and kept on it (`LabeledPolytope.certified_facets`);
    later calls copy them.  See `_certify_facets` for the certificate.
    """
    return list(p.certified_facets)


def _certify_facets(p):
    """The facets of `extract_facets`, certified.

    The facet's members are the vertices whose label carries the diagonal.
    Its normal is solved (`integer_normal`) inside the hull's direction
    space, whose basis is made primitive once per polytope, through the
    integer rows of n affinely independent members, and its direction is
    the span of their n-1 differences.  The certificate is one integer dot
    product of that normal per vertex row: 0 on every member and one strict
    sign on every other vertex.  Only then is the Fraction hyperplane made.
    Certification failure means the construction is broken, not the
    analysis, and raises CertificationError naming the diagonal.
    """
    rows = p.hull.rows
    basis = primitive_rows(p.hull.space.basis)
    carriers = {d: [] for d in polygon.all_diagonals(p.n)}
    for i, (_, label) in enumerate(p.vertices):
        for d in label:
            carriers[d].append(i)
    facets = []
    for d, ordered in carriers.items():
        if not ordered:
            raise CertificationError(f"diagonal {d}: no vertices carry it")
        members = frozenset(ordered)
        spanning = [ordered[k] for k in affinely_independent([rows[i] for i in ordered], p.n)]
        # None unless they span a codim-1 flat of the hull: fewer than n do not
        normal = integer_normal([rows[i] for i in spanning], basis)
        if normal is None:
            raise CertificationError(f"diagonal {d}: vertices do not span a codim-1 flat")
        base = rows[spanning[0]]
        offset = sum(map(mul, normal, base))
        values = [sum(map(mul, normal, x)) - offset for x in rows]
        if any(values[i] != 0 for i in members):
            raise CertificationError(f"diagonal {d}: member off its hyperplane")
        outside = [v for i, v in enumerate(values) if i not in members]
        if not (all(v > 0 for v in outside) or all(v < 0 for v in outside)):
            raise CertificationError(f"diagonal {d}: hyperplane is not supporting")
        # n affinely independent members: n-1 independent differences
        direction = span([vsub(rows[i], base) for i in spanning[1:]], p.ambient_dim)
        facets.append(
            FacetDescriptor(
                diagonal=d,
                vertex_indices=members,
                hyperplane=make_hyperplane(normal, Fraction(offset, p.hull.scale)),
                direction=direction,
            )
        )
    return facets


def parallel_pairs(facets):
    """Unordered pairs of distinct diagonals with equal direction subspaces."""
    pairs = []
    for i in range(len(facets)):
        for j in range(i + 1, len(facets)):
            if facets[i].direction == facets[j].direction:
                pairs.append((facets[i].diagonal, facets[j].diagonal))
    return sorted(pairs)


def facets_intersect(f1, f2):
    """True iff the facets share a vertex; cross-checked against non-crossing."""
    geometric = bool(f1.vertex_indices & f2.vertex_indices)
    combinatorial = not polygon.crossing(f1.diagonal, f2.diagonal)
    if geometric != combinatorial:
        raise CertificationError(
            f"intersection criteria disagree for {f1.diagonal} vs {f2.diagonal}"
        )
    return geometric


def special_profile(facets):
    """For each special facet, how many other special facets it intersects.

    A facet is special when it belongs to some parallel pair.
    """
    pairs = parallel_pairs(facets)
    special = sorted({d for pair in pairs for d in pair})
    by_diag = {f.diagonal: f for f in facets}
    profile = {}
    for d in special:
        profile[d] = sum(
            1 for e in special if e != d and facets_intersect(by_diag[d], by_diag[e])
        )
    return profile


def dihedral_relabelings(n):
    """The 2(n+3) rotations and reflections of the polygon labels."""
    size = n + 3
    maps = []
    for k in range(size):
        maps.append(tuple((l + k) % size for l in range(size)))
    for k in range(size):
        maps.append(tuple((k - l) % size for l in range(size)))
    return maps


def relabel_diagonal(perm, d):
    a, b = perm[d[0]], perm[d[1]]
    return (a, b) if a < b else (b, a)


def relabel_triangulation(perm, t):
    return tuple(sorted(relabel_diagonal(perm, d) for d in t))


class HullChart:
    """What affine-map fitting needs of one polytope, built once per search.

    Its rows and weights are ints read off the hull record.  `rows` holds
    each vertex's record row at the basis' pivot columns (on the hull these
    chart it affinely), `labels` the vertex labels and `index` their vertex
    indices, and `independent` the record's n+1 independent vertex indices.
    `weights[v]` are vertex v's affine weights on those n+1 vertices over
    one denominator d > 0, from one `integer_inverse` of their rows
    augmented by 1: sum_k weights[v][k] * (rows[independent[k]], 1) equals
    d * (rows[v], 1).
    """

    def __init__(self, p):
        self.polytope = p
        self.pivots = [next(k for k, a in enumerate(b) if a) for b in p.hull.space.basis]
        self.rows = [tuple(r[k] for k in self.pivots) for r in p.hull.rows]
        self.labels = [label for _, label in p.vertices]
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.independent = p.hull.independent
        inverse, self.d = integer_inverse([self.rows[i] + (1,) for i in self.independent])
        columns = transpose(inverse)
        self.weights = [
            tuple(sum(map(mul, row + (1,), col)) for col in columns) for row in self.rows
        ]


def _product(a, b):
    bt = transpose(b)
    return tuple(mat_vec(bt, row) for row in a)


def fit_affine_map(src, dst, perm):
    """Affine map sending each src vertex to the dst vertex whose label is
    its own relabelled by the dihedral `perm`; None if there is none.

    `src` and `dst` are the HullCharts of the two polytopes, built once per
    search; only `perm` changes between calls, and only the labels read are
    relabelled.  The map is fixed by src's independent vertices, so it
    exists iff each src vertex's weights, applied to the dst rows of those
    vertices' images, give the dst row of its own image: d * y(v) equals
    sum_k weights[v][k] * y(image of independent k), all in ints (the
    weights are affine, so translations and the two scales cancel).  The
    check stops at the first vertex that fails; only a hit is lifted.
    """
    def image(i):
        return dst.index[relabel_triangulation(perm, src.labels[i])]

    images = [image(i) for i in src.independent]
    columns = list(zip(*(dst.rows[j] for j in images)))
    targets = []
    for v, weights in enumerate(src.weights):
        targets.append(image(v))
        y = dst.rows[targets[-1]]
        if any(sum(map(mul, weights, col)) != src.d * a for col, a in zip(columns, y)):
            return None
    return _lift(src, dst, images, targets)


def _lift(src, dst, images, targets):
    """A hit of `fit_affine_map` as an ambient map, checked on every vertex.

    In chart coordinates (pivot entries minus those of vertex 0) the map
    (A, t) is the inverse of the independent vertices' coordinates
    augmented by 1 times their images' coordinates.  The lift is
    x -> p0_d + B_d^T (A c(x) + t), with B the basis rows and
    c(x) = G_s^-1 B_s (x - p0_s) the src coefficients of x's orthogonal
    projection onto the hull (G_s = B_s B_s^T): the chart read at the
    pivots, extended off the hull.  With M and T its matrix and translation
    times the lcm D of their denominators, vertex row r with image row r_d
    checks as s_d (M r + s_s T) == s_s D r_d in ints (s the hull scales).
    """
    n = src.polytope.n
    src_coords = [c for c, _ in src.polytope.vertices]
    dst_coords = [c for c, _ in dst.polytope.vertices]

    def chart(coords, pivots, i):
        return tuple(coords[i][k] - coords[0][k] for k in pivots)

    inverse = invert(tuple(chart(src_coords, src.pivots, i) + (ONE,) for i in src.independent))
    ys = [chart(dst_coords, dst.pivots, j) for j in images]
    thetas = [mat_vec(inverse, tuple(y[coord] for y in ys)) for coord in range(n)]
    src_basis, dst_basis = src.polytope.hull.space.basis, dst.polytope.hull.space.basis
    gram = tuple(tuple(dot(bi, bj) for bj in src_basis) for bi in src_basis)
    lifted = _product(
        tuple(theta[:n] for theta in thetas), _product(invert(gram), src_basis)
    )
    matrix = _product(transpose(dst_basis), lifted)
    translation = vsub(
        vadd(dst_coords[0], mat_vec(transpose(dst_basis), tuple(theta[n] for theta in thetas))),
        mat_vec(matrix, src_coords[0]),
    )
    (*m, t), denom = integer_scaling(matrix + (translation,))
    s_src, s_dst = src.polytope.hull.scale, dst.polytope.hull.scale
    for r, j in zip(src.polytope.hull.rows, targets):
        expected = dst.polytope.hull.rows[j]
        if any(
            s_dst * (sum(map(mul, row, r)) + s_src * b) != s_src * denom * e
            for row, b, e in zip(m, t, expected)
        ):
            return None
    return exactlin.AffineMap(matrix=matrix, translation=translation)


@dataclass
class EquivalenceReport:
    pair: tuple
    obstructions: list
    witness: object = None

    @property
    def verdict(self):
        if self.witness is not None:
            return "equivalent"
        if any(fired for _, fired, _ in self.obstructions):
            return "non_equivalent"
        return "inconclusive"


def equivalence_search(p, q):
    """Label-free obstructions plus an exhaustive dihedral affine-map fit."""
    if p.n != q.n:
        raise ValueError("polytopes have different n")
    fp, fq = extract_facets(p), extract_facets(q)
    pp, pq = parallel_pairs(fp), parallel_pairs(fq)
    obstructions = [
        (
            "parallel_pair_count",
            len(pp) != len(pq),
            {"left": len(pp), "right": len(pq)},
        )
    ]
    prof_p = sorted(special_profile(fp).values())
    prof_q = sorted(special_profile(fq).values())
    obstructions.append(
        (
            "special_profile_multiset",
            prof_p != prof_q,
            {"left": prof_p, "right": prof_q},
        )
    )
    witness = None
    src, dst = HullChart(p), HullChart(q)
    for perm in dihedral_relabelings(p.n):
        fit = fit_affine_map(src, dst, perm)
        if fit is not None:
            witness = fit
            break
    return EquivalenceReport(
        pair=(p.construction, q.construction),
        obstructions=obstructions,
        witness=witness,
    )
