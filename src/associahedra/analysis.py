"""Construction-agnostic polytope analysis.

Facets are located combinatorially (the vertices whose triangulation label
contains a given diagonal) and then certified geometrically: a supporting
hyperplane is fitted inside the affine hull through n affinely independent
members, and one integer evaluation per vertex shows that every member
lies on it and every other vertex strictly on one side.  The evaluations
run on the vertices scaled to integers once per polytope, with a positive
integer multiple of the normal.  Parallelism of facets is equality of
their direction subspaces, compared in canonical form.

Each polytope's affine hull is eliminated once, when it is made: its `Hull`
record holds the integer vertex rows, the first n+1 affinely independent
vertices and the canonical (reduced echelon) basis of the direction space.
On the hull a point's coordinates in that basis are its entries at the
basis' pivot columns minus those of the first vertex, so the equivalence
search charts every vertex by reading them.  Each of the 2(n+3) dihedral
relabelings then costs one small matrix product and a vertex check that
stops at the first mismatch; only a hit is lifted to an ambient map.
"""

from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

from . import exactlin, polygon
from .exactlin import (
    ONE,
    Subspace,
    affine_frame,
    affinely_independent,
    dot,
    hyperplane_through,
    integer_points,
    invert,
    mat_vec,
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
    coords = [c for c, _ in pairs]
    if len(set(coords)) != len(coords):
        raise ValueError("vertex coordinates are not distinct")
    rows = integer_points(coords)
    independent, space = affine_frame(rows)
    if space.dim != n:
        raise ValueError(f"affine hull has dimension {space.dim}, expected {n}")
    return LabeledPolytope(
        construction=construction,
        n=n,
        ambient_dim=ambient_dim,
        vertices=tuple(pairs),
        params=dict(params or {}),
        hull=Hull(tuple(rows), tuple(independent), space),
    )


@dataclass(frozen=True)
class FacetDescriptor:
    diagonal: tuple
    vertex_indices: frozenset
    hyperplane: object
    direction: Subspace


def extract_facets(p):
    """One certified facet per diagonal of the (n+3)-gon.

    The facet's members are the vertices whose label carries the diagonal.
    Its hyperplane is fitted inside the hull's direction space through n
    affinely independent members, and its direction is the span of their
    n-1 differences.  The certificate runs on the hull record's integer
    vertex rows with a positive integer multiple of the normal, one dot
    product per vertex: 0 on every member and one strict sign on every
    other vertex.  Certification failure means the construction is broken,
    not the analysis, and raises CertificationError naming the diagonal.
    """
    coords, rows = [c for c, _ in p.vertices], p.hull.rows
    facets = []
    for d in polygon.all_diagonals(p.n):
        members = frozenset(
            i for i, (_, label) in enumerate(p.vertices) if d in label
        )
        if not members:
            raise CertificationError(f"diagonal {d}: no vertices carry it")
        ordered = sorted(members)
        spanning = [ordered[k] for k in affinely_independent([rows[i] for i in ordered], p.n)]
        # None unless they span a codim-1 flat of the hull: fewer than n do not
        hp = hyperplane_through([coords[i] for i in spanning], p.hull.space)
        if hp is None:
            raise CertificationError(f"diagonal {d}: vertices do not span a codim-1 flat")
        # hp runs through the first member, so the offset is the value there
        normal = integer_points([hp.normal])[0]
        offset = sum(map(mul, normal, rows[ordered[0]]))
        values = [sum(map(mul, normal, x)) - offset for x in rows]
        if any(values[i] != 0 for i in members):
            raise CertificationError(f"diagonal {d}: member off its hyperplane")
        outside = [v for i, v in enumerate(values) if i not in members]
        if not (all(v > 0 for v in outside) or all(v < 0 for v in outside)):
            raise CertificationError(f"diagonal {d}: hyperplane is not supporting")
        # n affinely independent members: n-1 independent differences
        base = rows[spanning[0]]
        direction = span([vsub(rows[i], base) for i in spanning[1:]], p.ambient_dim)
        facets.append(
            FacetDescriptor(
                diagonal=d, vertex_indices=members, hyperplane=hp, direction=direction
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

    `charted` maps each vertex label, in vertex order, to the vertex's
    coordinates in the canonical basis of the hull's direction space: its
    entries at the basis' pivot columns minus those of the first vertex
    (the basis is reduced echelon, so on the hull these are the
    coefficients).  `independent` holds the labels of the hull record's
    n+1 independent vertices and `interpolation_inverse` the inverse of the
    (n+1) x (n+1) matrix whose rows are their chart coordinates followed
    by 1.
    """

    def __init__(self, p):
        self.polytope = p
        p0 = p.vertices[0][0]
        pivots = [next(k for k, a in enumerate(b) if a) for b in p.hull.space.basis]
        self.charted = {
            label: tuple(c[k] - p0[k] for k in pivots) for c, label in p.vertices
        }
        xs = list(self.charted.values())
        self.independent = tuple(p.vertices[i][1] for i in p.hull.independent)
        self.interpolation_inverse = invert(
            tuple(xs[i] + (ONE,) for i in p.hull.independent)
        )


def _product(a, b):
    bt = transpose(b)
    return tuple(mat_vec(bt, row) for row in a)


def fit_affine_map(src, dst, label_map):
    """Affine map sending each src vertex to the dst vertex of the mapped label.

    `src` and `dst` are the HullCharts of the two polytopes, built once per
    search; only `label_map` changes between calls.  In chart coordinates
    the map is fixed by src's n+1 independent vertices: its coefficients
    are src's interpolation inverse times the charted images of those
    vertices.  The map is rejected (None) at the first src vertex it does
    not send to its image.  Only a hit is lifted to an ambient map, in
    closed form, and the lift is checked again on every vertex and returned.
    """
    n = src.polytope.n
    images = [dst.charted[label_map[label]] for label in src.independent]
    thetas = [
        mat_vec(src.interpolation_inverse, tuple(y[coord] for y in images))
        for coord in range(n)
    ]
    chart_map = exactlin.AffineMap(
        matrix=tuple(theta[:n] for theta in thetas),
        translation=tuple(theta[n] for theta in thetas),
    )
    for label, x in src.charted.items():
        if chart_map.apply(x) != dst.charted[label_map[label]]:
            return None

    # the lift x -> p0_d + B_d^T (A c(x) + t) with (A, t) the chart map, B
    # the basis rows and c(x) = G_s^-1 B_s (x - p0_s) the src coefficients
    # of x's orthogonal projection onto the hull (G_s = B_s B_s^T): the
    # chart read at the pivots, extended off the hull
    src_basis, dst_basis = src.polytope.hull.space.basis, dst.polytope.hull.space.basis
    gram = tuple(tuple(dot(bi, bj) for bj in src_basis) for bi in src_basis)
    lifted = _product(chart_map.matrix, _product(invert(gram), src_basis))
    matrix = _product(transpose(dst_basis), lifted)
    src_p0, dst_p0 = src.polytope.vertices[0][0], dst.polytope.vertices[0][0]
    translation = vsub(
        vadd(dst_p0, mat_vec(transpose(dst_basis), chart_map.translation)),
        mat_vec(matrix, src_p0),
    )
    witness = exactlin.AffineMap(matrix=matrix, translation=translation)
    dst_by_label = {label: c for c, label in dst.polytope.vertices}
    for c_src, label in src.polytope.vertices:
        if witness.apply(c_src) != dst_by_label[label_map[label]]:
            return None
    return witness


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
        label_map = {
            label: relabel_triangulation(perm, label) for _, label in p.vertices
        }
        fit = fit_affine_map(src, dst, label_map)
        if fit is not None:
            witness = fit
            break
    return EquivalenceReport(
        pair=(p.construction, q.construction),
        obstructions=obstructions,
        witness=witness,
    )
