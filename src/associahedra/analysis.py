"""Construction-agnostic polytope analysis.

Facets are located combinatorially (the vertices whose triangulation label
contains a given diagonal) and then certified geometrically: a supporting
hyperplane is fitted inside the affine hull through n affinely independent
members, and one evaluation per vertex shows that every member lies on it
and every other vertex strictly on one side.  Parallelism of facets is
equality of their direction subspaces, compared in canonical form.

The equivalence search builds each polytope's hull chart (coordinates,
independent vertices, interpolation inverse) once; each of the 2(n+3)
dihedral relabelings then costs one small matrix product and a vertex check
that stops at the first mismatch.
"""

from dataclasses import dataclass, field

from . import exactlin, polygon
from .exactlin import (
    ONE,
    Subspace,
    affinely_independent,
    dot,
    hyperplane_through,
    invert,
    mat_vec,
    # unused here, but perfbench's tracer test checks that this by-name
    # binding gets patched
    solve_linear,  # noqa: F401
    subspace_from_differences,
    transpose,
    vadd,
    vsub,
)


class CertificationError(Exception):
    """A combinatorially located facet failed its geometric certificate."""


@dataclass(frozen=True)
class LabeledPolytope:
    construction: str
    n: int
    ambient_dim: int
    vertices: tuple  # of (coords, triangulation) pairs, sorted by label
    params: dict = field(default_factory=dict, compare=False)


def make_polytope(construction, n, ambient_dim, pairs, params=None):
    """Validate and freeze a vertex-labeled polytope.

    Labels must be exactly the triangulations of the (n+3)-gon, coordinates
    must be pairwise distinct, and the affine hull must have dimension n.
    """
    pairs = sorted(pairs, key=lambda p: p[1])
    labels = [label for _, label in pairs]
    if labels != sorted(polygon.all_triangulations(n)):
        raise ValueError("labels are not exactly the triangulations")
    coords = [c for c, _ in pairs]
    if len(set(coords)) != len(coords):
        raise ValueError("vertex coordinates are not distinct")
    hull = subspace_from_differences(coords)
    if hull.dim != n:
        raise ValueError(f"affine hull has dimension {hull.dim}, expected {n}")
    return LabeledPolytope(
        construction=construction,
        n=n,
        ambient_dim=ambient_dim,
        vertices=tuple(pairs),
        params=dict(params or {}),
    )


def affine_hull(p):
    return subspace_from_differences([c for c, _ in p.vertices])


@dataclass(frozen=True)
class FacetDescriptor:
    diagonal: tuple
    vertex_indices: frozenset
    hyperplane: object
    direction: Subspace


def extract_facets(p):
    """One certified facet per diagonal of the (n+3)-gon.

    The facet's members are the vertices whose label carries the diagonal.
    Its hyperplane is fitted through n affinely independent members and its
    direction is the span of their n-1 differences; one `hp.value` per
    vertex then certifies the rest: 0 on every member and one strict sign
    on every other vertex.  Certification failure means the construction
    is broken, not the analysis, and raises CertificationError naming the
    diagonal.
    """
    hull = affine_hull(p)
    coords = [c for c, _ in p.vertices]
    facets = []
    for d in polygon.all_diagonals(p.n):
        members = frozenset(
            i for i, (_, label) in enumerate(p.vertices) if d in label
        )
        if not members:
            raise CertificationError(f"diagonal {d}: no vertices carry it")
        member_coords = [coords[i] for i in sorted(members)]
        spanning = [
            member_coords[k] for k in affinely_independent(member_coords, p.n)
        ]
        hp = hyperplane_through(spanning, hull) if len(spanning) == p.n else None
        if hp is None:
            raise CertificationError(f"diagonal {d}: vertices do not span a codim-1 flat")
        values = [hp.value(c) for c in coords]
        if any(values[i] != 0 for i in members):
            raise CertificationError(f"diagonal {d}: member off its hyperplane")
        outside = [v for i, v in enumerate(values) if i not in members]
        if not (all(v > 0 for v in outside) or all(v < 0 for v in outside)):
            raise CertificationError(f"diagonal {d}: hyperplane is not supporting")
        direction = subspace_from_differences(spanning)
        if direction.dim != p.n - 1:
            raise CertificationError(
                f"diagonal {d}: facet dimension {direction.dim} != {p.n - 1}"
            )
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

    `chart` gives a point's coordinates in the canonical basis of the affine
    hull's direction space, by the exact orthogonal projector G^-1 B (B the
    basis rows, G their Gram matrix, inverted once); `unchart` goes back.
    `charted` maps each vertex label to its chart coordinates, in vertex
    order.  `independent` holds the labels of the first n+1 affinely
    independent vertices and `interpolation_inverse` the inverse of the
    (n+1) x (n+1) matrix whose rows are their chart coordinates followed
    by 1.
    """

    def __init__(self, p):
        self.polytope = p
        self.p0 = p.vertices[0][0]
        self.basis = affine_hull(p).basis
        gram = tuple(tuple(dot(bi, bj) for bj in self.basis) for bi in self.basis)
        gram_inverse = invert(gram)
        self.projector = transpose(
            tuple(mat_vec(gram_inverse, column) for column in transpose(self.basis))
        )
        self.charted = {label: self.chart(c) for c, label in p.vertices}
        labels, xs = list(self.charted), list(self.charted.values())
        chosen = affinely_independent(xs, p.n + 1)
        if len(chosen) != p.n + 1:
            raise CertificationError("vertices are affinely degenerate")
        self.independent = tuple(labels[i] for i in chosen)
        self.interpolation_inverse = invert(tuple(xs[i] + (ONE,) for i in chosen))

    def chart(self, x):
        return mat_vec(self.projector, vsub(x, self.p0))

    def unchart(self, y):
        out = self.p0
        for c, b in zip(y, self.basis):
            out = vadd(out, exactlin.vscale(c, b))
        return out


def fit_affine_map(src, dst, label_map):
    """Affine map sending each src vertex to the dst vertex of the mapped label.

    `src` and `dst` are the HullCharts of the two polytopes, built once per
    search; only `label_map` changes between calls.  In chart coordinates
    the map is fixed by src's n+1 independent vertices: its coefficients
    are src's interpolation inverse times the charted images of those
    vertices.  The map is rejected (None) at the first src vertex it does
    not send to its image.  On a hit it is lifted to an ambient map, which
    is checked again on every vertex and returned.
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

    # lift to an ambient map agreeing on the affine hull:
    # f(x) = unchart_d(chart_map(chart_s(x))) is affine in x
    def f(x):
        return dst.unchart(chart_map.apply(src.chart(x)))

    src_dim = src.polytope.ambient_dim
    f_p0 = f(src.p0)
    cols = [
        vsub(f(vadd(src.p0, exactlin.unit(i, src_dim))), f_p0)
        for i in range(src_dim)
    ]
    matrix_amb = transpose(cols)
    translation_amb = vsub(f_p0, mat_vec(matrix_amb, src.p0))
    witness = exactlin.AffineMap(matrix=matrix_amb, translation=translation_amb)
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
