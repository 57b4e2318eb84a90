"""Construction-agnostic polytope analysis.

Vertex i of every polytope here carries `polygon.all_triangulations(n)[i]`,
and the analysis reads these labels where they save work, then certifies
what it read.  A facet's members are the vertices whose label carries its
diagonal.  Its normal is solved inside the affine hull through the first
member and that member's flips of its other diagonals, or, only if those
fail to span, through n members an elimination picks from all of them.
Then every member must lie on the hyperplane and every other vertex
strictly on one side: the lane certificate (`exactlin.lane_failures`)
checks all n(n+3)/2 facet inequalities at a vertex row with one packed
big-integer product per coordinate.  Each facet's value sits in its own
lane of one Python int, wide enough (one bit over the bound
|normal|_1 max|x| + |offset| + 1) that a negative value always borrows
into its own lane's top bit, so two masks read the verdict.  Each polytope
object certifies its facets once, on first use, and keeps them.  Facets
are parallel iff their primitive integer normals (first nonzero entry
positive) are equal: the normals lie in the hull's direction space, where
a hyperplane's normal line fixes its direction space.  `face_lattice`
certifies that these facets are all the facets and the flips the edges.

A polytope is its labels and its `Hull` record: the vertices as integer
rows over one positive scale, in lowest terms.  Everything here reads the
labels and the rows; no Fraction is made for a vertex or a facet unless a
caller reads one.  `LabeledPolytope.vertices` (the Fraction coordinates,
for demos, viewers and tests) and `FacetDescriptor.hyperplane` (a facet's
Fraction hyperplane) are made on first read and kept.  Besides these, the
analysis makes Fractions only for a lifted witness and in `exactlin`'s
canonical bases (the hull's direction space, a facet's `direction`).
Files are coded straight to and from the rows (`serialize`).

Each polytope's affine hull is eliminated once, when it is made: its `Hull`
record holds the integer vertex rows and their common scale, the first n+1
affinely independent vertices and the canonical (reduced echelon) basis of
the direction space.  On the hull the entries at the basis' pivot columns
are an affine chart, so the equivalence search keeps, per polytope, each
vertex's integer pivot entries and its affine weights on the independent
vertices over one denominator.  Each of the 2(n+3) dihedral relabelings
is then an integer check per vertex that stops at the first mismatch.  Only
a hit is lifted to a Fraction ambient map: the one its independent vertices
and their images fix on the hull, extended off it by orthogonal projection,
and checked again on every vertex.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple

from . import exactlin, polygon
from .exactlin import (
    Subspace,
    affine_frame,
    affinely_independent,
    dot,
    integer_inverse,
    integer_normal,
    integer_scaling,
    invert,
    lane_failures,
    make_hyperplane,
    primitive_rows,
    rank,
    # unused here, but perfbench's tracer test checks that this by-name
    # binding gets patched
    solve_linear,  # noqa: F401
    span,
    transpose,
    vsub,
)


class CertificationError(Exception):
    """A combinatorially located facet failed its geometric certificate."""


class Hull(NamedTuple):
    """A polytope's affine hull, eliminated once when the polytope is made."""

    rows: tuple  # the vertices scaled to ints by one positive factor
    scale: int  # that factor
    independent: tuple  # indices of the first n+1 affinely independent vertices
    space: Subspace  # the direction space, in canonical form

    @property
    def pivots(self):
        """The pivot column of each basis row of `space`: on the hull the
        entries there chart it, and a vector of the direction space has
        its basis coordinates there."""
        return [next(k for k, a in enumerate(b) if a) for b in self.space.basis]


@dataclass(frozen=True)
class LabeledPolytope:
    """A vertex-labeled polytope: vertex i is the i-th triangulation of
    `labels` and the i-th row of `hull.rows` over `hull.scale`.

    The rows are in lowest terms over one positive scale, so equal hulls
    are equal vertices: equality and hash mean the same construction, n,
    ambient dimension, labels and exact vertices.
    """

    construction: str
    n: int
    ambient_dim: int
    labels: tuple  # the triangulations, sorted: `polygon.all_triangulations(n)`
    params: dict = field(default_factory=dict, compare=False)
    hull: Hull = field(repr=False, kw_only=True)

    @cached_property
    def vertices(self):
        """The (coords, label) pairs with Fraction coords, made on first
        read and kept (not a field: nothing in the analysis reads them)."""
        s = self.hull.scale
        return tuple(
            (tuple(Fraction(a, s) for a in row), label)
            for row, label in zip(self.hull.rows, self.labels)
        )

    @cached_property
    def certified_facets(self):
        """The facets, certified on first use and kept on this object (not
        a field: equality, repr and files do not see it).  A failed
        certificate is not kept, so it raises again on the next use."""
        return tuple(_certify_facets(self))


def make_polytope(construction, n, ambient_dim, pairs, params=None, scale=None):
    """Validate and freeze a vertex-labeled polytope given as (coords,
    label) pairs.

    Labels must be exactly the triangulations of the (n+3)-gon; the pairs
    are sorted by label.  The coordinates are integer rows over the given
    `scale`, as the builders, a file (`serialize`) and the manifest's shear
    make them, or, with no scale, rationals (a map of another polytope),
    scaled here to integer rows over the lcm of their denominators.  Rows
    and scale are divided by their gcd, so the same vertices give the same
    record either way.  The rows must be distinct and their affine hull
    have dimension n; its elimination (`affine_frame` on the rows) is kept
    with them as the polytope's `Hull` record.  No Fraction is made here:
    `LabeledPolytope.vertices` makes the Fraction coordinates only when
    they are read.
    """
    pairs = sorted(pairs, key=lambda p: p[1])
    labels = tuple(label for _, label in pairs)
    if labels != polygon.all_triangulations(n):
        raise ValueError("labels are not exactly the triangulations")
    if scale is None:
        rows, scale = integer_scaling([c for c, _ in pairs])
    else:
        rows = [tuple(c) for c, _ in pairs]
        g = gcd(scale, *(a for row in rows for a in row))
        if g > 1:
            rows, scale = [tuple(a // g for a in row) for row in rows], scale // g
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
        labels=labels,
        params=dict(params or {}),
        hull=Hull(tuple(rows), scale, tuple(independent), space),
    )


@dataclass(frozen=True)
class FacetDescriptor:
    diagonal: tuple
    vertex_indices: frozenset
    normal: tuple  # primitive int normal in the hull's direction space, first nonzero > 0
    # the facet's hyperplane is normal . x = offset / scale, in lowest terms
    offset: int
    scale: int
    # n affinely independent members and the polytope's integer rows, from
    # which `direction` is spanned when it is read
    spanning: tuple = field(compare=False, repr=False)
    rows: tuple = field(compare=False, repr=False)

    @cached_property
    def hyperplane(self):
        """The Fraction hyperplane (`exactlin.make_hyperplane`, first
        nonzero normal entry 1), made on first read and kept."""
        return make_hyperplane(self.normal, Fraction(self.offset, self.scale))

    @cached_property
    def direction(self):
        """The facet's direction space: the canonical span of its spanning
        members' differences (a positive scale of the rows keeps it)."""
        base = self.rows[self.spanning[0]]
        return span([vsub(self.rows[i], base) for i in self.spanning[1:]], len(base))


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
    space, whose basis is made primitive once per polytope, through n
    members: the first member v and the flips of v's other n-1 diagonals
    (`polygon.flip_table`), which carry the diagonal too.  Only if those do
    not span a codim-1 flat of the hull are n affinely independent members
    picked from all of them; the hyperplane through n members that all
    members lie on is the same either way.  The normal is then oriented by
    its sign at the first non-member, and the certificate is that at every
    vertex row each facet's oriented functional normal . x - offset is 0 if
    the vertex is a member and positive if not.  `exactlin.lane_failures`
    checks all F = n(n+3)/2 of them at a row at once: slot f, that value
    less 1 off the members, sits in a lane of one Python int W bits wide,
    with W one more than the bit length of the bound
    max_f(|normal_f|_1 max|x| + |offset_f| + 1), and a negative slot always
    borrows into its own lane's top bit, so a row costs one packed product
    per coordinate and two masks.  The Fraction hyperplane is made only
    when a caller reads it (`FacetDescriptor.hyperplane`).
    Certification failure means the construction is broken, not the
    analysis, and raises CertificationError naming the diagonal: first
    "no vertices carry it" or "do not span", in diagonal order, as the
    normals are solved; then, only if a row fails, its slots are unpacked
    and the first failing diagonal is named, "member off its hyperplane"
    before "hyperplane is not supporting".
    """
    rows, scale, labels = p.hull.rows, p.hull.scale, p.labels
    basis = primitive_rows(p.hull.space.basis)
    flips = polygon.flip_table(p.n)
    diagonals = polygon.all_diagonals(p.n)
    index = {d: f for f, d in enumerate(diagonals)}
    tight = [[index[d] for d in label] for label in labels]
    carriers = [[] for _ in diagonals]
    for i, t in enumerate(tight):
        for f in t:
            carriers[f].append(i)
    facets, functionals = [], []
    for d, ordered in zip(diagonals, carriers):
        if not ordered:
            raise CertificationError(f"diagonal {d}: no vertices carry it")
        v = ordered[0]
        spanning = [v] + [w for e, w in zip(labels[v], flips[v]) if e != d]
        # None unless they span a codim-1 flat of the hull: fewer than n do not
        normal = integer_normal([rows[i] for i in spanning], basis)
        if normal is None:
            spanning = [ordered[k] for k in affinely_independent([rows[i] for i in ordered], p.n)]
            normal = integer_normal([rows[i] for i in spanning], basis)
        if normal is None:
            raise CertificationError(f"diagonal {d}: vertices do not span a codim-1 flat")
        if next(a for a in normal if a) < 0:
            normal = [-a for a in normal]
        members = frozenset(ordered)
        offset = sum(map(mul, normal, rows[v]))
        out = next((i for i in range(len(rows)) if i not in members), v)
        sign = -1 if sum(map(mul, normal, rows[out])) < offset else 1
        functionals.append(([sign * a for a in normal], sign * offset))
        g = gcd(offset, scale)
        facets.append(
            FacetDescriptor(
                diagonal=d,
                vertex_indices=members,
                normal=tuple(normal),
                offset=offset // g,
                scale=scale // g,
                spanning=tuple(spanning),
                rows=rows,
            )
        )
    failures = lane_failures(functionals, rows, tight)
    if failures:
        failed = {(f, f in tight[i]) for i, fs in failures for f in fs}
        f = min(f for f, _ in failed)
        if (f, True) in failed:
            raise CertificationError(f"diagonal {diagonals[f]}: member off its hyperplane")
        raise CertificationError(f"diagonal {diagonals[f]}: hyperplane is not supporting")
    return facets


def parallel_pairs(facets):
    """Unordered pairs of distinct diagonals with equal direction subspaces,
    found as equal normals (see the module docstring), in facet order
    within a pair and sorted."""
    classes = {}
    for f in facets:
        classes.setdefault(f.normal, []).append(f.diagonal)
    return sorted(
        (c[i], c[j]) for c in classes.values() for i in range(len(c)) for j in range(i + 1, len(c))
    )


def face_lattice(p):
    """The face-lattice certificate of a polytope (`lattice_certificate`)
    on its certified facets: member sets as int bitmasks, bit i for vertex
    i, and normals in the hull's basis coordinates (the pivot entries)."""
    pivots = p.hull.pivots
    masks, normals = {}, {}
    for f in p.certified_facets:
        masks[f.diagonal] = sum(1 << i for i in f.vertex_indices)
        normals[f.diagonal] = tuple(f.normal[k] for k in pivots)
    return lattice_certificate(p.n, masks, normals)


def lattice_certificate(n, masks, normals):
    """Whether the facets given per diagonal are all the facets of their
    polytope, with the flips as its edges; {"ok", "f_vector", "problems"}.

    `masks[d]` is the member bitmask of d's facet over the vertices in
    `polygon.all_triangulations(n)` order and `normals[d]` its int normal
    in hull coordinates.  At every vertex v: (a) the normals of the n facets
    of v's label are independent, and (b) for each diagonal of v the other
    n-1 facets meet in exactly v and its flip.  Then, with P' the set cut
    out by the facet inequalities (P in P'), every vertex of P is a simple
    vertex of P' whose n edges end at vertices of P; the graph of P' is
    connected (Balinski), so P' has no other vertex and P' = P.  So the
    facets are all the facets, the edges are the flips, and f_vector
    counts vertices, certified edges and facets.
    """
    labels = polygon.all_triangulations(n)
    everything = (1 << len(labels)) - 1
    problems, edges = [], 0
    for v, (label, flips) in enumerate(zip(labels, polygon.flip_table(n))):
        if rank([normals[d] for d in label]) != n:
            problems.append(("dependent_normals", label))
        for k, w in enumerate(flips):
            meet = everything
            for j, d in enumerate(label):
                if j != k:
                    meet &= masks[d]
            if meet != (1 << v) | (1 << w):
                problems.append(("edge_not_certified", label, labels[w]))
            elif v < w:
                edges += 1
    return {
        "ok": not problems,
        "f_vector": (len(labels), edges, len(masks)),
        "problems": problems,
    }


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
        pivots = p.hull.pivots
        self.rows = [tuple(r[k] for k in pivots) for r in p.hull.rows]
        self.labels = p.labels
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.independent = p.hull.independent
        inverse, self.d = integer_inverse([self.rows[i] + (1,) for i in self.independent])
        columns = transpose(inverse)
        self.weights = [
            tuple(sum(map(mul, row + (1,), col)) for col in columns) for row in self.rows
        ]


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

    X holds the differences of src's independent vertices from the first of
    them and Y the same differences for their images.  The map is
    x -> y_0 + M (x - x_0) with M = Y^T (X X^T)^-1 X: it sends each
    independent vertex to its image, so the whole hull as the hit fixes
    it, and kills the orthogonal complement of the hull's direction space.
    M is formed on the integer hull rows (the scales s come back as
    s_src / s_dst), and the translation y_0 - M x_0 on the rows of x_0 and
    y_0 over their scales.  With M and T the matrix and translation times the lcm
    D of their denominators, vertex row r with image row r_d checks as
    s_dst (M r + s_src T) == s_src D r_d in ints.
    """
    p, q = src.polytope, dst.polytope
    s_src, s_dst = p.hull.scale, q.hull.scale
    x0, y0 = p.hull.rows[src.independent[0]], q.hull.rows[images[0]]
    xs = [vsub(p.hull.rows[i], x0) for i in src.independent[1:]]
    ys = [vsub(q.hull.rows[j], y0) for j in images[1:]]
    inverse = invert([[sum(map(mul, a, b)) for b in xs] for a in xs])
    ratio = Fraction(s_src, s_dst)
    # (X X^T)^-1 X on the int rows, times s_src / s_dst: x - x_0 to the
    # coordinates of its projection on the rows of X
    coordinates = [[ratio * dot(g, col) for col in zip(*xs)] for g in inverse]
    matrix = tuple(tuple(dot(y, c) for c in zip(*coordinates)) for y in zip(*ys))
    translation = tuple(Fraction(b, s_dst) - dot(row, x0) / s_src for row, b in zip(matrix, y0))
    (*m, t), denom = integer_scaling(matrix + (translation,))
    for r, j in zip(p.hull.rows, targets):
        expected = q.hull.rows[j]
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
