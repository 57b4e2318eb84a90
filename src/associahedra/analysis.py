"""Construction-agnostic polytope analysis.

Vertex i of every polytope here carries `polygon.all_triangulations(n)[i]`,
and the analysis reads these labels where they save work, then certifies
what it read.  A facet's members are the vertices whose label carries its
diagonal.  Facets are certified in the hull's n-column chart: each
vertex's entries at the pivot columns of the hull's basis, less vertex
0's, where every affine functional of the hull keeps its signs and zeros.
A facet's chart normal is its construction's closed form if the polytope
has params and that passes, else the kernel of the differences of the
first member and that member's flips of its other diagonals; the facet
keeps it, and lifts it to the ambient normal on first read.  Then every
member must lie on the hyperplane and every other vertex strictly on one
side: the lane certificate (`exactlin.lane_failures`) checks all
n(n+3)/2 facet inequalities at a vertex's chart row with one packed
big-integer product per chart column.  Each facet's value sits in its
own lane of one Python int, wide enough (one bit over |c|_1 max|y| +
|offset| + 1, for its chart normal c and the chart rows y) that a
negative value always borrows into its own lane's top bit, so two masks
read the verdict.  Each polytope object certifies its facets once, on
first use, and keeps them, unless its builder has certified their
normals and the polytope carries those (`make_polytope`'s `normals`: the
cluster build, whose wall check on its certified fan is this certificate
on its rays).  `face_lattice` reads off them and the polygon's ridge incidence
that these facets are all the facets and the flips the edges.  What else
a passed certificate settles is read off it, not decided again:
parallelism from the chart normals (`parallel_pairs`), which facets meet
from the diagonals (`special_profile`), and equivalence from the
dihedral relabelings alone (`equivalence_search`).

A polytope is its n, whose triangulations are its labels, and its `Hull`
record: the vertices as integer rows over one positive scale, in lowest
terms.  Everything here reads the labels and the rows; no Fraction is
made for a vertex or a facet unless a caller reads one.
`LabeledPolytope.vertices` (the Fraction coordinates,
for demos, viewers and tests) and `FacetDescriptor.hyperplane` (a facet's
Fraction hyperplane) are made on first read and kept, as is a facet's
ambient `FacetDescriptor.normal`.  Besides these, the analysis makes
Fractions only for a lifted witness.  Files are coded
straight to and from the rows (`serialize`).

Each polytope's affine hull is read off vertex 0 and its n flips when it
is made, its frame (`polygon.flip_table`): its `Hull` record holds the
integer vertex rows and their common scale, and the reduced echelon basis
of the direction space as int rows with its pivot columns, eliminated
once from the frame's n differences (`exactlin.echelon_basis`); every row
is then checked to lie in it on ints, by the D - n integer equations that
cut the hull out of D-space.  A polytope whose frame does not span its
hull is refused, since no such polytope can pass the facet certificate.
The facet certificate reads the hull's chart (`Hull.chart`).  The
equivalence search works on vertex indices: vertex i of every polytope
carries the i-th triangulation, so a dihedral relabeling is a permutation
of the indices that depends on n alone, tabulated once per n
(`dihedral_images`).  The search tries each of the 2(n+3) relabelings on
one probe vertex, the source's first vertex outside its frame
(`Hull.probe`): its affine weights on the frame, from one
`integer_inverse` per search, must give its image's integer hull row from
theirs, so a miss reads n+2 rows of the target and makes no chart of it.
Only a relabeling whose probe fits is decided, on the certified facets
rather than the vertices: each facet's chart functional of the target,
pulled back by the map the frame and its images fix, must be a nonzero
multiple of its preimage's, read at the n+1 frame rows (`_lift`), so a
search lifts no normal.  Only a map that passes is formed, on the hull
and extended off it by orthogonal projection, and made of Fractions.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import chain
from math import gcd
from operator import mul
from typing import NamedTuple

from . import exactlin, polygon
from .exactlin import (
    echelon_basis,
    integer_inverse,
    integer_kernel,
    integer_scaling,
    lane_failures,
    make_hyperplane,
    primitive_rows,
    # unused here, but perfbench's tracer test checks that this by-name
    # binding gets patched
    solve_linear,  # noqa: F401
    vsub,
)


class CertificationError(Exception):
    """A combinatorially located facet failed its geometric certificate."""


class Hull(NamedTuple):
    """A polytope's affine hull, eliminated once when the polytope is made."""

    rows: tuple  # the vertices scaled to ints by one positive factor
    scale: int  # that factor
    basis: tuple  # the direction space's `exactlin.echelon_basis`: int rows
    pivots: tuple  # their pivot columns, where the hull has its chart

    @property
    def chart(self):
        """Each row's entries at `pivots` less vertex 0's, as int tuples:
        on the hull these n entries are an affine chart, one-to-one, so an
        affine functional of the hull has the same signs and zeros there."""
        columns = list(zip(*self.rows))
        return list(zip(*([a - columns[k][0] for a in columns[k]] for k in self.pivots)))

    @property
    def probe(self):
        """(v, weights, d) for v the first vertex outside the frame (n the
        basis' length), or None if there is none (n = 1): v's affine
        weights on the frame over one d > 0, (y_v, 1) . M for (M, d) the
        `integer_inverse` of the frame's chart rows y augmented by 1, so
        that sum_k weights[k] (y_{frame[k]}, 1) = d (y_v, 1).  Made on
        each read, from those n+2 chart rows alone."""
        frame = _frame(len(self.basis))
        v = next((v for v in range(len(self.rows)) if v not in frame), None)
        if v is None:
            return None
        base = self.rows[0]

        def chart(i):
            return tuple(self.rows[i][k] - base[k] for k in self.pivots) + (1,)

        inverse, d = integer_inverse([chart(i) for i in frame])
        return v, [sum(map(mul, chart(v), col)) for col in zip(*inverse)], d


@dataclass(frozen=True)
class LabeledPolytope:
    """A vertex-labeled polytope: vertex i is the i-th triangulation of
    `labels` and the i-th row of `hull.rows` over `hull.scale`.

    The rows are in lowest terms over one positive scale, so equal hulls
    are equal vertices: equality and hash mean the same construction, n
    and exact vertices.  `labels` and `ambient_dim` are read off n and the
    rows, as `make_polytope` checks them, not stored.
    """

    construction: str
    n: int
    params: dict = field(default_factory=dict, compare=False)
    hull: Hull = field(repr=False, kw_only=True)
    # the facet normals its builder certified (`make_polytope`'s `normals`), or None
    carried_normals: dict = field(default=None, compare=False, repr=False, kw_only=True)

    @property
    def labels(self):
        """The cached `polygon.all_triangulations(n)`, sorted."""
        return polygon.all_triangulations(self.n)

    @property
    def ambient_dim(self):
        """The length of every vertex row."""
        return len(self.hull.rows[0])

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
        """The facets, made on first use and kept on this object: from the
        normals its builder certified (`carried_normals`, taken to the
        chart by `_chart_normals`), or else certified here
        (`_certify_facets`).  Neither is seen by equality, hash, repr
        or files, so a polytope loaded from a file certifies from scratch.
        A failed certificate is not kept, so it raises again on the next
        use."""
        if self.carried_normals is None:
            return tuple(_certify_facets(self))
        normals = map(self.carried_normals.get, polygon.all_diagonals(self.n))
        return tuple(_records(self, _chart_normals(self.hull, normals)))


def make_polytope(construction, n, ambient_dim, pairs, params=None, scale=None, normals=None):
    """Validate and freeze a vertex-labeled polytope given as (coords,
    label) pairs.

    Labels must be exactly the triangulations of the (n+3)-gon; the pairs
    are sorted by label.  The coordinates are integer rows over the given
    `scale`, as the builders, a file (`serialize`) and the manifest's shear
    make them, or, with no scale, rationals (a map of another polytope),
    scaled here to integer rows over the lcm of their denominators.  Rows
    and scale are divided by their gcd, so the same vertices give the same
    record either way.  The rows must be distinct, each of length
    `ambient_dim`, and their affine hull n-dimensional and spanned by the
    frame, vertex 0 and its n flips (`_flip_basis`), whose basis is the
    `Hull` record's.  No other polytope passes the facet certificate:
    with N_k the normal of vertex 0's k-th diagonal and w_j its j-th flip,
    N_k . (w_j - v_0) is 0 for j != k and not 0 for j = k, so the frame's
    differences are independent.  No Fraction is made here:
    `LabeledPolytope.vertices` makes the Fraction coordinates on first read.

    A builder that has certified its facets itself passes `normals`, an int
    normal in the hull's direction space per diagonal, each tight at its
    members and strict elsewhere on the rows; the polytope carries them,
    and its `certified_facets` are made from them on first use.
    """
    pairs = sorted(pairs, key=lambda p: p[1])
    if tuple(label for _, label in pairs) != polygon.all_triangulations(n):
        raise ValueError("labels are not exactly the triangulations")
    if any(len(c) != ambient_dim for c, _ in pairs):
        raise ValueError(f"vertex coordinates are not all of length {ambient_dim}")
    if scale is None:
        rows, scale = integer_scaling([c for c, _ in pairs])
    else:
        rows = [tuple(c) for c, _ in pairs]
        g = gcd(scale, *chain.from_iterable(rows))
        if g > 1:
            rows, scale = [tuple(a // g for a in row) for row in rows], scale // g
    # one positive scale for all rows: distinct rows are distinct vertices
    if len(set(rows)) != len(rows):
        raise ValueError("vertex coordinates are not distinct")
    basis, pivots = _flip_basis(rows, n)
    return LabeledPolytope(
        construction=construction,
        n=n,
        params=dict(params or {}),
        hull=Hull(tuple(rows), scale, basis, pivots),
        carried_normals=normals,
    )


def _frame(n):
    """Vertex 0 and its n flips (`polygon.flip_table`): every hull's frame."""
    return (0, *polygon.flip_table(n)[0])


def _flip_basis(rows, n):
    """(basis, pivots): the `echelon_basis` of the frame's differences
    from rows[0], if it has n rows and spans every row's difference, else
    a ValueError naming the hull's dimension, or the frame if that is n.
    With L the basis' pivot entry, x is in the span iff f_j . x = 0 for
    f_j = L e_j - sum_k basis_k[j] e_{pivot_k} at each non-pivot column j:
    D - n integer equations, one D-term dot product per row each."""
    _, *flips = _frame(n)
    base = rows[0]
    basis, pivots = echelon_basis([vsub(rows[w], base) for w in flips])
    lead = basis[0][pivots[0]] if basis else 1
    equations = []
    for j in (j for j in range(len(base)) if j not in pivots):
        f = [0] * len(base)
        f[j] = lead
        for b, k in zip(basis, pivots):
            f[k] = -b[j]
        equations.append((f, sum(map(mul, base, f))))
    if len(basis) == n and all(sum(map(mul, r, f)) == v for f, v in equations for r in rows):
        return basis, pivots
    dimension = len(echelon_basis([vsub(row, base) for row in rows[1:]])[0])
    if dimension != n:
        raise ValueError(f"affine hull has dimension {dimension}, expected {n}")
    raise ValueError(f"vertex 0 and its flips {tuple(flips)} do not span the affine hull")


@dataclass(slots=True)
class FacetDescriptor:
    """A certified facet as the certificate made it: its diagonal, members
    (`vertex_indices`), first member and chart normal c, primitive with its
    first nonzero entry positive, so that c . x[pivots] - level is 0 on the
    members and has one sign, not 0, at every other vertex row x of `hull`.
    The ambient `normal` (primitive, first nonzero entry positive, in the
    hull's direction space), `offset` and `scale` (normal . x = offset /
    scale, in lowest terms) and the Fraction `hyperplane` are lifted on
    first read and kept, through the polytope's one `_normal_lift` matrix
    (`lift`, made on its first call).  Equal hulls give equal charts, so
    equal facets are those with equal hulls and chart functionals."""

    diagonal: tuple
    vertex_indices: frozenset
    chart_normal: tuple
    level: int
    member: int
    hull: Hull = field(repr=False)
    lift: object = field(compare=False, repr=False)
    _ambient: tuple = field(default=None, init=False, compare=False, repr=False)
    _hyperplane: object = field(default=None, init=False, compare=False, repr=False)

    def _lifted(self):
        """(normal, offset, scale), made on first read."""
        if self._ambient is None:
            normal = [sum(map(mul, row, self.chart_normal)) for row in self.lift()]
            g = gcd(*normal) * (1 if next(a for a in normal if a) > 0 else -1)
            normal = tuple(a // g for a in normal)
            offset, scale = sum(map(mul, normal, self.hull.rows[self.member])), self.hull.scale
            g = gcd(offset, scale)
            self._ambient = normal, offset // g, scale // g
        return self._ambient

    normal = property(lambda self: self._lifted()[0])
    offset = property(lambda self: self._lifted()[1])
    scale = property(lambda self: self._lifted()[2])

    @property
    def hyperplane(self):
        """The Fraction hyperplane (`exactlin.make_hyperplane`, first
        nonzero normal entry 1), made on first read and kept."""
        if self._hyperplane is None:
            self._hyperplane = make_hyperplane(self.normal, Fraction(self.offset, self.scale))
        return self._hyperplane


def extract_facets(p):
    """One certified facet per diagonal of the (n+3)-gon, as a new list.

    A polytope's facets are certified once, on the first call for that
    polytope object, and kept on it (`LabeledPolytope.certified_facets`);
    later calls copy them.  A cluster build carries the facet normals its
    wall check certified, so its facets are not certified again.  See
    `_certify_facets` for the certificate.
    """
    return list(p.certified_facets)


def _certify_facets(p, kernels=False):
    """The facets of `extract_facets`, certified.

    The facet's members are the vertices whose label carries the diagonal.
    It is certified in the hull's chart (`Hull.chart`).  A direction u of
    the hull is sum_k u[pivot_k] basis_k, so the chart is affine and
    one-to-one on the hull, and an affine functional of the hull has the
    same signs and zeros there.  The chart normal c is proposed in closed
    form if p has params (`_proposed_normals`); else, or with `kernels`, it
    is the kernel (`exactlin.integer_kernel`) of the chart differences
    w - v, for the flips w of the first member v at its other n-1
    diagonals (`polygon.flip_table`), which carry the diagonal too; what
    depends on n alone is laid out once per n (`_facet_plan`).  c is
    oriented by its sign at the first non-member (a 0 there fails either
    way).  `exactlin.lane_failures` then checks at every chart row y, for
    all F = n(n+3)/2 facets at once in the lanes of one Python int, that
    c.y - c.y_v is 0 on members and positive elsewhere.  Each facet keeps c
    (`_records`); no normal is lifted to the ambient space here, only when
    a caller reads it (`FacetDescriptor.normal`).

    Suppose the certificate holds.  Let d_1..d_n be v's diagonals, N_j
    their normals and w_j v's flip at d_j.  w_j carries every d_i but d_j,
    so N_i.(w_j - v) = 0 for i != j, and the certificate puts w_j strictly
    off d_j's hyperplane, so N_j.(w_j - v) != 0.  Applying N_k to
    sum_j c_j (w_j - v) = 0 leaves c_k N_k.(w_k - v) = 0, so the n vectors
    w_j - v are independent, and the n-1 of them with d_j != d lie on d's
    hyperplane.  So a proposal that passes is the kernel's primitive c and
    gives its facets, and if v and those flips do not span a codim-1 flat
    of the hull, the certificate cannot hold: no other members are tried.

    Certification failure means the construction is broken, not the
    analysis; a failed proposal proves nothing, so the kernels rerun and
    raise CertificationError naming the diagonal: first "no vertices carry
    it" or "do not span", in diagonal order, as the normals are solved;
    then, only if a row fails, its slots are unpacked and the first failing
    diagonal is named, "member off its hyperplane" before "hyperplane is
    not supporting".
    """
    proposal = None if kernels else _proposed_normals(p)
    diagonals, plan, tight = _facet_plan(p.n)
    chart = p.hull.chart
    functionals = []
    for f, (d, facet) in enumerate(zip(diagonals, plan)):
        if facet is None:
            raise CertificationError(f"diagonal {d}: no vertices carry it")
        _, v, flips, out = facet
        y = chart[v]
        # a kernel is None unless they span a codim-1 flat of the hull: fewer than n do not
        c = proposal[f] if proposal else integer_kernel([vsub(chart[w], y) for w in flips], p.n)
        if c is None:
            raise CertificationError(f"diagonal {d}: vertices do not span a codim-1 flat")
        level = sum(map(mul, c, y))
        if sum(map(mul, c, chart[out])) < level:
            c, level = [-a for a in c], -level
        functionals.append((c, level))
    failures = lane_failures(functionals, chart, tight)
    if failures and proposal:
        return _certify_facets(p, kernels=True)
    if failures:
        failed = {(f, f in tight[i]) for i, fs in failures for f in fs}
        f = min(f for f, _ in failed)
        if (f, True) in failed:
            raise CertificationError(f"diagonal {diagonals[f]}: member off its hyperplane")
        raise CertificationError(f"diagonal {diagonals[f]}: hyperplane is not supporting")
    return _records(p, [c for c, _ in functionals])


def _records(p, normals):
    """p's facets for their primitive chart normals c, in diagonal order:
    c signed with its first nonzero entry positive and its level
    c . x[pivots] read at the first member's row x.  One lift, made on its
    first call, serves them all."""
    diagonals, plan, _ = _facet_plan(p.n)
    hull = p.hull
    lift = cache(lambda: _normal_lift(hull))
    facets = []
    for c, d, (members, v, *_) in zip(normals, diagonals, plan):
        c = tuple(c) if next(a for a in c if a) > 0 else tuple(-a for a in c)
        level = sum(hull.rows[v][k] * a for k, a in zip(hull.pivots, c))
        facets.append(FacetDescriptor(d, members, c, level, v, hull, lift))
    return facets


def _chart_normals(hull, normals):
    """The int ambient `normals` as primitive chart functionals (N.basis_k)_k."""
    return primitive_rows([[sum(map(mul, b, a)) for b in hull.basis] for a in normals])


def _proposed_normals(p):
    """Its construction's facet normals (`Construction.normals`) on p's
    chart (`_chart_normals`); None without params or if one is 0 on the
    hull."""
    from .constructions import CONSTRUCTIONS  # it imports the builders, which import this

    c = CONSTRUCTIONS.get(p.construction)
    if c is None or c.key not in p.params:
        return None
    proposal = _chart_normals(p.hull, c.normals(p.params[c.key], p.n))
    return proposal if all(map(any, proposal)) else None


@lru_cache(maxsize=None)
def _facet_plan(n):
    """What `_certify_facets` reads of the labels at n: (diagonals, plan,
    tight).  plan[f] is None if no label carries diagonals[f], else
    (members, v, flips, out): its carriers as a frozenset, the first of
    them, v's flips at its other diagonals and the first non-member (v if
    there is none).  tight[i] lists the facets of vertex i's label."""
    labels, flip_table = polygon.all_triangulations(n), polygon.flip_table(n)
    diagonals = polygon.all_diagonals(n)
    index = {d: f for f, d in enumerate(diagonals)}
    tight = tuple(tuple(index[d] for d in label) for label in labels)
    carriers = [[] for _ in diagonals]
    for i, t in enumerate(tight):
        for f in t:
            carriers[f].append(i)
    plan = []
    for d, ordered in zip(diagonals, carriers):
        if not ordered:
            plan.append(None)
            continue
        v, members = ordered[0], frozenset(ordered)
        flips = tuple(w for e, w in zip(labels[v], flip_table[v]) if e != d)
        out = next((i for i in range(len(labels)) if i not in members), v)
        plan.append((members, v, flips, out))
    # cached and shared by every caller: nothing in it can be changed
    return diagonals, tuple(plan), tight


def _normal_lift(hull):
    """An int matrix, D rows by n, taking a chart functional c to a positive
    multiple of its normal in the direction space: B^T d G^-1, for B
    `hull.basis` over its pivot entry L, G = B B^T and d G^-1 its
    `integer_inverse`.  A direction u is (1/L) sum_k u[pivot_k] B_k, so
    N = B^T G^-1 c lies in the space and N.u = (1/L) c.(u at the
    pivots)."""
    basis = hull.basis
    inverse, _ = integer_inverse([[sum(map(mul, a, b)) for b in basis] for a in basis])
    return [[sum(map(mul, column, m)) for m in zip(*inverse)] for column in zip(*basis)]


def parallel_pairs(facets):
    """Unordered pairs of distinct diagonals with equal direction subspaces,
    sorted within a pair (facets come in diagonal order) and between pairs.
    A facet's direction space is its normal's orthogonal complement in the
    hull's direction space, where the normal lies, so the pairs are those
    of parallel normals.  The chart is a linear isomorphism of that space,
    so they are the pairs of equal chart normals (`FacetDescriptor`)."""
    classes = {}
    for f in facets:
        classes.setdefault(f.chart_normal, []).append(f.diagonal)
    return sorted(
        (c[i], c[j]) for c in classes.values() for i in range(len(c)) for j in range(i + 1, len(c))
    )


def face_lattice(p):
    """The f-vector (V, n V / 2, number of facets) of p, read off
    `p.certified_facets` (CertificationError unless they hold): d's
    members are exactly the vertices whose label carries d, all on its
    hyperplane, and every other vertex strictly on one side.  These are
    all the facets, and the flips are the edges.  At every vertex v:

    (a) the normals N_1..N_n of the facets of v's label d_1..d_n are
    independent.  Suppose sum_j c_j N_j = 0 with c_k != 0, and let w be
    v's flip at d_k.  w carries every d_j but d_k, so it lies on those n-1
    hyperplanes with v, and N_k.(w - v) = -(1/c_k) sum_{j != k} c_j
    N_j.(w - v) = 0; but w does not carry d_k, so the certificate puts it
    strictly off d_k's hyperplane, a contradiction.

    (b) for each diagonal d_k of v the other n-1 facets meet in the
    triangulations that hold the ridge v minus d_k: exactly v and its flip
    at d_k (`polygon.flip_table` raises AssertionError otherwise, once per n).

    Then, with P' the set cut out by the facet inequalities (P in P'),
    every vertex of P is a simple vertex of P' whose n edges end at
    vertices of P; the graph of P' is connected (Balinski), so P' has no
    other vertex and P' = P: n edges at each of the V vertices, two
    vertices to an edge.
    """
    facets = p.certified_facets
    polygon.flip_table(p.n)
    return len(p.labels), p.n * len(p.labels) // 2, len(facets)


def special_profile(pairs):
    """For each special facet, how many other special facets it intersects,
    from the certified facets' `parallel_pairs`, which callers have made.

    A facet is special when it belongs to some parallel pair.  Two facets
    meet iff their diagonals do not cross: their members are the vertices
    whose labels carry them, and two diagonals lie in a common
    triangulation iff they do not cross.  So the count is of the other
    special diagonals that do not cross the facet's own.
    """
    special = sorted({d for pair in pairs for d in pair})
    return {
        d: sum(1 for e in special if e != d and not polygon.crossing(d, e)) for d in special
    }


def dihedral_relabelings(n):
    """The 2(n+3) rotations and reflections of the polygon labels:
    l -> l + k at k, then l -> k - l at n+3+k, for k = 0..n+2."""
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


@lru_cache(maxsize=None)
def dihedral_images(n):
    """Entry s holds at i the index in `polygon.all_triangulations(n)`,
    every polytope's labels, of the i-th one under the s-th of
    `dihedral_relabelings(n)`.  Cached and shared: nothing in it can be
    changed.  Only the rotation by one and the mirror l -> -l relabel
    labels; rotation k is that step k times, and reflection k is rotation
    k after the mirror, composed on indices."""
    labels = polygon.all_triangulations(n)
    index = {t: i for i, t in enumerate(labels)}
    relabelings = dihedral_relabelings(n)
    step, mirror = (
        [index[relabel_triangulation(relabelings[k], t)] for t in labels] for k in (1, n + 3)
    )
    return _compose_dihedral(step, mirror, n)


def _compose_dihedral(step, mirror, n):
    """The 2(n+3) permutations of indices that the rotation by one, `step`,
    and the mirror generate, as a tuple in `dihedral_relabelings` order:
    rotation k is step k times, and reflection k is rotation k after the
    mirror."""
    rotations = [tuple(range(len(step)))]
    for _ in range(n + 2):
        rotations.append(tuple(step[i] for i in rotations[-1]))
    return tuple(rotations + [tuple(r[i] for i in mirror) for r in rotations])


@lru_cache(maxsize=None)
def _facet_images(n):
    """Each entry of `dihedral_images(n)` mapped to the permutation of the
    facets it induces: at f, the index of the facet whose members are the
    images of facet f's members.  A relabeling takes the triangulations
    that carry d to those that carry its image of d, so that facet is d's
    image; the rotation by one and the mirror relabel the diagonals, and
    the rest are composed from them as in `dihedral_images`.  A dict keyed
    by the entry, cached and shared: nothing in it can be changed."""
    diagonals, relabelings = polygon.all_diagonals(n), dihedral_relabelings(n)
    index = {d: f for f, d in enumerate(diagonals)}
    step, mirror = (
        [index[relabel_diagonal(relabelings[k], d)] for d in diagonals] for k in (1, n + 3)
    )
    return dict(zip(dihedral_images(n), _compose_dihedral(step, mirror, n)))


def fit_affine_map(p, q, images, probe):
    """Affine map sending vertex i of p to vertex images[i] of q, for
    `images` an entry of `dihedral_images(p.n)`; None if there is none.

    `probe` is p's `Hull.probe`, made once per search; only `images`
    changes between calls.  On the hull the map is fixed by p's frame and
    the frame's images, so it fails at the probe vertex unless the probe's
    weights, applied to q's integer hull rows of the frame's images, give
    d times q's row of the probe's image.  The weights w are affine
    (sum w = d), and an affine chart phi of q's hull is one-to-one on it,
    so sum w_k phi(y_k) = d phi(y_v) iff sum w_k y_k = d y_v: the test
    reads the rows themselves, and q's chart is never made; a miss reads
    n+2 rows of q, certifies nothing and makes no Fraction.

    Only a probe that fits, or a frame with no vertex outside it, goes on
    to `_lift`, which decides on the facets, certifying p and q first if
    they have not been (CertificationError if one fails).  The map sends
    every vertex to its image iff it pulls each facet functional of q back
    to a nonzero multiple of the functional of the facet of p whose
    members go to its members: then each vertex of p lands on the n facets
    of q at its image, whose normals are independent in q's hull
    (`face_lattice` (a)), so it lands on that vertex; see `_lift`.
    """
    if probe is not None:
        v, weights, d = probe
        rows = q.hull.rows
        columns = zip(*(rows[images[i]] for i in _frame(p.n)))
        y = rows[images[v]]
        if any(sum(map(mul, weights, col)) != d * a for col, a in zip(columns, y)):
            return None
    return _lift(p, q, images)


def _lift(p, q, images):
    """The ambient map p's frame and its `images` fix, if it sends every
    vertex i of p to vertex images[i] of q; else None.

    Decided on the certified facets of p and q, F = n(n+3)/2 of them, read
    at the n+1 frame rows of p and their images' rows of q, with no vertex
    pass and no lifted normal.  On p's hull the map f is the affine map that
    sends each frame vertex to its image.  Let sigma be the permutation of
    the facets that `images` induces on their member sets (`_facet_images`).
    For a facet d of p, with functional phi(x) = N . x - c (its normal and
    level), and q's facet sigma(d), with phi', the pulled-back functional
    phi' o f must be a nonzero multiple of phi on p's hull.  Both are affine
    there, so they are fixed by their values at the frame, an affine basis
    of it, and the test is that phi' at the frame's images is a nonzero
    multiple of phi at the frame, read as the facet's chart functional (on
    the hull a positive multiple of phi, see `FacetDescriptor`): 2(n+1) dot
    products of length n per facet, O(F n^2) in all, where a check of the
    map at every vertex costs O(V D^2) for the V = Catalan(n+1) vertices.

    This passes iff every vertex i goes to vertex images[i].  If: phi' o f
    vanishes where phi does, so f sends every member of d onto sigma(d)'s
    hyperplane.  Vertex i lies on the n facets of its label, and vertex
    images[i] of q is a member of each of their images (sigma takes
    members to the images of members), so f(i) and vertex images[i] lie on
    the same n hyperplanes of q.  f maps into q's affine hull, where those
    n normals are independent (`face_lattice` (a)), so the hyperplanes
    meet it in one point, and f(i) is vertex images[i].  Only if: f then
    sends d's members, which span d's hyperplane in p's hull, onto
    sigma(d)'s, so phi' o f is a multiple of phi there, and not 0, since a
    non-member goes to a non-member, off the hyperplane.

    X holds the differences of p's frame rows from the first, x_0, and Y
    those of their images' rows from y_0, all on the integer hull rows
    (scales s_p and s_q).  The map is x -> y_0 + M (x - x_0) with
    M = Y^T (X X^T)^-1 X times s_p / s_q: it is f on the hull and kills
    the orthogonal complement of the hull's direction space.  With (G, g)
    the `integer_inverse` of X X^T, K = Y^T (G X) is g M on the rows, an
    int matrix.  Only a map that passes is formed, and made of Fractions:
    the matrix s_p K / (s_q g) and the translation (g y_0 - K x_0) / (s_q g).
    """
    frame, rows, dst_rows = _frame(p.n), p.hull.rows, q.hull.rows
    xr = [rows[i] for i in frame]
    yr = [dst_rows[images[i]] for i in frame]
    xc = [[r[k] for k in p.hull.pivots] for r in xr]
    yc = [[r[k] for k in q.hull.pivots] for r in yr]
    targets = q.certified_facets
    for facet, f in zip(p.certified_facets, _facet_images(p.n)[images]):
        # each facet's chart functional at the frame rows and their images'
        a = [sum(map(mul, facet.chart_normal, x)) - facet.level for x in xc]
        b = [sum(map(mul, targets[f].chart_normal, y)) - targets[f].level for y in yc]
        j = next((k for k, x in enumerate(a) if x), None)
        if j is None or not b[j] or any(x * b[j] != y * a[j] for x, y in zip(a, b)):
            return None
    x0, y0 = xr[0], yr[0]
    xs = [vsub(r, x0) for r in xr[1:]]
    ys = [vsub(r, y0) for r in yr[1:]]
    inverse, g = integer_inverse([[sum(map(mul, a, b)) for b in xs] for a in xs])
    projected = [[sum(map(mul, row, col)) for col in zip(*xs)] for row in inverse]
    matrix = [[sum(map(mul, y, col)) for col in zip(*projected)] for y in zip(*ys)]
    shift = [g * b - sum(map(mul, k, x0)) for k, b in zip(matrix, y0)]
    s, t = p.hull.scale, q.hull.scale * g
    return exactlin.AffineMap(
        matrix=tuple(tuple(Fraction(s * a, t) for a in k) for k in matrix),
        translation=tuple(Fraction(b, t) for b in shift),
    )


@dataclass
class EquivalenceReport:
    """The obstructions as (name, fired, detail) and the witness, if any,
    which alone decides the verdict (see `equivalence_search`)."""

    pair: tuple
    obstructions: list
    witness: object = None

    @property
    def verdict(self):
        return "equivalent" if self.witness is not None else "non_equivalent"


def equivalence_search(p, q):
    """Label-free obstructions (which only explain a non-equivalence) and
    the first dihedral relabeling that fits an affine map, the witness.

    A miss over all 2(n+3) relabelings proves non-equivalence.  Both
    polytopes' facets are certified first: facet d's members are exactly
    the vertices whose label carries d, and by `face_lattice` these are
    all the facets.  An affine map f of p onto q maps facets to facets,
    so it permutes the diagonals by some tau, and sends the vertex labelled
    T, on the facets of T's diagonals, to the one vertex of q on those of
    tau(T), labelled tau(T).  So tau keeps the triangulations, hence the
    pairs of diagonals in a common one, the non-crossing pairs: tau is an
    automorphism of the crossing graph, and each of those is the action of
    a dihedral relabeling sigma (for n = 1 both are rotations; the tests
    count them for every n that can be built).  f keeps affine weights and
    is fixed on the hull by p's frame, so `fit_affine_map(p, q, images,
    probe)`, for sigma's entry of `dihedral_images(n)`, passes at the
    probe and `_lift` finds f there: f pulls each facet functional of q
    back to a nonzero multiple of its preimage's.  Conversely a map whose
    pullbacks are such multiples puts each vertex of p on the n facets of
    q that meet only at the vertex with the relabelled label, so a witness
    proves equivalence (`_lift` gives both directions in full).  On a hit
    only the F = n(n+3)/2 facets are read, not the Catalan(n+1) vertices.
    """
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
    prof_p = sorted(special_profile(pp).values())
    prof_q = sorted(special_profile(pq).values())
    obstructions.append(
        (
            "special_profile_multiset",
            prof_p != prof_q,
            {"left": prof_p, "right": prof_q},
        )
    )
    probe = p.hull.probe
    for images in dihedral_images(p.n):
        witness = fit_affine_map(p, q, images, probe)
        if witness is not None:
            break
    return EquivalenceReport(
        pair=(p.construction, q.construction),
        obstructions=obstructions,
        witness=witness,
    )
