import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from associahedra import analysis, cluster, exactlin, minkowski, secondary
from associahedra.analysis import dihedral_images, extract_facets, fit_affine_map
from associahedra.constructions import CONSTRUCTIONS
from associahedra.exactlin import (
    UNDERDETERMINED,
    ZERO,
    dot,
    echelon_basis,
    hyperplane_through,
    integer_inverse,
    integer_scaling,
    invert,
    make_hyperplane,
    nullspace,
    rref,
    solve_linear,
    vsub,
)

from oracles import Subspace, rank, span, subspace_from_differences, vec

F = Fraction


def reference_rref(rows):
    """The Fraction elimination the integer `rref` replaced, kept verbatim."""
    m = [list(Fraction(x) for x in row) for row in rows]
    if not m:
        return (), ()
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def reference_hyperplane_through(points, ambient):
    """The Fraction `hyperplane_through` the integer one replaced, kept verbatim."""
    if not points:
        return None
    p0 = points[0]
    diffs = [vsub(p, p0) for p in points[1:]]
    basis = ambient.basis
    if not basis:
        return None
    # normal = sum_k c_k basis_k with normal . diff = 0 for every diff
    constraint_rows = [tuple(dot(b, d) for b in basis) for d in diffs]
    kernel = nullspace(constraint_rows, ncols=len(basis))
    if len(kernel) != 1:
        return None
    c = kernel[0]
    normal = tuple(
        sum((c[k] * basis[k][j] for k in range(len(basis))), ZERO)
        for j in range(ambient.ambient_dim)
    )
    return make_hyperplane(normal, dot(normal, p0))


def random_rational_matrix(rng, nrows, ncols):
    """Rows with negative entries, denominators up to 1000, zero rows and
    rows that are combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append(tuple(F(0) for _ in range(ncols)))
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = F(rng.randint(-9, 9), rng.randint(1, 1000)), F(rng.randint(-9, 9))
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(
                F(rng.randint(-1000, 1000), rng.randint(1, 1000)) if rng.random() < 0.8 else F(0)
                for _ in range(ncols)
            ))
    return rows


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (6, 3), (9, 2), (2, 7), (4, 9), (7, 7)])
def test_rref_matches_fraction_reference(shape):
    rng = random.Random(sum(shape))
    for _ in range(20):
        rows = random_rational_matrix(rng, *shape)
        assert rref(rows) == reference_rref(rows)


def construction_polytopes(n, draws):
    """Each construction's default polytope at n and `draws` seeded draws."""
    rng = random.Random(n)
    out = []
    for c in CONSTRUCTIONS.values():
        values = [c.default(n)] + [c.draw(n, rng) for _ in range(draws)]
        out.extend(c.build(value, n) for value in values)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subspace_from_differences_matches_full_reference_rref(n):
    for p in construction_polytopes(n, draws=3):
        coords = [c for c, _ in p.vertices]
        basis, _ = reference_rref([vsub(c, coords[0]) for c in coords[1:]])
        assert subspace_from_differences(coords) == Subspace(basis, p.ambient_dim)


def _recording(monkeypatch, module, name, sink):
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    monkeypatch.setattr(module, name, wrapped)


def _exact(x):
    return type(x) in (Fraction, int)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_no_float_enters_a_predicate(n, monkeypatch):
    # Fraction(1, 2) == 0.5, so equality tests cannot see a float: check types
    bases, tables = [], []
    _recording(monkeypatch, analysis, "echelon_basis", bases)
    _recording(monkeypatch, secondary, "area_table", tables)
    _recording(monkeypatch, minkowski, "interval_table", tables)
    for p in construction_polytopes(n, draws=1):
        # the builders sum on ints and hand back canonical Fractions
        assert all(type(x) is Fraction for c, _ in p.vertices for x in c)
        for f in extract_facets(p):
            assert all(_exact(x) for x in f.hyperplane.normal + (f.hyperplane.offset,))
        # the search runs on ints and hands back a Fraction witness
        probe = p.hull.probe
        assert type(p.hull.scale) is int
        if n > 1:
            _, weights, d = probe
            assert all(type(w) is int for w in (d, *weights))
        witness = fit_affine_map(p, p, dihedral_images(n)[0], probe)
        entries = [x for row in witness.matrix for x in row] + list(witness.translation)
        assert all(type(x) is Fraction for x in entries)
    # each hull's basis is int rows, eliminated on ints
    assert bases
    assert all(type(x) is int for basis, _ in bases for row in basis for x in row)
    # one area table and one interval table per secondary and Minkowski build
    assert len(tables) == 4
    assert all(type(x) is int for table, d in tables for x in (d, *table.values()))
    # the cluster build reads its trees on ints and hands back Fractions:
    # its vertex coordinates are checked above, its wall slacks here
    h = {r: Fraction(1) for r in cluster.all_roots(n)}
    assert all(_exact(slack) for _, _, slack in cluster.polytopality_check(h, n)[1])


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def matrices(min_rows, max_rows):
    return st.integers(1, 5).flatmap(
        lambda ncols: st.lists(
            st.lists(fractions, min_size=ncols, max_size=ncols).map(tuple),
            min_size=min_rows,
            max_size=max_rows,
        )
    )


@settings(deadline=None)
@given(matrices(0, 6))
def test_rref_property_matches_fraction_reference(rows):
    assert rref(rows) == reference_rref(rows)


int_rows = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols).map(tuple), max_size=6
    )
)


@settings(deadline=None)
@given(int_rows)
@example([])
@example([(0, 0, 0)])
@example([(-2, 4, 1), (0, 0, 0), (-1, 2, 3), (4, -8, -2)])
def test_echelon_basis_is_the_integer_scaling_of_rref(rows):
    # rank-deficient, zero and negative-pivot rows included: each reduced
    # row over its pivot has the pivot's absolute value as denominator
    basis, pivots = echelon_basis(rows)
    reduced, want = rref(rows)
    assert (list(basis), pivots) == (integer_scaling(reduced)[0], want)


@settings(deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.tuples(
            st.lists(st.lists(fractions, min_size=dim, max_size=dim), min_size=1, max_size=dim),
            st.lists(st.lists(fractions, min_size=dim, max_size=dim).map(tuple), min_size=1, max_size=dim + 1),
        )
    )
)
def test_hyperplane_through_property_matches_fraction_reference(case):
    spanning, points = case
    ambient = span(spanning, len(points[0]))
    assert hyperplane_through(points, ambient) == reference_hyperplane_through(points, ambient)


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda k: st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k), min_size=k, max_size=k)
))
def test_integer_inverse_property(rows):
    k = len(rows)
    try:
        m, d = integer_inverse(rows)
    except ValueError:
        assert rank(rows) < k
        return
    assert d > 0
    assert all(sum(rows[i][j] * m[j][l] for j in range(k)) == d * (i == l) for i in range(k) for l in range(k))
    assert invert(rows) == tuple(tuple(F(a, d) for a in row) for row in m)


def test_rank_identity():
    assert rank([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]) == 3


def test_rank_zero_matrix():
    assert rank([vec(0, 0, 0, 0), vec(0, 0, 0, 0)]) == 0


def test_rank_dependent_rows():
    # third row independent; first two proportional
    rows = [vec(1, 1, -2), vec(2, 2, -4), vec(1, -1, 0)]
    assert rank(rows) == 2


def test_rank_equals_rank_of_transpose():
    rng = random.Random(7)
    for _ in range(25):
        rows = [
            vec(*[rng.randint(-4, 4) for _ in range(4)])
            for _ in range(rng.randint(1, 5))
        ]
        assert rank(rows) == rank(tuple(zip(*rows)))


def test_solve_identity():
    assert solve_linear([vec(1, 0), vec(0, 1)], vec(1, 2)) == vec(1, 2)


def test_solve_back_substitution():
    assert solve_linear([vec(1, -1), vec(0, 1)], vec(1, 1)) == vec(2, 1)


def test_solve_inconsistent():
    assert solve_linear([vec(1, 1), vec(2, 2)], vec(1, 3)) is None


def test_solve_underdetermined():
    assert solve_linear([vec(1, 1)], vec(1)) is UNDERDETERMINED


def test_solve_random_full_column_rank():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = None
        while rows is None or rank(rows) < n:
            rows = [vec(*[rng.randint(-3, 3) for _ in range(n)]) for _ in range(n + 1)]
        x0 = vec(*[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)])
        b = tuple(sum(r[j] * x0[j] for j in range(n)) for r in rows)
        assert solve_linear(rows, b) == x0


def test_subspace_from_differences_examples():
    s = subspace_from_differences([vec(0, 0), vec(1, 0)])
    assert s.dim == 1 and s.basis == (vec(1, 0),)
    s = subspace_from_differences([vec(0, 0, 0), vec(1, 1, 0), vec(2, 2, 0)])
    assert s.dim == 1 and s.basis == (vec(1, 1, 0),)
    s = subspace_from_differences([vec(0, 0), vec(1, 0), vec(0, 1)])
    assert s.dim == 2


def test_subspace_point_order_invariance():
    pts = [vec(0, 0, 1), vec(2, 1, 0), vec(1, 1, 1), vec(3, 0, 2)]
    rng = random.Random(3)
    base = subspace_from_differences(pts)
    for _ in range(10):
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert subspace_from_differences(shuffled) == base


def test_subspace_all_points_equal():
    s = subspace_from_differences([vec(1, 2), vec(1, 2)])
    assert s.dim == 0


def test_span_canonicalization_idempotent():
    s1 = span([vec(2, 4, 0), vec(1, 1, 1)], 3)
    s2 = span(list(s1.basis), 3)
    assert s1 == s2


def test_hyperplane_canonicalization_idempotent():
    h1 = make_hyperplane(vec(0, -2, 4), F(6))
    h2 = make_hyperplane(h1.normal, h1.offset)
    assert h1 == h2
    assert next(c for c in h1.normal if c != 0) == 1


def test_hyperplane_through_horizontal():
    plane = span([vec(1, 0), vec(0, 1)], 2)
    h = hyperplane_through([vec(0, 0), vec(1, 0)], plane)
    assert h.normal == vec(0, 1) and h.offset == 0


def test_hyperplane_through_line_y_equals_x():
    plane = span([vec(1, 0), vec(0, 1)], 2)
    h = hyperplane_through([vec(1, 1), vec(2, 2), vec(3, 3)], plane)
    assert h.normal == vec(1, -1) and h.offset == 0


def test_hyperplane_through_spanning_points():
    plane = span([vec(1, 0), vec(0, 1)], 2)
    assert hyperplane_through([vec(0, 0), vec(1, 0), vec(0, 1)], plane) is None


def test_hyperplane_degenerate_normal():
    with pytest.raises(ValueError):
        make_hyperplane(vec(0, 0), F(1))
