import itertools
import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from associahedra import analysis, exactlin, polygon, sampling
from associahedra.analysis import (
    CertificationError,
    FacetDescriptor,
    HullChart,
    dihedral_relabelings,
    equivalence_search,
    extract_facets,
    facets_intersect,
    fit_affine_map,
    lattice_certificate,
    make_polytope,
    parallel_pairs,
    relabel_diagonal,
    relabel_triangulation,
    special_profile,
)
from associahedra.cluster import build_cluster_polytope, default_support_values
from associahedra.constructions import CONSTRUCTIONS
from associahedra.exactlin import (
    AffineMap,
    affinely_independent,
    dot,
    hyperplane_through,
    integer_normal,
    integer_points,
    invert,
    mat_vec,
    primitive_rows,
    rank,
    solve_linear,
    subspace_from_differences,
    vadd,
    vsub,
)
from associahedra.minkowski import build_minkowski, ones_weights
from associahedra.secondary import build_secondary
from associahedra.serialize import polytope_from_json, polytope_to_json

F = Fraction


def builds(n):
    return {
        "secondary": build_secondary(n=n),
        "cluster": build_cluster_polytope(default_support_values(n), n),
        "minkowski": build_minkowski(ones_weights(n), n),
    }


@pytest.mark.parametrize("n", [2, 3])
def test_facet_counts_all_constructions(n):
    for p in builds(n).values():
        facets = extract_facets(p)
        assert len(facets) == n * (n + 3) // 2
        for f in facets:
            assert len(f.vertex_indices) >= 2
            assert f.direction.dim == n - 1


def test_facets_n1_are_vertices():
    p = build_minkowski(ones_weights(1), 1)
    facets = extract_facets(p)
    assert len(facets) == 2
    assert all(len(f.vertex_indices) == 1 for f in facets)


def test_facet_of_diagonal_contains_matching_labels():
    n = 3
    p = build_minkowski(ones_weights(n), n)
    facets = {f.diagonal: f for f in extract_facets(p)}
    members = facets[(0, 2)].vertex_indices
    expected = {
        i for i, (_, label) in enumerate(p.vertices) if (0, 2) in label
    }
    assert members == expected
    assert len(members) == 5  # triangulations of the sub-pentagon


@pytest.mark.parametrize("n", [2, 3])
def test_simplicity_and_edge_sharing(n):
    for p in builds(n).values():
        facets = extract_facets(p)
        per_vertex = [0] * len(p.vertices)
        for f in facets:
            for i in f.vertex_indices:
                per_vertex[i] += 1
        assert all(c == n for c in per_vertex)
        for i, j in itertools.combinations(range(len(p.vertices)), 2):
            shared = sum(
                1 for f in facets if i in f.vertex_indices and j in f.vertex_indices
            )
            is_flip = (
                len(set(p.vertices[i][1]) & set(p.vertices[j][1])) == n - 1
            )
            assert (shared == n - 1) == is_flip


def test_facets_intersect_agreement():
    n = 3
    p = build_minkowski(ones_weights(n), n)
    facets = {f.diagonal: f for f in extract_facets(p)}
    assert not facets_intersect(facets[(1, 5)], facets[(0, 4)])
    for d1, d2 in itertools.combinations(facets, 2):
        # raises on geometric/combinatorial disagreement
        facets_intersect(facets[d1], facets[d2])


def test_parallel_pairs_per_construction():
    n = 3
    b = builds(n)
    assert parallel_pairs(extract_facets(b["secondary"])) == []
    assert parallel_pairs(extract_facets(b["minkowski"])) == sorted(
        [((0, 2), (1, 5)), ((0, 3), (2, 5)), ((0, 4), (3, 5))]
    )
    assert len(parallel_pairs(extract_facets(b["cluster"]))) == n


def test_special_profile_minkowski_n3():
    p = build_minkowski(ones_weights(3), 3)
    profile = special_profile(extract_facets(p))
    assert len(profile) == 6
    assert profile[(1, 5)] == 2 and profile[(0, 4)] == 2
    assert all(c > 2 for d, c in profile.items() if d not in ((1, 5), (0, 4)))


def test_special_profile_cluster_n3():
    p = build_cluster_polytope(default_support_values(3), 3)
    profile = special_profile(extract_facets(p))
    assert len(profile) == 6
    low = [d for d, c in profile.items() if c == 2]
    assert low == [(2, 5)]  # the diagonal of the middle simple root


def test_dihedral_relabelings_group():
    maps = dihedral_relabelings(2)
    assert len(maps) == 10
    assert tuple(range(5)) in maps
    rot1 = tuple((l + 1) % 5 for l in range(5))
    assert relabel_diagonal(rot1, (0, 2)) == (1, 3)
    # closed under composition
    as_set = set(maps)
    for a in maps:
        for b in maps:
            assert tuple(a[b[l]] for l in range(5)) in as_set


def test_relabeling_preserves_triangulations():
    n = 3
    ts = set(polygon.all_triangulations(n))
    for perm in dihedral_relabelings(n):
        for t in ts:
            assert relabel_triangulation(perm, t) in ts


def test_fit_identity():
    p = build_minkowski(ones_weights(2), 2)
    witness = fit_affine_map(HullChart(p), HullChart(p), tuple(range(5)))
    assert witness is not None
    for c, _ in p.vertices:
        assert witness.apply(c) == c


def test_fit_translation():
    p = build_minkowski(ones_weights(2), 2)
    shift = tuple(F(1) for _ in range(p.ambient_dim))
    moved = make_polytope(
        p.construction, p.n, p.ambient_dim,
        [(vadd(c, shift), label) for c, label in p.vertices],
    )
    witness = fit_affine_map(HullChart(p), HullChart(moved), tuple(range(5)))
    assert witness is not None
    for c, _ in p.vertices:
        assert witness.apply(c) == vadd(c, shift)


def test_parallel_pairs_shear_invariant():
    n = 3
    p = build_cluster_polytope(default_support_values(n), n)
    d = p.ambient_dim
    matrix = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    matrix[0][1] += F(1, 3)
    shear = AffineMap(
        matrix=tuple(tuple(r) for r in matrix),
        translation=tuple(F(1) for _ in range(d)),
    )
    q = make_polytope(
        p.construction, p.n, d, [(shear.apply(c), label) for c, label in p.vertices]
    )
    assert parallel_pairs(extract_facets(p)) == parallel_pairs(extract_facets(q))


def test_equivalence_obstruction_secondary_vs_cluster():
    b = builds(2)
    report = equivalence_search(b["secondary"], b["cluster"])
    assert report.verdict == "non_equivalent"
    counts = dict((name, detail) for name, fired, detail in report.obstructions if fired)
    assert counts["parallel_pair_count"] == {"left": 0, "right": 2}


def test_equivalence_self_witness():
    p = builds(2)["minkowski"]
    report = equivalence_search(p, p)
    assert report.verdict == "equivalent"
    assert report.witness is not None
    for c, _ in p.vertices:
        assert report.witness.apply(c) == c


def test_make_polytope_rejects_degenerate_hull():
    # distinct collinear points for the five triangulations of the pentagon
    pairs = [
        ((F(k), F(0), F(0)), t) for k, t in enumerate(polygon.all_triangulations(2))
    ]
    with pytest.raises(ValueError, match="affine hull has dimension 1"):
        make_polytope("secondary", 2, 3, pairs)


def test_equivalence_translated_copy():
    p = builds(2)["minkowski"]
    shift = tuple(F(2, 7) for _ in range(p.ambient_dim))
    moved = make_polytope(
        p.construction, p.n, p.ambient_dim,
        [(vadd(c, shift), label) for c, label in p.vertices],
    )
    report = equivalence_search(p, moved)
    assert report.verdict == "equivalent"


def test_equivalence_mismatched_n():
    with pytest.raises(ValueError):
        equivalence_search(builds(2)["minkowski"], builds(3)["minkowski"])


# -- reference implementations: facets from all members, one full fit per call


def reference_extract_facets(p):
    """Every facet fitted and spanned through all of its members, as
    (diagonal, members, hyperplane, direction) records."""
    hull = subspace_from_differences([c for c, _ in p.vertices])
    facets = []
    for d in polygon.all_diagonals(p.n):
        members = frozenset(i for i, (_, label) in enumerate(p.vertices) if d in label)
        if not members:
            raise CertificationError(f"diagonal {d}: no vertices carry it")
        member_coords = [p.vertices[i][0] for i in sorted(members)]
        hp = hyperplane_through(member_coords, hull)
        if hp is None:
            raise CertificationError(f"diagonal {d}: vertices do not span a codim-1 flat")
        if any(hp.value(c) != 0 for c in member_coords):
            raise CertificationError(f"diagonal {d}: member off its hyperplane")
        outside = [
            hp.value(p.vertices[i][0]) for i in range(len(p.vertices)) if i not in members
        ]
        if not (all(v > 0 for v in outside) or all(v < 0 for v in outside)):
            raise CertificationError(f"diagonal {d}: hyperplane is not supporting")
        direction = subspace_from_differences(member_coords)
        if direction.dim != p.n - 1:
            raise CertificationError(f"diagonal {d}: facet dimension {direction.dim}")
        facets.append((d, members, hp, direction))
    return facets


def reference_certify_facets(p):
    """The scalar certificate the lane certificate replaced, kept verbatim:
    one integer dot product of each facet's normal per vertex row."""
    rows, scale, labels = p.hull.rows, p.hull.scale, p.labels
    basis = primitive_rows(p.hull.space.basis)
    flips = polygon.flip_table(p.n)
    carriers = {d: [] for d in polygon.all_diagonals(p.n)}
    for i, label in enumerate(labels):
        for d in label:
            carriers[d].append(i)
    facets = []
    for d, ordered in carriers.items():
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
        values = [sum(map(mul, normal, x)) - offset for x in rows]
        if any(values[i] != 0 for i in members):
            raise CertificationError(f"diagonal {d}: member off its hyperplane")
        outside = [x for i, x in enumerate(values) if i not in members]
        if not (all(x > 0 for x in outside) or all(x < 0 for x in outside)):
            raise CertificationError(f"diagonal {d}: hyperplane is not supporting")
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
    return facets


def reference_facet_problems(p):
    """Every diagonal whose facet fails the scalar certificate, in diagonal
    order, with all of its problems: (d, [problem, ...]).  The normal is
    fitted through n affinely independent members; a diagonal with none is
    left out."""
    rows, labels = p.hull.rows, p.labels
    basis = primitive_rows(p.hull.space.basis)
    out = []
    for d in polygon.all_diagonals(p.n):
        members = [i for i, label in enumerate(labels) if d in label]
        spanning = [members[k] for k in affinely_independent([rows[i] for i in members], p.n)]
        normal = integer_normal([rows[i] for i in spanning], basis)
        if normal is None:
            continue
        offset = sum(map(mul, normal, rows[members[0]]))
        values = [sum(map(mul, normal, x)) - offset for x in rows]
        outside = [x for i, x in enumerate(values) if i not in members]
        problems = []
        if any(values[i] != 0 for i in members):
            problems.append("member off its hyperplane")
        if not (all(x > 0 for x in outside) or all(x < 0 for x in outside)):
            problems.append("hyperplane is not supporting")
        if problems:
            out.append((d, problems))
    return out


def _certificate_outcome(certify, p):
    try:
        return certify(p)
    except CertificationError as exc:
        return str(exc)


def _reference_hull_chart(p):
    coords = [c for c, _ in p.vertices]
    p0 = coords[0]
    basis = subspace_from_differences(coords).basis
    gram = tuple(tuple(dot(bi, bj) for bj in basis) for bi in basis)
    projector = tuple(
        mat_vec(invert(gram), tuple(b[j] for b in basis)) for j in range(p.ambient_dim)
    )
    proj_rows = tuple(zip(*projector))

    def chart(x):
        return mat_vec(proj_rows, vsub(x, p0))

    def unchart(y):
        out = p0
        for c, b in zip(y, basis):
            out = vadd(out, exactlin.vscale(c, b))
        return out

    return chart, unchart


def reference_independent(xs, n):
    """Greedy by rank: the first n+1 affinely independent points."""
    chosen = [0]
    for i in range(1, len(xs)):
        if len(chosen) == n + 1:
            break
        diffs = [vsub(xs[j], xs[chosen[0]]) for j in chosen[1:] + [i]]
        if rank(diffs) == len(diffs):
            chosen.append(i)
    return chosen


def reference_fit_affine_map(src, dst, label_map):
    """Both charts, the independent subset and n solves, redone per call."""
    n = src.n
    dst_by_label = {label: c for c, label in dst.vertices}
    pairs = [(c, dst_by_label[label_map[label]]) for c, label in src.vertices]
    chart_s, _ = _reference_hull_chart(src)
    chart_d, unchart_d = _reference_hull_chart(dst)
    xs = [chart_s(c) for c, _ in pairs]
    ys = [chart_d(c) for _, c in pairs]
    chosen = reference_independent(xs, n)
    system = [tuple(xs[i]) + (F(1),) for i in chosen]
    thetas = [solve_linear(system, [ys[i][k] for i in chosen]) for k in range(n)]
    chart_map = AffineMap(
        matrix=tuple(tuple(t[:n]) for t in thetas), translation=tuple(t[n] for t in thetas)
    )
    if any(chart_map.apply(x) != y for x, y in zip(xs, ys)):
        return None

    def f(x):
        return unchart_d(chart_map.apply(chart_s(x)))

    p0 = src.vertices[0][0]
    f_p0 = f(p0)
    cols = [
        vsub(f(vadd(p0, exactlin.unit(i, src.ambient_dim))), f_p0)
        for i in range(src.ambient_dim)
    ]
    matrix = tuple(
        tuple(cols[i][j] for i in range(src.ambient_dim)) for j in range(dst.ambient_dim)
    )
    witness = AffineMap(matrix=matrix, translation=vsub(f_p0, mat_vec(matrix, p0)))
    if any(witness.apply(c) != c_dst for (c, _), (_, c_dst) in zip(src.vertices, pairs)):
        return None
    return witness


def drawn(construction, n, rng):
    if construction == "secondary":
        return build_secondary(coords=sampling.random_convex_geometry(n, rng), n=n)
    if construction == "cluster":
        return build_cluster_polytope(sampling.perturbed_support_values(n, rng), n)
    return build_minkowski(sampling.random_weights(n, rng), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_extract_facets_matches_all_members_reference(construction, n):
    for p in (builds(n)[construction], drawn(construction, n, random.Random(n))):
        _assert_matches_reference(p)


def _assert_matches_reference(p):
    facets, want = extract_facets(p), reference_extract_facets(p)
    assert [(f.diagonal, f.vertex_indices, f.hyperplane, f.direction) for f in facets] == want
    # the kept normal is the hyperplane's, primitive on ints, first entry > 0
    normals = primitive_rows([hp.normal for _, _, hp, _ in want])
    assert [f.normal for f in facets] == [tuple(row) for row in normals]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_facets_fall_back_when_the_flips_do_not_span(monkeypatch, construction, n):
    # every flip of v recorded as v itself: the n chosen members are one
    # point, so every facet needs the elimination over all of its members
    def stuck(m):
        return tuple((i,) * m for i in range(len(polygon.all_triangulations(m))))

    p = drawn(construction, n, random.Random(20 + n))
    monkeypatch.setattr(polygon, "flip_table", stuck)
    calls = []
    _counting(monkeypatch, analysis, "affinely_independent", calls)
    _assert_matches_reference(p)
    assert len(calls) == len(polygon.all_diagonals(n))


def unimodular_relabelled_image(p, rng, perm=None):
    """Seeded integer affine image of p with determinant +-1 whose labels are
    moved by a dihedral symmetry of the polygon: `perm`, or a seeded one."""
    d = p.ambient_dim
    matrix = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        matrix[i] = [a + c * b for a, b in zip(matrix[i], matrix[j])]
    shift = [rng.randint(-3, 3) for _ in range(d)]
    if perm is None:
        perm = rng.choice(dihedral_relabelings(p.n))
    pairs = [
        (
            tuple(sum(m * x for m, x in zip(row, c)) + s for row, s in zip(matrix, shift)),
            relabel_triangulation(perm, label),
        )
        for c, label in p.vertices
    ]
    return make_polytope(p.construction, p.n, d, pairs)


def _label_map(p, perm):
    return {label: relabel_triangulation(perm, label) for _, label in p.vertices}


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_fit_matches_reference_on_unimodular_image(construction):
    rng = random.Random(3)
    p = drawn(construction, 3, rng)
    q = unimodular_relabelled_image(p, rng)
    src, dst = HullChart(p), HullChart(q)
    hits = 0
    for perm in dihedral_relabelings(3):
        label_map = _label_map(p, perm)
        got = fit_affine_map(src, dst, perm)
        assert got == reference_fit_affine_map(p, q, label_map)
        if got is not None:
            hits += 1
            by_label = {label: c for c, label in q.vertices}
            assert all(got.apply(c) == by_label[label_map[label]] for c, label in p.vertices)
    assert hits >= 1
    assert equivalence_search(p, q).verdict == "equivalent"


@settings(deadline=None, max_examples=25)
@given(
    construction=st.sampled_from(["secondary", "cluster", "minkowski"]),
    n=st.integers(2, 4),
    rng=st.randoms(use_true_random=False),
    data=st.data(),
)
def test_unimodular_image_always_yields_the_reference_witness(construction, n, rng, data):
    p = drawn(construction, n, rng)
    perm = data.draw(st.sampled_from(dihedral_relabelings(n)))
    q = unimodular_relabelled_image(p, rng, perm)
    src, dst = HullChart(p), HullChart(q)
    fits = {other: fit_affine_map(src, dst, other) for other in dihedral_relabelings(n)}
    for other, got in fits.items():
        assert got == reference_fit_affine_map(p, q, _label_map(p, other))
    assert fits[perm] is not None
    witness = equivalence_search(p, q).witness
    first_hit = next(got for got in fits.values() if got is not None)
    assert witness is not None and witness == first_hit


@pytest.mark.parametrize(
    "n, a, b",
    [(1, "secondary", "cluster"), (1, "secondary", "minkowski"), (2, "cluster", "minkowski")],
)
def test_witness_between_constructions_matches_reference(n, a, b):
    # at n = 1 the ambient dimensions differ (4 against 2): the witness is
    # a non-square matrix, in both directions
    built = builds(n)
    for p, q in ((built[a], built[b]), (built[b], built[a])):
        src, dst = HullChart(p), HullChart(q)
        hits = 0
        for perm in dihedral_relabelings(n):
            got = fit_affine_map(src, dst, perm)
            assert got == reference_fit_affine_map(p, q, _label_map(p, perm))
            if got is not None:
                hits += 1
                assert len(got.matrix) == q.ambient_dim
                assert all(len(row) == p.ambient_dim for row in got.matrix)
        assert hits


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


def test_miss_path_makes_no_fraction_map(monkeypatch):
    calls = []
    for module in (exactlin, analysis):
        _counting(monkeypatch, module, "invert", calls)
    _counting(monkeypatch, exactlin, "AffineMap", calls)
    b = builds(4)
    report = equivalence_search(b["secondary"], b["cluster"])
    assert report.witness is None and report.verdict == "non_equivalent"
    assert calls == []
    # every relabeling between the defaults, hit or miss: Fractions only on a hit
    for n in (2, 3):
        charts = [HullChart(p) for p in builds(n).values()]
        for src, dst in itertools.product(charts, repeat=2):
            for perm in dihedral_relabelings(n):
                calls.clear()
                hit = fit_affine_map(src, dst, perm) is not None
                assert sorted(set(calls)) == (["AffineMap", "invert"] if hit else [])


def _swap_labels(p, i, j):
    pairs = [list(v) for v in p.vertices]
    pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
    return make_polytope(p.construction, p.n, p.ambient_dim, [tuple(v) for v in pairs])


def test_extract_facets_rejects_swapped_labels():
    p = _swap_labels(build_minkowski(ones_weights(2), 2), 0, 1)
    with pytest.raises(CertificationError, match="hyperplane is not supporting"):
        extract_facets(p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_lane_certificate_matches_the_scalar_reference(construction, n):
    c = CONSTRUCTIONS[construction]
    for p in (c.build(c.default(n), n), drawn(construction, n, random.Random(n))):
        facets, want = analysis._certify_facets(p), reference_certify_facets(p)
        assert facets == want
        assert [f.spanning for f in facets] == [f.spanning for f in want]


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_extract_facets_matches_all_members_reference_on_n6_draws(construction):
    _assert_matches_reference(drawn(construction, 6, random.Random(6)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_swapped_labels_fail_as_the_scalar_reference_says(construction, n):
    c = CONSTRUCTIONS[construction]
    p = c.build(c.default(n), n)
    for i, j in itertools.combinations(range(len(p.labels)), 2):
        q = _swap_labels(p, i, j)
        assert _certificate_outcome(analysis._certify_facets, q) == _certificate_outcome(
            reference_certify_facets, q
        )


def test_two_failing_facets_name_the_earlier_diagonal():
    # two vertices swapped at n = 3: the facets of (0, 4) and (3, 5) fail,
    # each with a member off its hyperplane and a non-member on it
    p = _swap_labels(build_minkowski(ones_weights(3), 3), 0, 1)
    problems = reference_facet_problems(p)
    both = ["member off its hyperplane", "hyperplane is not supporting"]
    assert problems == [((0, 4), both), ((3, 5), both)]
    want = "diagonal (0, 4): member off its hyperplane"
    assert _certificate_outcome(reference_certify_facets, p) == want
    with pytest.raises(CertificationError) as exc:
        extract_facets(p)
    assert str(exc.value) == want


def test_an_earlier_unsupporting_facet_comes_before_a_later_member_off():
    # a vertex off (0, 2) moved through that facet to the far side: (0, 2)
    # is not supporting, and later facets of the moved vertex lose a member
    p = build_minkowski(ones_weights(3), 3)
    pairs = list(p.vertices)
    members = [c for c, label in pairs if (0, 2) in label]
    m = tuple(sum(c[k] for c in members) / len(members) for k in range(p.ambient_dim))
    w = next(i for i, (_, label) in enumerate(pairs) if (0, 2) not in label)
    pairs[w] = (vsub(exactlin.vscale(3, m), exactlin.vscale(2, pairs[w][0])), pairs[w][1])
    q = make_polytope(p.construction, p.n, p.ambient_dim, pairs)
    problems = reference_facet_problems(q)
    assert problems[0] == ((0, 2), ["hyperplane is not supporting"])
    assert any("member off its hyperplane" in kinds for _, kinds in problems[1:])
    want = "diagonal (0, 2): hyperplane is not supporting"
    assert _certificate_outcome(reference_certify_facets, q) == want
    assert _certificate_outcome(analysis._certify_facets, q) == want


def test_unsolved_normals_are_named_before_the_lane_certificate_runs(monkeypatch):
    p = _swap_labels(build_minkowski(ones_weights(3), 3), 0, 1)
    last = polygon.all_diagonals(3)[-1]
    last_rows = {p.hull.rows[i] for i, label in enumerate(p.labels) if last in label}
    solve = analysis.integer_normal

    def fails_on_the_last(points, basis):
        return None if set(points) <= last_rows else solve(points, basis)

    calls = []
    _counting(monkeypatch, analysis, "lane_failures", calls)
    monkeypatch.setattr(analysis, "integer_normal", fails_on_the_last)
    with pytest.raises(CertificationError, match=r"\(3, 5\): vertices do not span"):
        extract_facets(p)
    monkeypatch.setattr(analysis, "integer_normal", solve)
    # a diagonal no label carries, listed last
    diagonals = polygon.all_diagonals(3) + ((0, 5),)
    monkeypatch.setattr(polygon, "all_diagonals", lambda n: diagonals)
    with pytest.raises(CertificationError, match=r"\(0, 5\): no vertices carry it"):
        extract_facets(p)
    assert calls == []


def test_extract_facets_certifies_once_per_polytope(monkeypatch):
    p = build_minkowski(ones_weights(3), 3)
    first = extract_facets(p)
    calls = []
    for name in ("integer_normal", "affinely_independent"):
        _counting(monkeypatch, analysis, name, calls)
    second = extract_facets(p)
    assert second == first and second is not first
    assert calls == []
    # an equal polytope built again is another object: it certifies its own
    assert extract_facets(build_minkowski(ones_weights(3), 3)) == first
    assert calls


def test_extract_facets_result_is_the_callers_own():
    p = build_secondary(n=2)
    facets = extract_facets(p)
    want = list(facets)
    facets.pop()
    facets.reverse()
    assert extract_facets(p) == want


def test_failed_certificate_raises_on_every_call():
    p = _swap_labels(build_minkowski(ones_weights(2), 2), 0, 1)
    for _ in range(2):
        with pytest.raises(CertificationError, match="hyperplane is not supporting"):
            extract_facets(p)


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_kept_facets_change_no_equality_repr_or_file(construction):
    p, q = builds(2)[construction], builds(2)[construction]
    before = (repr(p), polytope_to_json(p))
    extract_facets(p)
    assert p == q and hash(p) == hash(q)
    assert (repr(p), polytope_to_json(p)) == before == (repr(q), polytope_to_json(q))
    assert polytope_from_json(polytope_to_json(p)) == p


def test_extract_facets_rejects_member_off_hyperplane():
    p = build_minkowski(ones_weights(3), 3)
    centroid = tuple(
        sum(c[k] for c, _ in p.vertices) / len(p.vertices) for k in range(p.ambient_dim)
    )
    pairs = list(p.vertices)
    c0, label0 = pairs[0]
    # a tenth of the way to the centroid: inside the hull, off every facet of vertex 0
    pairs[0] = (vadd(c0, exactlin.vscale(F(1, 10), vsub(centroid, c0))), label0)
    moved = make_polytope(p.construction, p.n, p.ambient_dim, pairs)
    with pytest.raises(CertificationError, match="member off its hyperplane"):
        extract_facets(moved)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_hull_record_matches_references(construction, n):
    rng = random.Random(10 + n)
    p = drawn(construction, n, rng)
    for q in (builds(n)[construction], p, unimodular_relabelled_image(p, rng)):
        coords = [c for c, _ in q.vertices]
        assert q.hull.space == subspace_from_differences(coords)
        assert list(q.hull.rows) == integer_points(coords)
        assert [tuple(q.hull.scale * x for x in c) for c in coords] == list(q.hull.rows)
        chart, _ = _reference_hull_chart(q)
        xs = [chart(c) for c in coords]
        assert list(q.hull.independent) == reference_independent(xs, n)
        # each vertex's weights over d are affine and give back its chart
        # coordinates from those of the independent vertices
        hull_chart = HullChart(q)
        d, independent = hull_chart.d, [xs[i] for i in q.hull.independent]
        for weights, x in zip(hull_chart.weights, xs):
            assert sum(weights) == d
            assert tuple(
                sum(F(w, d) * y[k] for w, y in zip(weights, independent)) for k in range(n)
            ) == x
        reloaded = polytope_from_json(polytope_to_json(q))
        assert reloaded == q and reloaded.hull == q.hull
        assert "hull" not in repr(q) and "Hull" not in repr(q)


# -- the face-lattice certificate on hand-made facet data


def _lattice_inputs(p):
    """The member bitmasks and hull-coordinate normals `face_lattice` reads."""
    pivots = p.hull.pivots
    facets = extract_facets(p)
    masks = {f.diagonal: sum(1 << i for i in f.vertex_indices) for f in facets}
    normals = {f.diagonal: tuple(f.normal[k] for k in pivots) for f in facets}
    return masks, normals


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_face_lattice_reads_the_certified_facets(construction):
    p = builds(3)[construction]
    report = analysis.face_lattice(p)
    assert report == lattice_certificate(3, *_lattice_inputs(p))
    assert report == {"ok": True, "f_vector": (14, 21, 9), "problems": []}


def test_lattice_certificate_rejects_dependent_normals():
    masks, normals = _lattice_inputs(builds(3)["minkowski"])
    label = polygon.all_triangulations(3)[0]
    d1, d2, d3 = label
    normals[d3] = tuple(a + b for a, b in zip(normals[d1], normals[d2]))
    report = lattice_certificate(3, masks, normals)
    assert not report["ok"]
    assert ("dependent_normals", label) in report["problems"]
    assert {kind for kind, *_ in report["problems"]} == {"dependent_normals"}


def test_lattice_certificate_rejects_an_extra_member():
    masks, normals = _lattice_inputs(builds(3)["minkowski"])
    labels, flips = polygon.all_triangulations(3), polygon.flip_table(3)
    # w flips label[0] of vertex 0 and u then flips label[1]: u carries
    # label[2] only, so with u added to label[1]'s members the facets of
    # label[1] and label[2] meet in 0, w and u
    label = labels[0]
    w = flips[0][0]
    u = flips[w][labels[w].index(label[1])]
    assert label[1] not in labels[u] and label[2] in labels[u]
    masks[label[1]] |= 1 << u
    report = lattice_certificate(3, masks, normals)
    assert not report["ok"]
    assert ("edge_not_certified", label, labels[w]) in report["problems"]
    assert {kind for kind, *_ in report["problems"]} == {"edge_not_certified"}
