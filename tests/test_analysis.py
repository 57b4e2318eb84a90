import dataclasses
import functools
import itertools
import random
import re
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from associahedra import (
    analysis,
    cluster,
    exactlin,
    minkowski,
    polygon,
    sampling,
    secondary,
    verification,
)
from associahedra.analysis import (
    CertificationError,
    dihedral_images,
    dihedral_relabelings,
    equivalence_search,
    extract_facets,
    face_lattice,
    fit_affine_map,
    make_polytope,
    parallel_pairs,
    relabel_diagonal,
    relabel_triangulation,
    special_profile,
)
from associahedra.cli import analyze_report
from associahedra.cluster import build_cluster_polytope, default_support_values
from associahedra.constructions import CONSTRUCTIONS
from associahedra.exactlin import (
    AffineMap,
    dot,
    echelon_basis,
    hyperplane_through,
    integer_normal,
    integer_scaling,
    invert,
    mat_vec,
    primitive_rows,
    rref,
    solve_linear,
    vadd,
    vsub,
)
from associahedra.minkowski import build_minkowski, ones_weights
from associahedra.secondary import build_secondary
from associahedra.serialize import polytope_from_json, polytope_to_json

from oracles import eager_facets, rank, subspace_from_differences, vertex_pass_lift

F = Fraction


def frame(n):
    """Vertex 0 and its n flips: every hull's frame."""
    return (0, *polygon.flip_table(n)[0])


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
            members = [p.vertices[i][0] for i in sorted(f.vertex_indices)]
            assert subspace_from_differences(members).dim == n - 1


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
    # the premise of `special_profile`: two facets share a vertex iff
    # their diagonals do not cross
    for p in builds(3).values():
        facets = extract_facets(p)
        for f, g in itertools.combinations(facets, 2):
            meet = bool(f.vertex_indices & g.vertex_indices)
            assert meet == (not polygon.crossing(f.diagonal, g.diagonal))
    facets = {f.diagonal: f for f in extract_facets(builds(3)["minkowski"])}
    assert not facets[(1, 5)].vertex_indices & facets[(0, 4)].vertex_indices


def reference_special_profile(facets):
    """For each special facet, the other special facets whose member sets
    overlap its own, counted on the member sets themselves."""
    members = {f.diagonal: f.vertex_indices for f in facets}
    special = sorted({d for pair in parallel_pairs(facets) for d in pair})
    return {d: sum(1 for e in special if e != d and members[d] & members[e]) for d in special}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_special_profile_matches_the_member_overlap_reference(construction, n):
    c = CONSTRUCTIONS[construction]
    for p in (c.build(c.default(n), n), drawn(construction, n, random.Random(30 + n))):
        facets = extract_facets(p)
        assert special_profile(parallel_pairs(facets)) == reference_special_profile(facets)


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
    profile = special_profile(parallel_pairs(extract_facets(p)))
    assert len(profile) == 6
    assert profile[(1, 5)] == 2 and profile[(0, 4)] == 2
    assert all(c > 2 for d, c in profile.items() if d not in ((1, 5), (0, 4)))


def test_special_profile_cluster_n3():
    p = build_cluster_polytope(default_support_values(3), 3)
    profile = special_profile(parallel_pairs(extract_facets(p)))
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


def crossing_graph_automorphisms(n):
    """Every permutation of the diagonals that keeps which pairs cross, as
    a tuple of images in `polygon.all_diagonals(n)` order: a backtracking
    search that places the diagonals in order, each on a diagonal of the
    same degree that crosses exactly the images of the earlier diagonals it
    crosses."""
    diagonals = polygon.all_diagonals(n)
    crosses = [[polygon.crossing(d, e) for e in diagonals] for d in diagonals]
    degree = [sum(row) for row in crosses]
    found, image = [], []

    def place(k):
        if k == len(diagonals):
            found.append(tuple(diagonals[j] for j in image))
            return
        for j in range(len(diagonals)):
            if j in image or degree[j] != degree[k]:
                continue
            if all(crosses[k][i] == crosses[j][m] for i, m in enumerate(image)):
                image.append(j)
                place(k + 1)
                image.pop()

    place(0)
    return found


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_crossing_graph_automorphisms_are_the_dihedral_relabelings(n):
    # the completeness premise of `equivalence_search`: an affine
    # equivalence of certified polytopes permutes the diagonals as an
    # automorphism of the crossing graph, and each of those is a dihedral
    # relabeling (at n = 1 the 2(n+3) = 8 relabelings act as 2 maps)
    automorphisms = set(crossing_graph_automorphisms(n))
    diagonals = polygon.all_diagonals(n)
    relabelings = {
        tuple(relabel_diagonal(perm, d) for d in diagonals) for perm in dihedral_relabelings(n)
    }
    assert relabelings <= automorphisms
    assert len(automorphisms) == len(relabelings) == (2 if n == 1 else 2 * (n + 3))


def test_relabeling_preserves_triangulations():
    n = 3
    ts = set(polygon.all_triangulations(n))
    for perm in dihedral_relabelings(n):
        for t in ts:
            assert relabel_triangulation(perm, t) in ts


def _fit(p, q, perm):
    """`fit_affine_map` of p onto q under the dihedral relabeling `perm`,
    through its entry of the index table and p's probe."""
    images = dihedral_images(p.n)[dihedral_relabelings(p.n).index(perm)]
    return fit_affine_map(p, q, images, p.hull.probe)


def naive_dihedral_images(n):
    """Each relabeling applied to every label and looked up by label."""
    labels = polygon.all_triangulations(n)
    index = {t: i for i, t in enumerate(labels)}
    return [
        tuple(index[relabel_triangulation(perm, t)] for t in labels)
        for perm in dihedral_relabelings(n)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_dihedral_images_is_the_naive_relabel_and_index_table(n):
    table = dihedral_images(n)
    assert list(table) == naive_dihedral_images(n)
    size = len(polygon.all_triangulations(n))
    assert all(sorted(images) == list(range(size)) for images in table)
    # the identity first, and one table per n, shared
    assert table[0] == tuple(range(size)) and dihedral_images(n) is table



@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_facet_images_map_member_sets_to_member_sets(n):
    # each entry's facet permutation, read off the member sets one by one
    _, plan, _ = analysis._facet_plan(n)
    index = {members: f for f, (members, *_) in enumerate(plan)}
    naive = {
        images: tuple(index[frozenset(images[i] for i in members)] for members, *_ in plan)
        for images in dihedral_images(n)
    }
    table = analysis._facet_images(n)
    assert table == naive and analysis._facet_images(n) is table

def test_fit_identity():
    p = build_minkowski(ones_weights(2), 2)
    witness = _fit(p, p, tuple(range(5)))
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
    witness = _fit(p, moved, tuple(range(5)))
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


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_equivalence_default_against_a_draw_is_non_equivalent(construction):
    # same parallel pairs and profiles, so no obstruction fires; no
    # relabeling fits an affine map, which decides non-equivalence
    c = CONSTRUCTIONS[construction]
    p, q = c.build(c.default(3), 3), c.build(c.draw(3, random.Random(1)), 3)
    report = equivalence_search(p, q)
    assert report.verdict == "non_equivalent"
    assert report.witness is None
    assert not any(fired for _, fired, _ in report.obstructions)


def test_make_polytope_rejects_degenerate_hull():
    # distinct collinear points for the five triangulations of the pentagon
    pairs = [
        ((F(k), F(0), F(0)), t) for k, t in enumerate(polygon.all_triangulations(2))
    ]
    with pytest.raises(ValueError, match="affine hull has dimension 1"):
        make_polytope("secondary", 2, 3, pairs)


def test_make_polytope_rejects_a_hull_beyond_the_flips():
    # vertex 0 and its flips span a plane, and a vertex off them leaves it
    ts = polygon.all_triangulations(2)
    flips = polygon.flip_table(2)[0]
    off = next(i for i in range(1, 5) if i not in flips)
    pairs = [((i, i * i, int(i == off)), t) for i, t in enumerate(ts)]
    with pytest.raises(ValueError, match="affine hull has dimension 3, expected 2"):
        make_polytope("secondary", 2, 3, pairs)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_a_row_nudged_off_the_hull_falls_back_and_is_refused(monkeypatch, construction, n):
    # a vertex outside the frame moved by one in a column off the basis'
    # pivots leaves the hull: one of the hull equations refuses the flips'
    # basis, and the error path's one elimination of all rows finds the
    # extra dimension.  Every such column (each its own equation; secondary
    # has three) is nudged, at the first and at the last vertex outside the
    # frame
    p = builds(n)[construction]
    outside = [i for i in range(len(p.labels)) if i not in frame(n)]
    columns = [j for j in range(p.ambient_dim) if j not in p.hull.pivots]
    assert len(columns) == p.ambient_dim - n
    calls = []
    _counting(monkeypatch, analysis, "echelon_basis", calls)
    for v in (outside[0], outside[-1]):
        for j in columns:
            rows = [list(r) for r in p.hull.rows]
            rows[v][j] += 1
            calls.clear()
            with pytest.raises(ValueError, match=f"affine hull has dimension {n + 1}, expected {n}"):
                make_polytope(
                    p.construction, n, p.ambient_dim, zip(rows, p.labels), scale=p.hull.scale
                )
            assert calls == ["echelon_basis"] * 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_parallel_pairs_come_sorted_within_and_between_pairs(n):
    # facets come in diagonal order, so the manifest compares the pairs
    # with its expected ones as they come, with no second sort
    rng = random.Random(60 + n)
    for c in CONSTRUCTIONS.values():
        for p in (c.build(c.default(n), n), c.build(c.draw(n, rng), n)):
            pairs = parallel_pairs(extract_facets(p))
            assert pairs == sorted(tuple(sorted(pair)) for pair in pairs)


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
    """The scalar certificate the lane certificate replaced: one integer
    dot product of each facet's normal per vertex row.  Each facet is
    recorded as (diagonal, members, normal, offset, scale)."""
    rows, scale, labels = p.hull.rows, p.hull.scale, p.labels
    basis = primitive_rows(subspace_from_differences([c for c, _ in p.vertices]).basis)
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
        facets.append((d, members, tuple(normal), offset // g, scale // g))
    return facets


def certified(p):
    """`analysis._certify_facets`, each facet recorded as the reference
    records it, with its normal, offset and scale read (lifted) here."""
    return [
        (f.diagonal, f.vertex_indices, f.normal, f.offset, f.scale)
        for f in analysis._certify_facets(p)
    ]


def reference_facet_problems(p):
    """Every diagonal whose facet fails the scalar certificate, in diagonal
    order, with all of its problems: (d, [problem, ...]).  The normal is
    fitted through n affinely independent members; a diagonal with none is
    left out."""
    rows, labels = p.hull.rows, p.labels
    basis = primitive_rows(subspace_from_differences([c for c, _ in p.vertices]).basis)
    out = []
    for d in polygon.all_diagonals(p.n):
        members = [i for i, label in enumerate(labels) if d in label]
        chosen = reference_independent([rows[i] for i in members], p.n - 1)
        spanning = [members[k] for k in chosen]
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


def reference_basis(coords):
    """The hull record's (basis, pivots) from the Fraction `rref` of every
    vertex's difference from vertex 0: its rows over their common
    denominator."""
    reduced, pivots = rref([vsub(c, coords[0]) for c in coords[1:]])
    return tuple(integer_scaling(reduced)[0]), pivots


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
        vsub(f(vadd(p0, tuple(F(int(k == i)) for k in range(src.ambient_dim)))), f_p0)
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
    assert [(f.diagonal, f.vertex_indices, f.hyperplane) for f in facets] == [
        (d, members, hp) for d, members, hp, _ in want
    ]
    # the kept normal is the hyperplane's, primitive on ints, first entry > 0
    normals = primitive_rows([hp.normal for _, _, hp, _ in want])
    assert [f.normal for f in facets] == [tuple(row) for row in normals]
    # and it fixes the facet's direction, spanned from all of its members:
    # the (n-1)-space of the hull's directions orthogonal to it
    hull = subspace_from_differences([c for c, _ in p.vertices])
    for f, (_, _, _, direction) in zip(facets, want):
        assert direction.dim == hull.dim - 1
        assert all(dot(f.normal, b) == 0 for b in direction.basis)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_facets_fail_at_once_when_the_flips_do_not_span(monkeypatch, construction, n):
    # every flip of v recorded as v itself: the n chosen members are one
    # point, and no other members are tried (a certified polytope's flips
    # always span, see `_certify_facets`)
    def stuck(m):
        return tuple((i,) * m for i in range(len(polygon.all_triangulations(m))))

    p = drawn(construction, n, random.Random(20 + n))
    want = analysis._certify_facets(p)
    # made before the patch: `make_polytope` reads the hull off the flips
    bare = _without_params(p)
    monkeypatch.setattr(polygon, "flip_table", stuck)
    _fresh_facet_plan(monkeypatch)
    first = polygon.all_diagonals(n)[0]
    with pytest.raises(CertificationError, match=re.escape(f"{first}: vertices do not span")):
        extract_facets(bare)
    # the proposed normals read no flip: with its params p certifies as before
    assert extract_facets(p) == want


def _without_params(p):
    """p's vertices and labels with no params, so nothing proposes its
    normals and every facet's normal is solved as a kernel."""
    return make_polytope(
        p.construction, p.n, p.ambient_dim, zip(p.hull.rows, p.labels), scale=p.hull.scale
    )


def _fresh_facet_plan(monkeypatch):
    # `_certify_facets` reads the flip table and the diagonals through a
    # plan cached per n: a fresh cache for the test sees the patched
    # tables, and the module's own, restored afterwards, never holds them
    fresh = functools.lru_cache(maxsize=None)(analysis._facet_plan.__wrapped__)
    monkeypatch.setattr(analysis, "_facet_plan", fresh)


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
    hits = 0
    for perm in dihedral_relabelings(3):
        label_map = _label_map(p, perm)
        got = _fit(p, q, perm)
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
    fits = {other: _fit(p, q, other) for other in dihedral_relabelings(n)}
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
        hits = 0
        for perm in dihedral_relabelings(n):
            got = _fit(p, q, perm)
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
    _counting(monkeypatch, analysis, "Fraction", calls)
    _counting(monkeypatch, exactlin, "AffineMap", calls)
    b = builds(4)
    report = equivalence_search(b["secondary"], b["cluster"])
    assert report.witness is None and report.verdict == "non_equivalent"
    assert calls == []
    # every relabeling between the defaults, hit or miss: Fractions only on a hit
    for n in (2, 3):
        for p, q in itertools.product(builds(n).values(), repeat=2):
            for perm in dihedral_relabelings(n):
                calls.clear()
                hit = _fit(p, q, perm) is not None
                assert sorted(set(calls)) == (["AffineMap", "Fraction"] if hit else [])


def test_equivalence_search_weighs_only_the_source_chart(monkeypatch):
    # fitting reads the destination's hull rows only: a search inverts the
    # source frame's chart rows once, hit or miss, and a hit inverts the
    # Gram matrix of the source frame's differences once more
    calls = []
    original = analysis.integer_inverse

    def recording(rows):
        calls.append([tuple(row) for row in rows])
        return original(rows)

    monkeypatch.setattr(analysis, "integer_inverse", recording)
    b = builds(3)
    for p, q in ((b["secondary"], b["cluster"]), (b["minkowski"], b["minkowski"])):
        # certify both first, so that the calls are the search's own
        for r in (p, q):
            extract_facets(r)
        calls.clear()
        report = equivalence_search(p, q)
        assert (report.witness is not None) == (p is q)
        chart, independent = p.hull.chart, frame(p.n)
        want = [[chart[i] + (1,) for i in independent]]
        if p is q:
            xs = [vsub(p.hull.rows[i], p.hull.rows[0]) for i in independent[1:]]
            want.append([tuple(dot(a, b) for b in xs) for a in xs])
        assert calls == want


def reference_lift(p, q, images, targets):
    """The Fraction lift that the one-pass integer `_lift` replaced: the map
    x -> y_0 + M (x - x_0), M = Y^T (X X^T)^-1 X, formed with `invert` and
    `dot` over Fractions and checked on every vertex; None if one fails.
    `images` are the q vertices of p's frame, `targets` those of every
    p vertex."""
    s_src, s_dst = p.hull.scale, q.hull.scale
    x0, y0 = p.hull.rows[0], q.hull.rows[images[0]]
    xs = [vsub(p.hull.rows[i], x0) for i in frame(p.n)[1:]]
    ys = [vsub(q.hull.rows[j], y0) for j in images[1:]]
    inverse = invert([[sum(map(mul, a, b)) for b in xs] for a in xs])
    ratio = Fraction(s_src, s_dst)
    coordinates = [[ratio * dot(g, col) for col in zip(*xs)] for g in inverse]
    matrix = tuple(tuple(dot(y, c) for c in zip(*coordinates)) for y in zip(*ys))
    translation = tuple(Fraction(b, s_dst) - dot(row, x0) / s_src for row, b in zip(matrix, y0))
    (*m, t), denom = exactlin.integer_scaling(matrix + (translation,))
    for r, j in zip(p.hull.rows, targets):
        expected = q.hull.rows[j]
        if any(
            s_dst * (sum(map(mul, row, r)) + s_src * b) != s_src * denom * e
            for row, b, e in zip(m, t, expected)
        ):
            return None
    return AffineMap(matrix=matrix, translation=translation)


def _reference_lift_of(p, q, perm):
    # the images looked up label by label, not read off the index table
    index = {label: j for j, label in enumerate(q.labels)}
    targets = [index[relabel_triangulation(perm, label)] for label in p.labels]
    return reference_lift(p, q, [targets[i] for i in frame(p.n)], targets)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_witness_equals_the_fraction_reference_lift_on_every_hit(n):
    # defaults and draws, each against itself, a unimodular relabelled
    # image and the manifest's shear; the defaults also against each other
    rng = random.Random(40 + n)
    built = builds(n)
    draws = [drawn(c, n, rng) for c in CONSTRUCTIONS if n < 6 or c != "cluster"]
    cross = list(itertools.permutations(built.values(), 2))
    controls = []
    for p in [*built.values(), *draws]:
        image = unimodular_relabelled_image(p, rng)
        controls += [(p, p), (p, image), (image, p), (p, verification._shear_translate(p))]
    for k, (p, q) in enumerate(cross + controls):
        hits = 0
        for perm in dihedral_relabelings(n):
            got = _fit(p, q, perm)
            if got is not None:
                hits += 1
                assert got == _reference_lift_of(p, q, perm)
            elif n <= 3:
                # a miss is a miss of the reference too
                assert _reference_lift_of(p, q, perm) is None
        # every control is an affine image of its source
        assert hits or k < len(cross)


class _Reads(tuple):
    """A tuple that records the indices read from it one at a time."""

    def __new__(cls, items, log):
        self = super().__new__(cls, items)
        self.log = log
        return self

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


class _ReadsAll(_Reads):
    """A `_Reads` that also records a pass over all of it, as None."""

    def __iter__(self):
        self.log.append(None)
        return super().__iter__()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_miss_reads_one_vertex_outside_the_frame(monkeypatch, n):
    # across constructions every relabeling misses (from n = 3; at n = 2
    # the default cluster and Minkowski pentagons are affinely equivalent),
    # at the probe: once the index table for n is built, it relabels no
    # label, reads the table at the frame and the probe and q's hull rows
    # of their images only, passing over neither, makes no chart of q and
    # no Fraction and never lifts
    table = dihedral_images(n)
    calls, charts = [], []
    for module, name in [
        (analysis, "Fraction"),
        (analysis, "_lift"),
        (analysis, "relabel_triangulation"),
        (exactlin, "AffineMap"),
    ]:
        _counting(monkeypatch, module, name, calls)
    chart = analysis.Hull.chart.fget
    monkeypatch.setattr(
        analysis.Hull, "chart", property(lambda hull: charts.append(hull) or chart(hull))
    )
    rng = random.Random(n)
    polytopes = [*builds(n).values(), *(drawn(c, n, rng) for c in CONSTRUCTIONS)]
    for p, q in itertools.combinations(polytopes, 2):
        if p.construction == q.construction:
            continue
        probe = p.hull.probe
        v, independent = probe[0], frame(n)
        assert v not in independent
        assert all(i in independent for i in range(v))
        read, rows_read = [], []
        q = dataclasses.replace(q, hull=q.hull._replace(rows=_ReadsAll(q.hull.rows, rows_read)))
        for images in table:
            read.clear(), rows_read.clear()
            assert fit_affine_map(p, q, _ReadsAll(images, read), probe) is None
            assert read == [*independent, v]
            assert rows_read == [images[i] for i in read]
        assert calls == [] and charts == []


def _logging_rows(p, log):
    """p with its hull rows recording their reads in `log`, certified
    (the certificate reads every row) before the log is cleared."""
    p = dataclasses.replace(p, hull=p.hull._replace(rows=_ReadsAll(p.hull.rows, log)))
    extract_facets(p)
    log.clear()
    return p


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_hit_reads_the_frames_and_the_probe_only(n):
    # a hit is decided on the certified facets: q's rows are read at the
    # images of the frame and of the probe, p's at the frame, and neither
    # is passed over, so there is no vertex pass
    rng = random.Random(50 + n)
    independent = frame(n)
    for construction in CONSTRUCTIONS:
        p = drawn(construction, n, rng)
        perm = rng.choice(dihedral_relabelings(n))
        q = unimodular_relabelled_image(p, rng, perm)
        src_read, dst_read = [], []
        src, dst = _logging_rows(p, src_read), _logging_rows(q, dst_read)
        probe = src.hull.probe
        src_read.clear()
        images = dihedral_images(n)[dihedral_relabelings(n).index(perm)]
        witness = fit_affine_map(src, dst, images, probe)
        assert witness is not None and witness == vertex_pass_lift(p, q, images)
        assert set(src_read) == set(independent)
        assert set(dst_read) == {images[i] for i in (*independent, probe[0])}


def _mutations(q):
    """q's certified facets with one replaced, every facet in turn, in the
    chart functional c . x[pivots] - level that `_lift` reads: by a
    parallel hyperplane (its level moved by 1), then by one tilted about
    its first member (another facet's chart normal added, one not
    parallel)."""
    facets = list(q.certified_facets)
    for f, facet in enumerate(facets):
        c = facet.chart_normal
        other = next(e for e in facets if e.chart_normal != c)
        tilt = tuple(a + b for a, b in zip(c, other.chart_normal))
        level = sum(a * q.hull.rows[facet.member][k] for a, k in zip(tilt, q.hull.pivots))
        for replaced in (
            dataclasses.replace(facet, level=facet.level + 1),
            dataclasses.replace(facet, chart_normal=tilt, level=level),
        ):
            yield facets[:f] + [replaced] + facets[f + 1 :]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_a_witness_needs_every_facet_of_the_target(construction, n):
    # the facet check reads q's certified facets: replace any one of them
    # by a parallel or a tilted hyperplane and no relabeling fits
    rng = random.Random(60 + n)
    p = drawn(construction, n, rng)
    q = unimodular_relabelled_image(p, rng)
    assert equivalence_search(p, q).witness is not None
    for facets in _mutations(q):
        mutated = dataclasses.replace(q)
        vars(mutated)["certified_facets"] = tuple(facets)
        assert equivalence_search(p, mutated).witness is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_lazy_normals_equal_the_eager_lift(construction, n):
    # the default and a seeded draw on every path that makes facets: the
    # proposed normals (a build, and a loaded file with its params), the
    # kernels (no params, and the manifest's shear) and the carried normals
    # (a cluster build); each field is read lazily, after the reference
    c = CONSTRUCTIONS[construction]
    for p in (c.build(c.default(n), n), drawn(construction, n, random.Random(90 + n))):
        loaded = polytope_from_json(polytope_to_json(p))
        kernels = (_without_params(p), verification._shear_translate(p))
        for q in (p, loaded, *kernels):
            want = eager_facets(q, q.carried_normals)
            facets = extract_facets(q)
            got = [(f.diagonal, f.vertex_indices, f.normal, f.offset, f.scale) for f in facets]
            assert got == [w[:5] for w in want]
            assert [f.hyperplane for f in facets] == [w[5] for w in want]
            # pairs by signed primitive chart normal are those of equal
            # primitive ambient normals
            classes = {}
            for f in facets:
                classes.setdefault(f.normal, []).append(f.diagonal)
            by_normal = [pair for ds in classes.values() for pair in itertools.combinations(ds, 2)]
            assert parallel_pairs(facets) == sorted(by_normal)
        # only a cluster build carries its normals
        assert (p.carried_normals is not None) == (construction == "cluster")


def test_reports_and_searches_lift_no_normal(monkeypatch):
    # analysis, the face lattice and a search, hit or miss, read the chart
    # functionals alone; the first normal read lifts its polytope's once
    lifts = []
    _counting(monkeypatch, analysis, "_normal_lift", lifts)
    n, rng = 5, random.Random(95)
    loaded = {
        name: polytope_from_json(polytope_to_json(c.build(c.default(n), n)))
        for name, c in CONSTRUCTIONS.items()
    }
    images = []
    for name, p in loaded.items():
        images.append(unimodular_relabelled_image(p, rng))
        other = loaded[next(o for o in loaded if o != name)]
        analyze_report(p)
        face_lattice(p)
        assert equivalence_search(p, images[-1]).witness is not None
        assert equivalence_search(p, other).witness is None
    assert lifts == []
    for q in [*loaded.values(), *images]:
        facets = extract_facets(q)
        facets[-1].normal
        assert len(lifts) == 1
        [(f.normal, f.offset, f.scale, f.hyperplane) for f in facets]
        assert len(lifts) == 1
        lifts.clear()


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_witness_equals_the_vertex_pass_at_n7(construction):
    # one seeded image of the n = 7 default: every relabeling whose probe
    # fits is decided as the integer vertex pass decides it, and the
    # search's witness is the vertex pass's map
    n, c = 7, CONSTRUCTIONS[construction]
    p = c.build(c.default(n), n)
    q = unimodular_relabelled_image(p, random.Random(70))
    probe, fitted = p.hull.probe, []
    for images in dihedral_images(n):
        got = fit_affine_map(p, q, images, probe)
        if _probe_fits(q, images, probe):
            fitted.append(images)
            assert got == vertex_pass_lift(p, q, images)
        else:
            assert got is None
    hits = [images for images in fitted if vertex_pass_lift(p, q, images) is not None]
    assert hits
    assert equivalence_search(p, q).witness == vertex_pass_lift(p, q, hits[0])


def _probe_fits(q, images, probe):
    v, weights, d = probe
    columns = zip(*(q.hull.rows[images[i]] for i in frame(q.n)))
    return all(
        sum(map(mul, weights, col)) == d * a for col, a in zip(columns, q.hull.rows[images[v]])
    )


def _swap_labels(p, i, j, params=None):
    pairs = [list(v) for v in p.vertices]
    pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
    return make_polytope(
        p.construction, p.n, p.ambient_dim, [tuple(v) for v in pairs], params=params
    )


def _swap_or_refusal(p, i, j, params=None):
    """`_swap_labels`, or None if `make_polytope` refuses the swap because
    vertex 0 and its flips no longer span the hull.  A refused swap fails
    the scalar reference certificate too, on the same rows made into a
    polytope with no frame check: a passing certificate makes the flips'
    differences independent, so only such polytopes are refused."""
    try:
        return _swap_labels(p, i, j, params)
    except ValueError as exc:
        assert str(exc) == f"vertex 0 and its flips {frame(p.n)[1:]} do not span the affine hull"
    rows = list(p.hull.rows)
    rows[i], rows[j] = rows[j], rows[i]
    hull = analysis.Hull(tuple(rows), p.hull.scale, (), ())
    q = dataclasses.replace(p, hull=hull, params={})
    assert isinstance(_certificate_outcome(reference_certify_facets, q), str)
    return None


def test_extract_facets_rejects_swapped_labels():
    p = _swap_labels(build_minkowski(ones_weights(2), 2), 0, 1)
    with pytest.raises(CertificationError, match="hyperplane is not supporting"):
        extract_facets(p)


def _images(p, rng):
    """Hulls no builder makes, with other pivots, scales and ambient
    dimensions: a unimodular relabelled image of p, its
    `verification._shear_translate` image, its file round trip and a
    full-dimensional copy in n-space, where there is nothing to lift."""
    charted = [tuple(r[k] - p.hull.rows[0][k] for k in p.hull.pivots) for r in p.hull.rows]
    full = make_polytope(p.construction, p.n, p.n, zip(charted, p.labels), scale=p.hull.scale)
    assert full.ambient_dim == full.n and len(full.hull.basis) == p.n
    return [
        unimodular_relabelled_image(p, rng),
        verification._shear_translate(p),
        polytope_from_json(polytope_to_json(p)),
        full,
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_lane_certificate_matches_the_scalar_reference(construction, n):
    c = CONSTRUCTIONS[construction]
    rng = random.Random(50 + n)
    for p in (c.build(c.default(n), n), drawn(construction, n, random.Random(n))):
        for q in [p, *_images(p, rng)]:
            assert certified(q) == reference_certify_facets(q)


# the module function each record's `normals` calls
NORMALS = {
    "secondary": (secondary, "fold_normals"),
    "cluster": (cluster, "ray_normals"),
    "minkowski": (minkowski, "interval_normals"),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_built_and_loaded_polytopes_certify_their_proposed_normals(
    monkeypatch, construction, n
):
    c = CONSTRUCTIONS[construction]
    rng = random.Random(70 + n)
    calls = []
    _counting(monkeypatch, analysis, "integer_kernel", calls)
    for value in [c.default(n)] + [c.draw(n, rng) for _ in range(3)]:
        p = c.build(value, n)
        for q in (p, polytope_from_json(polytope_to_json(p))):
            assert certified(q) == reference_certify_facets(q)
    assert calls == []


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_a_wrong_proposal_falls_back_to_the_kernels(monkeypatch, construction):
    n = 3
    c = CONSTRUCTIONS[construction]
    p = c.build(c.draw(n, random.Random(80)), n)
    want = reference_certify_facets(p)
    module, name = NORMALS[construction]
    normals = getattr(module, name)

    def exchanged(*args):
        rows = normals(*args)
        rows[0], rows[1] = rows[1], rows[0]
        return rows

    def flat(*args):
        # constant on the hull (the GKZ vectors' coordinates sum to three
        # times the area, the others' to 0 or the total weight): nothing to propose
        return [[1] * p.ambient_dim for _ in normals(*args)]

    calls = []
    _counting(monkeypatch, analysis, "integer_kernel", calls)
    for wrong in (exchanged, flat):
        monkeypatch.setattr(module, name, wrong)
        calls.clear()
        assert certified(p) == want
        assert len(calls) == n * (n + 3) // 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_certificate_solves_on_chart_rows(monkeypatch, n):
    # F kernels of n-1 chart rows by n columns and one lane pass over rows
    # of n columns, and no Gram inverse, since no normal is lifted until it
    # is read: a return to ambient-width rows, or to an eager lift, shows
    # here without any timing.  With its params a polytope's normals are
    # proposed, and it solves nothing
    shapes, widths = [], []
    eliminate, lanes = exactlin._eliminate, analysis.lane_failures

    def eliminating(m):
        shapes.append((len(m), len(m[0])))
        return eliminate(m)

    def checking(functionals, rows, tight):
        widths.append({len(r) for r in rows})
        return lanes(functionals, rows, tight)

    monkeypatch.setattr(exactlin, "_eliminate", eliminating)
    monkeypatch.setattr(analysis, "lane_failures", checking)
    count = n * (n + 3) // 2
    for c in CONSTRUCTIONS.values():
        p = c.build(c.default(n), n)
        assert p.ambient_dim > n
        for q, solved in ((_without_params(p), [(n - 1, n)] * count), (p, [])):
            shapes.clear()
            widths.clear()
            analysis._certify_facets(q)
            assert shapes == solved
            assert widths == [{n}]


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_extract_facets_matches_all_members_reference_on_n6_draws(construction):
    _assert_matches_reference(drawn(construction, 6, random.Random(6)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_swapped_labels_fail_as_the_scalar_reference_says(construction, n):
    c = CONSTRUCTIONS[construction]
    p = c.build(c.default(n), n)
    image = unimodular_relabelled_image(p, random.Random(60 + n))
    # p's params kept: its proposed normals fail, and the kernels name the fault
    for base, params in ((p, None), (image, None), (p, p.params)):
        for i, j in itertools.combinations(range(len(p.labels)), 2):
            q = _swap_or_refusal(base, i, j, params)
            if q is None:
                continue
            assert _certificate_outcome(certified, q) == _certificate_outcome(
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
    assert _certificate_outcome(certified, q) == want


def test_unsolved_normals_are_named_before_the_lane_certificate_runs(monkeypatch):
    p = _swap_labels(build_minkowski(ones_weights(3), 3), 0, 1)
    # the kernels are solved in diagonal order: the last call is the last
    # diagonal's
    count = len(polygon.all_diagonals(3))
    solved = []
    solve = analysis.integer_kernel

    def fails_on_the_last(rows, ncols):
        solved.append(rows)
        return None if len(solved) == count else solve(rows, ncols)

    calls = []
    _counting(monkeypatch, analysis, "lane_failures", calls)
    monkeypatch.setattr(analysis, "integer_kernel", fails_on_the_last)
    with pytest.raises(CertificationError, match=r"\(3, 5\): vertices do not span"):
        extract_facets(p)
    assert len(solved) == count
    monkeypatch.setattr(analysis, "integer_kernel", solve)
    # a diagonal no label carries, listed last
    diagonals = polygon.all_diagonals(3) + ((0, 5),)
    monkeypatch.setattr(polygon, "all_diagonals", lambda n: diagonals)
    _fresh_facet_plan(monkeypatch)
    with pytest.raises(CertificationError, match=r"\(0, 5\): no vertices carry it"):
        extract_facets(p)
    assert calls == []


def test_extract_facets_certifies_once_per_polytope(monkeypatch):
    p = build_minkowski(ones_weights(3), 3)
    first = extract_facets(p)
    calls = []
    for name in ("integer_kernel", "lane_failures"):
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
    loaded = polytope_from_json(polytope_to_json(p))
    assert loaded == p
    # the record stores n and the hull; its labels are the cached table
    fields = [f.name for f in dataclasses.fields(p)]
    assert fields == ["construction", "n", "params", "hull", "carried_normals"]
    assert p.labels is loaded.labels is polygon.all_triangulations(2)
    assert p.ambient_dim == loaded.ambient_dim == len(p.hull.rows[0])


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
        assert q.hull[2:] == reference_basis(coords)
        assert list(q.hull.rows) == integer_scaling(coords)[0]
        assert [tuple(q.hull.scale * x for x in c) for c in coords] == list(q.hull.rows)
        chart, _ = _reference_hull_chart(q)
        xs = [chart(c) for c in coords]
        # the probe, the first vertex outside the frame, has affine weights
        # over d that give back its chart coordinates from the frame's
        probe = q.hull.probe
        if n == 1:
            assert probe is None and len(coords) == len(frame(n))
        else:
            v, weights, d = probe
            assert v == min(set(range(len(coords))) - set(frame(n)))
            independent = [xs[i] for i in frame(n)]
            assert sum(weights) == d > 0
            assert tuple(
                sum(F(w, d) * y[k] for w, y in zip(weights, independent)) for k in range(n)
            ) == xs[v]
        reloaded = polytope_from_json(polytope_to_json(q))
        assert reloaded == q and reloaded.hull == q.hull
        assert "hull" not in repr(q) and "Hull" not in repr(q)


# -- the face-lattice certificate on hand-made facet data


def _lattice_inputs(p):
    """The member bitmasks and hull-coordinate normals the reference reads."""
    pivots = p.hull.pivots
    facets = extract_facets(p)
    masks = {f.diagonal: sum(1 << i for i in f.vertex_indices) for f in facets}
    normals = {f.diagonal: tuple(f.normal[k] for k in pivots) for f in facets}
    return masks, normals


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_face_lattice_reads_the_certified_facets(construction):
    p = builds(3)[construction]
    reference = reference_lattice_certificate(3, *_lattice_inputs(p))
    assert reference == {"ok": True, "f_vector": (14, 21, 9), "problems": []}
    assert analysis.face_lattice(p) == reference["f_vector"]


def reference_lattice_certificate(n, masks, normals):
    """The certificate with one `rank` per vertex that the flip walk
    replaced, kept verbatim."""
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_face_lattice_matches_the_rank_reference(n):
    # the reference ranks every vertex's facet normals, which the facet
    # certificate makes independent: no vertex is dependent on the
    # defaults or on draws, so the two certificates agree
    for construction, c in CONSTRUCTIONS.items():
        for p in (c.build(c.default(n), n), drawn(construction, n, random.Random(40 + n))):
            reference = reference_lattice_certificate(n, *_lattice_inputs(p))
            assert reference["ok"], reference["problems"][:3]
            assert analysis.face_lattice(p) == reference["f_vector"]


def _counting_eliminations(monkeypatch):
    calls = []
    eliminate = exactlin._eliminate
    monkeypatch.setattr(exactlin, "_eliminate", lambda m: calls.append(1) or eliminate(m))
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_face_lattice_eliminates_nothing_once_certified(monkeypatch, n):
    assert not hasattr(analysis, "exchange_inverse")
    for c in CONSTRUCTIONS.values():
        p = c.build(c.default(n), n)
        extract_facets(p)
        calls = _counting_eliminations(monkeypatch)
        assert analysis.face_lattice(p)[2] == n * (n + 3) // 2
        assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_hull_frame_is_vertex_0_and_its_flips(monkeypatch, construction, n):
    c = CONSTRUCTIONS[construction]
    for p in (c.build(c.default(n), n), drawn(construction, n, random.Random(n))):
        rows = p.hull.rows
        assert p.hull[2:] == echelon_basis([vsub(r, rows[0]) for r in rows[1:]])
        # remade from its rows: the span of the flips is the one elimination
        calls = _counting_eliminations(monkeypatch)
        pairs = zip(p.hull.rows, p.labels)
        q = make_polytope(p.construction, n, p.ambient_dim, pairs, scale=p.hull.scale)
        assert q.hull == p.hull and len(calls) == 1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_hull_frame_falls_back_when_the_flips_are_dependent(construction, n):
    # no three vertices of a pentagon are collinear, but at n = 3 a swap
    # can put vertex 0 and its flips on one plane: the error path's
    # elimination of all rows finds the hull still 3-dimensional, and the
    # polytope is refused naming the frame
    p = builds(n)[construction]
    refused = 0
    for i, j in itertools.combinations(range(len(p.labels)), 2):
        q = _swap_or_refusal(p, i, j)
        if q is None:
            refused += 1
        else:
            assert q.hull[2:] == reference_basis([c for c, _ in q.vertices])
    assert refused == {2: 0, 3: 5}[n]


@pytest.mark.parametrize(
    "rows,ambient_dim",
    [
        # a long row after a short one, which the frame's zip would cut
        (((0, 0), (1, 2, 3)), 2),
        # a long row first
        (((1, 2, 3), (0, 0)), 2),
        # rows shorter than the ambient dimension
        (((0, 0), (1, 2)), 5),
    ],
)
def test_make_polytope_rejects_rows_off_the_ambient_dimension(rows, ambient_dim):
    pairs = zip(rows, polygon.all_triangulations(1))
    with pytest.raises(ValueError, match=f"not all of length {ambient_dim}"):
        make_polytope("minkowski", 1, ambient_dim, pairs, scale=1)
