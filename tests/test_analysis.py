import itertools
from fractions import Fraction

import pytest

from associahedra import polygon
from associahedra.analysis import (
    dihedral_relabelings,
    equivalence_search,
    extract_facets,
    facets_intersect,
    fit_affine_map,
    make_polytope,
    parallel_pairs,
    relabel_diagonal,
    relabel_triangulation,
    special_profile,
)
from associahedra.cluster import build_cluster_polytope, default_support_values
from associahedra.exactlin import AffineMap, vadd
from associahedra.minkowski import build_minkowski, ones_weights
from associahedra.secondary import build_secondary

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
    identity = {label: label for _, label in p.vertices}
    witness = fit_affine_map(p, p, identity)
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
    identity = {label: label for _, label in p.vertices}
    witness = fit_affine_map(p, moved, identity)
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
