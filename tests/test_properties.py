"""Property tests: random convex geometry, random weights and jittered
support values build associahedra with the expected face counts, parallel
classes and face lattice."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from associahedra import cluster, polygon, sampling
from associahedra.analysis import extract_facets, face_lattice, parallel_pairs
from associahedra.exactlin import vsub
from associahedra.minkowski import build_minkowski
from associahedra.secondary import build_secondary
from associahedra.serialize import polytope_from_json, polytope_to_json
from associahedra.verification import (
    CATALAN,
    build_all_defaults,
    cluster_expected_pairs,
    minkowski_expected_pairs,
)

from oracles import rank, reference_wall_relations, reference_wall_slacks, subspace_from_differences


def _check(p, n, expected_pairs):
    assert len(p.vertices) == CATALAN[n + 1]
    facets = extract_facets(p)
    assert len(facets) == n * (n + 3) // 2
    assert parallel_pairs(facets) == expected_pairs
    # the file round trip is lossless, parameters included
    doc = json.loads(json.dumps(polytope_to_json(p)))
    q = polytope_from_json(doc)
    assert q == p and polytope_to_json(q) == doc


def jitter_radius(n):
    """A radius r > 0 such that moving every default support value by less
    than r keeps every wall inequality strict: a wall's slack
    h(beta) + lam h(beta') - sum c_g h(g) moves by less than
    r(1 + lam + sum |c_g|)."""
    h = cluster.default_support_values(n)
    return min(
        slack / (1 + lam + sum(abs(c) for _, c in coeffs))
        for (_, _, lam, coeffs), slack in zip(reference_wall_relations(n), reference_wall_slacks(h, n))
    )


@st.composite
def jittered_support_values(draw, n):
    """The default support values, each moved by less than `jitter_radius`."""
    steps = 64
    radius = jitter_radius(n)
    return {
        r: v + radius * Fraction(draw(st.integers(1 - steps, steps - 1)), steps)
        for r, v in cluster.default_support_values(n).items()
    }


def _draw(construction, n, rng, data):
    if construction == "secondary":
        return build_secondary(coords=sampling.random_convex_geometry(n, rng), n=n)
    if construction == "cluster":
        return cluster.build_cluster_polytope(data.draw(jittered_support_values(n)), n)
    return build_minkowski(sampling.random_weights(n, rng), n)


@settings(deadline=None, max_examples=20)
@given(n=st.integers(1, 4), rng=st.randoms(use_true_random=False))
def test_random_geometry_gives_a_secondary_associahedron(n, rng):
    p = build_secondary(coords=sampling.random_convex_geometry(n, rng), n=n)
    # at n = 1 both facets are points, whose direction spaces are both zero
    _check(p, n, [((0, 2), (1, 3))] if n == 1 else [])


@settings(deadline=None, max_examples=20)
@given(n=st.integers(1, 4), rng=st.randoms(use_true_random=False))
def test_random_weights_give_a_minkowski_associahedron(n, rng):
    p = build_minkowski(sampling.random_weights(n, rng), n)
    _check(p, n, minkowski_expected_pairs(n))


@settings(deadline=None, max_examples=20)
@given(data=st.data(), n=st.integers(1, 4))
def test_jittered_support_values_give_a_cluster_associahedron(data, n):
    p = cluster.build_cluster_polytope(data.draw(jittered_support_values(n)), n)
    _check(p, n, cluster_expected_pairs(n))


@settings(deadline=None, max_examples=30)
@given(
    construction=st.sampled_from(["secondary", "cluster", "minkowski"]),
    n=st.integers(1, 4),
    rng=st.randoms(use_true_random=False),
    data=st.data(),
)
def test_drawn_face_lattice_is_the_associahedron(construction, n, rng, data):
    f_vector = face_lattice(_draw(construction, n, rng, data))
    assert f_vector == (CATALAN[n + 1], n * CATALAN[n + 1] // 2, n * (n + 3) // 2)


@settings(deadline=None, max_examples=30)
@given(
    construction=st.sampled_from(["secondary", "cluster", "minkowski"]),
    n=st.integers(1, 4),
    rng=st.randoms(use_true_random=False),
    data=st.data(),
)
def test_drawn_facet_normals_have_full_rank_at_every_vertex(construction, n, rng, data):
    # the facet certificate makes the n facet normals at each vertex
    # independent, which `face_lattice` relies on without computing it, and
    # the vertex's flips span the hull around it, so `_certify_facets`
    # needs no other members to solve a facet's normal
    p = _draw(construction, n, rng, data)
    normals = {f.diagonal: f.normal for f in extract_facets(p)}
    rows = p.hull.rows
    for v, (label, flips) in enumerate(zip(p.labels, polygon.flip_table(n))):
        assert rank([normals[d] for d in label]) == n
        assert rank([vsub(rows[w], rows[v]) for w in flips]) == n


def _parallel_by_direction(p, facets):
    """Parallel pairs by canonical direction-subspace equality, each
    facet's direction spanned from its member coordinates."""
    direction = {
        f.diagonal: subspace_from_differences([p.vertices[i][0] for i in sorted(f.vertex_indices)])
        for f in facets
    }
    return sorted(
        (f.diagonal, g.diagonal)
        for f, g in itertools.combinations(facets, 2)
        if direction[f.diagonal] == direction[g.diagonal]
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_default_parallel_pairs_match_direction_equality(n):
    for p in build_all_defaults(n).values():
        facets = extract_facets(p)
        assert parallel_pairs(facets) == _parallel_by_direction(p, facets)


@settings(deadline=None, max_examples=15)
@given(
    construction=st.sampled_from(["secondary", "cluster", "minkowski"]),
    n=st.integers(1, 6),
    rng=st.randoms(use_true_random=False),
    data=st.data(),
)
def test_drawn_parallel_pairs_match_direction_equality(construction, n, rng, data):
    p = _draw(construction, n, rng, data)
    facets = extract_facets(p)
    assert parallel_pairs(facets) == _parallel_by_direction(p, facets)
