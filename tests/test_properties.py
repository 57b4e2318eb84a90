"""Property tests: random convex geometry, random weights and jittered
support values build associahedra with the expected face counts, parallel
classes and face lattice."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from associahedra import cluster, sampling
from associahedra.analysis import extract_facets, face_lattice, parallel_pairs
from associahedra.fan import wall_slacks
from associahedra.minkowski import build_minkowski
from associahedra.secondary import build_secondary
from associahedra.serialize import polytope_from_json, polytope_to_json
from associahedra.verification import (
    CATALAN,
    build_all_defaults,
    cluster_expected_pairs,
    minkowski_expected_pairs,
)


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
    h(beta) + (b/a)h(beta') - sum (c_g/a)h(g) moves by less than
    r(a + b + sum |c_g|)/a."""
    fan = cluster._fan(n)
    h = cluster._by_diagonal(cluster.default_support_values(n), n)
    return min(
        slack * Fraction(a, a + b + sum(abs(c) for _, c in cs))
        for (_, _, a, b, cs), slack in zip(fan.relations, wall_slacks(fan, h))
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
    report = face_lattice(_draw(construction, n, rng, data))
    assert report["ok"], report["problems"][:3]
    assert report["f_vector"] == (CATALAN[n + 1], n * CATALAN[n + 1] // 2, n * (n + 3) // 2)


def _parallel_by_direction(facets):
    """Parallel pairs by canonical direction-subspace equality."""
    return sorted(
        (f.diagonal, g.diagonal)
        for f, g in itertools.combinations(facets, 2)
        if f.direction == g.direction
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_default_parallel_pairs_match_direction_equality(n):
    for p in build_all_defaults(n).values():
        facets = extract_facets(p)
        assert parallel_pairs(facets) == _parallel_by_direction(facets)


@settings(deadline=None, max_examples=15)
@given(
    construction=st.sampled_from(["secondary", "cluster", "minkowski"]),
    n=st.integers(1, 6),
    rng=st.randoms(use_true_random=False),
    data=st.data(),
)
def test_drawn_parallel_pairs_match_direction_equality(construction, n, rng, data):
    facets = extract_facets(_draw(construction, n, rng, data))
    assert parallel_pairs(facets) == _parallel_by_direction(facets)
