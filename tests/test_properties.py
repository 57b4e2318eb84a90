"""Property tests: random convex geometry and random weights build
associahedra with the expected face counts and parallel classes."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from associahedra import sampling
from associahedra.analysis import extract_facets, parallel_pairs
from associahedra.minkowski import build_minkowski
from associahedra.secondary import build_secondary
from associahedra.serialize import polytope_from_json, polytope_to_json
from associahedra.verification import CATALAN, minkowski_expected_pairs


def _check(p, n, expected_pairs):
    assert len(p.vertices) == CATALAN[n + 1]
    facets = extract_facets(p)
    assert len(facets) == n * (n + 3) // 2
    assert parallel_pairs(facets) == expected_pairs
    # the file round trip is lossless, parameters included
    doc = json.loads(json.dumps(polytope_to_json(p)))
    q = polytope_from_json(doc)
    assert q == p and polytope_to_json(q) == doc


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
