"""Exact-rational realizations of the n-dimensional associahedron.

Three constructions (secondary polytope of a convex polygon, type-A cluster
fan polytope, weighted Minkowski sum of coordinate simplices) produce
vertex-labeled polytopes over exact rationals, and the analysis module
verifies their structural properties: facet certification, the face
lattice, parallel-facet pairs, special-facet profiles, and pairwise affine
non-equivalence.
"""

from .analysis import (
    EquivalenceReport,
    FacetDescriptor,
    LabeledPolytope,
    equivalence_search,
    extract_facets,
    face_lattice,
    parallel_pairs,
    special_profile,
)
from .cluster import build_cluster_polytope, default_support_values
from .minkowski import build_minkowski, ones_weights, verify_correspondence
from .secondary import build_secondary, parabola_geometry

__all__ = [
    "EquivalenceReport",
    "FacetDescriptor",
    "LabeledPolytope",
    "build_cluster_polytope",
    "build_minkowski",
    "build_secondary",
    "default_support_values",
    "equivalence_search",
    "extract_facets",
    "face_lattice",
    "ones_weights",
    "parabola_geometry",
    "parallel_pairs",
    "special_profile",
    "verify_correspondence",
]
