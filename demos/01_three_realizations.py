"""Build the three realizations of the 2-dimensional associahedron (a
pentagon) and print their exact vertices side by side.

Each construction labels every vertex with a triangulation of the
pentagon, so the three vertex lists line up combinatorially even though
the coordinates are completely different.
"""

from associahedra import (
    build_cluster_polytope,
    build_minkowski,
    build_secondary,
    default_support_values,
    ones_weights,
)
from associahedra.exactlin import rat_str

n = 2

polytopes = {
    "secondary (area vectors)": build_secondary(n=n),
    "cluster (root fan)": build_cluster_polytope(default_support_values(n), n),
    "minkowski (simplex sum)": build_minkowski(ones_weights(n), n),
}

labels = [label for _, label in next(iter(polytopes.values())).vertices]
for label in labels:
    print(f"triangulation {label}:")
    for name, p in polytopes.items():
        coords = next(c for c, l in p.vertices if l == label)
        print(f"  {name:26s} ({', '.join(rat_str(c) for c in coords)})")
    print()
