"""Count and list the parallel facet pairs of each realization for
n = 2..4.

The secondary polytope has none; the other two have exactly n pairs each,
but along different families of diagonals, which is the seed of the
non-equivalence argument.
"""

from associahedra import extract_facets, parallel_pairs
from associahedra.constructions import CONSTRUCTIONS

for n in (2, 3, 4):
    print(f"n = {n}")
    for name, c in CONSTRUCTIONS.items():
        pairs = parallel_pairs(extract_facets(c.build(c.default(n), n)))
        listing = ", ".join(f"{d1}||{d2}" for d1, d2 in pairs) or "none"
        print(f"  {name:10s} {len(pairs)} parallel pairs: {listing}")
    print()
