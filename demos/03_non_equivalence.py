"""Show that the three realizations are pairwise affinely non-equivalent.

For each pair the search reports label-free obstructions (parallel pair
counts, special-facet intersection profiles), then exhaustively fits
affine maps over all dihedral relabelings of the polygon.  The fit
decides: every affine equivalence of two associahedra relabels the
polygon dihedrally, so a miss over all relabelings proves non-equivalence,
and a fired obstruction explains it.  A sanity pass against a translated
copy shows what a found witness looks like.
"""

from fractions import Fraction

from associahedra import equivalence_search
from associahedra.analysis import make_polytope
from associahedra.exactlin import vadd
from associahedra.verification import build_all_defaults

n = 3
builds = build_all_defaults(n)

for a, b in [("secondary", "cluster"), ("secondary", "minkowski"), ("cluster", "minkowski")]:
    report = equivalence_search(builds[a], builds[b])
    print(f"{a} vs {b}: {report.verdict}")
    for name, fired, detail in report.obstructions:
        print(f"  {name}: {'FIRED' if fired else 'no'} {detail}")
    print()

p = builds["minkowski"]
shift = tuple(Fraction(5, 3) for _ in range(p.ambient_dim))
moved = make_polytope(p.construction, p.n, p.ambient_dim,
                      [(vadd(c, shift), label) for c, label in p.vertices])
report = equivalence_search(p, moved)
print(f"minkowski vs its translate: {report.verdict}")
print(f"  witness translation: {report.witness.translation}")
