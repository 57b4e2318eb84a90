"""The three benchmark workloads and their known answers.

Each workload turns a seed into a list of operations.  Set-up (everything
before the first operation, including building any input files) is done by
`setup`; each operation is then run in order by a single caller, the next
one starting only when the previous one has returned.  An operation returns
`(failed, record)`: how many of its known-answer checks failed, and a
result record that `canonical` turns into bytes for the result digest.

Why these three:

- verify_n5: `assoc verify --n-max 5`, the headline end-to-end number and
  the only workload that runs the face correspondence, the manifest and
  the `verify` command.
- build_analyze_n6: every builder at n = 6 with default parameters, and the
  secondary and Minkowski builders with seeded draws (large denominators),
  each written out, read back and analysed.  Builders, support
  value repair, facet certification and file I/O dominate; there is no
  equivalence search, so it is the bypass workload for search work.
- compare_n5: `assoc compare` on drawn n = 5 realizations.  Cross-
  construction pairs run the exhaustive dihedral search; positive controls
  (a unimodular integer image, relabelled by a seeded dihedral symmetry)
  stop early at a seeded position.  The builders run in set-up.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from associahedra import (
    analysis,
    cli,
    cluster,
    minkowski,
    sampling,
    secondary,
    serialize,
    verification,
)

CONSTRUCTIONS = ("secondary", "cluster", "minkowski")


@dataclass
class Operation:
    checks: int  # known-answer checks this operation adds to `attempted`
    run: Callable[[], tuple]  # -> (failed checks, record for the digest)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# -- verify_n5 ---------------------------------------------------------------


def setup_verify_n5(seed, workdir):
    def run():
        rc, text = _run_cli(["verify", "--n-max", "5", "--seed", str(seed)])
        status = {}
        for line in text.splitlines():
            fields = line.split()
            if len(fields) >= 2 and fields[1] in ("PASS", "FAIL"):
                status[fields[0]] = fields[1]
        failed = sum(status.get(name) != "PASS" for name, _ in verification.MANIFEST)
        if rc != 0:
            failed = max(failed, 1)
        defaults = [verification.build_all_defaults(n) for n in range(1, 6)]
        return failed, {"rc": rc, "stdout": text, "defaults": defaults}

    return [Operation(checks=len(verification.MANIFEST), run=run)]


# -- build_analyze_n6 --------------------------------------------------------

N_BUILD = 6
# Constructions that also get a seeded draw.  Cluster is built with its
# default support values only: `sampling.perturbed_support_values(6, rng)`
# does not always finish (5 of 40 draws needed over 300 repair passes, one
# was still repairing after 6300 passes and 290 s), so a drawn cluster
# operation could hang a run.  Drawn cluster values are measured at n = 5,
# in compare_n5 and verify_n5, where 100 draws needed at most 46 passes.
DRAWN = ("secondary", "minkowski")


def _expected_pairs(construction, n):
    if construction == "cluster":
        return verification.cluster_expected_pairs(n)
    if construction == "minkowski":
        return verification.minkowski_expected_pairs(n)
    return []


def _builder(construction, n, rng):
    """Build with default parameters (rng None) or with a seeded draw."""
    if construction == "secondary":
        coords = None if rng is None else sampling.random_convex_geometry(n, rng)
        return secondary.build_secondary(coords=coords, n=n)
    if construction == "cluster":
        if rng is None:
            h = cluster.default_support_values(n)
        else:
            h = sampling.perturbed_support_values(n, rng)
        return cluster.build_cluster_polytope(h, n)
    if rng is None:
        a = minkowski.ones_weights(n)
    else:
        a = sampling.random_weights(n, rng)
    return minkowski.build_minkowski(a, n)


def _normalized_pairs(report):
    return sorted(tuple(sorted(tuple(d) for d in pair)) for pair in report["parallel_pairs"])


def setup_build_analyze_n6(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for construction in CONSTRUCTIONS:
        for drawn in (False, True) if construction in DRAWN else (False,):
            path = workdir / f"{construction}-{'drawn' if drawn else 'default'}.json"

            def run(construction=construction, drawn=drawn, path=path):
                p = _builder(construction, N_BUILD, rng if drawn else None)
                serialize.save_polytope(p, path)
                q = serialize.load_polytope(path)
                report = cli.analyze_report(q)
                ok = (
                    q == p
                    and report["vertex_count"] == verification.CATALAN[N_BUILD + 1]
                    and len(report["facets"]) == N_BUILD * (N_BUILD + 3) // 2
                    and _normalized_pairs(report)
                    == _expected_pairs(construction, N_BUILD)
                )
                return int(not ok), {"polytope": q, "report": report}

            ops.append(Operation(checks=1, run=run))
    return ops


# -- compare_n5 --------------------------------------------------------------

N_COMPARE = 5
CROSS_PAIRS = (("secondary", "cluster"), ("secondary", "minkowski"), ("cluster", "minkowski"))


def unimodular_image(p, rng, stratum, strata):
    """A seeded integer affine image of p with determinant +-1, relabelled by
    a seeded dihedral symmetry of the polygon.

    `equivalence_search(p, image)` finds its witness at the position of that
    symmetry in `analysis.dihedral_relabelings`, so the position sets how
    many relabelings the search tries before it stops.  The position is
    drawn from part `stratum` of the relabelings split into `strata` equal
    parts, so that the controls of one run stop early, midway and late
    whatever the seed, and the run's search work varies less from seed to
    seed.
    """
    d = p.ambient_dim
    matrix = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        matrix[i] = [a + c * b for a, b in zip(matrix[i], matrix[j])]
    shift = [rng.randint(-3, 3) for _ in range(d)]
    relabelings = analysis.dihedral_relabelings(p.n)
    size = len(relabelings)
    perm = relabelings[rng.randrange(stratum * size // strata, (stratum + 1) * size // strata)]
    pairs = [
        (
            tuple(sum(m * x for m, x in zip(row, coords)) + s for row, s in zip(matrix, shift)),
            analysis.relabel_triangulation(perm, label),
        )
        for coords, label in p.vertices
    ]
    return analysis.make_polytope(p.construction, p.n, d, pairs)


def setup_compare_n5(seed, workdir):
    rng = random.Random(seed)
    paths = {}
    # which third of the relabelings a construction's control stops in is
    # fixed: a search step costs most on the secondary polytope's large
    # rationals, so a seeded assignment would make the run's work vary
    for stratum, construction in enumerate(CONSTRUCTIONS):
        p = _builder(construction, N_COMPARE, rng)
        paths[construction] = workdir / f"{construction}.json"
        serialize.save_polytope(p, paths[construction])
        paths[construction + "-image"] = workdir / f"{construction}-image.json"
        image = unimodular_image(p, rng, stratum, len(CONSTRUCTIONS))
        serialize.save_polytope(image, paths[construction + "-image"])

    def compare(a, b, want_rc, want_verdict):
        def run():
            rc, text = _run_cli(["compare", str(paths[a]), str(paths[b])])
            doc = json.loads(text)
            ok = rc == want_rc and doc["verdict"] == want_verdict
            if want_verdict == "non_equivalent":
                ok = ok and any(o["fired"] for o in doc["obstructions"])
            return int(not ok), {"pair": [a, b], "rc": rc, "report": doc}

        return Operation(checks=1, run=run)

    ops = []
    for (a, b), c in zip(CROSS_PAIRS, CONSTRUCTIONS):
        ops.append(compare(a, b, 0, "non_equivalent"))
        ops.append(compare(c, c + "-image", 1, "equivalent"))
    return ops


SETUPS = {
    "verify_n5": setup_verify_n5,
    "build_analyze_n6": setup_build_analyze_n6,
    "compare_n5": setup_compare_n5,
}


def canonical(records):
    """Canonical bytes of the results: polytopes via `polytope_to_json`."""

    def encode(obj):
        if isinstance(obj, analysis.LabeledPolytope):
            return serialize.polytope_to_json(obj)
        raise TypeError(f"cannot encode {type(obj).__name__}")

    return json.dumps(records, sort_keys=True, default=encode).encode()
