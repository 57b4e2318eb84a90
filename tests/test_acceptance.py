"""Acceptance suite: one test per acceptance criterion, all exact
(zero tolerance), printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from associahedra import verification

SEED = 42


def report(criterion, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} acceptance {criterion}: {detail}")
    assert ok, detail


def test_criterion_01_vertex_counts_catalan():
    start = time.monotonic()
    ok, detail = verification.check_vertex_counts(5, SEED)
    elapsed = time.monotonic() - start
    report(
        "1 vertex counts",
        ok and elapsed < 60,
        f"Catalan counts {detail['expected']}, {elapsed:.1f}s",
    )


def test_criterion_02_facet_counts():
    ok, detail = verification.check_facet_counts(5, SEED)
    report("2 facet counts n(n+3)/2, certified", ok, detail["bad"] or "n=1..5")


def test_criterion_03_secondary_no_parallel_facets():
    ok, detail = verification.check_secondary_no_parallel(5, SEED)
    report(
        "3 secondary polytope has no parallel facets",
        ok,
        detail["bad"] or "parabola + 3 random geometries, n=2..5",
    )


def test_criterion_04_cluster_parallel_pairs():
    ok, detail = verification.check_cluster_parallel(5, SEED)
    report(
        "4 cluster polytope: parallel pairs are the simple-root pairs",
        ok,
        detail["bad"] or "default + 3 perturbed h, n=2..5",
    )


def test_criterion_05_minkowski_parallel_pairs_and_directions():
    ok, detail = verification.check_minkowski_parallel(5, SEED)
    report(
        "5 Minkowski polytope: parallel pairs and direction subspaces",
        ok,
        detail["bad"] or "ones + 3 random weight draws, n=2..5",
    )


def test_criterion_06_face_correspondence():
    ok, detail = verification.check_correspondence(5, SEED)
    report(
        "6 Minkowski face correspondence and f-vector",
        ok,
        detail["bad"] or "n=1..5 incl. (14, 21, 9) at n=3",
    )


def test_criterion_07_special_facet_profiles():
    ok, detail = verification.check_special_profiles(5, SEED)
    report(
        "7 special facet counts and intersection profiles",
        ok,
        detail["bad"] or "2n special facets; profile extremes as stated",
    )


def test_criterion_08_pairwise_non_equivalence():
    start = time.monotonic()
    ok, detail = verification.check_non_equivalence(4, SEED)
    elapsed = time.monotonic() - start
    per_comparison = elapsed / detail["compared"]
    report(
        "8 pairwise affine non-equivalence",
        ok and per_comparison < 30,
        detail["bad"] or f"{detail['compared']} comparisons, "
        f"{per_comparison:.1f}s each",
    )


def test_criterion_09_loday_regression():
    ok, detail = verification.check_loday_regression(5, SEED)
    report("9 all-ones weights reproduce the classical vertices", ok, detail)


def test_criterion_10_exactness_invariants():
    ok, detail = verification.check_exactness_invariants(5, SEED)
    report(
        "10 exact invariants (area sums, weight sums, shear invariance)",
        ok,
        detail["bad"] or "all exact, zero tolerance",
    )


def test_criterion_11_cluster_fan_certificate():
    ok, detail = verification.check_cluster_fan(5, SEED)
    report(
        "11 cluster cones form a complete simplicial fan, certified",
        ok,
        detail["bad"] or "n=1..5",
    )
