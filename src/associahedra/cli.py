"""Command-line surface: build, analyze, compare, verify, export.

Exit codes are a stable contract:
  build:    0 ok, 2 invalid params, 3 n out of practical range
  analyze:  0 ok, 2 malformed file, 4 facet certification failure
  compare:  0 non-equivalent, 1 witness found, 2 mismatched n, 5 inconclusive
  verify:   0 all pass, 1 failure, 3 n_max out of range
  export:   0 ok, 2 unknown format or malformed file
"""

import argparse
import json
import os
import sys

from . import analysis, cluster, minkowski, secondary, serialize, verification
from .analysis import CertificationError


def practical_bound():
    return int(os.environ.get("ASSOC_MAX_N", "7"))


def cmd_build(args):
    if args.n > practical_bound():
        print(f"error: n={args.n} exceeds practical bound", file=sys.stderr)
        return 3
    params_doc = None
    try:
        if args.params:
            with open(args.params, encoding="utf-8") as f:
                params_doc = json.load(f)
        if args.construction == "secondary":
            if params_doc is None:
                p = secondary.build_secondary(n=args.n)
            else:
                _, coords = serialize.geometry_from_json(params_doc)
                p = secondary.build_secondary(coords=coords, n=args.n)
        elif args.construction == "cluster":
            if params_doc is None:
                h = cluster.default_support_values(args.n)
            else:
                _, h = serialize.support_values_from_json(params_doc)
            p = cluster.build_cluster_polytope(h, args.n)
        else:
            if params_doc is None:
                a = minkowski.ones_weights(args.n)
            else:
                _, a = serialize.weights_from_json(params_doc)
            p = minkowski.build_minkowski(a, args.n)
    except (ValueError, RuntimeError, KeyError, OSError) as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2
    serialize.save_polytope(p, args.out)
    return 0


def analyze_report(p):
    facets = analysis.extract_facets(p)
    pairs = analysis.parallel_pairs(facets)
    profile = analysis.special_profile(facets)
    return {
        "construction": p.construction,
        "n": p.n,
        "vertex_count": len(p.vertices),
        "facets": [
            {"diagonal": list(f.diagonal), "vertex_count": len(f.vertex_indices)}
            for f in facets
        ],
        "parallel_pairs": [[list(d1), list(d2)] for d1, d2 in pairs],
        "special_profile": {f"{a}-{b}": c for (a, b), c in sorted(profile.items())},
    }


def cmd_analyze(args):
    try:
        p = serialize.load_polytope(args.polytope)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: malformed polytope file: {exc}", file=sys.stderr)
        return 2
    try:
        report = analyze_report(p)
    except CertificationError as exc:
        print(f"error: facet certification failed: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(serialize.dumps(report))
    return 0


def cmd_compare(args):
    try:
        pa = serialize.load_polytope(args.polytope_a)
        pb = serialize.load_polytope(args.polytope_b)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: malformed polytope file: {exc}", file=sys.stderr)
        return 2
    if pa.n != pb.n:
        print("error: polytopes have different n", file=sys.stderr)
        return 2
    report = analysis.equivalence_search(pa, pb)
    doc = {
        "pair": list(report.pair),
        "verdict": report.verdict,
        "obstructions": [
            {"name": name, "fired": fired, "detail": repr(detail)}
            for name, fired, detail in report.obstructions
        ],
    }
    if report.witness is not None:
        doc["witness"] = {
            "matrix": [[serialize.rat_str(x) for x in row] for row in report.witness.matrix],
            "translation": [serialize.rat_str(x) for x in report.witness.translation],
        }
    sys.stdout.write(serialize.dumps(doc))
    if report.verdict == "equivalent":
        return 1
    if report.verdict == "non_equivalent":
        return 0
    return 5


def cmd_verify(args):
    if not 1 <= args.n_max <= 6:
        print(f"error: n_max={args.n_max} out of range 1..6", file=sys.stderr)
        return 3
    results = verification.run_manifest(args.n_max, args.seed)
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        extra = ""
        if name == "vertex_counts_catalan":
            extra = "  Catalan counts " + ", ".join(str(c) for c in detail["expected"])
        print(f"{name.ljust(width)}  {status}{extra}")
        if not ok:
            all_ok = False
            print(f"  first counterexample: {json.dumps(repr(detail['bad'][:1]))}")
    return 0 if all_ok else 1


def _rat_decimal(x, digits=12):
    # viewer-only rendering; verification always uses exact rationals
    scaled = round(x * 10**digits)
    return f"{scaled / 10**digits:.{digits}f}"


def cmd_export(args):
    if args.format not in ("json", "csv", "off"):
        print(f"error: unknown format {args.format!r}", file=sys.stderr)
        return 2
    try:
        p = serialize.load_polytope(args.polytope)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: malformed polytope file: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        out = serialize.dumps(serialize.polytope_to_json(p))
    elif args.format == "csv":
        lines = []
        header = [f"x{i}" for i in range(p.ambient_dim)] + ["triangulation"]
        lines.append(",".join(header))
        for coords, label in p.vertices:
            cells = [serialize.rat_str(c) for c in coords]
            cells.append(" ".join(f"{a}-{b}" for a, b in label))
            lines.append(",".join(cells))
        out = "\n".join(lines) + "\n"
    else:
        facets = analysis.extract_facets(p)
        lines = ["OFF", f"{len(p.vertices)} {len(facets)} 0"]
        for coords, _ in p.vertices:
            lines.append(" ".join(_rat_decimal(c) for c in coords))
        for f in facets:
            idx = sorted(f.vertex_indices)
            lines.append(" ".join(str(k) for k in [len(idx)] + idx))
        out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(out)
    else:
        sys.stdout.write(out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="assoc",
        description="Build, analyze, and compare exact-rational associahedron realizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a realization and write a polytope file")
    b.add_argument("--construction", required=True, choices=["secondary", "cluster", "minkowski"])
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--params", help="JSON parameter file (defaults used if omitted)")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    a = sub.add_parser("analyze", help="facets, parallel pairs, special profile")
    a.add_argument("polytope")
    a.set_defaults(fn=cmd_analyze)

    c = sub.add_parser("compare", help="affine-equivalence search between two polytope files")
    c.add_argument("polytope_a")
    c.add_argument("polytope_b")
    c.set_defaults(fn=cmd_compare)

    v = sub.add_parser("verify", help="run the full verification manifest")
    v.add_argument("--n-max", type=int, default=3)
    v.add_argument("--seed", type=int, default=42)
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("export", help="convert a polytope file to json/csv/off")
    e.add_argument("polytope")
    e.add_argument("--format", required=True)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_export)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
