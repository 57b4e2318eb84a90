"""Command-line surface: build, analyze, compare, verify, export.

Exit codes are a stable contract:
  build:    0 ok, 2 invalid params, unwritable --out or a polytope too
            large to write (a coordinate past Python's 4300-digit
            int-to-str limit; --out is left as it was), 3 n out of
            practical range
  analyze:  0 ok, 2 malformed file, 4 facet certification failure
  compare:  0 non-equivalent, 1 witness found, 2 malformed file,
            mismatched n or a witness too large to write (a number past
            the 4300-digit int-to-str limit; nothing is written to
            stdout), 4 facet certification failure
  verify:   0 all pass, 1 failure, 3 n_max out of range 1..7
  export:   0 ok, 2 unknown format, malformed file or unwritable --out,
            4 facet certification failure (format off)

A build params file is invalid (rc 2), and a polytope file malformed,
when it has more bytes than `serialize.max_file_bytes()` (2 KiB per
vertex at n = 7: 2928640 bytes, checked before it is decoded).  A
polytope file is malformed also when its `n` is not an int, its vertex
count is not Catalan(n+1), the number of triangulations (checked before
any coordinate is read), its `params` is not an object, its `params.n`
differs from its `n`, its parameter is outside the domain its
construction's builder checks (`Construction.check`: the roots of n, the
summands of n with positive weights, or n+3 points in strictly convex
position), or its `vertices`, or a vertex's `coords` or `triangulation`,
is not a list, and when it is nested too deeply for the JSON decoder (a
RecursionError).  Where a file needs an
int (a polytope file's `n` and `params.n`, the endpoints of a vertex's
`triangulation`, a build params file's `n`), a JSON boolean or a float is
malformed too, although `true == 1` and `1.0 == 1` in Python (rc 2).
"""

import argparse
import json
import sys
from functools import lru_cache

from . import analysis, serialize, verification
from .analysis import CertificationError
from .constructions import CONSTRUCTIONS, practical_bound
from .exactlin import rat_str


def cmd_build(args):
    if not 1 <= args.n <= practical_bound():
        print(f"error: n={args.n} out of range 1..{practical_bound()}", file=sys.stderr)
        return 3
    c = CONSTRUCTIONS[args.construction]
    try:
        if args.params:
            doc = serialize.read_json(args.params)
            if type(doc["n"]) is not int or doc["n"] != args.n:
                raise ValueError(f"params are for n={doc['n']}, not n={args.n}")
            value = c.decode(doc[c.key])
        else:
            value = c.default(args.n)
        p = c.build(value, args.n)
    except (ValueError, RuntimeError, KeyError, TypeError, OSError) as exc:
        print(f"error: invalid parameters: {_reason(exc)}", file=sys.stderr)
        return 2
    try:
        serialize.save_polytope(p, args.out)
    # a ValueError: a coordinate too long for Python's int-to-str limit
    except (OSError, ValueError) as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def _reason(exc):
    """What an error says: a KeyError's str is only the repr of its key."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else exc


def _load(path):
    """The polytope in `path`, or None after reporting a malformed file."""
    try:
        return serialize.load_polytope(path)
    except (ValueError, KeyError, TypeError, OSError, RecursionError) as exc:
        print(f"error: malformed polytope file: {_reason(exc)}", file=sys.stderr)
        return None


def analyze_report(p):
    facets = analysis.extract_facets(p)
    pairs = analysis.parallel_pairs(facets)
    profile = analysis.special_profile(pairs)
    return {
        "construction": p.construction,
        "n": p.n,
        "vertex_count": len(p.labels),
        "facets": [
            {"diagonal": list(f.diagonal), "vertex_count": len(f.vertex_indices)}
            for f in facets
        ],
        "parallel_pairs": [[list(d1), list(d2)] for d1, d2 in pairs],
        "special_profile": {f"{a}-{b}": c for (a, b), c in sorted(profile.items())},
    }


def cmd_analyze(args):
    p = _load(args.polytope)
    if p is None:
        return 2
    try:
        report = analyze_report(p)
    except CertificationError as exc:
        print(f"error: facet certification failed: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(serialize.dumps(report))
    return 0


def cmd_compare(args):
    pa, pb = _load(args.polytope_a), _load(args.polytope_b)
    if pa is None or pb is None:
        return 2
    if pa.n != pb.n:
        print("error: polytopes have different n", file=sys.stderr)
        return 2
    try:
        report = analysis.equivalence_search(pa, pb)
    except CertificationError as exc:
        print(f"error: facet certification failed: {exc}", file=sys.stderr)
        return 4
    doc = {
        "pair": list(report.pair),
        "verdict": report.verdict,
        "obstructions": [
            {"name": name, "fired": fired, "detail": repr(detail)}
            for name, fired, detail in report.obstructions
        ],
    }
    if report.witness is not None:
        try:
            doc["witness"] = {
                "matrix": [[rat_str(x) for x in row] for row in report.witness.matrix],
                "translation": [rat_str(x) for x in report.witness.translation],
            }
        # a number of the witness past Python's int-to-str limit: nothing is written
        except ValueError as exc:
            print(f"error: cannot write witness: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(serialize.dumps(doc))
    return 1 if report.witness is not None else 0


def cmd_verify(args):
    if not 1 <= args.n_max <= practical_bound():
        print(f"error: n_max={args.n_max} out of range 1..{practical_bound()}", file=sys.stderr)
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
    # viewer-only rendering, rounded exactly with no float (a float
    # overflows or drops digits on large coordinates)
    scaled = round(x * 10**digits)
    whole, frac = divmod(abs(scaled), 10**digits)
    return f"{'-' if scaled < 0 else ''}{whole}.{frac:0{digits}d}"


def cmd_export(args):
    if args.format not in ("json", "csv", "off"):
        print(f"error: unknown format {args.format!r}", file=sys.stderr)
        return 2
    p = _load(args.polytope)
    if p is None:
        return 2
    if args.format == "json":
        out = serialize.polytope_text(p)
    elif args.format == "csv":
        lines = []
        header = [f"x{i}" for i in range(p.ambient_dim)] + ["triangulation"]
        lines.append(",".join(header))
        for cells, label in zip(serialize.coordinate_strings(p), p.labels):
            cells.append(" ".join(f"{a}-{b}" for a, b in label))
            lines.append(",".join(cells))
        out = "\n".join(lines) + "\n"
    else:
        try:
            facets = analysis.extract_facets(p)
        except CertificationError as exc:
            print(f"error: facet certification failed: {exc}", file=sys.stderr)
            return 4
        lines = ["OFF", f"{len(p.labels)} {len(facets)} 0"]
        for coords, _ in p.vertices:
            lines.append(" ".join(_rat_decimal(c) for c in coords))
        for f in facets:
            idx = sorted(f.vertex_indices)
            lines.append(" ".join(str(k) for k in [len(idx)] + idx))
        out = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(out)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


@lru_cache(maxsize=None)
def build_parser():
    """The `assoc` parser, built on first use and kept: each parser is a
    cycle of actions and containers, which a fresh one per `main` call
    would leave to the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="assoc",
        description="Build, analyze, and compare exact-rational associahedron realizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a realization and write a polytope file")
    b.add_argument("--construction", required=True, choices=list(CONSTRUCTIONS))
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
