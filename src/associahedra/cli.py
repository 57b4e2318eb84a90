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
  verify:   0 all pass, 1 failure (a manifest row that fails, or that
            raises anything but a CertificationError: the row reads FAIL
            with `raised <Type>: <text>` as its counterexample), 3 n_max
            out of range 1..7, 4 facet certification failure
  export:   0 ok, 2 unknown format, malformed file or unwritable --out,
            4 facet certification failure (format off)
A refusal writes one `error:` line to stderr (`main`) and no stdout.

A build params file is invalid (rc 2), and a polytope file malformed,
when it has more bytes than `serialize.max_file_bytes()` (2 KiB per
vertex at n = 7: 2928640 bytes, checked before it is decoded).  A params
document, a build params file or a polytope file's non-empty `params`,
is exactly {"n": n, key: value} (`serialize.read_params`): a missing or
unknown key is refused, and the value must be in the domain the
construction's builder checks (`Construction.check`: the roots of n, the
summands of n with positive weights, or n+3 points in strictly convex
position).  A polytope file is malformed also when its `n` is not an
int, its vertex count is not Catalan(n+1), the number of triangulations
(checked before any coordinate is read), a vertex's coordinate row is not
its construction's width (`Construction.ambient_dim`: n+3 for secondary,
n+1 for cluster and Minkowski; checked before any coordinate is parsed,
so a wide file of long numbers is refused at once), its `params` is not
an object, its `vertices`, or a vertex's `coords` or `triangulation`, is
not a list,
the lcm of its denominators passes `serialize.LCM_BITS` (1024) bits
(checked as it is built, before any row is scaled: n = 7 polytopes with
no params at the budget took up to 0.9 s to analyze and 2.6 s to compare
on a 2-vCPU host; numerators are bounded by the byte cap alone), vertex
0 and its flips do not span its affine hull (then no facet certificate
can pass), or it is nested too deeply for the JSON decoder (a
RecursionError).  Where a file needs an int (a polytope file's `n` and
`params.n`, the endpoints of a vertex's `triangulation`, a build params
file's `n`), a JSON boolean or a float is malformed too, although
`true == 1` and `1.0 == 1` in Python (rc 2).
"""

import argparse
import json
import sys
from functools import lru_cache

from . import analysis, serialize, verification
from .analysis import CertificationError
from .constructions import CONSTRUCTIONS, practical_bound
from .exactlin import rat_str


class _Refusal(Exception):
    """_Refusal(code, message): `main` writes `error: <message>`, returns `code`."""


def cmd_build(args):
    if not 1 <= args.n <= practical_bound():
        raise _Refusal(3, f"n={args.n} out of range 1..{practical_bound()}")
    c = CONSTRUCTIONS[args.construction]
    try:
        if args.params:
            value = serialize.read_params(serialize.read_json(args.params), c, args.n)
        else:
            value = c.default(args.n)
        p = c.build(value, args.n)
    except (ValueError, RuntimeError, KeyError, TypeError, OSError) as exc:
        raise _Refusal(2, f"invalid parameters: {_reason(exc)}")
    try:
        serialize.save_polytope(p, args.out)
    # a ValueError: a coordinate too long for Python's int-to-str limit
    except (OSError, ValueError) as exc:
        raise _Refusal(2, f"cannot write output: {exc}")
    return 0


def _reason(exc):
    """What an error says: a KeyError's str is only the repr of its key."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else exc


def _load(path):
    """The polytope in `path`; a malformed file is refused (rc 2)."""
    try:
        return serialize.load_polytope(path)
    except (ValueError, KeyError, TypeError, OSError, RecursionError) as exc:
        raise _Refusal(2, f"malformed polytope file: {_reason(exc)}")


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
    sys.stdout.write(serialize.dumps(analyze_report(_load(args.polytope))))
    return 0


def cmd_compare(args):
    pa, pb = _load(args.polytope_a), _load(args.polytope_b)
    if pa.n != pb.n:
        raise _Refusal(2, "polytopes have different n")
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
        try:
            doc["witness"] = {
                "matrix": [[rat_str(x) for x in row] for row in report.witness.matrix],
                "translation": [rat_str(x) for x in report.witness.translation],
            }
        # a number of the witness past Python's int-to-str limit: nothing is written
        except ValueError as exc:
            raise _Refusal(2, f"cannot write witness: {exc}")
    sys.stdout.write(serialize.dumps(doc))
    return 1 if report.witness is not None else 0


def cmd_verify(args):
    if not 1 <= args.n_max <= practical_bound():
        raise _Refusal(3, f"n_max={args.n_max} out of range 1..{practical_bound()}")
    results = verification.run_manifest(args.n_max, args.seed)
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        extra = ""
        if name == "vertex_counts_catalan" and "expected" in detail:
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
        raise _Refusal(2, f"unknown format {args.format!r}")
    p = _load(args.polytope)
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
        facets = analysis.extract_facets(p)
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
        raise _Refusal(2, f"cannot write output: {exc}")
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
    """Run one command: its exit code, each refusal reported here alone."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Refusal as exc:
        code, message = exc.args
    except CertificationError as exc:
        code, message = 4, f"facet certification failed: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
