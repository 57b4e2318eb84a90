"""Span tracer that wraps the package's layer functions from outside.

Each wrapped call records a span `[name, start, end, parent, op]` in memory;
`parent` is the index of the enclosing span (-1 at top level) and `op` the
operation the span belongs to (-1 during set-up).  The package imports many
functions by name (`from .exactlin import solve_linear`), so patching only
the defining module would miss most calls: `install` replaces every module
attribute of `associahedra.*` that *is* the wrapped function, and every
entry of a module-level list of tuples that holds it (`verification.MANIFEST`).
`restore` puts the originals back.
"""

import importlib
import os
import sys
import time
from fractions import Fraction


def _verification_targets():
    from associahedra import verification

    return [
        ("verification", fn.__name__, f"verification.{name}") for name, fn in verification.MANIFEST
    ]


# (module, attribute, span name); the three draws share the span "sampling"
TARGETS = [
    ("polygon", "all_triangulations", "polygon.all_triangulations"),
    ("polygon", "flip", "polygon.flip"),
    ("secondary", "build_secondary", "secondary.build_secondary"),
    ("cluster", "default_support_values", "cluster.default_support_values"),
    ("cluster", "repair_support_values", "cluster.repair_support_values"),
    ("cluster", "polytopality_check", "cluster.polytopality_check"),
    ("cluster", "build_cluster_polytope", "cluster.build_cluster_polytope"),
    ("minkowski", "build_minkowski", "minkowski.build_minkowski"),
    ("minkowski", "verify_correspondence", "minkowski.verify_correspondence"),
    ("sampling", "random_convex_geometry", "sampling"),
    ("sampling", "random_weights", "sampling"),
    ("sampling", "perturbed_support_values", "sampling"),
    ("analysis", "make_polytope", "analysis.make_polytope"),
    ("analysis", "extract_facets", "analysis.extract_facets"),
    ("analysis", "parallel_pairs", "analysis.parallel_pairs"),
    ("analysis", "special_profile", "analysis.special_profile"),
    ("analysis", "equivalence_search", "analysis.equivalence_search"),
    ("analysis", "fit_affine_map", "analysis.fit_affine_map"),
    ("exactlin", "rref", "exactlin.rref"),
    ("exactlin", "nullspace", "exactlin.nullspace"),
    ("exactlin", "solve_linear", "exactlin.solve_linear"),
    ("exactlin", "hyperplane_through", "exactlin.hyperplane_through"),
    ("exactlin", "invert", "exactlin.invert"),
    ("serialize", "save_polytope", "serialize.save_polytope"),
    ("serialize", "load_polytope", "serialize.load_polytope"),
    ("cli", "main", "cli.main"),
]


def _bits(x):
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []  # (container, key, original), in patch order
        self.polytopes = []  # every make_polytope result, for max_coord_bits
        self.fits = 0
        self.witnesses = 0
        self.bytes_written = 0

    def _after_make_polytope(self, args, result):
        self.polytopes.append(result)

    def _after_fit(self, args, result):
        self.fits += 1
        self.witnesses += result is not None

    def _after_save(self, args, result):
        self.bytes_written += os.path.getsize(args[1])

    def _wrap(self, name, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        targets = TARGETS + _verification_targets()
        for module, _, _ in targets:
            importlib.import_module(f"associahedra.{module}")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if key == "associahedra" or key.startswith("associahedra.")
        ]
        after = {
            "analysis.make_polytope": self._after_make_polytope,
            "analysis.fit_affine_map": self._after_fit,
            "serialize.save_polytope": self._after_save,
        }
        for module, attr, name in targets:
            original = getattr(sys.modules[f"associahedra.{module}"], attr)
            wrapper = self._wrap(name, original, after.get(name))
            for m in modules:
                namespace = vars(m)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(namespace, key, wrapper)
                    elif isinstance(value, list):
                        for i, item in enumerate(value):
                            if isinstance(item, tuple) and any(x is original for x in item):
                                patched = tuple(wrapper if x is original else x for x in item)
                                self._patch(value, i, patched)

    def _patch(self, container, key, value):
        self._patches.append((container, key, container[key]))
        container[key] = value

    def restore(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def metrics(self):
        """Flat layer metrics: `<span>.calls`, `<span>.self_s` (minus the time
        covered by child spans), `<span>.s` (total), plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + end - start
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + end - start - child[k]
        out["analysis.fit_affine_map.hit_ratio"] = self.witnesses / self.fits if self.fits else 0.0
        out["serialize.bytes_written"] = self.bytes_written
        out["polytope.max_coord_bits"] = max(
            (_bits(x) for p in self.polytopes for coords, _ in p.vertices for x in coords),
            default=0,
        )
        return out
