"""Outside-in tracer: spans around calls into fanshear's public functions.

`install` wraps each function in `TRACED` and rebinds the wrapper in every
`fanshear.*` namespace that holds the original (`from .fan import
make_fan` copies the function into deform, catalog and cli, and those
calls would otherwise bypass it).  `UnimodularMap.__post_init__` is
wrapped on the class, so each construction is a span.

A span is [name, start_ns, end_ns, parent index]; spans of one op live in
memory in the op's process.  `Tracer.summary` reduces them once the op
has ended: per name the call count, the total and the self time (span
time minus its child spans), plus the argument- and result-derived counts
the per-layer metrics need.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

TRACED = {
    "lattice": ("is_primitive", "det", "row_echelon", "solve_integer",
                "elementary_divisors_all_one", "extends_to_basis", "shear_map",
                "matrix_inverse", "change_of_basis", "linear_feasible"),
    "fan": ("make_fan", "is_complete", "primitive_collections", "primitive_relation",
            "primitive_relations", "fan_isomorphism", "fan_from_relations"),
    "divisor": ("class_group", "irrelevant_data", "anticanonical", "nef_ample_status",
                "classify_fano"),
    "deform": ("star_equivalent", "find_splittings", "split_with_frame", "fiber_type",
               "shear_lower", "endpoint_conditions", "endpoint"),
    "scroll": ("bundle_fan", "reduce_step", "deformation_chain"),
    "catalog": ("names", "entry", "reconstruct", "builtin", "verify_weakened"),
    "fileformats": ("format_relation", "parse_fan", "serialize_fan",
                    "parse_relation_presentation"),
    "cli": ("main", "build_parser"),
}
CONSTRUCTION = "lattice.UnimodularMap.__post_init__"
# Spans whose frames (change_of_basis calls beneath them) are counted.
FRAME_SEARCHES = ("fan.fan_isomorphism", "deform.star_equivalent")


class Tracer:
    """Spans and counts of the op running in this process."""

    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, tracer.current]
            tracer.current = len(tracer.spans)
            tracer.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer.current = span[3]
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-name [calls, total_ns, self_ns] and the derived counts."""
        spans = self.spans
        child_ns = [0] * len(spans)
        under = defaultdict(int)  # (ancestor name, span name) -> count
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
            seen = set()
            while parent >= 0:
                ancestor = spans[parent][0]
                if ancestor not in seen:
                    seen.add(ancestor)
                    under[ancestor, name] += 1
                parent = spans[parent][3]
        functions: dict[str, list[int]] = {}
        for (name, start, end, _), children in zip(spans, child_ns):
            row = functions.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
        counts = dict(self.counts)
        for search in FRAME_SEARCHES:
            counts[f"{search}.frames"] = under[search, "lattice.change_of_basis"]
        counts["fan.fan_from_relations.make_fan"] = under[
            "fan.fan_from_relations", "fan.make_fan"]
        return {"functions": functions, "counts": counts}


def _after_make_fan(counts, args, fan):
    cones = len(fan.max_cones)
    counts["fan.make_fan.face_pairs"] += cones * (cones - 1) // 2


def _after_fiber_type(counts, args, result):
    counts["deform.fiber_type.useful"] += result.kind.value != "Other"


def _after_parse_fan(counts, args, result):
    counts["fileformats.parse_fan.bytes"] += len(args[0].encode())


def _after_serialize_fan(counts, args, result):
    counts["fileformats.serialize_fan.bytes"] += len(result.encode())


AFTER = {
    "fan.make_fan": _after_make_fan,
    "deform.fiber_type": _after_fiber_type,
    "fileformats.parse_fan": _after_parse_fan,
    "fileformats.serialize_fan": _after_serialize_fan,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function and rebind it wherever fanshear imported it."""
    import fanshear.cli  # noqa: F401  (imports every traced module)
    from fanshear.lattice import UnimodularMap

    namespaces = [m for n, m in sys.modules.items()
                  if n == "fanshear" or n.startswith("fanshear.")]
    for module, functions in TRACED.items():
        source = sys.modules[f"fanshear.{module}"]
        for fn_name in functions:
            original = getattr(source, fn_name)
            span_name = f"{module}.{fn_name}"
            wrapper = tracer.wrap(span_name, original, AFTER.get(span_name))
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
    UnimodularMap.__post_init__ = tracer.wrap(CONSTRUCTION, UnimodularMap.__post_init__)
