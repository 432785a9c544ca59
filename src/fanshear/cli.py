"""Command-line front end.

Subcommands: check, relations, split, deform, iso, chain, catalog,
fromrel.  Reports are line-oriented `key: value` text; --json emits one
object with the same fields.  Exit status 0 means every asserted property
holds, 1 a mathematical check failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog, deform, divisor, fileformats
from .deform import FiberKind
from .errors import FanError, ParseError
from .fan import Fan, fan_from_relations, fan_isomorphism, is_complete, primitive_relations
from .scroll import BundleSpec, deformation_chain

OK, MATH_FAIL, INPUT_ERROR = 0, 1, 2


class Report:
    """Ordered key/value pairs; repeated keys become arrays under --json."""

    def __init__(self):
        self.items: list[tuple[str, object]] = []

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def text(self) -> str:
        lines = []
        for key, value in self.items:
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key}: {value}")
        return "\n".join(lines)

    def json(self) -> str:
        folded: dict[str, object] = {}
        counts: dict[str, int] = {}
        for key, _ in self.items:
            counts[key] = counts.get(key, 0) + 1
        for key, value in self.items:
            if counts[key] > 1:
                folded.setdefault(key, []).append(value)
            else:
                folded[key] = value
        return json.dumps(folded, indent=2)

    def emit(self, as_json: bool) -> None:
        print(self.json() if as_json else self.text())


def _load_fan(path: str) -> Fan:
    return fileformats.parse_fan(Path(path).read_text())


def _relation_lines(report: Report, fan: Fan) -> None:
    for rel in primitive_relations(fan):
        report.add("relation", fileformats.format_relation(rel))
        report.add("relation_degree", rel.degree)


def _cmd_check(args, report: Report) -> int:
    fan = _load_fan(args.fanfile)
    report.add("file", args.fanfile)
    report.add("dimension", fan.dimension)
    report.add("rays", len(fan.rays))
    report.add("max_cones", len(fan.max_cones))
    report.add("smooth", True)
    complete = is_complete(fan)
    report.add("complete", complete)
    if not complete:
        return MATH_FAIL
    fano = divisor.classify_fano(fan)
    report.add("fano", fano.status.value)
    _relation_lines(report, fan)
    return OK


def _cmd_relations(args, report: Report) -> int:
    fan = _load_fan(args.fanfile)
    report.add("file", args.fanfile)
    if not is_complete(fan):
        report.add("complete", False)
        return MATH_FAIL
    _relation_lines(report, fan)
    return OK


def _describe_splitting(report: Report, index: int, split) -> None:
    kind = deform.fiber_type(split)
    report.add("splitting", index)
    report.add("upper_ray", split.upper_names[0])
    report.add("lower_ray", split.lower_names[0])
    report.add("basis_rays", ",".join(split.basis_names))
    report.add("other_equator_rays", ",".join(split.rest_names) or "none")
    report.add("fiber", kind.kind.value)
    report.add(
        "fiber_pair", ",".join(kind.fiber_pair) if kind.fiber_pair else "none"
    )


def _cmd_split(args, report: Report) -> int:
    fan = _load_fan(args.fanfile)
    splittings = deform.find_splittings(fan)
    report.add("file", args.fanfile)
    report.add("splittings", len(splittings))
    for i, split in enumerate(splittings):
        _describe_splitting(report, i, split)
    return OK


def _cmd_deform(args, report: Report) -> int:
    fan = _load_fan(args.fanfile)
    splittings = deform.find_splittings(fan)
    report.add("file", args.fanfile)
    report.add("k", args.k)
    if args.splitting is not None:
        if not 0 <= args.splitting < len(splittings):
            report.add("error", f"no splitting with index {args.splitting}")
            return INPUT_ERROR
        candidates = [(args.splitting, splittings[args.splitting])]
    else:
        candidates = list(enumerate(splittings))
    chosen = None
    for index, split in candidates:
        if deform.fiber_type(split).kind is FiberKind.OTHER:
            continue
        conditions = deform.endpoint_conditions(split, args.k)
        if conditions:
            chosen = (index, split)
            break
    if chosen is None:
        report.add("conditions", "violated")
        for index, split in candidates:
            for violation in deform.endpoint_conditions(split, args.k).violations:
                report.add("violation", f"splitting {index}: {violation}")
            if deform.fiber_type(split).kind is FiberKind.OTHER:
                report.add("violation", f"splitting {index}: fiber type Other")
        return MATH_FAIL
    index, split = chosen
    _describe_splitting(report, index, split)
    report.add("conditions", "satisfied")
    end = deform.endpoint(split, args.k)
    for rel in primitive_relations(end):
        report.add("endpoint_relation", fileformats.format_relation(rel))
    report.add("endpoint_fano", divisor.classify_fano(end).status.value)
    out = Path(args.out)
    out.write_text(fileformats.serialize_fan(end))
    report.add("endpoint_written", str(out))
    return OK


def _cmd_iso(args, report: Report) -> int:
    f1 = _load_fan(args.fanfile1)
    f2 = _load_fan(args.fanfile2)
    mapping = fan_isomorphism(f1, f2)
    report.add("file_1", args.fanfile1)
    report.add("file_2", args.fanfile2)
    report.add("isomorphic", mapping is not None)
    if mapping is None:
        return MATH_FAIL
    for row in mapping.matrix:
        report.add("matrix_row", " ".join(str(x) for x in row))
    return OK


def _parse_twists(text: str) -> BundleSpec:
    try:
        return BundleSpec(tuple(int(t) for t in text.split(",")))
    except ValueError as exc:
        raise ParseError(f"bad twist vector {text!r}: {exc}") from None


def _cmd_chain(args, report: Report) -> int:
    start = _parse_twists(getattr(args, "from"))
    end = _parse_twists(args.to)
    if start.dimension != args.dim or end.dimension != args.dim:
        raise ParseError(
            f"twist vectors must have {args.dim - 1} entries for dim {args.dim}"
        )
    report.add("dim", args.dim)
    report.add("from", ",".join(map(str, start.twists)))
    report.add("to", ",".join(map(str, end.twists)))
    chain = deformation_chain(start, end)
    s, t, d = sum(start.twists), sum(end.twists), args.dim
    if chain is None:
        report.add("congruence", f"{s % d} ≠ {t % d} (mod {d})")
        return MATH_FAIL
    report.add("congruence", f"{s % d} = {t % d} (mod {d})")
    report.add("steps", len(chain.specs) - 1)
    for spec in chain.specs:
        report.add("twists", ",".join(map(str, spec.twists)))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, fan in enumerate(chain.fans):
            path = out_dir / f"V{i}.fan"
            path.write_text(fileformats.serialize_fan(fan))
            report.add("written", str(path))
    return OK


def _catalog_verify_one(name: str, report: Report) -> bool:
    item = catalog.entry(name)
    result = catalog.verify_weakened(item)
    report.add("name", name)
    for stage in result.stages:
        detail = f" ({stage.detail})" if stage.detail else ""
        report.add(
            f"stage_{stage.name}", ("pass" if stage.ok else "FAIL") + detail
        )
    for rel in result.endpoint_relations:
        report.add("endpoint_relation", rel)
    report.add(
        "extra_collections",
        "none" if not result.extra_collections
        else "; ".join("+".join(c) for c in result.extra_collections),
    )
    label = item.expected.endpoint_type_label
    if label:
        report.add("endpoint_type_label", label)
    report.add("verified", result.ok)
    return result.ok


def _cmd_catalog(args, report: Report) -> int:
    if args.action == "list":
        for name in catalog.names():
            report.add("name", name)
        report.add("families", "hirzebruch(a), bundle(d;p1,...)")
        return OK
    if args.action == "show":
        if not args.name:
            raise ParseError("catalog show needs a name")
        item = catalog.entry(args.name)
        fan = catalog.reconstruct(item)
        report.add("name", item.name)
        report.add("dimension", item.dimension)
        report.add("rays", len(fan.rays))
        for rel in primitive_relations(fan):
            report.add("relation", fileformats.format_relation(rel))
        report.add("expected_classification", item.expected.classification.value)
        if item.expected.endpoint_type_label:
            report.add("endpoint_type_label", item.expected.endpoint_type_label)
        if args.out:
            Path(args.out).write_text(fileformats.serialize_fan(fan))
            report.add("written", args.out)
        return OK
    # verify
    target = args.name or "all"
    if target == "all":
        all_ok = True
        for name in catalog.names():
            all_ok = _catalog_verify_one(name, report) and all_ok
        report.add("all_verified", all_ok)
        return OK if all_ok else MATH_FAIL
    return OK if _catalog_verify_one(target, report) else MATH_FAIL


def _cmd_fromrel(args, report: Report) -> int:
    text = Path(args.relfile).read_text()
    dimension, gens, relations, basis = fileformats.parse_relation_presentation(text)
    fan = fan_from_relations(dimension, gens, relations, basis)
    serialized = fileformats.serialize_fan(fan)
    if args.out:
        Path(args.out).write_text(serialized)
        report.add("written", args.out)
        return OK
    sys.stdout.write(serialized)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanshear",
        description="Split smooth complete toric fans over the line, shear them, "
        "and classify Fano behavior, in exact integer arithmetic.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a fan file and classify it")
    p.add_argument("fanfile")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("relations", help="print the primitive relations")
    p.add_argument("fanfile")
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("split", help="list all splittings over the line")
    p.add_argument("fanfile")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("deform", help="shear with parameter k and write the endpoint fan")
    p.add_argument("fanfile")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--splitting", type=int, default=None)
    p.add_argument("--out", default="out.fan")
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser("iso", help="decide unimodular equivalence of two fan files")
    p.add_argument("fanfile1")
    p.add_argument("fanfile2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("chain", help="deformation chain between bundle twist vectors")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("catalog", help="list, show or verify built-in fans")
    p.add_argument("action", choices=["list", "show", "verify"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("fromrel", help="build a fan file from a relation file")
    p.add_argument("relfile")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fromrel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report()
    try:
        status = args.func(args, report)
    except ParseError as exc:
        report.add("error", str(exc))
        report.emit(args.json)
        return INPUT_ERROR
    except (FileNotFoundError, ValueError) as exc:
        # ValueError: a user-facing precondition, such as a splitting or
        # deformation asked of an incomplete fan, or a negative k.
        report.add("error", str(exc))
        report.emit(args.json)
        return INPUT_ERROR
    except FanError as exc:
        report.add("error", f"{type(exc).__name__}: {exc}")
        report.emit(args.json)
        return MATH_FAIL
    report.emit(args.json)
    return status


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
