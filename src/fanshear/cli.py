"""Command-line front end.

Subcommands: check, relations, split, deform, iso, chain, catalog,
fromrel.  Reports are line-oriented `key: value` text; --json emits one
object with the same fields.  Exit status 0 means every asserted property
holds, 1 a mathematical check failed, 2 malformed input.

The grammar is one table, COMMANDS.  main reads plain argv (an optional
leading --json, the command, its positionals, then `--flag value` pairs)
straight from the table, and builds the argparse parser only for
everything else: help, usage errors, abbreviated flags, `--flag=value`,
`--` and repeated flags.  The fallback keeps argparse the only source of
help and error text, and the plain path returns a namespace with the same
attributes, so a valid invocation behaves the same either way.  It exists
because a process builds the parser cold, and argparse's first message
lookup imports locale through gettext, which costs more than most ops;
argparse itself is imported only when the parser is built.  For the same
reason the --json report is written here, not by the json module, whose
import costs more than writing a report: the text is byte-identical to
`json.dumps(report, indent=2)`.
"""

from __future__ import annotations

import gc
import os
import sys
from itertools import islice, tee
from pathlib import Path
from types import SimpleNamespace

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
        return _json(folded, "\n")

    def emit(self, as_json: bool) -> None:
        print(self.json() if as_json else self.text())


# What json.dumps writes, with ensure_ascii, for each ASCII character it escapes
_ESCAPES = {c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F)}
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')})


def _quote(text: str) -> str:
    """A JSON string literal of text in ASCII, as json.dumps writes it."""
    text = text.translate(_ESCAPES)
    if not text.isascii():
        text = "".join(c if c.isascii() else _escape(c) for c in text)
    return f'"{text}"'


def _escape(char: str) -> str:
    """\\uXXXX for a character past ASCII, a UTF-16 surrogate pair past U+FFFF."""
    code = ord(char)
    if code > 0xFFFF:
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"


def _json(value, newline: str) -> str:
    """value as json.dumps(value, indent=2) writes it, nested after newline's indent.

    Only what a Report holds: str, int, bool and None, in lists and in a
    dict with str keys.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, list):
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{_quote(key)}: {_json(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _read(path: str) -> str:
    # One plain read: pathlib's first call in a process costs more CPU.
    with open(path, "rb") as f:
        return f.read().decode()


def _write(path: str | Path, text: str) -> None:
    # One plain write, like _read: Path.write_text costs more CPU cold.
    with open(path, "wb") as f:
        f.write(text.encode())


def _load_fan(path: str) -> Fan:
    return fileformats.parse_fan(_read(path))


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
    splittings = deform._splittings(fan)
    report.add("file", args.fanfile)
    report.add("k", args.k)
    first = 0
    if args.splitting is not None:
        picked = None
        if 0 <= args.splitting <= sys.maxsize:  # islice takes no larger index
            picked = next(islice(splittings, args.splitting, None), None)
        if picked is None:
            report.add("error", f"no splitting with index {args.splitting}")
            return INPUT_ERROR
        splittings, first = (picked,), args.splitting
    # The search stops at the first deformable splitting; only when there is
    # none are the splittings it drew listed again, from the tee's buffer.
    # Only the one deformed computes its base fan.
    search, drawn = tee(splittings)
    found = deform._first_deformable(search, args.k)
    if found is None:
        report.add("conditions", "violated")
        for index, split in enumerate(drawn, first):
            for violation in deform.endpoint_conditions(split, args.k).violations:
                report.add("violation", f"splitting {index}: {violation}")
            if deform.fiber_type(split).kind is FiberKind.OTHER:
                report.add("violation", f"splitting {index}: fiber type Other")
        return MATH_FAIL
    index, split = found
    _describe_splitting(report, first + index, split)
    report.add("conditions", "satisfied")
    end = deform.endpoint(split, args.k)
    for rel in primitive_relations(end):
        report.add("endpoint_relation", fileformats.format_relation(rel))
    report.add("endpoint_fano", divisor.classify_fano(end).status.value)
    out = Path(args.out)
    _write(out, fileformats.serialize_fan(end))
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
        return BundleSpec(tuple(fileformats._parse_int(t) for t in text.split(",")))
    except (ParseError, ValueError) as exc:
        raise ParseError(f"bad twist vector {text!r}: {exc}") from None


def _cmd_chain(args, report: Report) -> int:
    start = _parse_twists(getattr(args, "from"))
    end = _parse_twists(args.to)
    if args.dim < 2:
        raise ParseError(f"a chain needs --dim >= 2, got {args.dim}")
    if start.dimension != args.dim or end.dimension != args.dim:
        raise ParseError(f"twist vectors must have {args.dim - 1} entries for dim {args.dim}")
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
            _write(path, fileformats.serialize_fan(fan))
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
            _write(args.out, fileformats.serialize_fan(fan))
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
    text = _read(args.relfile)
    dimension, gens, relations, basis = fileformats.parse_relation_presentation(text)
    fan = fan_from_relations(dimension, gens, relations, basis)
    serialized = fileformats.serialize_fan(fan)
    if args.out:
        _write(args.out, serialized)
        report.add("written", args.out)
        return OK
    sys.stdout.write(serialized)
    return OK


def _ascii_int(token: str) -> int:
    """An integer option's value, in fileformats' ASCII integer grammar.

    Unlike int(), it refuses underscores, whitespace and non-ASCII digits.
    It raises ValueError, which _parse_plain and argparse both read as a
    bad value, and is named "int", so argparse's message stays
    "invalid int value".
    """
    try:
        return fileformats._parse_int(token)
    except ParseError:
        raise ValueError(f"invalid int value: {token!r}") from None


_ascii_int.__name__ = "int"


# The grammar, written once: per command its handler, help text,
# positionals and options.  A positional is (dest, choices, optional); only
# catalog's name is optional.  An option is (flag, type, default, required),
# and its dest is the flag without "--", dashes turned into underscores.
# _parse_plain reads plain argv straight from this table.  build_parser turns
# it into the argparse parser, which main builds only when _parse_plain gives
# up, so that help, usage errors and the spellings only argparse accepts
# (abbreviations, --flag=value, --) keep argparse's exact behaviour, while the
# common invocation skips a parser build that costs more than most ops.
COMMANDS = {
    "check": (_cmd_check, "validate a fan file and classify it",
              [("fanfile", None, False)], []),
    "relations": (_cmd_relations, "print the primitive relations",
                  [("fanfile", None, False)], []),
    "split": (_cmd_split, "list all splittings over the line",
              [("fanfile", None, False)], []),
    "deform": (_cmd_deform, "shear with parameter k and write the endpoint fan",
               [("fanfile", None, False)],
               [("--k", _ascii_int, None, True), ("--splitting", _ascii_int, None, False),
                ("--out", None, "out.fan", False)]),
    "iso": (_cmd_iso, "decide unimodular equivalence of two fan files",
            [("fanfile1", None, False), ("fanfile2", None, False)], []),
    "chain": (_cmd_chain, "deformation chain between bundle twist vectors", [],
              [("--dim", _ascii_int, None, True), ("--from", None, None, True),
               ("--to", None, None, True), ("--out-dir", None, None, False)]),
    "catalog": (_cmd_catalog, "list, show or verify built-in fans",
                [("action", ["list", "show", "verify"], False), ("name", None, True)],
                [("--out", None, None, False)]),
    "fromrel": (_cmd_fromrel, "build a fan file from a relation file",
                [("relfile", None, False)], [("--out", None, None, False)]),
}


def build_parser():
    """The argparse parser of every command in COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fanshear",
        description="Split smooth complete toric fans over the line, shear them, "
        "and classify Fano behavior, in exact integer arithmetic.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest, choices, optional in positionals:
            if optional:
                p.add_argument(dest, nargs="?", default=None)
            else:
                p.add_argument(dest, choices=choices)
        for flag, kind, default, required in options:
            p.add_argument(flag, type=kind, default=default, required=required)
        p.set_defaults(func=func)
    return parser


def _is_value(token: str) -> bool:
    """Whether every parser built from COMMANDS reads token as a value.

    None of them has an option that looks like a negative number, so
    argparse takes "-" followed by digits as a value, not as a flag.
    """
    return not token.startswith("-") or fileformats._is_digits(token[1:])


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """A namespace with the attributes build_parser().parse_args(argv) sets, for plain argv.

    Plain argv is an optional leading --json, a command, its positionals,
    then separate `--flag value` pairs, each flag spelled in full and given
    once.  A positional or value may start with "-" only as an ASCII
    negative integer, which argparse also reads as a value.  Anything else
    (help, errors, abbreviations, --flag=value, --, repeated flags) returns
    None, and argparse parses it, so help and usage errors keep one source.
    """
    start = 1 if argv[:1] == ["--json"] else 0
    if len(argv) <= start or argv[start] not in COMMANDS:
        return None
    command, tokens = argv[start], argv[start + 1:]
    func, _, positionals, options = COMMANDS[command]
    flags = {option[0] for option in options}
    split = next((i for i, t in enumerate(tokens) if t in flags), len(tokens))
    heads, pairs = tokens[:split], tokens[split:]
    given = dict(zip(pairs[::2], pairs[1::2]))
    least = sum(not optional for _, _, optional in positionals)
    if (
        len(pairs) % 2
        or len(given) != len(pairs) // 2
        or not given.keys() <= flags
        or not least <= len(heads) <= len(positionals)
        or not all(map(_is_value, heads + pairs[1::2]))
    ):
        return None
    values = {"json": start == 1, "command": command}
    heads += [None] * (len(positionals) - len(heads))
    for (dest, choices, _), value in zip(positionals, heads):
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for flag, kind, default, required in options:
        if flag in given:
            try:
                value = given[flag] if kind is None else kind(given[flag])
            except ValueError:
                return None
        elif required:
            return None
        else:
            value = default
        values[flag[2:].replace("-", "_")] = value
    values["func"] = func
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run one command line and return its exit status.

    The objects that exist at the call outlive it, so they are frozen out
    of garbage collection while it runs.  Otherwise the command's first
    collection of an older generation may rescan all of them, depending
    only on where earlier allocations left the collector's counters: the
    ~15k objects that importing the package leaves took about 4 ms to scan
    on a 2-vCPU x86-64 virtual machine, more than most commands.  A freeze
    made by the caller is kept.
    """
    frozen_before = gc.get_freeze_count()
    gc.freeze()
    try:
        return _main(argv)
    finally:
        if not frozen_before:
            gc.unfreeze()


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    report = Report()
    try:
        status = args.func(args, report)
    except (ParseError, OSError, ValueError) as exc:
        # ParseError: a fan or relation file that does not parse.
        # OSError: a path that cannot be read or written, such as a missing
        # file, a directory given as a file or a file given as --out-dir.
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
    """The console entry point: exit with main's status.

    A reader that closes the pipe early (`fanshear chain ... | head -1`)
    ends the command with status 1 and no traceback.  As the Python signal
    module's documentation recommends, stdout is then pointed at devnull,
    so that the interpreter's last flush at exit cannot fail again.
    """
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    run()
