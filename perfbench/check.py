"""Output checker: judges each op's `--json` report.

Only mathematical fields are compared (exit status, `verified`,
`complete`, the Fano class, the relation multiset, the chain's twist
sequence); any other key is ignored, so fields a later version adds do
not count as failures.  Relations are compared as multisets of
canonical `a+b=c+2*d` strings after mapping ray names back to the pool's
names.  Found isomorphisms are verified with this module's own integer
arithmetic; no matrix is stored.
"""

from __future__ import annotations

import json
from pathlib import Path

class CheckFailure(Exception):
    """An op's output disagrees with what it should be."""


def as_list(value) -> list:
    """Repeated report keys fold into arrays; a single one stays scalar."""
    if value is None:
        return []
    return value if isinstance(value, list) else [value]


def relation_key(text: str, names: dict[str, str] | None = None) -> str:
    """Canonical form `a+b=c+2*d` of a relation line, names sorted and mapped."""
    names = names or {}
    lhs_text, rhs_text = text.split("=", 1)
    lhs = sorted(names.get(n.strip(), n.strip()) for n in lhs_text.split("+"))
    support = []
    if rhs_text.strip() != "0":
        for term in rhs_text.split("+"):
            coeff, _, name = term.strip().rpartition("*")
            name = names.get(name.strip(), name.strip())
            support.append(f"{int(coeff)}*{name}" if coeff else name)
    return "+".join(lhs) + "=" + ("+".join(sorted(support)) or "0")


def relation_multiset(lines, names=None) -> list:
    return sorted(relation_key(t, names) for t in as_list(lines))


def facts(kind: str, code: int, report: dict, names: dict[str, str] | None = None) -> dict:
    """The mathematical content of one report, in JSON-comparable form."""
    if kind == "verify":
        out = {"exit": code, "verified": report.get("verified"),
               "endpoint_relations": relation_multiset(report.get("endpoint_relation"))}
    elif kind == "check":
        out = {"exit": code, "complete": report.get("complete"), "fano": report.get("fano"),
               "relations": relation_multiset(report.get("relation"), names)}
    elif kind == "chain":
        out = {"exit": code, "twists": as_list(report.get("twists"))}
    else:
        raise ValueError(f"no reference facts for {kind!r} ops")
    return json.loads(json.dumps(out))


def parse_fan_text(text: str) -> tuple[int, dict[str, tuple[int, ...]], list[frozenset[str]]]:
    """Minimal reader of the fan file format: dimension, rays, cone sets."""
    dim, rays, cones = None, {}, []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "dim":
            dim = int(parts[1])
        elif parts[0] == "ray":
            rays[parts[1]] = tuple(int(x) for x in parts[2:])
        elif parts[0] == "cone":
            cones.append(frozenset(parts[1:]))
        else:
            raise CheckFailure(f"unknown fan-file keyword {parts[0]!r}")
    if dim is None or not rays or not cones:
        raise CheckFailure("fan file lacks dim, rays or cones")
    if any(len(g) != dim for g in rays.values()) or any(len(c) != dim for c in cones):
        raise CheckFailure("fan file entries do not match its dimension")
    return dim, rays, cones


def det(rows: list[list[int]]) -> int:
    """Determinant by cofactor expansion; the matrices here are at most 7x7."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * a * det(minor)
    return total


def check_isomorphism(matrix_rows: list[str], path_a: str, path_b: str) -> None:
    """The matrix must be unimodular and carry a's rays and cones onto b's."""
    dim_a, rays_a, cones_a = parse_fan_text(Path(path_a).read_text())
    _, rays_b, cones_b = parse_fan_text(Path(path_b).read_text())
    matrix = [[int(x) for x in row.split()] for row in matrix_rows]
    if len(matrix) != dim_a or any(len(r) != dim_a for r in matrix):
        raise CheckFailure(f"matrix is not {dim_a}x{dim_a}")
    if abs(det(matrix)) != 1:
        raise CheckFailure("matrix is not unimodular")
    by_vector = {g: n for n, g in rays_b.items()}
    image = {}
    for name, g in rays_a.items():
        moved = tuple(sum(a * b for a, b in zip(row, g)) for row in matrix)
        if moved not in by_vector:
            raise CheckFailure(f"ray {name} maps to {moved}, not a ray of the second fan")
        image[name] = by_vector[moved]
    if len(set(image.values())) != len(rays_b):
        raise CheckFailure("matrix does not map rays onto rays")
    if {frozenset(image[n] for n in c) for c in cones_a} != set(cones_b):
        raise CheckFailure("matrix does not map cones onto cones")


def _check_chain(op, code: int, report: dict, refs: dict) -> None:
    d = op.expect["dim"]
    if not op.expect["congruent"]:
        if code != 1 or "≠" not in str(report.get("congruence")):
            raise CheckFailure(f"incongruent chain gave exit {code}")
        return
    expected = refs["chain"][op.expect["key"]]
    got = facts("chain", code, report)
    if got != expected:
        raise CheckFailure(f"chain facts {got} != reference {expected}")
    twists = [[int(t) for t in line.split(",")] for line in got["twists"]]
    if any((sum(a) - sum(b)) % d for a, b in zip(twists, twists[1:])):
        raise CheckFailure("consecutive twist sums are not congruent mod d")
    if report.get("steps") != len(twists) - 1:
        raise CheckFailure("steps does not match the twist sequence")
    written = as_list(report.get("written"))
    if len(written) != len(twists):
        raise CheckFailure(f"{len(written)} fan files written for {len(twists)} bundles")
    out_dir = Path(op.expect["out_dir"]).resolve()
    for path in written:
        if Path(path).resolve().parent != out_dir:
            raise CheckFailure(f"fan file {path} written outside --out-dir")
        dim, rays, cones = parse_fan_text(Path(path).read_text())
        if (dim, len(rays), len(cones)) != (d, d + 2, 2 * d):
            raise CheckFailure(f"{path} is not a bundle fan of dimension {d}")


def check(op, code: int, stdout: str, refs: dict) -> None:
    """Raise CheckFailure unless the op's exit code and report are right."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"report is not JSON: {exc}") from None
    if op.kind == "verify":
        expected = refs["verify"][op.expect["name"]]
        got = facts("verify", code, report)
    elif op.kind == "check":
        expected = refs["check"][op.expect["key"]]
        got = facts("check", code, report, op.expect["names"])
    elif op.kind == "chain":
        return _check_chain(op, code, report, refs)
    elif op.kind == "iso":
        isomorphic = op.expect["isomorphic"]
        if code != (0 if isomorphic else 1) or report.get("isomorphic") is not isomorphic:
            raise CheckFailure(f"iso gave exit {code}, isomorphic={report.get('isomorphic')}")
        if isomorphic:
            check_isomorphism(as_list(report.get("matrix_row")), op.expect["a"], op.expect["b"])
        return
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")
    if got != expected:
        raise CheckFailure(f"{op.kind} facts {got} != reference {expected}")
