"""Text formats for fans and relation presentations.

Fan file: a `dim <d>` header, one `ray <name> <i1> ... <id>` line per ray,
one `cone <name> ...` line per maximal cone.  Relation file: `dim <d>`,
`gens <name> ...`, `rel <name>+<name>+... = <k>*<name> + ...` lines and an
optional `basis <name> ...`.  `#` starts a comment, blank lines are
ignored, serialization is canonical (input order, base-10, single spaces).
"""

from __future__ import annotations

from typing import Optional

from .errors import ParseError
from .fan import Fan, FormalRelation, PrimitiveRelation, make_fan


def format_relation(relation: PrimitiveRelation) -> str:
    """Render a primitive relation the way relation files write them.

    >>> format_relation(PrimitiveRelation(("b1", "c1"), (("e1", 2),), 0))
    'b1+c1 = 2*e1'
    """
    lhs = "+".join(relation.collection)
    if not relation.support:
        return f"{lhs} = 0"
    terms = [f"{k}*{n}" if k != 1 else n for n, k in relation.support]
    return f"{lhs} = " + " + ".join(terms)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", lineno) from None


def parse_fan(text: str) -> Fan:
    """Parse a fan file and validate it with make_fan."""
    dimension = None
    rays: list[tuple[str, tuple[int, ...]]] = []
    cones: list[tuple[str, ...]] = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        keyword = parts[0]
        if keyword == "dim":
            if dimension is not None:
                raise ParseError("duplicate dim line", lineno)
            if len(parts) != 2:
                raise ParseError("dim takes exactly one integer", lineno)
            dimension = _parse_int(parts[1], lineno)
        elif keyword == "ray":
            if dimension is None:
                raise ParseError("ray before dim", lineno)
            if len(parts) != 2 + dimension:
                raise ParseError(
                    f"ray needs a name and {dimension} integers", lineno
                )
            name = parts[1]
            if any(name == r[0] for r in rays):
                raise ParseError(f"duplicate ray name {name!r}", lineno)
            rays.append((name, tuple(_parse_int(t, lineno) for t in parts[2:])))
        elif keyword == "cone":
            if len(parts) < 2:
                raise ParseError("cone needs at least one ray name", lineno)
            known = {r[0] for r in rays}
            for n in parts[1:]:
                if n not in known:
                    raise ParseError(f"cone references unknown ray {n!r}", lineno)
            cones.append(tuple(parts[1:]))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno)
    if dimension is None:
        raise ParseError("missing dim line")
    if not rays:
        raise ParseError("no rays")
    if not cones:
        raise ParseError("no cones")
    return make_fan(dimension, rays, cones)


def serialize_fan(fan: Fan) -> str:
    lines = [f"dim {fan.dimension}"]
    for ray in fan.rays:
        coords = " ".join(str(x) for x in ray.generator)
        lines.append(f"ray {ray.name} {coords}")
    for cone in fan.max_cones:
        lines.append("cone " + " ".join(cone.ray_names))
    return "\n".join(lines) + "\n"


def _parse_term(token: str, lineno: int) -> tuple[int, str]:
    token = token.strip()
    if "*" in token:
        coeff, _, name = token.partition("*")
        return _parse_int(coeff.strip(), lineno), name.strip()
    return 1, token


def parse_relation(text: str, lineno: Optional[int] = None) -> FormalRelation:
    """Parse one `lhs = rhs` relation; lineno only labels a ParseError.

    >>> parse_relation("b1+c1 = 2*e1")
    FormalRelation(lhs=('b1', 'c1'), rhs=((2, 'e1'),))
    """
    if "=" not in text:
        raise ParseError("relation needs an '='", lineno)
    lhs_text, rhs_text = text.split("=", 1)
    lhs = tuple(t.strip() for t in lhs_text.split("+"))
    if not all(lhs):
        raise ParseError("empty term on the left-hand side", lineno)
    rhs_text = rhs_text.strip()
    if rhs_text == "0":
        return FormalRelation(lhs, ())
    return FormalRelation(lhs, tuple(_parse_term(t, lineno) for t in rhs_text.split("+")))


def parse_relation_presentation(
    text: str,
) -> tuple[int, tuple[str, ...], tuple[FormalRelation, ...], Optional[tuple[str, ...]]]:
    """Parse a relation file into fan_from_relations arguments."""
    dimension = None
    gens: Optional[tuple[str, ...]] = None
    basis: Optional[tuple[str, ...]] = None
    relations: list[FormalRelation] = []
    for lineno, line in _content_lines(text):
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if keyword == "dim":
            dimension = _parse_int(rest.strip(), lineno)
        elif keyword == "gens":
            gens = tuple(rest.split())
            if len(set(gens)) != len(gens):
                raise ParseError("duplicate generator name", lineno)
        elif keyword == "basis":
            basis = tuple(rest.split())
        elif keyword == "rel":
            if gens is None:
                raise ParseError("rel before gens", lineno)
            relation = parse_relation(rest, lineno)
            for n in relation.lhs + tuple(n for _, n in relation.rhs):
                if n not in gens:
                    raise ParseError(f"relation uses unknown generator {n!r}", lineno)
            relations.append(relation)
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno)
    if dimension is None:
        raise ParseError("missing dim line")
    if gens is None:
        raise ParseError("missing gens line")
    if basis is not None:
        for n in basis:
            if n not in gens:
                raise ParseError(f"basis uses unknown generator {n!r}")
    return dimension, gens, tuple(relations), basis
