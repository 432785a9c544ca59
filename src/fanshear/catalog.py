"""Built-in fans and the weakened-Fano verification harness.

The fixed entries are the weakened Fano 3-fold X3_0 and nine weakened
Fano 4-folds, each given by its primitive-relation presentation; the
parameterized families hirzebruch(a) and bundle(d;p1,...,p_{d-1}) are the
split projective bundles over the line.  verify_weakened runs the whole
pipeline on an entry and checks it against the entry's own expected
outcome: the fixed entries and the bundles with twist sum 2 are weak Fano
but not Fano and have a k = 1 endpoint, which is Fano except on a bundle
of dimension d >= 3 (its twist sum stays 2 mod d); the other bundles are
Fano (twist sum at most 1) or not weak Fano, and have no endpoint stage.
"""

from __future__ import annotations

from typing import Optional

from . import deform, divisor, scroll
from ._record import frozen
from .divisor import FanoClass
from .errors import FanError, UnknownName
from .fan import (
    Fan,
    FormalRelation,
    fan_from_relations,
    is_complete,
    primitive_collections,
    primitive_relations,
)
from .fileformats import _is_digits, format_relation, parse_relation
from .scroll import BundleSpec


@frozen
class ExpectedOutcome:
    classification: FanoClass
    endpoint_k: Optional[int]
    endpoint_is_fano: Optional[bool]
    endpoint_type_label: Optional[str] = None  # informational only, never verified


@frozen
class CatalogEntry:
    name: str
    dimension: int
    generator_names: tuple[str, ...]
    relations: tuple[FormalRelation, ...]
    basis: Optional[tuple[str, ...]]
    expected: ExpectedOutcome


def _entry(name, dim, gens, rels, basis=None, label=None):
    return CatalogEntry(
        name=name,
        dimension=dim,
        generator_names=tuple(gens.split()),
        relations=tuple(parse_relation(r) for r in rels),
        basis=tuple(basis.split()) if basis else None,
        expected=ExpectedOutcome(FanoClass.WEAK_FANO_NOT_FANO, 1, True, label),
    )


_PENTAGON = [
    "x5+x6 = 0",
    "x3+x7 = 0",
    "x2+x3 = x5",
    "x5+x7 = x2",
    "x2+x6 = x7",
]

FIXED_ENTRIES: tuple[CatalogEntry, ...] = (
    _entry(
        "X3_0", 3, "e1 e2 a1 a2 b1 c1",
        ["e1+a1 = e2", "e2+a2 = 0", "b1+c1 = 2*e1"],
        basis="e1 e2 b1",
    ),
    _entry(
        "W4_1", 4, "x1 x2 x3 x4 x5 x6 x7",
        ["x1+x4 = x2", "x2+x3+x5 = 0", "x6+x7 = 2*x1"],
        label="D7",
    ),
    _entry(
        "W4_2", 4, "x1 x2 x3 x4 x5 x6 x7 x8",
        ["x1+x4 = x2", "x2+x6 = 0", "x3+x5 = x2", "x7+x8 = 2*x1"],
        label="L1",
    ),
    _entry(
        "W4_3", 4, "x1 x2 x3 x4 x5 x6 x7 x8",
        ["x1+x4 = x2", "x2+x6 = 0", "x3+x5 = x6", "x7+x8 = 2*x1"],
        label="L13",
    ),
    _entry(
        "W4_4", 4, "x1 x2 x3 x4 x5 x6 x7 x8",
        ["x1+x4 = x2", "x2+x5 = x3", "x3+x6 = 0", "x7+x8 = 2*x1"],
        label="L2",
    ),
    _entry(
        "W4_5", 4, "x1 x2 x3 x4 x5 x6 x7 x8 x9",
        _PENTAGON + ["x1+x4 = x2", "x8+x9 = 2*x1"],
        label="Q1",
    ),
    _entry(
        "W4_6", 4, "x1 x2 x3 x4 x5 x6 x7 x8 x9",
        _PENTAGON + ["x1+x4 = x3", "x8+x9 = 2*x1"],
        label="Q13",
    ),
    _entry(
        "W4_7", 4, "x1 x2 x3 x4 x5 x6 x7 x8 x9",
        _PENTAGON + ["x1+x4 = x5", "x8+x9 = 2*x1"],
        label="Q8",
    ),
    _entry(
        "W4_8", 4, "x1 x2 x3 x4 x5 x6 x7 x8 x9",
        _PENTAGON + ["x1+x4 = 0", "x8+x9 = 2*x1"],
        label="Q11",
    ),
    _entry(
        "W4_9", 4, "x1 x2 x3 x4 x5 x6 x7 x8 x9 x10",
        [
            "x5+x8 = 0",
            "x2+x5 = x3",
            "x3+x8 = x2",
            "x3+x6 = x5",
            "x3+x7 = 0",
            "x2+x6 = 0",
            "x6+x8 = x7",
            "x2+x7 = x8",
            "x5+x7 = x6",
            "x1+x4 = x2",
            "x9+x10 = 2*x1",
        ],
        label="U1",
    ),
)

_FIXED_BY_NAME = {e.name: e for e in FIXED_ENTRIES}


def names() -> tuple[str, ...]:
    """The fixed catalog names; hirzebruch(a) and bundle(d;p,...) are parsed on demand."""
    return tuple(e.name for e in FIXED_ENTRIES)


def _bundle_expected(spec: BundleSpec) -> ExpectedOutcome:
    # Degree bookkeeping: the fiber relation has degree d > 0 and the twist
    # relation degree 2 - sum(p), so the class depends only on the twist sum.
    total = sum(spec.twists)
    if total <= 1:
        return ExpectedOutcome(FanoClass.FANO, None, None)
    if total == 2:
        # The k = 1 endpoint is a bundle with twist sum 2 mod d: Fano iff d = 2.
        return ExpectedOutcome(FanoClass.WEAK_FANO_NOT_FANO, 1, spec.dimension == 2)
    return ExpectedOutcome(FanoClass.NOT_WEAK_FANO, None, None)


def _bundle_entry(name: str, spec: BundleSpec) -> CatalogEntry:
    gens, relations, basis = scroll.bundle_presentation(spec)
    return CatalogEntry(
        name=name,
        dimension=spec.dimension,
        generator_names=gens,
        relations=relations,
        basis=basis,
        expected=_bundle_expected(spec),
    )


def entry(name: str) -> CatalogEntry:
    """The fixed entry of that name, else hirzebruch(a) or bundle(d;p1,...,p_{d-1}).

    a, d and the p_i are ASCII decimal numbers.
    """
    if name in _FIXED_BY_NAME:
        return _FIXED_BY_NAME[name]
    family, paren, args = name.partition("(")
    if paren and args.endswith(")"):
        args = args[:-1]
        if family == "hirzebruch" and _is_digits(args):
            return _bundle_entry(name, BundleSpec((int(args),)))
        d, semicolon, twists = args.partition(";")
        twists = twists.split(",")
        if family == "bundle" and semicolon and _is_digits(d) and all(map(_is_digits, twists)):
            d, twists = int(d), tuple(map(int, twists))
            if d < 2:
                raise UnknownName(f"bundle({d};...): a bundle needs d ≥ 2")
            if len(twists) != d - 1:
                raise UnknownName(f"bundle({d};...) needs {d - 1} twists")
            return _bundle_entry(name, BundleSpec(twists))
    raise UnknownName(f"no catalog entry named {name!r}")


def reconstruct(item: CatalogEntry) -> Fan:
    return fan_from_relations(
        item.dimension, item.generator_names, item.relations, item.basis
    )


def builtin(name: str) -> Fan:
    """The validated fan of a catalog entry.

    >>> len(builtin("X3_0").rays)
    6
    """
    return reconstruct(entry(name))


@frozen
class Stage:
    name: str
    ok: bool
    detail: str


@frozen
class WeakenedReport:
    entry_name: str
    stages: tuple[Stage, ...]
    endpoint_relations: tuple[str, ...]
    extra_collections: tuple[tuple[str, ...], ...]
    ok: bool


def verify_weakened(item: CatalogEntry) -> WeakenedReport:
    """Run the pipeline on one entry and check it against the entry's expected outcome.

    Stages: reconstruction, smoothness and completeness, classification
    equal to item.expected.classification and, when item.expected names an
    endpoint_k, the existence of a splitting whose endpoint conditions hold
    for that k and an endpoint whose Fano-ness is item.expected's
    endpoint_is_fano.  The splittings are drawn in find_splittings order
    up to the first deformable one (deform._first_deformable), which reads
    each for its fiber type and conditions only; the one deformed computes
    its base fan for the shear, and no splitting computes a half-fan or an
    equator.  The endpoint takes the fan's primitive collections and all
    but one of its relations (deform.shear_lower).  Primitive collections
    are recomputed and any difference from the presented list is reported
    (informationally) rather than assumed away.
    """
    expected = item.expected
    stages: list[Stage] = []
    endpoint_rel_strings: tuple[str, ...] = ()
    extras: tuple[tuple[str, ...], ...] = ()

    try:
        fan = reconstruct(item)
        stages.append(Stage("reconstruct", True, f"{len(fan.rays)} rays"))
    except FanError as exc:
        stages.append(Stage("reconstruct", False, str(exc)))
        return WeakenedReport(item.name, tuple(stages), (), (), False)

    stages.append(Stage("smooth", True, "validated at construction"))
    complete = is_complete(fan)
    stages.append(Stage("complete", complete, ""))
    if not complete:
        return WeakenedReport(item.name, tuple(stages), (), (), False)

    presented = {frozenset(r.lhs) for r in item.relations}
    recomputed = set(primitive_collections(fan))
    extras = tuple(
        tuple(sorted(c)) for c in sorted(
            (recomputed - presented) | (presented - recomputed), key=sorted
        )
    )

    report = divisor.classify_fano(fan)
    cls_ok = report.status is expected.classification
    detail = f"{report.status.value}, relation degrees {list(report.relation_degrees)}"
    if not cls_ok:
        detail += f"; expected {expected.classification.value}"
    stages.append(Stage("classification", cls_ok, detail))
    if not cls_ok or expected.endpoint_k is None:
        return WeakenedReport(item.name, tuple(stages), (), extras, cls_ok)

    k = expected.endpoint_k
    found = deform._first_deformable(deform._splittings(fan), k)
    if found is None:
        stages.append(Stage("splitting", False, ""))
        return WeakenedReport(item.name, tuple(stages), (), extras, False)
    chosen = found[1]
    stages.append(Stage(
        "splitting", True, f"pivot {chosen.pivot_name}, partner {chosen.partner_name}, "
        f"fiber {deform.fiber_type(chosen).kind.value}",
    ))

    end = deform.endpoint(chosen, k)
    endpoint_rel_strings = tuple(format_relation(r) for r in primitive_relations(end))
    end_report = divisor.classify_fano(end)
    end_ok = (end_report.status is FanoClass.FANO) == expected.endpoint_is_fano
    stages.append(Stage("endpoint_fano", end_ok, end_report.status.value))

    ok = all(s.ok for s in stages)
    return WeakenedReport(item.name, tuple(stages), endpoint_rel_strings, extras, ok)
