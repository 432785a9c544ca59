"""Built-in fans and the weakened-Fano verification harness.

The fixed entries are the weakened Fano 3-fold X3_0 and nine weakened
Fano 4-folds, each given by its primitive-relation presentation; the
parameterized families hirzebruch(a) and bundle(d;p1,...,p_{d-1}) are the
split projective bundles over the line.  verify_weakened runs the whole
pipeline on an entry and checks it against the entry's own expected
outcome: the fixed entries and the bundles with twist sum 2 are weak Fano
but not Fano and have a Fano k = 1 endpoint; the other bundles are Fano
(twist sum at most 1) or not weak Fano, and have no endpoint stage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import deform, divisor, scroll
from .deform import FiberKind
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
from .fileformats import format_relation, parse_relation
from .scroll import BundleSpec


@dataclass(frozen=True)
class ExpectedOutcome:
    classification: FanoClass
    endpoint_k: Optional[int]
    endpoint_is_fano: Optional[bool]
    endpoint_type_label: Optional[str] = None  # informational only, never verified


@dataclass(frozen=True)
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
_HIRZEBRUCH_RE = re.compile(r"hirzebruch\((\d+)\)\Z")
_BUNDLE_RE = re.compile(r"bundle\((\d+);([\d,]+)\)\Z")


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
        return ExpectedOutcome(FanoClass.WEAK_FANO_NOT_FANO, 1, True)
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
    if name in _FIXED_BY_NAME:
        return _FIXED_BY_NAME[name]
    m = _HIRZEBRUCH_RE.match(name)
    if m:
        return _bundle_entry(name, BundleSpec((int(m.group(1)),)))
    m = _BUNDLE_RE.match(name)
    if m:
        d = int(m.group(1))
        twists = tuple(int(p) for p in m.group(2).split(","))
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


@dataclass(frozen=True)
class Stage:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
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
    endpoint_is_fano.  Primitive collections are recomputed and any
    difference from the presented list is reported (informationally)
    rather than assumed away.
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
    chosen = kind = None
    for split in deform.find_splittings(fan):
        kind = deform.fiber_type(split).kind
        if kind is not FiberKind.OTHER and deform.endpoint_conditions(split, k):
            chosen = split
            break
    stages.append(
        Stage(
            "splitting",
            chosen is not None,
            "" if chosen is None else
            f"pivot {chosen.pivot_name}, partner {chosen.partner_name}, "
            f"fiber {kind.value}",
        )
    )
    if chosen is None:
        return WeakenedReport(item.name, tuple(stages), (), extras, False)

    end = deform.endpoint(chosen, k)
    endpoint_rel_strings = tuple(format_relation(r) for r in primitive_relations(end))
    end_report = divisor.classify_fano(end)
    end_ok = (end_report.status is FanoClass.FANO) == expected.endpoint_is_fano
    stages.append(Stage("endpoint_fano", end_ok, end_report.status.value))

    ok = all(s.ok for s in stages)
    return WeakenedReport(item.name, tuple(stages), endpoint_rel_strings, extras, ok)
