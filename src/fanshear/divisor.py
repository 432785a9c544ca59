"""Divisor classes, homogeneous-coordinate data, and Fano classification.

The divisor class group of a smooth complete fan is the cokernel of the
dual-pairing map M -> Z^rays; here it is torsion free of rank
(#rays - dimension) and classes are represented as integer vectors in a
fixed basis obtained by deterministic integer row reduction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from . import lattice
from .errors import InternalError
from .fan import Fan, is_complete, primitive_relations


class NefAmpleStatus(enum.Enum):
    AMPLE = "Ample"
    NEF_NOT_AMPLE = "NefNotAmple"
    NOT_NEF = "NotNef"


class FanoClass(enum.Enum):
    FANO = "Fano"
    WEAK_FANO_NOT_FANO = "WeakFanoNotFano"
    NOT_WEAK_FANO = "NotWeakFano"


@dataclass(frozen=True)
class DivisorClassData:
    """Cokernel presentation of Z^rays modulo the lattice of principal divisors.

    relation_matrix holds the ray generators as columns (one column per ray,
    in ray order); class_of_ray sends each ray name to the coordinates of
    its divisor class in the chosen rank-(n-d) basis.
    """

    relation_matrix: tuple[tuple[int, ...], ...]
    picard_rank: int
    class_of_ray: Mapping[str, tuple[int, ...]]


@dataclass(frozen=True)
class IrrelevantData:
    """One monomial support per maximal cone: the rays the cone omits."""

    monomials: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class FanoReport:
    status: FanoClass
    relation_degrees: tuple[int, ...]


def _require_complete(fan: Fan, what: str) -> None:
    if not is_complete(fan):
        raise ValueError(f"{what} requires a complete fan")


def class_group(fan: Fan) -> DivisorClassData:
    """Divisor class group presentation of a smooth complete fan.

    Cached per fan.
    """
    return fan._class_group


def _class_group(fan: Fan) -> DivisorClassData:
    _require_complete(fan, "class_group")
    names = fan.ray_names()
    rows = [list(fan.generator(n)) for n in names]
    transform, echelon, pivots = lattice.row_echelon(rows)
    if len(pivots) != fan.dimension:
        raise ValueError("ray generators do not span the lattice")
    # Smooth complete fans have free class groups, so every pivot is a unit.
    if any(echelon[i][c] != 1 for i, c in enumerate(pivots)):
        raise InternalError("torsion in the class group of a smooth complete fan")
    rank = len(names) - fan.dimension
    classes = {
        name: tuple(transform[fan.dimension + i][j] for i in range(rank))
        for j, name in enumerate(names)
    }
    relation_matrix = tuple(
        tuple(fan.generator(n)[i] for n in names) for i in range(fan.dimension)
    )
    # the result is cached and shared, so freeze the mapping
    return DivisorClassData(relation_matrix, rank, MappingProxyType(classes))


def irrelevant_data(fan: Fan) -> IrrelevantData:
    """The vanishing monomial supports cut out by the maximal cones."""
    all_names = fan.ray_names()
    monomials = tuple(
        tuple(n for n in all_names if n not in cs) for cs in fan.cone_sets
    )
    return IrrelevantData(monomials)


def anticanonical(fan: Fan) -> dict[str, int]:
    """The divisor with coefficient 1 on every ray."""
    return {n: 1 for n in fan.ray_names()}


def nef_ample_status(fan: Fan, divisor: Mapping[str, int]) -> NefAmpleStatus:
    """Evaluate the divisor's support function against every ray.

    For each maximal cone the unique linear functional agreeing with the
    divisor on the cone's rays is compared with the divisor's coefficient
    on all remaining rays: ample means strictly dominated everywhere,
    nef allows equalities.
    """
    _require_complete(fan, "nef_ample_status")
    if set(divisor) != set(fan.ray_names()):
        raise ValueError("divisor coefficients must cover exactly the fan's rays")
    saw_equality = False
    for cs in fan.cone_sets:
        names, inv = fan._cone_inverse[cs]
        coeffs = [-divisor[n] for n in names]
        # functional m with <m, ray_i> = -coeff_i: m = coeffs @ inv
        m = tuple(
            sum(coeffs[t] * inv[t][j] for t in range(fan.dimension))
            for j in range(fan.dimension)
        )
        for name in fan.ray_names():
            if name in cs:
                continue
            slack = lattice.dot(m, fan.generator(name)) + divisor[name]
            if slack < 0:
                return NefAmpleStatus.NOT_NEF
            if slack == 0:
                saw_equality = True
    return NefAmpleStatus.NEF_NOT_AMPLE if saw_equality else NefAmpleStatus.AMPLE


def classify_fano(fan: Fan) -> FanoReport:
    """Classify the anticanonical divisor, cross-checking two criteria.

    The support-function test on -K and the primitive-relation degree
    criterion are computed independently and must agree; a disagreement is
    an InternalError, not a user-facing condition.  Cached per fan.
    """
    return fan._fano_report


def _classify_fano(fan: Fan) -> FanoReport:
    _require_complete(fan, "classify_fano")
    status = nef_ample_status(fan, anticanonical(fan))
    by_support = {
        NefAmpleStatus.AMPLE: FanoClass.FANO,
        NefAmpleStatus.NEF_NOT_AMPLE: FanoClass.WEAK_FANO_NOT_FANO,
        NefAmpleStatus.NOT_NEF: FanoClass.NOT_WEAK_FANO,
    }[status]
    degrees = tuple(rel.degree for rel in primitive_relations(fan))
    if all(d > 0 for d in degrees):
        by_degree = FanoClass.FANO
    elif all(d >= 0 for d in degrees):
        by_degree = FanoClass.WEAK_FANO_NOT_FANO
    else:
        by_degree = FanoClass.NOT_WEAK_FANO
    if by_support != by_degree:
        raise InternalError(
            f"support-function test says {by_support.value}, "
            f"degree criterion says {by_degree.value}"
        )
    return FanoReport(by_support, degrees)
