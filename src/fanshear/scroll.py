"""Projective-space bundles over the line and deformations between them.

The fan of P(O + O(p_1) + ... + O(p_{d-1})) over P1 has d+2 rays and
exactly two primitive relations: the fiber relation (all fiber rays sum to
zero) and the twist relation b1 + c1 = p_1 e_1 + ... + p_{d-1} e_{d-1}.
A single shear step with k = 1 lowers the twists; iterating it drives any
twist vector to entries in {0, 1}, and the twist sum is invariant mod d,
which is exactly the obstruction to connecting two bundles by a chain of
such one-parameter deformations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .deform import endpoint, find_splittings
from .errors import DimensionMismatch, InternalError, PreconditionViolated
from .fan import Fan, FormalRelation, PrimitiveRelation, fan_from_relations, primitive_relation


@dataclass(frozen=True)
class BundleSpec:
    """Twist vector (p_1, ..., p_{d-1}) of a rank-d split bundle over the line."""

    twists: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(int(p) for p in self.twists))
        if len(self.twists) < 1:
            raise ValueError("a bundle needs at least one twist entry")
        if any(p < 0 for p in self.twists):
            raise ValueError("twists must be nonnegative")

    @property
    def dimension(self) -> int:
        return len(self.twists) + 1

    def sorted(self) -> "BundleSpec":
        return BundleSpec(tuple(sorted(self.twists, reverse=True)))


@dataclass(frozen=True)
class ReduceStep:
    """Outcome of one k = 1 shear on a bundle fan."""

    spec: BundleSpec          # the (descending) twist vector that was reduced
    relation: PrimitiveRelation  # the new two-member relation, b1 + c'1 = ...
    fan: Fan                  # the sheared fan
    renormalized: BundleSpec  # the result rewritten as a bundle twist vector


def bundle_ray_names(dimension: int) -> list[str]:
    return [f"e{i}" for i in range(1, dimension)] + ["a1", "b1", "c1"]


def bundle_presentation(
    spec: BundleSpec,
) -> tuple[tuple[str, ...], tuple[FormalRelation, FormalRelation], tuple[str, ...]]:
    """Generator names, the (fiber, twist) relations and the basis of a bundle fan.

    >>> names, (fiber, twist), basis = bundle_presentation(BundleSpec((2, 0)))
    >>> twist
    FormalRelation(lhs=('b1', 'c1'), rhs=((2, 'e1'),))
    """
    d = spec.dimension
    names = tuple(bundle_ray_names(d))
    fiber = FormalRelation(names[: d - 1] + ("a1",), ())
    twist = FormalRelation(
        ("b1", "c1"),
        tuple((p, f"e{i + 1}") for i, p in enumerate(spec.twists) if p),
    )
    return names, (fiber, twist), names[: d - 1] + ("b1",)


@lru_cache(maxsize=None)
def _bundle_fan_cached(spec: BundleSpec) -> Fan:
    names, relations, basis = bundle_presentation(spec)
    return fan_from_relations(spec.dimension, names, relations, basis)


def bundle_fan(spec: BundleSpec) -> Fan:
    """The fan of the projectivized split bundle with the given twists.

    >>> len(bundle_fan(BundleSpec((0, 0))).rays)
    5
    """
    return _bundle_fan_cached(spec)


@lru_cache(maxsize=None)
def _reduce_step_cached(spec: BundleSpec) -> ReduceStep:
    fan = bundle_fan(spec)
    split = next(
        s
        for s in find_splittings(fan)
        if s.upper_names == ("b1",) and s.lower_names == ("c1",)
    )
    sheared = endpoint(split, 1)
    new_lower = next(n for n in sheared.ray_names() if n not in fan.ray_names())
    relation = primitive_relation(sheared, frozenset({"b1", new_lower}))

    # Rewrite as a twist vector: coefficients over all d fiber rays already
    # have minimum zero (the support spans a cone, so some fiber ray is
    # absent); drop one zero and sort descending.
    support = dict(relation.support)
    fiber_names = bundle_ray_names(spec.dimension)[: spec.dimension]
    coefficients = sorted((support.get(n, 0) for n in fiber_names), reverse=True)
    if coefficients[-1] != 0:
        raise InternalError("twist relation support covers every fiber ray")
    renormalized = BundleSpec(tuple(coefficients[:-1]))
    return ReduceStep(spec, relation, sheared, renormalized)


def reduce_step(spec: BundleSpec) -> ReduceStep:
    """Shear the bundle once with k = 1 and renormalize the twists.

    The twists are reordered descending first (relabeling fiber rays is an
    automorphism of the bundle); PreconditionViolated when no twist is at
    least 2, since the step would not lower anything.
    """
    if max(spec.twists) < 2:
        raise PreconditionViolated("a reduction step needs some twist >= 2")
    return _reduce_step_cached(spec.sorted())


@dataclass(frozen=True)
class DeformationChain:
    specs: tuple[BundleSpec, ...]

    @property
    def fans(self) -> tuple[Fan, ...]:
        return tuple(bundle_fan(s) for s in self.specs)


def _descend(spec: BundleSpec) -> list[BundleSpec]:
    chain = [spec]
    while max(chain[-1].twists) >= 2:
        chain.append(reduce_step(chain[-1]).renormalized)
    return chain


def deformation_chain(start: BundleSpec, end: BundleSpec) -> Optional[DeformationChain]:
    """A chain of bundles linked by single reduction steps, or None.

    Exists exactly when the twist sums agree mod d: both endpoints are
    reduced to their normal form (all twists 0 or 1, determined by the sum
    mod d) and the two descents are spliced at the shared normal form.
    """
    if start.dimension != end.dimension:
        raise DimensionMismatch("bundle specs of different dimensions")
    d = start.dimension
    start, end = start.sorted(), end.sorted()
    if (sum(start.twists) - sum(end.twists)) % d != 0:
        return None
    down = _descend(start)
    up = _descend(end)
    if down[-1] != up[-1]:
        raise InternalError("congruent twist sums reached different normal forms")
    while len(down) > 1 and len(up) > 1 and down[-2] == up[-2]:
        down.pop()
        up.pop()
    return DeformationChain(tuple(down + up[-2::-1]))
