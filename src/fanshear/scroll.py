"""Projective-space bundles over the line and deformations between them.

The fan of P(O + O(p_1) + ... + O(p_{d-1})) over P1 has d+2 rays and
exactly two primitive relations: the fiber relation (all fiber rays sum to
zero) and the twist relation b1 + c1 = p_1 e_1 + ... + p_{d-1} e_{d-1}.
bundle_fan builds it in closed form (Kleinschmidt 1988), b1 = e_d and
c1 = (p, -1), with every d-subset of rays holding neither left-hand side
as a cone; make_fan validates it and fan_from_relations is the tests'
oracle.  A single shear step with k = 1 lowers the twists; iterating it
drives any twist vector to entries in {0, 1}, and the twist sum is
invariant mod d, which is exactly the obstruction to connecting two
bundles by a chain of such one-parameter deformations.  Nothing is kept
between calls: deformation_chain builds each fan on its path once and
leaves them on the chain it returns.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from ._record import frozen
from .deform import _axis_splittings, endpoint
from .errors import DimensionMismatch, InternalError, PreconditionViolated
from .fan import (
    Fan, FormalRelation, PrimitiveRelation, Ray, _candidate_cones, make_fan, primitive_relation,
)


@frozen
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


@frozen
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


def bundle_fan(spec: BundleSpec) -> Fan:
    """The fan of the projectivized split bundle with the given twists.

    >>> len(bundle_fan(BundleSpec((0, 0))).rays)
    5
    """
    d = spec.dimension
    names, relations, _ = bundle_presentation(spec)
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    generators = [*unit[:-1], (*[-1] * (d - 1), 0), unit[-1], (*spec.twists, -1)]
    cones = _candidate_cones(names, d, [frozenset(r.lhs) for r in relations])
    return make_fan(d, list(map(Ray, names, generators)), list(cones))


def _reduce(spec: BundleSpec, fan: Fan) -> ReduceStep:
    # spec is descending with some twist >= 2, and fan is its bundle fan
    split = next(_axis_splittings(fan, "b1", "c1"))
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
    spec = spec.sorted()
    return _reduce(spec, bundle_fan(spec))


@frozen
class DeformationChain:
    specs: tuple[BundleSpec, ...]

    @cached_property
    def fans(self) -> tuple[Fan, ...]:
        return tuple(map(bundle_fan, self.specs))


def deformation_chain(start: BundleSpec, end: BundleSpec) -> Optional[DeformationChain]:
    """A chain of bundles linked by single reduction steps, or None.

    Exists exactly when the twist sums agree mod d: start is reduced to its
    normal form (all twists 0 or 1, determined by the sum mod d), end is
    reduced until it meets that descent, and the chain runs down the first
    descent to the meeting spec and back up the second.  Each bundle fan on
    the way is built once and kept on the chain.
    """
    if start.dimension != end.dimension:
        raise DimensionMismatch("bundle specs of different dimensions")
    start, end = start.sorted(), end.sorted()
    if (sum(start.twists) - sum(end.twists)) % start.dimension != 0:
        return None
    fans: dict[BundleSpec, Fan] = {}
    down = [start]
    while max(down[-1].twists) >= 2:
        fans[down[-1]] = fan = bundle_fan(down[-1])
        down.append(_reduce(down[-1], fan).renormalized)
    meets = {spec: i for i, spec in enumerate(down)}
    up = [end]
    while up[-1] not in meets:
        if max(up[-1].twists) < 2:
            raise InternalError("congruent twist sums reached different normal forms")
        fans[up[-1]] = fan = bundle_fan(up[-1])
        up.append(_reduce(up[-1], fan).renormalized)
    chain = DeformationChain((*down[: meets[up[-1]] + 1], *up[-2::-1]))
    object.__setattr__(chain, "fans", tuple(fans.get(s) or bundle_fan(s) for s in chain.specs))
    return chain
