"""Projective-space bundles over the line and deformations between them.

The fan of P(O + O(p_1) + ... + O(p_{d-1})) over P1 has d+2 rays and
exactly two primitive relations: the fiber relation (all fiber rays sum to
zero) and the twist relation b1 + c1 = p_1 e_1 + ... + p_{d-1} e_{d-1}.
bundle_fan builds it in closed form (Kleinschmidt 1988), b1 = e_d and
c1 = (p, -1).  Its cones, the d-subsets of rays holding neither
left-hand side, are each d - 1 of the fiber rays e1, ..., e(d-1), a1 with
b1 or with c1, listed in combinations order.  That closed form is smooth
and complete (see bundle_fan), so it is not revalidated: make_fan of its
rays and cones, and fan_from_relations, are the tests' oracles.  A single
shear step with k = 1 lowers the twists; iterating it drives any twist
vector to entries in {0, 1}, and the twist sum is invariant mod d, which
is exactly the obstruction to connecting two bundles by a chain of such
one-parameter deformations.  reduce_step does the shear and is the oracle
of the reduction formula (_renormalized), which deformation_chain follows
in O(d) per step without building a fan; a chain builds its bundle fans
when its fans attribute is first read.  A descent's length has a closed
form (_descent_length), so a chain walks only its own steps, and one that
takes more than CHAIN_CAP steps is refused before it passes the cap.
Nothing is kept between calls.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from operator import index
from typing import Optional

from ._record import frozen
from .deform import _axis_splittings, endpoint
from .errors import DimensionMismatch, InternalError, PreconditionViolated
from .fan import Cone, Fan, FormalRelation, PrimitiveRelation, Ray, primitive_relation


@frozen
class BundleSpec:
    """Twist vector (p_1, ..., p_{d-1}) of a rank-d split bundle over the line."""

    twists: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(map(index, self.twists)))
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

    Built directly, not through make_fan: by Kleinschmidt's classification
    of smooth complete fans with d + 2 rays (Kleinschmidt, "A
    classification of toric varieties with few generators", 1988) these
    cones form a smooth complete fan.  The fiber rays e1, ..., e(d-1), a1
    span the hyperplane x_d = 0 as the fan of P^(d-1): any d - 1 of them
    are a basis of it, and their cones tile it.  So a cone of d - 1 fiber
    rays with b1 = e_d, or with c1, whose last coordinate is -1, is
    unimodular.  The cones with b1 tile the half-space x_d >= 0.  The
    cones with c1 are the images of the cones with -e_d under the shear
    (y, s) -> (y - s*p, s), which fixes the hyperplane pointwise, maps the
    half-space x_d <= 0 onto itself and sends -e_d to c1; so they tile
    that half-space, and the two halves meet in the fan of P^(d-1).  Cone
    inverses and completeness are computed when a consumer first reads
    them, as on any fan, and _cone_inverses still raises SingularCone.

    >>> len(bundle_fan(BundleSpec((0, 0))).rays)
    5
    """
    d = spec.dimension
    names = bundle_ray_names(d)
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    generators = [*unit[:-1], (*[-1] * (d - 1), 0), unit[-1], (*spec.twists, -1)]
    cones = tuple(
        Cone((*face, base)) for face in combinations(names[:d], d - 1) for base in ("b1", "c1")
    )
    return Fan(d, tuple(map(Ray, names, generators)), cones)


def _renormalized(spec: BundleSpec) -> BundleSpec:
    """The twists reduce_step reaches from spec, by the reduction formula.

    spec is descending with some twist >= 2.  The shear deforms
    O(p_1) + O(0) into O(p_1 - 1) + O(1): the new twist relation has
    coefficients q = (p_1 - 1, p_2, ..., p_(d-1), 1) on the fiber rays
    (e1, ..., e(d-1), a1), less min(q) times the fiber relation.  Those are
    the two branches of the reduction formula, and reduce_step, which
    shears the fan, checks its twists against this.

    >>> _renormalized(BundleSpec((2, 0))), _renormalized(BundleSpec((2, 1)))
    (BundleSpec(twists=(1, 1)), BundleSpec(twists=(0, 0)))
    """
    q = (spec.twists[0] - 1, *spec.twists[1:], 1)
    low = min(q)
    return BundleSpec(tuple(sorted((c - low for c in q), reverse=True))[:-1])


def reduce_step(spec: BundleSpec) -> ReduceStep:
    """Shear the bundle once with k = 1 and renormalize the twists.

    The twists are reordered descending first (relabeling fiber rays is an
    automorphism of the bundle); PreconditionViolated when no twist is at
    least 2, since the step would not lower anything.  The step shears the
    bundle fan and reads the twists off the new relation; InternalError
    when they disagree with the reduction formula.
    """
    if max(spec.twists) < 2:
        raise PreconditionViolated("a reduction step needs some twist >= 2")
    spec = spec.sorted()
    fan = bundle_fan(spec)
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
    renormalized, formula = BundleSpec(tuple(coefficients[:-1])), _renormalized(spec)
    if renormalized != formula:
        raise InternalError(
            f"the shear of {spec.twists} gives twists {renormalized.twists}, "
            f"the reduction formula {formula.twists}"
        )
    return ReduceStep(spec, relation, sheared, renormalized)


def _descent_length(spec: BundleSpec) -> int:
    """How many reduction steps lead from spec to its normal form, in O(d log d).

    Let x be the d-vector (p, 0) sorted descending and t the balanced
    vector of the same sum S: S mod d entries floor(S/d) + 1, then
    floor(S/d).  The length is sum(max(0, x_i - t_i)), the units that lie
    above balance.  A step (_renormalized) moves one unit from a largest
    entry, at least 2, to a 0 entry.  So x is not balanced, and in sorted
    order the unit leaves a place above balance for one below it: the
    count falls by one.  Subtracting the minimum shifts x and t alike, and
    the normal form (entries in {0, 1}) is balanced, with count 0.

    >>> _descent_length(BundleSpec((3, 0))), _descent_length(BundleSpec((1, 1)))
    (2, 0)
    """
    x = sorted((*spec.twists, 0), reverse=True)
    base, extra = divmod(sum(x), len(x))
    return sum(max(0, v - base - (i < extra)) for i, v in enumerate(x))


# The most reduction steps deformation_chain walks.  A step costs a few
# microseconds and a few hundred bytes, and a descent takes about as many
# steps as its twists' excess over balance, so a 9-digit twist would run
# for hours; such a chain is refused before it is walked.
CHAIN_CAP = 10_000


@frozen
class DeformationChain:
    specs: tuple[BundleSpec, ...]

    @cached_property
    def fans(self) -> tuple[Fan, ...]:
        return tuple(map(bundle_fan, self.specs))


def deformation_chain(start: BundleSpec, end: BundleSpec) -> Optional[DeformationChain]:
    """A chain of bundles linked by single reduction steps, or None.

    Exists exactly when the twist sums agree mod d: both reduce to the same
    normal form (all twists 0 or 1, determined by the sum mod d), and the
    chain runs down start's descent to the first spec it shares with end's
    and back up end's.  A step lowers a descent's length (_descent_length)
    by exactly one, so a shared spec lies at the same length on both: the
    longer descent is walked down to the shorter's length, then both are
    stepped together until they meet.  Only the chain's own steps are
    taken, by the reduction formula, and no fan is built here: the chain's
    fans are built when its fans attribute is first read.  ValueError when
    the chain takes more than CHAIN_CAP steps: before any step when the two
    lengths differ by more, and otherwise as soon as the walk would pass it.
    """
    if start.dimension != end.dimension:
        raise DimensionMismatch("bundle specs of different dimensions")
    start, end = start.sorted(), end.sorted()
    if (sum(start.twists) - sum(end.twists)) % start.dimension != 0:
        return None
    start_length, end_length = _descent_length(start), _descent_length(end)
    steps = abs(start_length - end_length)
    if steps > CHAIN_CAP:
        # with a normal form at the short end, the chain is the long descent
        _refuse(steps, exact=min(start_length, end_length) == 0)
    down, up = [start], [end]
    longer = down if start_length > end_length else up
    for _ in range(steps):
        longer.append(_renormalized(longer[-1]))
    while down[-1] != up[-1]:
        if max(down[-1].twists) < 2:
            raise InternalError("congruent twist sums reached different normal forms")
        steps += 2
        if steps > CHAIN_CAP:
            _refuse(steps, exact=False)
        down.append(_renormalized(down[-1]))
        up.append(_renormalized(up[-1]))
    return DeformationChain((*down, *up[-2::-1]))


def _refuse(steps: int, exact: bool) -> None:
    """Raise the ValueError of a chain that takes steps reduction steps, or at least that many."""
    bound = "" if exact else "at least "
    raise ValueError(
        f"the chain's descents take {bound}{steps} reduction steps, "
        f"more than the cap of {CHAIN_CAP}"
    )
