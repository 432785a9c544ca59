"""Splitting a complete fan along a P1 fibration and shearing it.

A complete smooth fan that fibers over the line splits into an upper
half-fan, a lower half-fan, and their shared equator, a complete fan one
dimension down.  In normal-form coordinates the fibration is the last
coordinate, the equator basis cone plus the upper ray is the standard
basis, and the distinguished lower ray has last coordinate -1.  Shearing
every lower cone by an integer vector q and regluing along the equator
produces a new complete fan; for q = (2k, -k*a_2, ..., -k*a_{d-1}), with a
the designated fiber partner of the pivot ray, the result is the general
fiber of a one-parameter degeneration of the original variety, provided
the inequality conditions checked by endpoint_conditions hold.

One test decides whether (up, down) is an oriented fibration axis: {up,
down} is a primitive collection and an integral functional h vanishes
off it with h(up) = 1 and h(down) = -1; every maximal cone then holds
exactly one of the two.  find_splittings (for the fan's axes and for the
fibration pairs it designates on each equator), split_with_frame and the
bundle case of fiber_type all use it.  Each splitting computes its normal-form
transform once and reads the base fan, both half-fans and the equator
off it.  The equator is never revalidated: it is made of faces of the
validated input fan, and it is smooth and complete (see _splitting).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Optional, Sequence

from . import lattice
from .divisor import class_group
from .errors import ConditionsNotSatisfied, FanError, InternalError, ResultNotAFan
from .fan import (
    Cone,
    Fan,
    Ray,
    _frame_search,
    is_complete,
    make_fan,
    primitive_collections,
    primitive_relation,
)
from .lattice import UnimodularMap, Vector


class FiberKind(enum.Enum):
    PROJECTIVE_SPACE = "ProjectiveSpace"
    BUNDLE_OVER_P1 = "BundleOverP1"
    OTHER = "Other"


@dataclass(frozen=True)
class FiberType:
    kind: FiberKind
    fiber_pair: Optional[tuple[str, str]]


@dataclass(frozen=True)
class ConditionsReport:
    satisfied: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.satisfied


@dataclass(frozen=True)
class Splitting:
    """A fan in normal-form coordinates, split along its last coordinate.

    basis_names are the equator rays carrying the standard basis (the first
    one is the pivot the deformation twists), rest_names the remaining
    equator rays (the first one, when a fiber pair exists, is the pivot's
    designated partner), upper_names the rays with positive last
    coordinate and lower_names those with negative last coordinate.  The
    fibration functional vanishes off the axis, so each is a 1-tuple: the
    unit vector e_d above and a ray with last coordinate -1 below.
    """

    fan: Fan
    upper: Fan
    lower: Fan
    equator: Fan
    basis_names: tuple[str, ...]
    rest_names: tuple[str, ...]
    upper_names: tuple[str, ...]
    lower_names: tuple[str, ...]
    to_normal_form: UnimodularMap

    @property
    def dimension(self) -> int:
        return self.fan.dimension

    @property
    def pivot_name(self) -> str:
        return self.basis_names[0]

    @property
    def partner_name(self) -> Optional[str]:
        return self.rest_names[0] if self.rest_names else None

    @cached_property
    def _fiber_type(self) -> FiberType:
        """The cache behind fiber_type: it lives and dies with the splitting."""
        return _classify_fiber(self)


def _fibration_functional(fan: Fan, up: str, down: str) -> Optional[Vector]:
    """Integral functional vanishing off {up, down}, +1 on up, -1 on down."""
    others = [fan.generator(n) for n in fan.ray_names() if n not in (up, down)]
    rows = others + [fan.generator(up)]
    rhs = [[0]] * len(others) + [[1]]
    try:
        solution = lattice.solve_integer(rows, rhs)
    except (lattice.NoIntegerSolution, lattice.UnderdeterminedSystem):
        return None
    h = tuple(row[0] for row in solution)
    if lattice.dot(h, fan.generator(down)) != -1:
        return None
    return h


def _is_projective_space(fan: Fan, ray_count: int) -> bool:
    """Whether the fan is the projective-space fan on ray_count rays."""
    if len(fan.rays) != ray_count:
        return False
    total = [0] * fan.dimension
    for r in fan.rays:
        total = [a + b for a, b in zip(total, r.generator)]
    if any(total):
        return False
    cols = primitive_collections(fan)
    return len(cols) == 1 and cols[0] == frozenset(fan.ray_names())


def star_equivalent(fan: Fan, a: str, b: str) -> bool:
    """Whether a unimodular map carries the star of ray a onto the star of b.

    Exhausts the maps sending an ordered cone of a's star (with a first) to
    every ordered cone of b's star with b first.
    """
    star_a = [cs for cs in fan.cone_sets if a in cs]
    star_b = [cs for cs in fan.cone_sets if b in cs]
    if len(star_a) != len(star_b):
        return False
    anchor = (a, *fan.sort_names(star_a[0] - {a}))
    frames = ((b, *p) for cs in star_b for p in permutations(fan.sort_names(cs - {b})))
    return _frame_search(fan, anchor, star_a, fan, frames, star_b) is not None


def _axis(fan: Fan, up: str, down: str):
    """Equator ray names and ordered equator cone sets of the axis (up, down), or None.

    (up, down) is an oriented fibration axis of the complete fan when {up,
    down} is a primitive collection and an integral functional h vanishes
    off it with h(up) = 1 and h(down) = -1.  Then every maximal cone holds
    exactly one of up and down: not both, as a collection is no face, and
    not neither, as d rays in ker h span no full cone.  Each equator cone,
    a maximal cone minus its axis ray, spans ker h, so by completeness it
    is a facet of exactly one cone on each side of ker h: one with up and
    one with down.
    """
    if frozenset({up, down}) not in primitive_collections(fan):
        return None
    if _fibration_functional(fan, up, down) is None:
        return None
    eq_names = tuple(n for n in fan.ray_names() if n not in (up, down))
    return eq_names, tuple(dict.fromkeys(cs - {up, down} for cs in fan.cone_sets))


def _designations(equator: Fan, ambient_dim: int, support: Sequence[tuple[str, int]]):
    """Candidate (pivot, partner) labelings for one axis orientation.

    Projective-space equators get a single canonical designation whose
    pivot is the largest-coefficient support ray (the partner is fixed once
    the basis cone is chosen and is reported as None here).  Bundle
    equators get one designation per ordered fibration pair.  When neither
    applies, a single fully canonical labeling is emitted so callers can
    still classify the fiber as Other.  Only frame-independent data is
    read, so the equator may be given in any normal form of the axis.
    """
    if _is_projective_space(equator, ambient_dim):
        if support:
            pivot = max(support, key=lambda item: (item[1], -equator._order[item[0]]))[0]
        else:
            pivot = equator.rays[0].name
        return [(pivot, None)]
    pairs = []
    for collection in primitive_collections(equator):
        if len(collection) != 2:
            continue
        x, y = equator.sort_names(collection)
        pairs.extend((p, q) for p, q in ((x, y), (y, x)) if _axis(equator, p, q) is not None)
    if pairs:
        return pairs
    return [(None, None)]


def _basis_cone(
    cone_sets: Sequence[frozenset[str]], pivot: Optional[str], support_names: frozenset[str]
) -> frozenset[str]:
    wanted = support_names | ({pivot} if pivot else set())
    for cs in cone_sets:
        if wanted <= cs:
            return cs
    if pivot is not None:
        for cs in cone_sets:
            if pivot in cs:
                return cs
    for cs in cone_sets:
        if support_names <= cs:
            return cs
    return cone_sets[0]


def _splitting(
    fan: Fan,
    up: str,
    down: str,
    eq_names: tuple[str, ...],
    eq_cone_sets: tuple[frozenset[str], ...],
    basis_names: tuple[str, ...],
    rest_names: tuple[str, ...],
) -> Splitting:
    """The splitting of the axis (up, down) in the frame basis_names + (up,).

    The one normal-form transform T sends basis_names + (up,) to the
    standard basis; the base fan, both half-fans and the equator are all
    read off it.  The last coordinate of T v is h(v) for the fibration
    functional h, since both vanish on the basis and take 1 on up.

    The equator is not revalidated with make_fan.  Its cones are faces of
    the validated input fan that lie in ker h, and T maps ker h ∩ Z^d onto
    Z^{d-1} x {0}, so dropping the last coordinate keeps the faces
    unimodular and their rays primitive and distinct.  It is complete:
    a vector with h = 0 in a maximal cone has coefficient 0 on that cone's
    up or down ray, so it lies in an equator cone.
    """
    columns = [fan.generator(n) for n in basis_names] + [fan.generator(up)]
    transform = UnimodularMap.from_columns(columns).inverse()
    new_rays = tuple(Ray(r.name, transform.apply(r.generator)) for r in fan.rays)
    base = Fan(fan.dimension, new_rays, fan.max_cones)
    upper_cones = tuple(c for c in fan.max_cones if up in c.ray_names)
    lower_cones = tuple(c for c in fan.max_cones if down in c.ray_names)
    upper = Fan(fan.dimension, tuple(r for r in new_rays if r.name != down), upper_cones)
    lower = Fan(fan.dimension, tuple(r for r in new_rays if r.name != up), lower_cones)
    equator = Fan(
        fan.dimension - 1,
        tuple(Ray(n, base.generator(n)[:-1]) for n in eq_names),
        tuple(Cone(fan.sort_names(cs)) for cs in eq_cone_sets),
    )
    split = Splitting(
        fan=base,
        upper=upper,
        lower=lower,
        equator=equator,
        basis_names=basis_names,
        rest_names=rest_names,
        upper_names=(up,),
        lower_names=(down,),
        to_normal_form=transform,
    )
    _check_invariants(split)
    return split


def _check_invariants(split: Splitting) -> None:
    """Cross-check the normal-form coordinates; raised, so they run under python -O too."""
    d = split.dimension
    fan = split.fan
    up, down = split.upper_names[0], split.lower_names[0]
    for i, name in enumerate(split.basis_names):
        if fan.generator(name) != tuple(1 if j == i else 0 for j in range(d)):
            raise InternalError(f"basis ray {name} is not in standard position")
    if fan.generator(up) != tuple([0] * (d - 1) + [1]):
        raise InternalError(f"upper ray {up} is not the last unit vector")
    if fan.generator(down)[-1] != -1:
        raise InternalError(f"lower ray {down} does not have last coordinate -1")
    for name in split.rest_names:
        if fan.generator(name)[-1] != 0:
            raise InternalError(f"equator ray {name} has nonzero last coordinate")
    basis = set(split.basis_names)
    if not (fan.spans_cone(basis | {up}) and fan.spans_cone(basis | {down})):
        raise InternalError("basis does not span a cone with both axis rays")


def find_splittings(fan: Fan) -> tuple[Splitting, ...]:
    """All normal-form realizations of the fan as a fibration over the line.

    Searches the two-element primitive collections {u, v} whose complement
    rays span the kernel hyperplane of an integral functional taking +1 on
    u; each orientation of each such axis yields splittings, one per
    candidate fiber-pair designation.  The designations are read off the
    equator of one splitting in the support cone's frame, which is reused
    when a designation asks for that same frame.  Empty when the fan admits
    no such fibration.
    """
    if not is_complete(fan):
        raise ValueError("find_splittings requires a complete fan")
    if fan.dimension < 2:
        return ()
    out = []
    for collection in primitive_collections(fan):
        if len(collection) != 2:
            continue
        first, second = fan.sort_names(collection)
        relation = primitive_relation(fan, collection)
        support_names = frozenset(n for n, _ in relation.support)
        for up, down in ((first, second), (second, first)):
            axis = _axis(fan, up, down)
            if axis is None:
                continue
            eq_names, eq_cone_sets = axis
            support_cone = _basis_cone(eq_cone_sets, None, support_names)
            support_split = _splitting(
                fan, up, down, eq_names, eq_cone_sets, fan.sort_names(support_cone),
                tuple(n for n in eq_names if n not in support_cone),
            )
            for pivot, partner in _designations(
                support_split.equator, fan.dimension, relation.support
            ):
                tau = _basis_cone(eq_cone_sets, pivot, support_names)
                if pivot is None:
                    pivot = fan.sort_names(tau)[0]
                if pivot not in tau:
                    continue
                basis_names = (pivot, *[n for n in fan.sort_names(tau) if n != pivot])
                rest = [n for n in eq_names if n not in tau]
                if partner is None:
                    rest_names = tuple(rest)
                else:
                    if partner in tau:
                        continue
                    rest_names = (partner, *[n for n in rest if n != partner])
                if (basis_names, rest_names) == (
                    support_split.basis_names, support_split.rest_names
                ):
                    out.append(support_split)
                else:
                    out.append(_splitting(
                        fan, up, down, eq_names, eq_cone_sets, basis_names, rest_names
                    ))
    return tuple(out)


def split_with_frame(
    fan: Fan,
    upper: str,
    lower: str,
    basis: Sequence[str],
    partner: Optional[str] = None,
) -> Splitting:
    """Build the splitting with an explicitly chosen frame.

    upper/lower must be an oriented fibration axis of the fan, basis an
    equator cone listed pivot-first, and partner (optional) the designated
    fiber partner.  Raises ValueError when the frame is not realizable.
    """
    if not is_complete(fan):
        raise ValueError("split_with_frame requires a complete fan")
    axis = _axis(fan, upper, lower)
    if axis is None:
        raise ValueError(f"({upper}, {lower}) is not a fibration axis of the fan")
    eq_names, eq_cone_sets = axis
    basis = tuple(basis)
    if frozenset(basis) not in eq_cone_sets:
        raise ValueError(f"{basis} is not an equator cone")
    rest = [n for n in eq_names if n not in basis]
    if partner is not None:
        if partner not in rest:
            raise ValueError(f"partner {partner!r} is not an available equator ray")
        rest_names = (partner, *[n for n in rest if n != partner])
    else:
        rest_names = tuple(rest)
    return _splitting(fan, upper, lower, eq_names, eq_cone_sets, basis, rest_names)


def fiber_type(split: Splitting) -> FiberType:
    """Classify the equator fan relative to the designated fiber pair.

    ProjectiveSpace when the equator is a projective-space fan (the sum of
    all its rays vanishes and they form its only primitive collection);
    BundleOverP1 when (pivot, partner) is a fibration axis of the equator,
    so that it splits over the line with the designated pair as its poles
    and the pair's divisor classes agree and the stars of the two rays are
    equivalent.  Other otherwise.  A projective-space equator needs neither
    check: the lattice automorphisms of P^n permute its n + 1 rays freely
    (any n of them form a basis and all n + 1 sum to zero), so every pair
    of rays has one class and equivalent stars.  Cached per splitting.
    """
    return split._fiber_type


def _classify_fiber(split: Splitting) -> FiberType:
    pivot = split.pivot_name
    partner = split.partner_name
    other = FiberType(FiberKind.OTHER, None)
    if partner is None:
        return other
    equator = split.equator
    if _is_projective_space(equator, split.dimension):
        return FiberType(FiberKind.PROJECTIVE_SPACE, (pivot, partner))
    if _axis(equator, pivot, partner) is None:
        return other
    classes = class_group(equator).class_of_ray
    if classes[pivot] == classes[partner] and star_equivalent(equator, pivot, partner):
        return FiberType(FiberKind.BUNDLE_OVER_P1, (pivot, partner))
    return other


def _prime_name(name: str, taken: set[str]) -> str:
    match = re.match(r"[A-Za-z]+", name)
    pos = match.end() if match else len(name)
    candidate = name[:pos] + "'" + name[pos:]
    while candidate in taken:
        pos += 1
        candidate = candidate[:pos] + "'" + candidate[pos:]
    return candidate


def shear_lower(split: Splitting, q: Sequence[int]) -> Fan:
    """Shear every lower cone by q and reglue with the upper half-fan.

    Rays that actually move are renamed with a prime.  The union is
    revalidated globally; a failure surfaces as ResultNotAFan rather than
    being silently accepted.
    """
    d = split.dimension
    q = tuple(int(x) for x in q)
    if len(q) != d - 1:
        raise ValueError(f"shear vector needs {d - 1} entries")
    shear = lattice.shear_map(q)
    taken = set(split.fan.ray_names())
    renamed: dict[str, str] = {}
    new_rays = []
    lower_set = set(split.lower_names)
    for ray in split.fan.rays:
        if ray.name in lower_set:
            moved = shear.apply(ray.generator)
            if moved != ray.generator:
                fresh = _prime_name(ray.name, taken)
                taken.add(fresh)
                renamed[ray.name] = fresh
                new_rays.append(Ray(fresh, moved))
                continue
        new_rays.append(ray)
    upper_ray = split.upper_names[0]
    cones = []
    for cone in split.fan.max_cones:
        if upper_ray in cone.ray_names:
            cones.append(cone)
        else:
            cones.append(Cone(tuple(renamed.get(n, n) for n in cone.ray_names)))
    try:
        result = make_fan(d, new_rays, cones)
    except FanError as exc:
        raise ResultNotAFan(f"sheared cones do not reglue into a fan: {exc}") from exc
    if not is_complete(result):
        raise ResultNotAFan("sheared union is not complete")
    return result


def endpoint_conditions(split: Splitting, k: int) -> ConditionsReport:
    """The inequality gating the endpoint identification.

    The lower ray c must satisfy k*c_d + c_1 >= 0.  The fibration functional
    vanishes off the axis, so the splitting has exactly one upper and one
    lower ray, and no condition falls on the upper side.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    d = split.dimension
    name = split.lower_names[0]
    g = split.fan.generator(name)
    value = k * g[d - 1] + g[0]
    if value < 0:
        violation = f"{k}*{name}[{d}] + {name}[1] = {k}*({g[d - 1]}) + ({g[0]}) = {value} < 0"
        return ConditionsReport(False, (violation,))
    return ConditionsReport(True, ())


def endpoint(split: Splitting, k: int) -> Fan:
    """The general fiber of the degeneration with shear parameter k.

    Shears the lower half-fan by (2k, -k*a_2, ..., -k*a_{d-1}) where a is
    the designated fiber partner in normal-form coordinates.
    """
    kind = fiber_type(split)
    if kind.kind is FiberKind.OTHER:
        raise ConditionsNotSatisfied(
            "equator fan is neither a projective space nor a bundle over the line "
            "with a designated fiber pair"
        )
    report = endpoint_conditions(split, k)
    if not report:
        raise ConditionsNotSatisfied("; ".join(report.violations))
    partner = split.fan.generator(split.partner_name)
    q = (2 * k, *(-k * partner[j] for j in range(1, split.dimension - 1)))
    return shear_lower(split, q)
