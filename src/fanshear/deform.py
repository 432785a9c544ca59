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

One test decides whether (up, down) is an oriented fibration axis
(_is_axis): every maximal cone holds exactly one of the two, read off
their cone masks, and an integral functional h vanishes off {up, down}
with h(up) = 1 and h(down) = -1; then -h is that of (down, up), so one
test decides an unordered axis.  The stars of an axis's rays split the
maximal cones, and only such pairs, found by looking up each ray's
complementary star (_complementary_pairs), are tested, once each.
find_splittings (for the fan's axes and, read off the input fan, for the
fibration pairs it designates on each equator) and split_with_frame use
it.  The designation decides the fiber type of a find_splittings
splitting; that of a split_with_frame splitting is decided once on the
validated input fan (_fiber_of): the equator is a projective space when
the fan has d + 2 rays, and (pivot, partner) is an axis of the equator
when _is_axis over the fan's axis holds.  MMCS never runs here.

The search is lazy and decides before it builds.  _splittings yields, in
find_splittings order, one Splitting per axis orientation and
designation: the validated input fan and the decided frame, with the
fiber type its designation decided; both orientations of an axis share
one set of frames.  Everything else a splitting has is computed when
first read and then kept: off the input fan, the lower ray's first and
last normal-form coordinates (lower_ends, two dot products with rows of
one cached cone inverse); then its one normal-form transform, and off
that the base fan, both half-fans and the equator.  _first_deformable,
the one stop rule of catalog verification and of the deform command,
reads only fiber and lower_ends, up to the first splitting whose fiber is
not Other and whose inequality holds, so only the splitting that is
deformed computes its base fan, for the shear, and none computes a
half-fan or an equator.  Neither the equator nor the sheared endpoint is
revalidated: the equator is made of faces of the validated input fan
(see Splitting.equator), and the shear fixes the equator and maps the
lower half-space onto itself, so the endpoint keeps the input's cone
complex and all its primitive relations but one (see shear_lower).
"""

from __future__ import annotations

import enum
from functools import cached_property
from itertools import permutations
from operator import index, mul
from typing import Iterable, Iterator, Optional, Sequence

from . import lattice
from ._record import frozen
from .errors import ConditionsNotSatisfied, FanError, InternalError, ResultNotAFan
from .fan import (
    Cone,
    Fan,
    Ray,
    _frame_search,
    _take_complex,
    is_complete,
    primitive_relation,
)
from .lattice import UnimodularMap, Vector


class FiberKind(enum.Enum):
    PROJECTIVE_SPACE = "ProjectiveSpace"
    BUNDLE_OVER_P1 = "BundleOverP1"
    OTHER = "Other"


@frozen
class FiberType:
    kind: FiberKind
    fiber_pair: Optional[tuple[str, str]]


@frozen
class ConditionsReport:
    satisfied: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.satisfied


@frozen
class Splitting:
    """A fan in normal-form coordinates, split along its last coordinate.

    source is the validated input fan, and the names are the frame:
    basis_names are the equator rays carrying the standard basis (the first
    one is the pivot the deformation twists), rest_names the remaining
    equator rays (the first one, when a fiber pair exists, is the pivot's
    designated partner), upper_names the rays with positive last
    coordinate and lower_names those with negative last coordinate.  The
    fibration functional vanishes off the axis, so each is a 1-tuple: the
    unit vector e_d above and a ray with last coordinate -1 below.

    Every other attribute is computed off source when first read, then
    kept.  fiber is the fiber type of the designated pair (fiber_type);
    find_splittings fills it in, as the designation decided it.
    The one normal-form transform, to_normal_form, sends basis_names +
    upper_names to the standard basis: it is the cached inverse of that
    maximal cone of source, its rows put in frame order.  The base fan
    (fan), both half-fans (upper, lower) and the equator are read off it.
    The last coordinate of T v is h(v) for the fibration functional h,
    since both vanish on the basis and take 1 on the upper ray.
    """

    source: Fan
    basis_names: tuple[str, ...]
    rest_names: tuple[str, ...]
    upper_names: tuple[str, ...]
    lower_names: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return self.source.dimension

    @property
    def pivot_name(self) -> str:
        return self.basis_names[0]

    @property
    def partner_name(self) -> Optional[str]:
        return self.rest_names[0] if self.rest_names else None

    @cached_property
    def fiber(self) -> FiberType:
        return _fiber_of(
            self.source, self.upper_names + self.lower_names, self.pivot_name, self.rest_names
        )

    @cached_property
    def lower_ends(self) -> tuple[int, int]:
        """The lower ray's first and last normal-form coordinates.

        The rows of the pivot and of the upper ray in the frame cone's
        cached inverse, applied to the lower ray: no base fan is computed.
        """
        rows = self.source._inverse_rows(self.basis_names + self.upper_names)
        lower = self.source.generator(self.lower_names[0])
        return lattice.dot(rows[0], lower), lattice.dot(rows[-1], lower)

    @cached_property
    def to_normal_form(self) -> UnimodularMap:
        return UnimodularMap(self.source._inverse_rows(self.basis_names + self.upper_names))

    @cached_property
    def fan(self) -> Fan:
        """source in normal-form coordinates, checked by _check_invariants.

        It shares no cache with source: shear_lower takes the primitive
        collections and relations from source, not from it.
        """
        source, transform = self.source, self.to_normal_form
        rays = tuple(Ray(r.name, transform.apply(r.generator)) for r in source.rays)
        base = Fan(source.dimension, rays, source.max_cones)
        _check_invariants(self, base)
        return base

    @cached_property
    def upper(self) -> Fan:
        return self._half_fan(self.upper_names[0], self.lower_names[0])

    @cached_property
    def lower(self) -> Fan:
        return self._half_fan(self.lower_names[0], self.upper_names[0])

    def _half_fan(self, ray: str, other: str) -> Fan:
        """The base fan's cones through ray, over every ray but other."""
        fan = self.fan
        return Fan(
            fan.dimension,
            tuple(r for r in fan.rays if r.name != other),
            tuple(c for c in fan.max_cones if ray in c.ray_names),
        )

    @cached_property
    def equator(self) -> Fan:
        """The base fan's rays and cones off the axis, with the last coordinate dropped.

        It is not revalidated with make_fan.  Its cones are faces of the
        validated source that lie in ker h, and the transform maps
        ker h ∩ Z^d onto Z^{d-1} x {0}, so dropping the last coordinate
        keeps the faces unimodular and their rays primitive and distinct.
        It is complete: a vector with h = 0 in a maximal cone has
        coefficient 0 on that cone's upper or lower ray, so it lies in an
        equator cone.
        """
        source, base = self.source, self.fan
        eq_names, eq_cone_sets = _equator(source, self.upper_names + self.lower_names)
        return Fan(
            source.dimension - 1,
            tuple(Ray(n, base.generator(n)[:-1]) for n in eq_names),
            tuple(Cone(source.sort_names(cs)) for cs in eq_cone_sets),
        )


def _fibration_functional(
    fan: Fan, up: str, down: str, outer: Sequence[str] = ()
) -> Optional[Vector]:
    """Integral functional vanishing off {up, down}, +1 on up, -1 on down, or None.

    Precondition: some maximal cone holds up and none holds both, as _is_axis
    has checked.  A maximal cone holding up then does not hold down, so
    such a functional vanishes on that cone's other d - 1 rays and takes 1
    on up: it can only be the row of up in the cone's cached inverse.  One
    dot product per ray off outer (see _is_axis) decides whether that row is one.
    """
    j = fan._cone_index((up,))
    h = fan._inverses[j][fan.max_cones[j].ray_names.index(up)]
    for ray in fan.rays:
        name = ray.name
        if name not in outer and sum(map(mul, h, ray.generator)) != (
            1 if name == up else -1 if name == down else 0
        ):
            return None
    return h


def _projective_equator(fan: Fan) -> bool:
    """Whether the equators of the smooth complete fan's axes are projective-space fans.

    An equator is smooth and complete (Splitting.equator) and has the
    fan's rays but the two axis rays, so it has one ray more than its
    dimension d - 1 exactly when the fan has d + 2 rays.  Then the equator
    is P^(d-1): its rays positively span R^(d-1), so sum(c_i * v_i) = 0
    with every c_i > 0, and this line is the whole relation space of d rays
    spanning R^(d-1).  So any d - 1 of them are independent, the d cones on
    d - 1 of them tile R^(d-1) and all are unimodular cones of the equator,
    and by Cramer's rule the c_i are equal: the rays sum to 0.
    """
    return len(fan.rays) == fan.dimension + 2


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


def _is_axis(fan: Fan, up: str, down: str, outer: Sequence[str] = ()) -> bool:
    """Whether (up, down) is an oriented fibration axis of the complete fan.

    It is when each maximal cone holds exactly one of them (with no
    dangling ray, none holding both says {up, down} is a primitive
    collection) and an integral functional h vanishes off it with
    h(up) = 1 and h(down) = -1.  Each equator cone, a maximal cone minus
    its axis ray, spans ker h, so by completeness it is a facet of exactly
    one cone on each side of ker h: one with up and one with down.

    With outer an axis of the fan, it decides the same for the equator over
    outer, on the fan alone: a maximal cone holds an equator ray exactly
    when its equator cone does, and on ker h_outer the row of up is the
    only candidate, as tau spans it (that cone is tau + {a}, a in outer).
    """
    up_star, down_star = fan._cones_of_ray.get(up, 0), fan._cones_of_ray.get(down, 0)
    if up_star & down_star or up_star | down_star != (1 << len(fan.max_cones)) - 1:
        return False
    return _fibration_functional(fan, up, down, outer) is not None


def _equator(fan: Fan, axis: Sequence[str]):
    """Equator ray names and ordered equator cone sets: the fan's, less the axis rays."""
    off = set(axis)
    eq_names = tuple(n for n in fan.ray_names() if n not in off)
    return eq_names, tuple(dict.fromkeys(cs - off for cs in fan.cone_sets))


def _complementary_pairs(fan: Fan, names: Sequence[str]) -> Iterator[tuple[str, str]]:
    """The pairs of names, in combinations order, whose stars split the maximal cones.

    Every maximal cone holds exactly one ray of an axis of the fan, and of
    an axis of an equator over outer (see _is_axis), so each ray's star, as a
    cone mask, is the complement of its partner's.  One dict from star to
    rays finds each ray's partners in O(1) instead of testing all pairs.
    """
    full = (1 << len(fan.max_cones)) - 1
    stars = fan._cones_of_ray
    by_star: dict[int, list[int]] = {}
    for i, n in enumerate(names):
        by_star.setdefault(stars[n], []).append(i)
    for i, x in enumerate(names):
        for j in by_star.get(full ^ stars[x], ()):
            if j > i:
                yield x, names[j]


def _designations(
    fan: Fan, axis: tuple[str, str], eq_names: Sequence[str], support: Sequence[tuple[str, int]]
):
    """Candidate (pivot, partner) labelings for either orientation of the axis, read off the fan.

    The equator is a projective space when the fan has d + 2 rays
    (_projective_equator); its one designation's pivot is the
    largest-coefficient support ray, the first in input order (the
    equator's) on a tie, and its partner, fixed once the basis cone is
    chosen, is reported as None.
    Bundle equators get one designation per ordered fibration axis of the
    equator: each complementary pair is tested once (_is_axis over axis),
    and an axis {x, y} yields (x, y), then (y, x).  If h is the functional
    of (x, y), -h is that of (y, x): the unique functional that is 1 on y
    and 0 on the other rays of a cone through y.  Over an outer axis the
    two candidate rows agree, up to sign, on the equator rays, because tau
    spans ker h_outer.  Otherwise a single fully canonical labeling lets
    callers still classify the fiber as Other.
    """
    if _projective_equator(fan):
        pivot = max(support, key=lambda item: (item[1], -fan._order[item[0]]), default=None)
        return [(pivot[0] if pivot else eq_names[0], None)]
    pairs = [
        pair for x, y in _complementary_pairs(fan, eq_names) if _is_axis(fan, x, y, axis)
        for pair in ((x, y), (y, x))
    ]
    return pairs or [(None, None)]


def _basis_cone(
    cone_sets: Sequence[frozenset[str]], pivot: Optional[str], support_names: frozenset[str]
) -> frozenset[str]:
    """The first equator cone holding the support and the pivot, else the first holding the pivot.

    One of the two always exists.  A relation's support is a face of the
    fan inside ker h, so it lies in an equator cone; every designated
    pivot is an equator ray, so it lies in an equator cone.
    """
    wanted = support_names | ({pivot} if pivot else set())
    for cs in cone_sets:
        if wanted <= cs:
            return cs
    return next(cs for cs in cone_sets if pivot in cs)


def _rest_names(
    eq_names: Sequence[str], basis_names: Sequence[str], partner: Optional[str]
) -> tuple[str, ...]:
    """The partner, when given, then the equator rays off the basis in input order."""
    rest = tuple(n for n in eq_names if n not in basis_names and n != partner)
    return rest if partner is None else (partner, *rest)


def _check_invariants(split: Splitting, fan: Fan) -> None:
    """Cross-check the base fan's normal-form coordinates, and its lower ray against lower_ends.

    Raised, so they run under python -O too.
    """
    d = split.dimension
    up, down = split.upper_names[0], split.lower_names[0]
    for i, name in enumerate(split.basis_names):
        if fan.generator(name) != tuple(1 if j == i else 0 for j in range(d)):
            raise InternalError(f"basis ray {name} is not in standard position")
    if fan.generator(up) != tuple([0] * (d - 1) + [1]):
        raise InternalError(f"upper ray {up} is not the last unit vector")
    lower = fan.generator(down)
    if lower[-1] != -1:
        raise InternalError(f"lower ray {down} does not have last coordinate -1")
    for name in split.rest_names:
        if fan.generator(name)[-1] != 0:
            raise InternalError(f"equator ray {name} has nonzero last coordinate")
    basis = set(split.basis_names)
    if not (fan.spans_cone(basis | {up}) and fan.spans_cone(basis | {down})):
        raise InternalError("basis does not span a cone with both axis rays")
    if (lower[0], lower[-1]) != split.lower_ends:
        raise InternalError(f"lower ray {down} is not where lower_ends put it")


def find_splittings(fan: Fan) -> tuple[Splitting, ...]:
    """All normal-form realizations of the fan as a fibration over the line.

    Searches the pairs of rays {u, v}, in combinations order, that form a
    primitive collection whose other rays span the kernel of an integral
    functional taking +1 on u; each such axis is decided once and yields
    splittings for (u, v) and then (v, u), one per candidate fiber-pair
    designation (_axis_splittings).  Empty when the fan admits no such
    fibration.
    """
    return tuple(_splittings(fan))


def _splittings(fan: Fan) -> Iterator[Splitting]:
    """find_splittings' splittings, in its order, each decided when it is reached.

    Only the pairs whose stars split the maximal cones (_complementary_pairs)
    are tested as axes, once each.  Not a generator function, so an
    incomplete fan raises ValueError at the call, before anything is decided.
    """
    if not is_complete(fan):
        raise ValueError("find_splittings requires a complete fan")
    if fan.dimension < 2:
        return iter(())
    return (
        split for x, y in _complementary_pairs(fan, fan.ray_names()) if _is_axis(fan, x, y)
        for split in _axis_splittings(fan, x, y)
    )


def _axis_splittings(fan: Fan, x: str, y: str) -> Iterator[Splitting]:
    """The splittings on the axis {x, y}: every frame on (x, y), then each on (y, x).

    Precondition: _is_axis(fan, x, y).  The equator, the relation, the
    designations and so the frames are those of both orientations.  Each
    splitting comes with its fiber, which the designation has decided
    (see _fiber_of): a designated partner is the other pole of an equator
    axis, a fan of d + 2 rays has a projective-space equator, and a
    designation with neither has no equator axis at all.
    """
    eq_names, eq_cone_sets = _equator(fan, (x, y))
    relation = primitive_relation(fan, (x, y))
    support_names = frozenset(n for n, _ in relation.support)
    frames = []
    for pivot, partner in _designations(fan, (x, y), eq_names, relation.support):
        # tau holds the pivot, and a designated partner is the other ray of
        # an equator axis; no equator cone holds both rays of an axis, so
        # the partner is never in tau.
        tau = fan.sort_names(_basis_cone(eq_cone_sets, pivot, support_names))
        lead = tau[0] if pivot is None else pivot
        basis_names = (lead, *[n for n in tau if n != lead])
        rest_names = _rest_names(eq_names, basis_names, partner)
        if partner is not None:
            fiber = FiberType(FiberKind.BUNDLE_OVER_P1, (pivot, partner))
        elif pivot is not None:  # the one designation of a projective-space equator
            fiber = FiberType(FiberKind.PROJECTIVE_SPACE, (pivot, rest_names[0]))
        else:
            fiber = FiberType(FiberKind.OTHER, None)
        frames.append((basis_names, rest_names, fiber))
    for upper, lower in (((x,), (y,)), ((y,), (x,))):
        for basis_names, rest_names, fiber in frames:
            split = Splitting(fan, basis_names, rest_names, upper, lower)
            split.__dict__["fiber"] = fiber
            yield split


def split_with_frame(
    fan: Fan,
    upper: str,
    lower: str,
    basis: Sequence[str],
    partner: Optional[str] = None,
) -> Splitting:
    """The splitting with an explicitly chosen frame.

    upper/lower must be an oriented fibration axis of the fan, basis an
    equator cone listed pivot-first, and partner (optional) the designated
    fiber partner.  Raises ValueError when the frame is not realizable.
    """
    if not is_complete(fan):
        raise ValueError("split_with_frame requires a complete fan")
    if not _is_axis(fan, upper, lower):
        raise ValueError(f"({upper}, {lower}) is not a fibration axis of the fan")
    eq_names, eq_cone_sets = _equator(fan, (upper, lower))
    basis = tuple(basis)
    if len(basis) != fan.dimension - 1 or frozenset(basis) not in eq_cone_sets:
        raise ValueError(f"{basis} is not an equator cone")
    if partner is not None and (partner not in eq_names or partner in basis):
        raise ValueError(f"partner {partner!r} is not an available equator ray")
    return Splitting(fan, basis, _rest_names(eq_names, basis, partner), (upper,), (lower,))


def fiber_type(split: Splitting) -> FiberType:
    """Classify the equator fan relative to the designated fiber pair.

    The pair is the pivot and the first rest ray, the partner; with no
    rest ray the fiber is Other.  ProjectiveSpace when the equator is a
    projective-space fan (one ray more than its dimension);
    BundleOverP1 when (pivot, partner) is a fibration axis of the equator,
    so that it splits over the line with the designated pair as its poles.
    Other otherwise.  In the first two cases the pair has one divisor
    class and equivalent stars, so neither is compared.  The lattice
    automorphisms of P^n permute its n + 1 rays freely (any n of them form
    a basis and all n + 1 sum to zero).  On an axis with functional g,
    div(chi^g) = D_pivot - D_partner, so the two classes agree; and
    v -> v + g(v) * (partner - pivot) is a unimodular involution that
    swaps the pair and fixes every other ray, so it carries each cone of
    the pivot's star onto one of the partner's.  Decided by the
    designation of a find_splittings splitting (_axis_splittings), and
    otherwise once, when first read, on the input fan (_fiber_of): neither
    the equator nor its cone inverses are computed for it.
    """
    return split.fiber


def _fiber_of(
    fan: Fan, axis: tuple[str, str], pivot: str, rest_names: Sequence[str]
) -> FiberType:
    """fiber_type of the splitting of fan over axis with this pivot and these rest rays.

    Read off the validated input fan: the equator is a projective space
    when the fan has d + 2 rays (_projective_equator), and (pivot, partner)
    is an axis of the equator when _is_axis over axis holds on the fan.
    """
    if not rest_names:
        return FiberType(FiberKind.OTHER, None)
    partner = rest_names[0]
    if _projective_equator(fan):
        return FiberType(FiberKind.PROJECTIVE_SPACE, (pivot, partner))
    if not _is_axis(fan, pivot, partner, axis):
        return FiberType(FiberKind.OTHER, None)
    return FiberType(FiberKind.BUNDLE_OVER_P1, (pivot, partner))


# Spelled out: importing the string module compiles a regular expression.
_ASCII_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def _prime_name(name: str, taken: set[str]) -> str:
    """name with a prime after its leading ASCII letters (at the end when there are none).

    While that name is taken, the prime moves one character right.
    """
    pos = len(name) - len(name.lstrip(_ASCII_LETTERS)) or len(name)
    candidate = name[:pos] + "'" + name[pos:]
    while candidate in taken:
        pos += 1
        candidate = candidate[:pos] + "'" + candidate[pos:]
    return candidate


def shear_lower(split: Splitting, q: Sequence[int]) -> Fan:
    """Shear every lower cone by the integer vector q and reglue with the upper half-fan.

    The lower ray, when the shear moves it, is renamed with a prime; it is
    the splitting's one lower ray (see Splitting).  The result is built
    directly, not through make_fan.  In normal-form coordinates the shear
    (y, s) -> (y + s*q, s) fixes the hyperplane ker h = {s = 0}, the
    equator, pointwise, and maps the lower half-space s <= 0 onto itself.
    So the images of the lower cones, each an equator cone with the lower
    ray, still tile that half-space and are unimodular, glued to the
    unchanged upper cones along the same equator cones: the result is
    smooth and complete.  Only the lower ray moves, to a primitive vector
    with last coordinate -1 like no other ray.  The completeness
    certificate still runs, and its failure surfaces as ResultNotAFan.

    The cone complex is unchanged, with the lower ray renamed: the join of
    the equator's complex with {up, down}.  So the primitive collections
    are {up, down} and those of the equator, and each relation but that of
    {up, down} lies in ker h, which the shear fixes.  The result takes
    copies of the collections and of those relations that the input fan,
    split.source, has found (fan._take_complex); the relation of
    {up, down'} is solved when first asked, by one walk.
    """
    d = split.dimension
    q = tuple(map(index, q))
    if len(q) != d - 1:
        raise ValueError(f"shear vector needs {d - 1} entries")
    base, down = split.fan, split.lower_names[0]
    lower = base.generator(down)
    moved = lattice.shear_map(q).apply(lower)
    fresh = down if moved == lower else _prime_name(down, set(base.ray_names()))
    rays = tuple(Ray(fresh, moved) if r.name == down else r for r in base.rays)
    cones = tuple(
        Cone(tuple(fresh if n == down else n for n in c.ray_names)) if down in c.ray_names else c
        for c in base.max_cones
    )
    result = Fan(d, rays, cones)
    try:
        complete = is_complete(result)
    except FanError as exc:
        raise ResultNotAFan(f"sheared cones do not reglue into a fan: {exc}") from exc
    if not complete:
        raise ResultNotAFan("sheared union is not complete")
    axis = frozenset(split.upper_names + split.lower_names)
    _take_complex(result, split.source, axis, {down: fresh})
    return result


def endpoint_conditions(split: Splitting, k: int) -> ConditionsReport:
    """The inequality gating the endpoint identification.

    The lower ray c must satisfy k*c_d + c_1 >= 0.  The fibration functional
    vanishes off the axis, so the splitting has exactly one upper and one
    lower ray, and no condition falls on the upper side.  It reads
    lower_ends, so no base fan is computed.  TypeError unless k is an
    integer.
    """
    k = index(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    d = split.dimension
    name = split.lower_names[0]
    first, last = split.lower_ends
    value = k * last + first
    if value < 0:
        violation = f"{k}*{name}[{d}] + {name}[1] = {k}*({last}) + ({first}) = {value} < 0"
        return ConditionsReport(False, (violation,))
    return ConditionsReport(True, ())


def _first_deformable(
    splittings: Iterable[Splitting], k: int
) -> Optional[tuple[int, Splitting]]:
    """(index, splitting) of the first splitting deformable with parameter k, or None.

    Deformable means its fiber is not Other and its conditions hold for k.
    The splittings are drawn one at a time, none after that one is drawn,
    and each is read for its fiber and lower_ends only: drawn from
    _splittings, none computes its base fan.
    """
    if index(k) < 0:
        raise ValueError("k must be nonnegative")
    for i, split in enumerate(splittings):
        if fiber_type(split).kind is not FiberKind.OTHER and endpoint_conditions(split, k):
            return i, split
    return None


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
