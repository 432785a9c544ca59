"""Smooth fans: construction, validation, primitive relations, isomorphism.

A Fan is an immutable value: named primitive ray generators plus the ray
sets of its full-dimensional cones.  make_fan is the only validating
constructor; everything downstream may assume its invariants (primitive
rays, unimodular cones, pairwise intersection in a common face, no
dangling rays).  A fan whose invariants follow from how it is made is
built directly, with no make_fan: a splitting's fans, read off a
validated fan, a sheared endpoint (deform.shear_lower), and a bundle
fan, smooth and complete in closed form (scroll.bundle_fan); make_fan of
their rays and cones is the tests' oracle.  No two fans share a cache: a
sheared endpoint gets copies of what its input fan has found of its
collections and relations (_take_complex).  Every fan keeps one table of
cone inverses by cone index, filled when first read: one row reduction
inverts a cone and pivots across facets invert the cones it reaches.
Cone coordinates, the certificate, relations, splittings, axis tests and
frame searches all read it.  A complete fan is accepted in
O(C*d) by a certificate: its facets pair up on opposite sides and one
point is covered once.  On a valid fan that certificate is also the
completeness test.  Any other input, half-fans included, falls back to a
Fourier-Motzkin test of every pair of cones, in one direction.
Completeness is its own query: half-fans are fans too.

A ray set is a primitive collection when no cone holds it but one holds
it less any one ray, as primitive_relation reads off the cone masks.
Only the lists, primitive_collections and primitive_relations, run MMCS
for the minimal transversals of the cone complements, over ray bitmasks
with no face store.  Each relation is read, in ray and cone indices, in
the cone that a walk across facets finds holding the collection's sum.

Isomorphism colours the rays of both fans first.  A ray starts from its
star size and the labels of its walls (the relation a + b = sum(c_f * f)
of two cones F+a and F+b sharing the facet F, read off the cached
inverses), and colour refinement over the rays sharing a cone runs on
both fans together.  The colours are an invariant: any isomorphism gives
a ray and its image one colour.  So differing colour multisets reject a
pair without a frame, and the frame search tries only the orderings of
target cones whose colours match the anchor's, in the same order as
without the filter, which finds the same first frame.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, repeat
from operator import index, mul, sub
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import lattice
from ._record import frozen
from .errors import (
    BadFaceStructure,
    DanglingRay,
    DimensionMismatch,
    InconsistentRelations,
    NoContainingCone,
    NonPrimitiveRay,
    NotAPrimitiveCollection,
    ResultNotComplete,
    ResultSingular,
    SingularCone,
    UnderdeterminedRelations,
)
from .lattice import UnimodularMap, Vector


@frozen
class Ray:
    name: str
    generator: Vector


@frozen
class Cone:
    """A cone of the fan, recorded by the names of its rays."""

    ray_names: tuple[str, ...]


@frozen
class PrimitiveRelation:
    """A primitive collection with its generator-sum expressed over a cone.

    degree is (collection size) - (sum of support coefficients); it equals
    the anticanonical degree of the associated curve class.
    """

    collection: tuple[str, ...]
    support: tuple[tuple[str, int], ...]
    degree: int


@frozen
class FormalRelation:
    """An input relation: sum of lhs generators equals the rhs combination."""

    lhs: tuple[str, ...]
    rhs: tuple[tuple[int, str], ...]


@frozen
class Fan:
    dimension: int
    rays: tuple[Ray, ...]
    max_cones: tuple[Cone, ...]

    @cached_property
    def _order(self) -> dict[str, int]:
        return {r.name: i for i, r in enumerate(self.rays)}

    @cached_property
    def cone_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(c.ray_names) for c in self.max_cones)

    @cached_property
    def _cone_rays(self) -> tuple[tuple[int, ...], ...]:
        """Each maximal cone's ray indices, in its ray_names order."""
        order = self._order
        return tuple(tuple(order[n] for n in c.ray_names) for c in self.max_cones)

    @cached_property
    def _inverses(self) -> tuple[lattice.Matrix, ...]:
        """Per maximal cone, by index, the inverse of its ray matrix (_cone_inverses).

        Row i is the coordinate of the cone's i-th ray.  Cone coordinates,
        the certificate, relations, splittings, axis tests and frame
        searches all read this one table.
        """
        return _cone_inverses(self)

    @cached_property
    def _cone_masks(self) -> tuple[int, ...]:
        """Each maximal cone as a bitmask over the rays, bit i for ray i."""
        return tuple(sum(1 << r for r in rays) for rays in self._cone_rays)

    @cached_property
    def _facets(self) -> dict[int, list[tuple[int, int]]]:
        """Per facet mask (a cone mask minus one ray bit), the maximal cones holding it.

        Each cone j is listed as (j, i), where i is the position in
        max_cones[j].ray_names of the ray that the facet leaves out.
        """
        table: dict[int, list[tuple[int, int]]] = {}
        for j, (rays, mask) in enumerate(zip(self._cone_rays, self._cone_masks)):
            for i, r in enumerate(rays):
                table.setdefault(mask ^ (1 << r), []).append((j, i))
        return table

    @cached_property
    def _cones_of_ray(self) -> dict[str, int]:
        """Per ray, the bitmask of the maximal cones (bit j for cone j) holding it."""
        table = dict.fromkeys(self._order, 0)
        for j, cone in enumerate(self.max_cones):
            for n in cone.ray_names:
                table[n] |= 1 << j
        return table

    # Per-fan caches behind is_complete, primitive_collections and
    # primitive_relation: they live and die with the fan, and only the
    # results are kept.
    @cached_property
    def _is_complete(self) -> bool:
        return _certified_complete(self)

    @cached_property
    def _collections(self) -> tuple[frozenset[str], ...]:
        return _minimal_transversals(self)

    @cached_property
    def _relations(self) -> dict[frozenset[str], PrimitiveRelation]:
        return {}  # per primitive collection its relation, filled by _relation

    def generator(self, name: str) -> Vector:
        return self.rays[self._order[name]].generator

    def ray_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rays)

    def sort_names(self, names: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(names, key=self._order.__getitem__))

    def spans_cone(self, names: Iterable[str]) -> bool:
        """Whether the named rays together span a cone of the fan."""
        return self._cone_index(names) >= 0

    def _cone_index(self, names: Iterable[str]) -> int:
        """The index of the first maximal cone holding every named ray, or -1."""
        held = (1 << len(self.max_cones)) - 1
        for n in names:
            held &= self._cones_of_ray.get(n, 0)
        return (held & -held).bit_length() - 1

    def _inverse_rows(self, names: Sequence[str]) -> lattice.Matrix:
        """The cached inverse of the matrix whose columns are the named rays.

        names is a maximal cone in any order; row i of the result is the
        coordinate of names[i].
        """
        j = self._cone_index(names)
        row_of = dict(zip(self.max_cones[j].ray_names, self._inverses[j]))
        return tuple(row_of[n] for n in names)


def _validate_face_pair(fan: Fan, a: int, b: int) -> bool:
    """Whether the maximal cones a and b meet exactly in the cone on their common rays.

    Uses the dual characterization: the pair is glued along a common face
    iff some functional u, strictly positive on the rays of a outside the
    common set and zero on the common set, is nonpositive on every ray of
    b outside the common set.  One direction decides for simplicial
    cones: u >= 0 on a and <= 0 on b puts a & b in a & ker u, the cone on
    the common rays; the separation lemma (Fulton, Introduction to Toric
    Varieties, 1.2) gives such a u for a pair meeting in a common face.
    """
    rays_a, rays_b, inv_a = fan._cone_rays[a], fan._cone_rays[b], fan._inverses[a]
    free_positions = [i for i, r in enumerate(rays_a) if r not in rays_b]
    off_rays = [fan.rays[r].generator for r in rays_b if r not in rays_a]
    if len(free_positions) == 1:
        row = inv_a[free_positions[0]]
        return all(lattice.dot(row, g) <= 0 for g in off_rays)
    free = range(len(free_positions))
    strict = [tuple(int(j == t) for t in free) for j in free]
    weak = [tuple(-lattice.dot(inv_a[i], g) for i in free_positions) for g in off_rays]
    return lattice.linear_feasible(strict, weak)


def make_fan(
    dimension: int,
    rays: Sequence[Ray | tuple[str, Sequence[int]]],
    max_cones: Sequence[Cone | Sequence[str]],
) -> Fan:
    """Validate and build a smooth fan.

    Every cone is checked for unimodularity by filling the fan's _inverses
    table, as any fan does (_cone_inverses); of the faulty cones, the
    first in input order is reported.  After the per-ray and per-cone
    checks, a complete fan is accepted by the certificate of
    _certified_complete, which is also its cached completeness, with no
    Fourier-Motzkin call.  Any other input falls back to testing every pair
    of cones, by index, with _validate_face_pair, in one direction.

    Raises NonPrimitiveRay, SingularCone, BadFaceStructure or DanglingRay
    when the data violates the fan invariants.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    ray_objs = []
    for r in rays:
        if not isinstance(r, Ray):
            r = Ray(str(r[0]), tuple(map(index, r[1])))
        ray_objs.append(r)
    known = {r.name for r in ray_objs}
    if len(known) != len(ray_objs):
        raise ValueError("duplicate ray names")
    for r in ray_objs:
        if len(r.generator) != dimension:
            raise DimensionMismatch(
                f"ray {r.name} has length {len(r.generator)}, expected {dimension}"
            )
        if not lattice.is_primitive(r.generator):
            raise NonPrimitiveRay(f"ray {r.name} = {r.generator} is not primitive")
    seen_gens: dict[Vector, str] = {}
    for r in ray_objs:
        if r.generator in seen_gens:
            raise BadFaceStructure(
                f"rays {seen_gens[r.generator]} and {r.name} share a generator"
            )
        seen_gens[r.generator] = r.name

    cone_objs = []
    fault: Optional[Exception] = None
    for c in max_cones:
        if not isinstance(c, Cone):
            c = Cone(tuple(str(n) for n in c))
        unknown = [n for n in c.ray_names if n not in known]
        if unknown:
            fault = ValueError(f"cone references unknown ray {unknown[0]!r}")
        elif len(set(c.ray_names)) != len(c.ray_names):
            fault = SingularCone(f"cone {c.ray_names} repeats a ray", c.ray_names)
        elif len(c.ray_names) != dimension:
            fault = SingularCone(
                f"maximal cone {c.ray_names} has {len(c.ray_names)} rays, expected {dimension}",
                c.ray_names,
            )
        if fault is not None:
            # A cone before this one that is not unimodular is the first fault.
            Fan(dimension, tuple(ray_objs), tuple(cone_objs))._inverses
            raise fault
        cone_objs.append(c)
    if not cone_objs:
        raise ValueError("a fan needs at least one maximal cone")
    fan = Fan(dimension, tuple(ray_objs), tuple(cone_objs))
    fan._inverses  # raises SingularCone for the first cone not unimodular
    if len(set(fan._cone_masks)) != len(cone_objs):
        i = next(i for i, m in enumerate(fan._cone_masks) if m in fan._cone_masks[:i])
        raise BadFaceStructure(f"duplicate maximal cone {fan.sort_names(cone_objs[i].ray_names)}")
    for n, star in fan._cones_of_ray.items():
        if not star:
            raise DanglingRay(f"ray {n} belongs to no maximal cone")

    if fan._is_complete:
        return fan
    for a, b in combinations(range(len(cone_objs)), 2):
        if not _validate_face_pair(fan, a, b):
            first, second = (fan.sort_names(cone_objs[j].ray_names) for j in (a, b))
            raise BadFaceStructure(f"cones {first} and {second} do not meet in a common face")
    return fan


def _cone_inverses(fan: Fan) -> tuple[lattice.Matrix, ...]:
    """The inverse of each maximal cone, in max_cones order: the fan's _inverses.

    Every fan fills its table this way, validated by make_fan or built
    directly, as a splitting's fans and bundle fans are.  A cone no walk
    has reached is inverted by lattice.unimodular_inverse, and a walk over
    the facets pivots from it: B = F+b across F from A = F+a has
    det B = c_a * det A for c = inv(A) @ b, and if c_a = +-1, row b of
    inv(B) is c_a * inv(A)[a] and row f is inv(A)[f] - c_f * (row b), or
    inv(A)[f] itself when c_f = 0, O(d^2) work.  So a fan whose
    cones are connected through facets costs one elimination.  Any other
    pivot leaves B to the elimination, which raises SingularCone for the
    first cone in input order not unimodular.
    """
    cones, facets, masks = fan._cone_rays, fan._facets, fan._cone_masks
    gens = [r.generator for r in fan.rays]
    inverses: list = [None] * len(cones)
    for start, cone in enumerate(cones):
        if inverses[start] is not None:
            continue
        inverses[start] = lattice.unimodular_inverse([gens[r] for r in cone])
        if inverses[start] is None:
            names = fan.max_cones[start].ray_names
            raise SingularCone(f"cone {names} is not unimodular", names)
        stack = [start]
        while stack:
            j = stack.pop()
            rays, inv = cones[j], inverses[j]
            for i, a in enumerate(rays):
                for k, l in facets[masks[j] ^ (1 << a)]:
                    if inverses[k] is not None:
                        continue
                    b = cones[k][l]
                    coords = [sum(map(mul, row, gens[b])) for row in inv]
                    pivot = coords[i]
                    if pivot not in (1, -1):
                        continue
                    row_b = inv[i] if pivot == 1 else tuple(-x for x in inv[i])
                    rows = {
                        r: tuple(map(sub, row, map(mul, repeat(c), row_b))) if c else row
                        for r, row, c in zip(rays, inv, coords)
                    }
                    rows[b] = row_b
                    inverses[k] = tuple(rows[r] for r in cones[k])
                    stack.append(k)
    return tuple(inverses)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first, each as a one-bit mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _certified_complete(fan: Fan) -> bool:
    """Whether the cones form a complete fan, shown in O(C*d) dot products.

    The certificate has two parts, each checked with the cached cone
    inverses (row i of a cone's inverse is the coordinate of its i-th ray):

    - Facet pairing: every facet F lies in exactly two maximal cones F+a
      and F+b, on opposite sides of it: row a of the first cone's inverse
      is negative at b.  (Both cones are unimodular, so the test is
      symmetric.)
    - Degree one: the sum of the rays of the first maximal cone lies in no
      other closed maximal cone.

    Soundness (Ewald, Combinatorial Convexity and Algebraic Geometry,
    Ch. III).  Let N(x) count the maximal cones holding a point x off
    every facet.  Along a path that avoids the codimension-2 faces, N can
    change only where the path crosses facets, and each facet holding the
    crossing point swaps one cone on one side for one cone on the other;
    so N is constant.  The first cone's ray sum has a neighbourhood met by
    no other closed cone, so N = 1: the cones cover R^d and their
    interiors are disjoint.  For each face G, the cones holding G, taken
    modulo the span of G, again pair their facets on opposite sides, so
    their covering number is constant too; near a point x of the relative
    interior of G they cover each generic point that often, so it is 1.
    Hence the star of G covers a neighbourhood of x, and no cone without G
    contains x.  Two cones s and t therefore meet in the cone on their
    common rays: a relative interior point of s & t lies in the relative
    interior of some face G of s, so t holds G, and s & t lies in G.
    Returns False for every other input, half-fans included.
    """
    return _facets_pair_opposite(fan) and _covered_once(fan)


def _facets_pair_opposite(fan: Fan) -> bool:
    """Whether each facet lies in exactly two maximal cones, on opposite sides."""
    inverses, cones = fan._inverses, fan._cone_rays
    for pair in fan._facets.values():
        if len(pair) != 2:
            return False
        (j, i), (k, l) = pair
        if lattice.dot(inverses[j][i], fan.rays[cones[k][l]].generator) >= 0:
            return False
    return True


def _covered_once(fan: Fan) -> bool:
    """Whether the ray sum of the first maximal cone lies in no other closed one."""
    point = tuple(map(sum, zip(*(fan.generator(n) for n in fan.max_cones[0].ray_names))))
    return not any(
        all(lattice.dot(row, point) >= 0 for row in inverse)
        for inverse in fan._inverses[1:]
    )


def is_complete(fan: Fan) -> bool:
    """Whether the fan's support is all of R^d.

    Decided by the certificate of _certified_complete.  On a fan, complete
    and certified agree: a complete fan pairs each facet between two cones
    on opposite sides, and an interior point of one cone lies in no other
    closed cone.  make_fan has already run the certificate, so it is not
    run again.  Cached per fan.
    """
    return fan._is_complete


def primitive_collections(fan: Fan) -> tuple[frozenset[str], ...]:
    """All minimal ray sets spanning no cone, ordered by size then ray order.

    These are the minimal non-faces of the fan (Batyrev's primitive
    collections), so each has at most d+1 rays.  Cached per fan.
    """
    return fan._collections


def _minimal_transversals(fan: Fan) -> tuple[frozenset[str], ...]:
    """The minimal non-faces, in primitive_collections order.

    A non-face meets every cone's complement, so the minimal ones are the
    minimal transversals of the complements, found by MMCS (Murakami and
    Uno, Discrete Appl. Math. 170, 2014) with no face store.
    """
    found: list[int] = []
    stars = tuple(fan._cones_of_ray.values())
    _extend(stars, fan._cone_masks, 0, (1 << len(stars)) - 1,
            (1 << len(fan.max_cones)) - 1, [], found)
    found.sort(key=lambda m: (m.bit_count(), [b.bit_length() for b in _bits(m)]))
    names = fan.ray_names()
    return tuple(frozenset(names[b.bit_length() - 1] for b in _bits(m)) for m in found)


def _extend(stars, cones, chosen: int, candidates: int, uncovered: int,
            critical: list[int], found: list[int]) -> None:
    """One MMCS step: each minimal non-face chosen grows into by candidates.

    uncovered masks the cones holding chosen; critical holds, per ray of
    chosen, the cones holding the rest but not it (none ends the branch).
    It tries the candidates off the uncovered cone leaving fewest.
    """
    if not uncovered:
        found.append(chosen)
        return
    branch = candidates
    for low in _bits(uncovered):
        rays = candidates & ~cones[low.bit_length() - 1]
        if rays.bit_count() < branch.bit_count():
            branch = rays
    candidates ^= branch
    for ray in _bits(branch):
        star = stars[ray.bit_length() - 1]
        kept = [c & star for c in critical]
        if all(kept):
            kept.append(uncovered & ~star)
            _extend(stars, cones, chosen | ray, candidates, uncovered & star, kept, found)
        candidates |= ray


def primitive_relation(fan: Fan, collection: Iterable[str]) -> PrimitiveRelation:
    """Express the collection's generator sum over the cone containing it.

    Membership is read off the cone masks; cached per fan and collection.
    """
    fs = frozenset(collection)
    if not _is_collection(fan, fs):
        shown = fan.sort_names(fs) if fs <= fan._order.keys() else tuple(sorted(fs))
        raise NotAPrimitiveCollection(f"{shown} is not a primitive collection")
    return _relation(fan, fs)


def primitive_relations(fan: Fan) -> tuple[PrimitiveRelation, ...]:
    return tuple(_relation(fan, fs) for fs in fan._collections)


def _take_complex(
    fan: Fan, source: Fan, axis: frozenset[str], renamed: Mapping[str, str]
) -> None:
    """Copy to fan the primitive collections and relations that source has found.

    fan must have source's rays in source's order and source's cones, with
    the rays in renamed renamed, so its collections are source's renamed,
    in the same order.  Only the relations whose collection misses axis
    are copied; each must hold in fan as it stands.  fan finds the rest
    when first asked, as any fan does.
    """
    found = source.__dict__  # the cached_property values source has filled
    if "_collections" in found:
        fan.__dict__["_collections"] = tuple(
            frozenset(renamed.get(n, n) for n in c) for c in found["_collections"]
        )
    if "_relations" in found:
        fan.__dict__["_relations"] = {
            fs: rel for fs, rel in found["_relations"].items() if not fs & axis
        }


def _is_collection(fan: Fan, names: frozenset[str]) -> bool:
    """Whether names are rays spanning no cone while all but any one of them span one."""
    return names <= fan._order.keys() and not fan.spans_cone(names) and all(
        fan.spans_cone(names - {n}) for n in names
    )


def _relation(fan: Fan, fs: frozenset[str]) -> PrimitiveRelation:
    """The relation of a collection, read in the cone _walk_to_sum finds; cached.

    _scan_for_sum is the fallback.  Every cone holding the sum gives the
    same positive coordinates, those of the face holding it inside.
    """
    relation = fan._relations.get(fs)
    if relation is not None:
        return relation
    rays = fan.rays
    members = sorted(map(fan._order.__getitem__, fs))
    total = tuple(map(sum, zip(*(rays[i].generator for i in members))))
    found = _walk_to_sum(fan, members, total) or _scan_for_sum(fan, total)
    if found is None:
        raise NoContainingCone(
            f"sum of {fan.sort_names(fs)} lies in no cone; fan is invalid or incomplete"
        )
    j, coords = found
    support = tuple((rays[i].name, c) for i, c in sorted(zip(fan._cone_rays[j], coords)) if c > 0)
    relation = fan._relations[fs] = PrimitiveRelation(
        collection=tuple(rays[i].name for i in members),
        support=support,
        degree=len(members) - sum(c for _, c in support),
    )
    return relation


def _walk_to_sum(fan: Fan, members: Sequence[int], total: Vector):
    """A maximal cone holding total, as (cone index, coordinates), or None.

    From the first cone holding the rays members but the last (a face),
    it crosses the facet of the most negative coordinate (Devillers, Pion
    and Teillaud, "Walking in a triangulation", 2002), and gives up at a
    facet not in two cones or after C steps.
    """
    cones, rows, masks, facets = fan._cone_rays, fan._inverses, fan._cone_masks, fan._facets
    j = fan._cone_index(fan.rays[i].name for i in members[:-1])
    for _ in cones:
        coords = [sum(map(mul, row, total)) for row in rows[j]]
        low = min(coords)
        if low >= 0:
            return j, coords
        pair = facets[masks[j] ^ (1 << cones[j][coords.index(low)])]
        if len(pair) != 2:
            return None
        j = pair[pair[0][0] == j][0]
    return None


def _scan_for_sum(fan: Fan, total: Vector):
    """The first maximal cone holding total, as (cone index, coordinates), or None."""
    for j, inverse in enumerate(fan._inverses):
        coords = [sum(map(mul, row, total)) for row in inverse]
        if min(coords) >= 0:
            return j, coords
    return None


def _frame_search(
    src: Fan, anchor: Sequence[str], src_cones: Iterable[frozenset[str]],
    dst: Fan, frames: Iterable[Sequence[str]], dst_cones: Iterable[frozenset[str]],
) -> Optional[tuple[str, ...]]:
    """The first frame whose map from anchor carries src_cones onto dst_cones, or None.

    anchor and every frame are ordered maximal cones of src and dst.  The
    map sending anchor[i] to frame[i] takes a ray with coordinates c over
    the anchor (computed once, from the anchor's cached inverse) to
    sum(c_i * frame_i); no cone set is compared until every ray's image is
    a ray of dst.
    """
    src_cones, dst_cones = set(src_cones), set(dst_cones)
    inv = src._inverse_rows(anchor)
    coords = [
        (n, [lattice.dot(row, src.generator(n)) for row in inv])
        for n in src.sort_names(set().union(*src_cones))
    ]
    name_of = {r.generator: r.name for r in dst.rays}
    for frame in frames:
        rows = list(zip(*(dst.generator(n) for n in frame)))
        image = {}
        for n, c in coords:
            image[n] = name_of.get(tuple(lattice.dot(row, c) for row in rows))
            if image[n] is None:
                break
        else:
            if {frozenset(image[n] for n in cs) for cs in src_cones} == dst_cones:
                return tuple(frame)
    return None


def _ray_signatures(fan: Fan) -> list[tuple]:
    """Per ray, in ray order: its star size and the sorted labels of its facets.

    A wall is a facet F that lies in two maximal cones F+a and F+b.  Both
    are unimodular and lie on opposite sides of F, so b = -a + sum(c_f * f)
    over the rays f of F: the coordinates of b over F+a, read off its
    cached inverse, are the c_f and -1 at a.  The wall's label is the
    sorted tuple of these coordinates.  A ray gets (True, -1, label) from
    each wall where it is a or b, and (False, c_f, label) from each wall
    where it is f.  A facet in k != 2 cones, such as the boundary of a
    half-fan, gives (k, 1, ()) to the ray it leaves out of each of its cones
    and (k, 0, ()) to each of its own rays.  A unimodular map carrying the
    fan onto another carries walls to walls and keeps their coordinates, so
    a ray and its image have equal signatures.
    """
    cones, inverses = fan._cone_rays, fan._inverses
    gens = [r.generator for r in fan.rays]
    labels: list[list[tuple]] = [[] for _ in gens]
    for pair in fan._facets.values():
        if len(pair) != 2:
            for j, i in pair:
                for p, r in enumerate(cones[j]):
                    labels[r].append((len(pair), int(p == i), ()))
            continue
        (j, i), (k, l) = pair
        b = cones[k][l]
        gen_b = gens[b]
        coords = [sum(map(mul, row, gen_b)) for row in inverses[j]]
        wall = tuple(sorted(coords))
        for p, (r, c) in enumerate(zip(cones[j], coords)):
            labels[r].append((p == i, c, wall))
        labels[b].append((True, coords[i], wall))
    stars = fan._cones_of_ray
    return [
        (stars[r.name].bit_count(), tuple(sorted(own)))
        for r, own in zip(fan.rays, labels)
    ]


def _ray_colours(f1: Fan, f2: Fan) -> Optional[tuple[dict[str, int], dict[str, int]]]:
    """Colours of the rays of f1 and f2, equal on a ray and its image, or None.

    Colour refinement (1-WL, the refinement step of McKay and Piperno,
    "Practical graph isomorphism II", 2014): every ray starts from its
    _ray_signatures entry; a round recolours it by its colour and the
    sorted colour tuples of the cones in its star.  Both fans are refined
    together, one id per signature, so ids compare between them.  Rounds
    stop when the number of colours stops growing.  An isomorphism carries
    each ray's signature, in every round, to its image's, so None, returned
    as soon as the two fans' colour multisets differ, proves that none
    exists.
    """
    ids: dict[tuple, int] = {}
    colours = [[ids.setdefault(s, len(ids)) for s in _ray_signatures(fan)] for fan in (f1, f2)]
    cones = [f1._cone_rays, f2._cone_rays]
    while True:
        if sorted(colours[0]) != sorted(colours[1]):
            return None
        size = len(ids)
        ids = {}
        refined = []
        for fan_cones, colour in zip(cones, colours):
            around: list[list[tuple[int, ...]]] = [[] for _ in colour]
            for cone in fan_cones:
                key = tuple(sorted(colour[r] for r in cone))
                for r in cone:
                    around[r].append(key)
            refined.append([
                ids.setdefault((c, tuple(sorted(a))), len(ids))
                for c, a in zip(colour, around)
            ])
        if len(ids) == size:
            return tuple(
                dict(zip(fan.ray_names(), colour)) for fan, colour in zip((f1, f2), colours)
            )
        colours = refined


def _matching_frames(
    wanted: Sequence[int], cones: Iterable[Cone], colour: dict[str, int]
) -> Iterator[tuple[str, ...]]:
    """The orderings of each cone whose colours are wanted, position by position.

    Cone by cone, and within a cone in the order of permutations(ray_names):
    this is the order of fan_isomorphism's frames with the frames whose
    colours differ left out.  A cone whose colour multiset differs from
    wanted's has no such ordering; on any other, every matching prefix
    extends, so the backtracking never dead-ends.
    """
    target = sorted(wanted)
    for cone in cones:
        names = cone.ray_names
        if sorted(colour[n] for n in names) != target:
            continue
        stack = [()]
        while stack:
            prefix = stack.pop()
            if len(prefix) == len(names):
                yield prefix
                continue
            want = wanted[len(prefix)]
            stack.extend(
                prefix + (n,) for n in reversed(names)
                if colour[n] == want and n not in prefix
            )


def fan_isomorphism(f1: Fan, f2: Fan) -> Optional[UnimodularMap]:
    """A unimodular map carrying f1 onto f2, or None.

    Exhausts the maps pinned down by sending a fixed maximal cone of f1 to
    every ordered maximal cone of f2; sound because any isomorphism must do
    exactly that to some cone.  The rays are coloured first (_ray_colours):
    an isomorphism keeps each ray's colour, so differing colour multisets
    reject the pair at once, and only the frames whose colours match the
    anchor's position by position are tried.  The frames left out cannot
    succeed and the others keep their order, so the first frame that
    succeeds, and the map, are those of the unfiltered search.  Only the
    map that is found gets built.
    """
    if f1.dimension != f2.dimension:
        raise DimensionMismatch("fans live in different dimensions")
    if len(f1.rays) != len(f2.rays) or len(f1.max_cones) != len(f2.max_cones):
        return None
    colours = _ray_colours(f1, f2)
    if colours is None:
        return None
    anchor = f1.max_cones[0].ray_names
    wanted = [colours[0][n] for n in anchor]
    frames = _matching_frames(wanted, f2.max_cones, colours[1])
    frame = _frame_search(f1, anchor, f1.cone_sets, f2, frames, f2.cone_sets)
    return None if frame is None else lattice.change_of_basis(
        [f1.generator(n) for n in anchor], [f2.generator(n) for n in frame]
    )


def _candidate_cones(
    names: Sequence[str], dimension: int, collections: Sequence[frozenset[str]],
) -> Iterator[tuple[str, ...]]:
    """The d-subsets of names, in combinations order, containing no collection.

    Depth-first over the faces of the collections' complex: a face grows
    only by names after its last one, and a face that holds no collection
    gains one only if it ends at the name just added, so only those
    collections are tested.
    """
    order = {n: i for i, n in enumerate(names)}
    ending: list[list[int]] = [[] for _ in names]
    for c in collections:
        if not c:
            return  # every subset contains the empty collection
        mask = sum(1 << order[n] for n in c)
        ending[mask.bit_length() - 1].append(mask)

    def grow(face: int, chosen: tuple[str, ...], start: int) -> Iterator[tuple[str, ...]]:
        if len(chosen) == dimension:
            yield chosen
            return
        last = len(names) - dimension + len(chosen)
        for i in range(start, last + 1):
            grown = face | 1 << i
            if not any(c & grown == c for c in ending[i]):
                yield from grow(grown, chosen + (names[i],), i + 1)

    if 0 <= dimension <= len(names):
        yield from grow(0, (), 0)


def fan_from_relations(
    dimension: int,
    generator_names: Sequence[str],
    relations: Sequence[FormalRelation],
    basis_cone: Optional[Sequence[str]] = None,
) -> Fan:
    """Rebuild a fan from a primitive-relation presentation.

    The named generators of basis_cone receive the standard basis, the
    remaining generators are solved from the relations, and the maximal
    cones are all unimodular d-subsets avoiding every relation's lhs.  When
    basis_cone is omitted, the first such d-subset in combinations order
    is the basis, and its one solve decides: if any candidate c yields a
    valid complete fan F, F's cones are all those d-subsets, so the first,
    c1, is a unimodular cone of F.  The solve from c is unique and F's d
    coordinate columns lie in the relation matrix's kernel, so they span
    it; only 0 in it vanishes on the basis c1, so the solve from c1 is
    unique too.  Its solution is F moved by the unimodular map sending c1's
    rays to e1, ..., ed, which passes every check F passed.
    """
    names = list(generator_names)
    if len(set(names)) != len(names):
        raise ValueError("duplicate generator names")
    matrix = _relation_matrix(names, relations)
    collections = [frozenset(rel.lhs) for rel in relations]
    if basis_cone is None:
        basis_cone = next(_candidate_cones(names, dimension, collections), None)
        if basis_cone is None:
            raise InconsistentRelations("no candidate basis cone avoids the given collections")
    return _solve_presentation(dimension, names, matrix, collections, tuple(basis_cone))


def _relation_matrix(names: Sequence[str], relations: Sequence[FormalRelation]) -> list[list[int]]:
    """Net coefficient of each name (column) in each relation's sum(lhs) - sum(rhs) = 0."""
    column = {n: j for j, n in enumerate(names)}
    matrix = []
    for rel in relations:
        row = [0] * len(names)
        for k, n in [*((1, n) for n in rel.lhs), *((-k, n) for k, n in rel.rhs)]:
            if n not in column:
                raise ValueError(f"relation uses unknown generator {n!r}")
            row[column[n]] += k
        matrix.append(row)
    return matrix


def _solve_presentation(
    dimension: int,
    names: Sequence[str],
    matrix: list[list[int]],
    collections: Sequence[frozenset[str]],
    basis: tuple[str, ...],
) -> Fan:
    if len(basis) != dimension:
        raise ValueError(f"basis cone needs {dimension} generators")
    if any(n not in names for n in basis):
        raise ValueError("basis cone uses unknown generator")
    if len(set(basis)) != dimension:
        raise ValueError("basis cone repeats a generator")
    assigned: dict[str, Vector] = {
        n: tuple(1 if j == i else 0 for j in range(dimension)) for i, n in enumerate(basis)
    }
    # The unknowns' columns are the coefficients; the basis columns, times
    # their unit vectors and negated, the right-hand side.
    unknowns = [j for j, n in enumerate(names) if n not in assigned]
    fixed = [names.index(n) for n in basis]
    rhs = [[-row[j] for j in fixed] for row in matrix]

    if unknowns:
        unpinned = UnderdeterminedRelations(
            f"generators {[names[j] for j in unknowns]} are not pinned down by the relations"
        )
        if not matrix:
            # No relation: solve_integer sees no column, so it would pin nothing.
            raise unpinned
        try:
            solution = lattice.solve_integer(
                [[row[j] for j in unknowns] for row in matrix], rhs
            )
        except lattice.NoIntegerSolution as exc:
            raise InconsistentRelations(str(exc)) from exc
        except lattice.UnderdeterminedSystem as exc:
            raise unpinned from exc
        for j, row in zip(unknowns, solution):
            assigned[names[j]] = tuple(row)
    elif any(map(any, rhs)):
        # All generators fixed by the basis; relations must hold identically.
        raise InconsistentRelations("relations contradict the basis assignment")

    for n in names:
        vec = assigned[n]
        if not lattice.is_primitive(vec):
            raise InconsistentRelations(
                f"generator {n} solves to the non-primitive vector {vec}"
            )
    by_vector: dict[Vector, str] = {}
    for n in names:
        if assigned[n] in by_vector:
            raise InconsistentRelations(
                f"generators {by_vector[assigned[n]]} and {n} solve to the same vector"
            )
        by_vector[assigned[n]] = n

    # The generators are primitive and distinct, so make_fan's first
    # SingularCone is the first candidate cone that is not unimodular.
    cones = list(_candidate_cones(names, dimension, collections))
    try:
        fan = make_fan(dimension, [Ray(n, assigned[n]) for n in names], cones)
    except SingularCone as exc:
        raise ResultSingular(
            f"collection-free subset {exc.cone} is not unimodular; "
            "the relation list cannot be a complete primitive-collection list"
        ) from exc
    if not is_complete(fan):
        raise ResultNotComplete("reconstructed cone complex does not cover R^d")
    return fan
