"""Smooth fans: construction, validation, primitive relations, isomorphism.

A Fan is an immutable value: named primitive ray generators plus the ray
sets of its full-dimensional cones.  make_fan is the only validating
constructor; everything downstream may assume its invariants (primitive
rays, unimodular cones, pairwise intersection in a common face, no
dangling rays).  Completeness is a separate query because half-fans are
legitimate values too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from . import lattice
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

if TYPE_CHECKING:
    from .divisor import DivisorClassData, FanoReport


@dataclass(frozen=True)
class Ray:
    name: str
    generator: Vector


@dataclass(frozen=True)
class Cone:
    """A cone of the fan, recorded by the names of its rays."""

    ray_names: tuple[str, ...]


@dataclass(frozen=True)
class PrimitiveRelation:
    """A primitive collection with its generator-sum expressed over a cone.

    degree is (collection size) - (sum of support coefficients); it equals
    the anticanonical degree of the associated curve class.
    """

    collection: tuple[str, ...]
    support: tuple[tuple[str, int], ...]
    degree: int


@dataclass(frozen=True)
class FormalRelation:
    """An input relation: sum of lhs generators equals the rhs combination."""

    lhs: tuple[str, ...]
    rhs: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class Fan:
    dimension: int
    rays: tuple[Ray, ...]
    max_cones: tuple[Cone, ...]

    @cached_property
    def _gen_by_name(self) -> dict[str, Vector]:
        return {r.name: r.generator for r in self.rays}

    @cached_property
    def _order(self) -> dict[str, int]:
        return {r.name: i for i, r in enumerate(self.rays)}

    @cached_property
    def cone_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(c.ray_names) for c in self.max_cones)

    @cached_property
    def _cone_inverse(self) -> dict[frozenset[str], tuple[tuple[str, ...], lattice.Matrix]]:
        """Per maximal cone: its ordered rays and the inverse basis matrix."""
        table = {}
        for cone in self.max_cones:
            cols = [self._gen_by_name[n] for n in cone.ray_names]
            table[frozenset(cone.ray_names)] = (
                cone.ray_names,
                lattice.matrix_inverse(cols),
            )
        return table

    @cached_property
    def _cone_masks(self) -> tuple[int, ...]:
        """Each maximal cone as a bitmask over the rays, bit i for ray i."""
        order = self._order
        return tuple(
            sum(1 << order[n] for n in c.ray_names) for c in self.max_cones
        )

    @cached_property
    def _cones_of_ray(self) -> dict[str, int]:
        """Per ray, the bitmask of the maximal cones (bit j for cone j) holding it."""
        table = dict.fromkeys(self._order, 0)
        for j, cone in enumerate(self.max_cones):
            for n in cone.ray_names:
                table[n] |= 1 << j
        return table

    # Per-fan caches behind is_complete, primitive_collections,
    # divisor.class_group and divisor.classify_fano: they live and die with
    # the fan, and only the results are kept.
    @cached_property
    def _is_complete(self) -> bool:
        return _facets_pair_up(self)

    @cached_property
    def _primitive_collections(self) -> tuple[frozenset[str], ...]:
        return _minimal_non_faces(self)

    @cached_property
    def _class_group(self) -> DivisorClassData:
        from . import divisor  # imported here: divisor imports this module

        return divisor._class_group(self)

    @cached_property
    def _fano_report(self) -> FanoReport:
        from . import divisor

        return divisor._classify_fano(self)

    def generator(self, name: str) -> Vector:
        return self._gen_by_name[name]

    def ray_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rays)

    def sort_names(self, names: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(names, key=self._order.__getitem__))

    def spans_cone(self, names: Iterable[str]) -> bool:
        """Whether the named rays together span a cone of the fan."""
        cones = (1 << len(self.max_cones)) - 1
        table = self._cones_of_ray
        for n in names:
            cones &= table.get(n, 0)
        return cones != 0

    def cone_coefficients(self, cone_set: frozenset[str], vector: Vector) -> dict[str, int]:
        """Coordinates of vector in the basis of the given maximal cone."""
        names, inv = self._cone_inverse[cone_set]
        coords = [lattice.dot(row, vector) for row in inv]
        return dict(zip(names, coords))


def _validate_face_pair(fan: Fan, a: frozenset[str], b: frozenset[str]) -> bool:
    """Whether two maximal cones meet exactly in the cone on their common rays.

    Uses the dual characterization: the pair is glued along a common face
    iff some functional, strictly positive on the rays of a outside the
    common set and zero on the common set, is nonpositive on every ray of
    b outside the common set.
    """
    common = a & b
    names_a, inv_a = fan._cone_inverse[a]
    free_positions = [i for i, n in enumerate(names_a) if n not in common]
    off_rays = [fan.generator(n) for n in b - common]
    if len(free_positions) == 1:
        row = inv_a[free_positions[0]]
        return all(lattice.dot(row, g) <= 0 for g in off_rays)
    strict = [
        tuple(1 if j == t else 0 for t in range(len(free_positions)))
        for j in range(len(free_positions))
    ]
    weak = [
        tuple(-lattice.dot(inv_a[i], g) for i in free_positions) for g in off_rays
    ]
    return lattice.linear_feasible(strict, weak)


def make_fan(
    dimension: int,
    rays: Sequence[Ray | tuple[str, Sequence[int]]],
    max_cones: Sequence[Cone | Sequence[str]],
) -> Fan:
    """Validate and build a smooth fan.

    Raises NonPrimitiveRay, SingularCone, BadFaceStructure or DanglingRay
    when the data violates the fan invariants.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    ray_objs = []
    for r in rays:
        if not isinstance(r, Ray):
            r = Ray(str(r[0]), tuple(int(x) for x in r[1]))
        ray_objs.append(r)
    names = [r.name for r in ray_objs]
    if len(set(names)) != len(names):
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

    gen_by_name = {r.name: r.generator for r in ray_objs}
    cone_objs = []
    for c in max_cones:
        if not isinstance(c, Cone):
            c = Cone(tuple(str(n) for n in c))
        for n in c.ray_names:
            if n not in gen_by_name:
                raise ValueError(f"cone references unknown ray {n!r}")
        if len(set(c.ray_names)) != len(c.ray_names):
            raise SingularCone(f"cone {c.ray_names} repeats a ray")
        if len(c.ray_names) != dimension:
            raise SingularCone(
                f"maximal cone {c.ray_names} has {len(c.ray_names)} rays, expected {dimension}"
            )
        gens = [gen_by_name[n] for n in c.ray_names]
        if abs(lattice.det(gens)) != 1:
            raise SingularCone(f"cone {c.ray_names} is not unimodular")
        cone_objs.append(c)
    if not cone_objs:
        raise ValueError("a fan needs at least one maximal cone")
    sets = [frozenset(c.ray_names) for c in cone_objs]
    if len(set(sets)) != len(sets):
        raise BadFaceStructure("duplicate maximal cone")
    in_some_cone = set().union(*sets)
    for n in names:
        if n not in in_some_cone:
            raise DanglingRay(f"ray {n} belongs to no maximal cone")

    fan = Fan(dimension, tuple(ray_objs), tuple(cone_objs))
    for a, b in combinations(fan.cone_sets, 2):
        if not (_validate_face_pair(fan, a, b) and _validate_face_pair(fan, b, a)):
            raise BadFaceStructure(
                f"cones {fan.sort_names(a)} and {fan.sort_names(b)} do not meet in a common face"
            )
    return fan


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first, each as a one-bit mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def is_complete(fan: Fan) -> bool:
    """Whether the fan's support is all of R^d.

    Decided combinatorially: every facet of a maximal cone must lie in
    exactly two maximal cones and the facet-adjacency graph must be
    connected.  Valid for fans, whose supports are closed cone complexes.
    Cached per fan.
    """
    return fan._is_complete


def _facets_pair_up(fan: Fan) -> bool:
    cones = fan._cone_masks
    adjacency: dict[int, list[int]] = {}
    for idx, mask in enumerate(cones):
        for b in _bits(mask):
            adjacency.setdefault(mask ^ b, []).append(idx)
    if any(len(pair) != 2 for pair in adjacency.values()):
        return False
    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for b in _bits(cones[i]):
            for j in adjacency[cones[i] ^ b]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
    return len(seen) == len(cones)


def primitive_collections(fan: Fan) -> tuple[frozenset[str], ...]:
    """All minimal ray sets spanning no cone, ordered by size then ray order.

    These are the minimal non-faces of the fan (Batyrev's primitive
    collections), so each has at most d+1 rays.  Cached per fan.
    """
    return fan._primitive_collections


def _minimal_non_faces(fan: Fan) -> tuple[frozenset[str], ...]:
    """Minimal non-faces, from the faces of the fan as ray bitmasks.

    A minimal non-face c is f | x for the face f = c minus its highest ray
    x, and every c ^ b with b in f is a face too.  So one pass over the
    faces, extending each by the rays above its highest one, finds every
    collection exactly once.  The face set is local: it can hold C * 2^d
    masks and is dropped once the collections are known.
    """
    faces: set[int] = set()
    for cone in fan._cone_masks:
        sub = cone
        while sub:
            faces.add(sub)
            sub = (sub - 1) & cone
    faces.add(0)
    ray_bits = [1 << i for i in range(len(fan.rays))]
    found = []
    for face in faces:
        for x in ray_bits:
            if x <= face:
                continue
            candidate = face | x
            if candidate not in faces and all(
                candidate ^ b in faces for b in _bits(face)
            ):
                found.append(candidate)
    found.sort(key=lambda m: (m.bit_count(), [b.bit_length() for b in _bits(m)]))
    names = fan.ray_names()
    return tuple(
        frozenset(names[b.bit_length() - 1] for b in _bits(m)) for m in found
    )


def primitive_relation(fan: Fan, collection: Iterable[str]) -> PrimitiveRelation:
    """Express the collection's generator sum over the cone containing it."""
    fs = frozenset(collection)
    if fs not in primitive_collections(fan):
        raise NotAPrimitiveCollection(f"{fan.sort_names(fs)} is not a primitive collection")
    total = tuple(
        sum(fan.generator(n)[i] for n in fs) for i in range(fan.dimension)
    )
    for cs in fan.cone_sets:
        coeffs = fan.cone_coefficients(cs, total)
        if all(v >= 0 for v in coeffs.values()):
            support = tuple(
                (n, coeffs[n]) for n in fan.sort_names(cs) if coeffs[n] > 0
            )
            return PrimitiveRelation(
                collection=fan.sort_names(fs),
                support=support,
                degree=len(fs) - sum(v for _, v in support),
            )
    raise NoContainingCone(
        f"sum of {fan.sort_names(fs)} lies in no cone; fan is invalid or incomplete"
    )


def primitive_relations(fan: Fan) -> tuple[PrimitiveRelation, ...]:
    return tuple(primitive_relation(fan, c) for c in primitive_collections(fan))


def _frame_search(
    src: Fan, anchor: Sequence[str], src_cones: Iterable[frozenset[str]],
    dst: Fan, frames: Iterable[Sequence[str]], dst_cones: Iterable[frozenset[str]],
) -> Optional[tuple[str, ...]]:
    """The first frame whose map from anchor carries src_cones onto dst_cones, or None.

    anchor and every frame are ordered maximal cones of src and dst.  The
    map sending anchor[i] to frame[i] takes a ray with coordinates c over
    the anchor (computed once, from one inverse) to sum(c_i * frame_i); no
    cone set is compared until every ray's image is a ray of dst.
    """
    src_cones, dst_cones = set(src_cones), set(dst_cones)
    inv = lattice.matrix_inverse([src.generator(n) for n in anchor])
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


def fan_isomorphism(f1: Fan, f2: Fan) -> Optional[UnimodularMap]:
    """A unimodular map carrying f1 onto f2, or None.

    Exhausts the maps pinned down by sending a fixed maximal cone of f1 to
    every ordered maximal cone of f2; sound because any isomorphism must do
    exactly that to some cone.  Only the map that is found gets built.
    """
    if f1.dimension != f2.dimension:
        raise DimensionMismatch("fans live in different dimensions")
    if len(f1.rays) != len(f2.rays) or len(f1.max_cones) != len(f2.max_cones):
        return None
    anchor = f1.max_cones[0].ray_names
    frames = (p for cone in f2.max_cones for p in permutations(cone.ray_names))
    frame = _frame_search(f1, anchor, f1.cone_sets, f2, frames, f2.cone_sets)
    return None if frame is None else lattice.change_of_basis(
        [f1.generator(n) for n in anchor], [f2.generator(n) for n in frame]
    )


def _candidate_cones(
    names: Sequence[str], dimension: int, collections: Sequence[frozenset[str]]
) -> list[tuple[str, ...]]:
    """The d-subsets of names, in combinations order, containing no collection."""
    order = {n: i for i, n in enumerate(names)}
    masks = [sum(1 << order[n] for n in c) for c in collections]
    out = []
    for subset in combinations(range(len(names)), dimension):
        mask = sum(1 << i for i in subset)
        if not any(c & mask == c for c in masks):
            out.append(tuple(names[i] for i in subset))
    return out


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
    basis_cone is omitted, candidates are tried greedily in subset order
    until one yields a consistent solution and a valid complete fan.
    """
    names = list(generator_names)
    if len(set(names)) != len(names):
        raise ValueError("duplicate generator names")
    known = set(names)
    for rel in relations:
        for n in rel.lhs:
            if n not in known:
                raise ValueError(f"relation uses unknown generator {n!r}")
        for _, n in rel.rhs:
            if n not in known:
                raise ValueError(f"relation uses unknown generator {n!r}")
    collections = [frozenset(rel.lhs) for rel in relations]

    if basis_cone is not None:
        return _solve_presentation(dimension, names, relations, collections, tuple(basis_cone))

    last_error: Exception | None = None
    for candidate in _candidate_cones(names, dimension, collections):
        try:
            return _solve_presentation(dimension, names, relations, collections, candidate)
        except (InconsistentRelations, UnderdeterminedRelations, ResultNotComplete,
                ResultSingular, BadFaceStructure, DanglingRay, SingularCone,
                NonPrimitiveRay) as exc:
            last_error = exc
    if last_error is not None:
        raise last_error
    raise InconsistentRelations("no candidate basis cone avoids the given collections")


def _solve_presentation(
    dimension: int,
    names: Sequence[str],
    relations: Sequence[FormalRelation],
    collections: Sequence[frozenset[str]],
    basis: tuple[str, ...],
) -> Fan:
    if len(basis) != dimension:
        raise ValueError(f"basis cone needs {dimension} generators")
    if any(n not in names for n in basis):
        raise ValueError("basis cone uses unknown generator")
    assigned: dict[str, Vector] = {}
    for i, n in enumerate(basis):
        assigned[n] = tuple(1 if j == i else 0 for j in range(dimension))
    unknowns = [n for n in names if n not in assigned]

    # Net coefficient of each generator in "sum(lhs) - sum(rhs) = 0".
    rows = []
    rhs_rows = []
    for rel in relations:
        net: dict[str, int] = {}
        for n in rel.lhs:
            net[n] = net.get(n, 0) + 1
        for k, n in rel.rhs:
            net[n] = net.get(n, 0) - k
        rows.append([net.get(n, 0) for n in unknowns])
        constant = [0] * dimension
        for n, c in net.items():
            if n in assigned:
                vec = assigned[n]
                constant = [a - c * b for a, b in zip(constant, vec)]
        rhs_rows.append(constant)

    if unknowns:
        try:
            solution = lattice.solve_integer(rows, rhs_rows)
        except lattice.NoIntegerSolution as exc:
            raise InconsistentRelations(str(exc)) from exc
        except lattice.UnderdeterminedSystem as exc:
            raise UnderdeterminedRelations(
                f"generators {unknowns} are not pinned down by the relations"
            ) from exc
        for n, row in zip(unknowns, solution):
            assigned[n] = tuple(row)
    else:
        # All generators fixed by the basis; relations must hold identically.
        for const in rhs_rows:
            if any(const):
                raise InconsistentRelations("relations contradict the basis assignment")

    for n in names:
        vec = assigned[n]
        if not any(vec) or not lattice.is_primitive(vec):
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

    cones = _candidate_cones(names, dimension, collections)
    for cone in cones:
        if abs(lattice.det([assigned[n] for n in cone])) != 1:
            raise ResultSingular(
                f"collection-free subset {cone} is not unimodular; "
                "the relation list cannot be a complete primitive-collection list"
            )
    try:
        fan = make_fan(dimension, [Ray(n, assigned[n]) for n in names], cones)
    except SingularCone as exc:
        raise ResultSingular(str(exc)) from exc
    if not is_complete(fan):
        raise ResultNotComplete("reconstructed cone complex does not cover R^d")
    return fan
