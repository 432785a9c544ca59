"""Shared corpus builders and independent oracles.

The oracles here deliberately avoid the library's own linear algebra:
ranks and cone membership are recomputed with Fraction-based Gaussian
elimination so the tests cross-check the integer row-reduction paths.
Primitive collections are recomputed by plain subset enumeration, which
is exponential in the ray count and meant for fans of up to ~14 rays.
Fiber types are recomputed by a full splitting search of the equator, and
equators are revalidated with make_fan.  Fan isomorphism and
star equivalence are recomputed by building the full change-of-basis map
of every candidate frame.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from fanshear import builtin, bundle_fan
from fanshear.deform import FiberKind, FiberType, fiber_type, find_splittings
from fanshear.divisor import class_group
from fanshear.fan import Ray, is_complete, make_fan, primitive_collections
from fanshear.lattice import change_of_basis
from fanshear.scroll import BundleSpec


def fraction_rank(rows):
    """Row rank over Q, by plain Gaussian elimination with Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def fraction_solve(columns, target):
    """Solve sum_i x_i * columns[i] == target over Q; None if singular."""
    n = len(target)
    aug = [[Fraction(columns[j][i]) for j in range(len(columns))] + [Fraction(target[i])]
           for i in range(n)]
    for c in range(len(columns)):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][-1] for i in range(len(columns))]


def direction_in_fan(fan, vector):
    """Membership of the direction in the fan's support, solved over Q."""
    for cone in fan.max_cones:
        columns = [fan.generator(n) for n in cone.ray_names]
        coeffs = fraction_solve(columns, vector)
        if coeffs is not None and all(c >= 0 for c in coeffs):
            return True
    return False


def brute_collections(fan):
    """Subset-enumeration oracle: minimal ray sets lying in no maximal cone.

    Ordered by size, then by ray order, as primitive_collections is.
    """
    names = fan.ray_names()
    cone_sets = [set(c.ray_names) for c in fan.max_cones]

    def is_face(s):
        return any(s <= cs for cs in cone_sets)

    out = []
    for size in range(1, len(names) + 1):
        for sub in combinations(names, size):
            s = set(sub)
            if not is_face(s) and all(is_face(s - {n}) for n in s):
                out.append(frozenset(s))
    return tuple(out)


def fan_isomorphism_by_frames(f1, f2):
    """fan_isomorphism by building the map of every candidate frame.

    Tries the ordered maximal cones of f2 in the same order as
    fan_isomorphism, as images of f1's first maximal cone, and returns the
    first map carrying every ray of f1 to a ray of f2 and the cones onto
    the cones; None if there is none.
    """
    if len(f1.rays) != len(f2.rays) or len(f1.max_cones) != len(f2.max_cones):
        return None
    anchor_cols = [f1.generator(n) for n in f1.max_cones[0].ray_names]
    target_names = {r.generator: r.name for r in f2.rays}
    f2_cones = set(f2.cone_sets)
    for cone in f2.max_cones:
        for perm in permutations(cone.ray_names):
            candidate = change_of_basis(anchor_cols, [f2.generator(n) for n in perm])
            name_map = {r.name: target_names.get(candidate.apply(r.generator)) for r in f1.rays}
            if None in name_map.values():
                continue
            if {frozenset(name_map[n] for n in cs) for cs in f1.cone_sets} == f2_cones:
                return candidate
    return None


def star_equivalent_by_frames(fan, a, b):
    """star_equivalent by building the map of every candidate frame.

    Sends an ordered cone of a's star, a first, to every ordered cone of
    b's star, b first, and compares the images of the star's cones as
    sets of generators.
    """
    star_a = [cs for cs in fan.cone_sets if a in cs]
    star_b = [cs for cs in fan.cone_sets if b in cs]
    if len(star_a) != len(star_b):
        return False
    gens_a = {frozenset(fan.generator(n) for n in cs) for cs in star_a}
    gens_b = {frozenset(fan.generator(n) for n in cs) for cs in star_b}
    anchor = [fan.generator(n) for n in (a, *fan.sort_names(star_a[0] - {a}))]
    for cs in star_b:
        for perm in permutations(fan.sort_names(cs - {b})):
            carry = change_of_basis(anchor, [fan.generator(n) for n in (b, *perm)])
            if {frozenset(map(carry.apply, cone)) for cone in gens_a} == gens_b:
                return True
    return False


def fiber_type_by_search(split):
    """fiber_type with its bundle case decided by searching all splittings.

    The equator is a bundle over the line with the designated pair as its
    poles when some splitting of the equator has the pivot as upper ray
    and the partner as lower ray.
    """
    pivot, partner = split.pivot_name, split.partner_name
    other = FiberType(FiberKind.OTHER, None)
    if partner is None:
        return other
    equator = split.equator
    names = equator.ray_names()
    if (
        len(names) == split.dimension
        and not any(map(sum, zip(*(r.generator for r in equator.rays))))
        and primitive_collections(equator) == (frozenset(names),)
    ):
        kind = FiberKind.PROJECTIVE_SPACE
    elif any(
        sub.upper_names == (pivot,) and sub.lower_names == (partner,)
        for sub in find_splittings(equator)
    ):
        kind = FiberKind.BUNDLE_OVER_P1
    else:
        return other
    classes = class_group(equator).class_of_ray
    if classes[pivot] == classes[partner] and star_equivalent_by_frames(equator, pivot, partner):
        return FiberType(kind, (pivot, partner))
    return other


def check_splittings_against_oracles(fan):
    """Check every splitting of the fan against the oracles; return their number.

    Each splitting has one upper and one lower ray, every maximal cone
    holds exactly one of them, and the cones through either one minus that
    ray are the equator cones.  fiber_type agrees with fiber_type_by_search,
    and the equator is the normal-form fan's equator rays with the last
    coordinate dropped, which make_fan accepts as a complete fan.
    """
    splits = find_splittings(fan)
    for split in splits:
        # Splitting keeps the ray names as tuples; each holds exactly one ray
        (up,), (down,) = split.upper_names, split.lower_names
        assert fiber_type(split) == fiber_type_by_search(split)
        axis = {up, down}
        equator = split.equator
        assert all(len(cs & axis) == 1 for cs in split.fan.cone_sets)
        facets = {ray: {cs - {ray} for cs in split.fan.cone_sets if ray in cs} for ray in axis}
        assert facets[up] == facets[down] == set(equator.cone_sets)
        assert equator.dimension == split.dimension - 1
        assert equator.rays == tuple(
            Ray(r.name, r.generator[:-1]) for r in split.fan.rays if r.name not in axis
        )
        rebuilt = make_fan(equator.dimension, equator.rays, equator.max_cones)
        assert rebuilt == equator
        assert is_complete(rebuilt)
    return len(splits)


def support_functional(fan, cone, divisor):
    """The linear form agreeing with -divisor on the cone's rays, over Q."""
    columns = [fan.generator(n) for n in cone.ray_names]
    n = len(columns)
    # Solve m . column_i = -divisor_i, i.e. transpose system.
    rows = [[Fraction(columns[i][j]) for j in range(n)] for i in range(n)]
    target = [-divisor[name] for name in cone.ray_names]
    sol = fraction_solve([list(r) for r in zip(*rows)], target)
    return sol


def bundle_specs_for_reduction():
    """Sorted twist vectors with entries <= 4 and max >= 2, d in {2, 3, 4}."""
    out = []
    for d in (2, 3, 4):
        for tw in combinations_with_replacement(range(4, -1, -1), d - 1):
            if max(tw) >= 2:
                out.append(BundleSpec(tw))
    return out


def bundle_specs_for_chains():
    """Sorted twist vectors with sum <= 9, d in {2, 3}."""
    out = []
    for d in (2, 3):
        for tw in combinations_with_replacement(range(9, -1, -1), d - 1):
            if sum(tw) <= 9:
                out.append(BundleSpec(tw))
    return out


def catalog_names():
    return [f"hirzebruch({a})" for a in range(9)] + [
        "X3_0", "W4_1", "W4_2", "W4_3", "W4_4",
        "W4_5", "W4_6", "W4_7", "W4_8", "W4_9",
    ]


def full_corpus():
    """Every catalog fan plus every bundle fan the acceptance suite touches."""
    fans = {}
    for name in catalog_names():
        fans[name] = builtin(name)
    for spec in bundle_specs_for_reduction() + bundle_specs_for_chains():
        key = f"bundle{(spec.dimension,) + spec.twists}"
        if key not in fans:
            fans[key] = bundle_fan(spec)
    return fans


@pytest.fixture(scope="session")
def corpus():
    return full_corpus()
