"""Randomized corpus: star subdivisions of known fans.

Inserting the sum of a maximal smooth cone's rays (or of an adjacent ray
pair in the plane) keeps the fan smooth and complete, so repeated random
insertions generate a supply of irregular fans for cross-checking the
validators, the two Fano criteria, and the shear machinery.
"""

import random
from itertools import combinations

import pytest

from conftest import (
    brute_collections,
    check_splittings_against_oracles,
    direction_in_fan,
    star_equivalent_by_frames,
)

from fanshear import builtin
from fanshear.deform import (
    FiberKind,
    endpoint,
    endpoint_conditions,
    fiber_type,
    find_splittings,
    star_equivalent,
)
from fanshear.divisor import NefAmpleStatus, anticanonical, nef_ample_status
from fanshear.fan import (
    fan_isomorphism,
    is_complete,
    make_fan,
    primitive_collections,
    primitive_relations,
)
from fanshear.lattice import UnimodularMap, shear_map


def random_plane_fan(seed, insertions):
    """Blow up the product of two lines at random torus-fixed points."""
    rng = random.Random(seed)
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for _ in range(insertions):
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    names = [f"r{i}" for i in range(len(rays))]
    cones = [
        (names[i], names[(i + 1) % len(names)]) for i in range(len(names))
    ]
    return make_fan(2, list(zip(names, rays)), cones)


def random_subdivided_fan(seed, base_name, insertions):
    """Random iterated star subdivisions of maximal cones of a catalog fan."""
    rng = random.Random(seed)
    fan = builtin(base_name)
    rays = [(r.name, r.generator) for r in fan.rays]
    cones = [list(c.ray_names) for c in fan.max_cones]
    gen = {n: g for n, g in rays}
    for step in range(insertions):
        target = rng.randrange(len(cones))
        old = cones.pop(target)
        new_name = f"s{step}"
        new_gen = tuple(sum(gen[n][i] for n in old) for i in range(fan.dimension))
        gen[new_name] = new_gen
        rays.append((new_name, new_gen))
        for drop in old:
            cones.append([n if n != drop else new_name for n in old])
    return make_fan(fan.dimension, rays, cones)


def random_face_subdivided_fan(seed, base_name, insertions):
    """Random star subdivisions of 2-faces off the first splitting axis.

    The new ray x + y of a face {x, y} avoiding the axis (up, down) is in
    the kernel of the fibration functional, so the axis survives and its
    equator is blown up along the face.
    """
    rng = random.Random(seed)
    fan = builtin(base_name)
    split = find_splittings(fan)[0]
    axis = set(split.upper_names + split.lower_names)
    gen = {r.name: r.generator for r in fan.rays}
    cones = [list(c.ray_names) for c in fan.max_cones]
    for step in range(insertions):
        faces = sorted({
            tuple(sorted(pair))
            for c in cones
            for pair in combinations(c, 2)
            if not axis & set(pair)
        })
        x, y = rng.choice(faces)
        new_name = f"t{step}"
        gen[new_name] = tuple(a + b for a, b in zip(gen[x], gen[y]))
        subdivided = []
        for c in cones:
            if x in c and y in c:
                subdivided.append([new_name if n == x else n for n in c])
                subdivided.append([new_name if n == y else n for n in c])
            else:
                subdivided.append(c)
        cones = subdivided
    return make_fan(fan.dimension, list(gen.items()), cones)


PLANE_CASES = [(seed, seed % 5 + 1) for seed in range(12)]
SUBDIVIDED_CASES = [
    (seed, name, seed % 3 + 1)
    for seed, name in enumerate(
        ["X3_0", "W4_1", "bundle(3;2,1)", "bundle(4;1,0,2)"] * 3
    )
]


@pytest.mark.parametrize("seed,insertions", PLANE_CASES)
def test_plane_fans_validate_and_complete(seed, insertions):
    fan = random_plane_fan(seed, insertions)
    assert is_complete(fan)
    rng = random.Random(seed + 1000)
    for _ in range(50):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if any(v):
            assert direction_in_fan(fan, v)


@pytest.mark.parametrize("seed,name,insertions", SUBDIVIDED_CASES)
def test_subdivided_fans_validate(seed, name, insertions):
    fan = random_subdivided_fan(seed, name, insertions)
    assert is_complete(fan)
    # the two classification routes agree on irregular fans too
    degrees = [r.degree for r in primitive_relations(fan)]
    status = nef_ample_status(fan, anticanonical(fan))
    if all(d > 0 for d in degrees):
        assert status is NefAmpleStatus.AMPLE
    elif all(d >= 0 for d in degrees):
        assert status is NefAmpleStatus.NEF_NOT_AMPLE
    else:
        assert status is NefAmpleStatus.NOT_NEF


# Star subdivisions of the three benchmark bases, grown to 13-14 rays.
LARGE_SUBDIVIDED_CASES = [
    (seed, name, 14 - rays)
    for seed, (name, rays) in enumerate(
        [("X3_0", 6), ("W4_1", 7), ("bundle(4;1,0,2)", 6)] * 2
    )
] + [(6, "W4_1", 6), (7, "bundle(3;2,1)", 9)]


@pytest.mark.parametrize("seed,insertions", PLANE_CASES)
def test_plane_fan_collections_match_oracle(seed, insertions):
    fan = random_plane_fan(seed, insertions)
    assert primitive_collections(fan) == brute_collections(fan)


@pytest.mark.parametrize(
    "seed,name,insertions", SUBDIVIDED_CASES + LARGE_SUBDIVIDED_CASES
)
def test_subdivided_fan_collections_match_oracle(seed, name, insertions):
    fan = random_subdivided_fan(seed, name, insertions)
    assert len(fan.rays) <= 14
    assert primitive_collections(fan) == brute_collections(fan)


def test_collections_of_a_large_subdivision_are_minimal_non_faces():
    # 26 rays: far beyond subset enumeration, which would test 2^26 subsets
    fan = random_subdivided_fan(3, "X3_0", 20)
    cone_sets = fan.cone_sets

    def is_face(s):
        return any(s <= cs for cs in cone_sets)

    collections = primitive_collections(fan)
    assert collections
    for c in collections:
        assert len(c) <= fan.dimension + 1
        assert not is_face(c)
        assert all(is_face(c - {n}) for n in c)


def test_subdivided_fan_splittings_match_oracles():
    # A star subdivision of a maximal cone leaves a cone holding neither
    # ray of any old axis, so these fans have no splittings to check; the
    # 2-face subdivisions keep the axis they avoid.
    for seed, name, insertions in SUBDIVIDED_CASES:
        assert check_splittings_against_oracles(random_subdivided_fan(seed, name, insertions)) == 0
    kinds = set()
    for seed, name, insertions in SUBDIVIDED_CASES:
        fan = random_face_subdivided_fan(seed, name, insertions)
        assert check_splittings_against_oracles(fan)
        kinds |= {fiber_type(split).kind for split in find_splittings(fan)}
    assert kinds == {FiberKind.BUNDLE_OVER_P1, FiberKind.OTHER}


def test_star_equivalence_matches_frame_oracle_on_equators(corpus):
    fans = list(corpus.values()) + [
        random_face_subdivided_fan(seed, name, insertions)
        for seed, name, insertions in SUBDIVIDED_CASES
    ]
    equators = {split.equator for fan in fans for split in find_splittings(fan)}
    verdicts = set()
    for equator in equators:
        names = equator.ray_names()
        for a in names:
            for b in names:
                verdict = star_equivalent(equator, a, b)
                assert verdict == star_equivalent_by_frames(equator, a, b), (equator, a, b)
                verdicts.add((verdict, a == b))
    assert verdicts == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("seed,insertions", PLANE_CASES[:8])
def test_plane_fan_splittings_deform_cleanly(seed, insertions):
    fan = random_plane_fan(seed, insertions)
    for split in find_splittings(fan):
        kind = fiber_type(split)
        if kind.kind is FiberKind.OTHER:
            continue
        for k in range(3):
            if not endpoint_conditions(split, k):
                break
            end = endpoint(split, k)
            assert is_complete(end)
            if k == 0:
                assert fan_isomorphism(end, fan) is not None


@pytest.mark.parametrize("seed,insertions", PLANE_CASES[:6])
def test_isomorphism_found_after_random_relabeling(seed, insertions):
    fan = random_plane_fan(seed, insertions)
    rng = random.Random(seed + 7)
    carry = shear_map((rng.randint(-3, 3),)).compose(
        UnimodularMap(((0, 1), (1, 0)))
    )
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    renamed = [fan.rays[i] for i in order]
    moved = make_fan(
        2,
        [(f"m{i}", carry.apply(r.generator)) for i, r in enumerate(renamed)],
        [
            tuple(f"m{renamed.index(next(r for r in fan.rays if r.name == n))}" for n in c.ray_names)
            for c in fan.max_cones
        ],
    )
    assert fan_isomorphism(fan, moved) is not None


def test_different_blowup_counts_never_isomorphic():
    assert fan_isomorphism(random_plane_fan(0, 1), random_plane_fan(0, 2)) is None


@pytest.mark.parametrize(
    "maker",
    [
        lambda: random_plane_fan(3, 4),
        lambda: random_plane_fan(7, 5),
        lambda: random_subdivided_fan(1, "X3_0", 2),
        lambda: random_subdivided_fan(5, "bundle(3;2,1)", 3),
        lambda: random_subdivided_fan(2, "W4_1", 1),
    ],
)
def test_relation_roundtrip_on_irregular_fans(maker):
    from fanshear.fan import FormalRelation, fan_from_relations

    fan = maker()
    relations = [
        FormalRelation(r.collection, tuple((k, n) for n, k in r.support))
        for r in primitive_relations(fan)
    ]
    rebuilt = fan_from_relations(
        fan.dimension, fan.ray_names(), relations, fan.max_cones[0].ray_names
    )
    assert fan_isomorphism(rebuilt, fan) is not None


@pytest.mark.parametrize("seed", range(6))
def test_serialization_roundtrip_on_irregular_fans(seed):
    from fanshear.fileformats import parse_fan, serialize_fan

    fan = random_plane_fan(seed, seed % 4 + 2)
    assert parse_fan(serialize_fan(fan)) == fan
