"""Randomized corpus: star subdivisions of known fans.

Inserting the sum of a maximal smooth cone's rays (or of an adjacent ray
pair in the plane) keeps the fan smooth and complete, so repeated random
insertions generate a supply of irregular fans for cross-checking the
validators, the two Fano criteria, and the shear machinery.
"""

import functools
import random
import time
from collections import Counter
from itertools import combinations, islice, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    axes_by_pair_scan,
    brute_collections,
    candidate_cones_by_combinations,
    carries_cones,
    check_certified,
    check_splittings_against_oracles,
    direction_in_fan,
    face_walk_collections,
    catalog_names,
    fan_from_relations_by_every_candidate,
    fan_isomorphism_by_frames,
    fiber_type_on_equator,
    find_splittings_in_one_pass,
    fourier_motzkin_calls,
    nef_ample_status_by_names,
    pairwise_glued,
    relabelled_image,
    solve_fibration_functional,
    star_equivalent_by_frames,
)

from fanshear import builtin, lattice
from fanshear import deform as deform_module
from fanshear import fan as fan_module
from fanshear.deform import (
    FiberKind,
    _complementary_pairs,
    _equator,
    _fiber_of,
    _fibration_functional,
    _first_deformable,
    _is_axis,
    _splittings,
    endpoint,
    endpoint_conditions,
    fiber_type,
    find_splittings,
    shear_lower,
    split_with_frame,
    star_equivalent,
)
from fanshear.divisor import NefAmpleStatus, anticanonical, classify_fano, nef_ample_status
from fanshear.errors import FanError, InconsistentRelations, UnderdeterminedRelations
from fanshear.fan import (
    Fan,
    FormalRelation,
    _candidate_cones,
    _ray_colours,
    _ray_signatures,
    fan_from_relations,
    fan_isomorphism,
    is_complete,
    make_fan,
    primitive_collections,
    primitive_relation,
    primitive_relations,
)
from fanshear.lattice import UnimodularMap, shear_map
from fanshear.scroll import BundleSpec, bundle_fan


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


def test_checking_a_subdivided_fan_builds_no_name_tables():
    # make_fan finds duplicate cones on the cone masks and generator reads
    # the ray tuple, so check builds no frozenset per cone and no second
    # table from names to generators
    fan = random_subdivided_fan(0, "W4_1", 9)
    assert len(fan.rays) == 16
    assert is_complete(fan)
    classify_fano(fan)
    primitive_relations(fan)
    assert not {"cone_sets", "_gen_by_name"} & set(vars(fan))


# Star subdivisions of the three benchmark bases, grown to 13-14 rays.
LARGE_SUBDIVIDED_CASES = [
    (seed, name, 14 - rays)
    for seed, (name, rays) in enumerate(
        [("X3_0", 6), ("W4_1", 7), ("bundle(4;1,0,2)", 6)] * 2
    )
] + [(6, "W4_1", 6), (7, "bundle(3;2,1)", 9)]


def test_random_complete_fans_are_certified_without_fourier_motzkin():
    with fourier_motzkin_calls() as calls:
        fans = [random_plane_fan(seed, insertions) for seed, insertions in PLANE_CASES]
        fans += [
            random_subdivided_fan(seed, name, insertions)
            for seed, name, insertions in SUBDIVIDED_CASES + LARGE_SUBDIVIDED_CASES
        ] + [
            random_face_subdivided_fan(seed, name, insertions)
            for seed, name, insertions in SUBDIVIDED_CASES
        ]
    assert not calls
    for fan in fans:
        check_certified(fan)


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


def test_collections_match_the_face_walk_on_subdivisions():
    fans = [
        random_subdivided_fan(seed, name, insertions)
        for seed, name, insertions in SUBDIVIDED_CASES + LARGE_SUBDIVIDED_CASES
    ] + [
        random_face_subdivided_fan(seed, name, insertions)
        for seed, name, insertions in SUBDIVIDED_CASES
    ] + [random_plane_fan(seed, insertions) for seed, insertions in PLANE_CASES]
    # beyond subset enumeration: 26 and 43 rays
    fans += [random_subdivided_fan(3, "X3_0", 20), random_subdivided_fan(4, "W4_1", 36),
             random_face_subdivided_fan(5, "W4_1", 36)]
    for fan in fans:
        assert primitive_collections(fan) == face_walk_collections(fan)
    assert max(len(fan.rays) for fan in fans) == 43


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


def test_membership_matches_the_collection_list(corpus):
    # each collection, each with one ray removed or added, and every pair
    fans = [*corpus.values(), *(random_subdivided_fan(*case) for case in SUBDIVIDED_CASES)]
    for fan in fans:
        names = fan.ray_names()
        collections = primitive_collections(fan)
        queries = [frozenset(pair) for pair in combinations(names, 2)]
        for c in collections:
            queries += [c, *(c - {n} for n in c), *(c | {n} for n in names if n not in c)]
        for query in queries:
            assert fan_module._is_collection(fan, query) == (query in collections)


def test_an_incomplete_fan_tests_each_cone_pair_once():
    # every other cone of a star subdivision, without the rays left
    # dangling: no certificate, so each pair of cones gets one direction
    # of the Fourier-Motzkin test, with the two-direction oracle's verdict
    for insertions in (10, 40):
        fan = random_subdivided_fan(0, "W4_1", insertions)
        cones = fan.max_cones[::2]
        used = {n for cone in cones for n in cone.ray_names}
        with fourier_motzkin_calls() as calls:
            half = make_fan(fan.dimension, [r for r in fan.rays if r.name in used], cones)
        assert not is_complete(half)
        assert len(calls) <= len(cones) * (len(cones) - 1) // 2
        assert pairwise_glued(half)


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


def test_per_axis_searches_assemble_the_one_pass_splittings_on_subdivisions():
    for seed, name, insertions in SUBDIVIDED_CASES:
        for fan in (random_subdivided_fan(seed, name, insertions),
                    random_face_subdivided_fan(seed, name, insertions)):
            assert find_splittings(fan) == find_splittings_in_one_pass(fan)


def test_a_large_face_subdivision_tests_one_axis(
    monkeypatch, built_splittings, drawn_splittings
):
    # 127 rays and 7382 two-element collections: the cone masks reject all
    # but the one axis, and each of its two orientations reads one
    # functional and draws one splitting, which computes no base fan
    functionals = []
    real_functional = deform_module._fibration_functional
    monkeypatch.setattr(
        deform_module, "_fibration_functional",
        lambda *a: functionals.append(a[1:]) or real_functional(*a),
    )
    fan = random_face_subdivided_fan(1, "W4_1", 120)
    functionals.clear()
    drawn_splittings.clear()
    assert len(fan.rays) == 127
    assert sum(len(c) == 2 for c in primitive_collections(fan)) == 7382
    assert find_splittings(fan)
    assert len(functionals) <= 2 and len(drawn_splittings) <= 2 and built_splittings == []


def test_axis_test_rejects_a_cone_off_the_axis_without_a_functional(monkeypatch):
    # These star subdivisions leave, for every 2-element collection, a cone
    # holding neither of its rays, so the cone masks reject every
    # orientation before a functional is read.
    functionals = []
    real = deform_module._fibration_functional
    monkeypatch.setattr(
        deform_module, "_fibration_functional",
        lambda fan, up, down: functionals.append((up, down)) or real(fan, up, down),
    )
    for seed, name, insertions in SUBDIVIDED_CASES:
        fan = random_subdivided_fan(seed, name, insertions)
        assert any(len(c) == 2 for c in primitive_collections(fan))
        assert find_splittings(fan) == ()
    assert functionals == []


def test_splittings_compute_no_relation_for_a_rejected_axis(monkeypatch):
    # A relation is read only for an orientation that passes the axis test;
    # this star subdivision has 54 two-element collections and no axis.
    computed = []
    real = fan_module._relation
    monkeypatch.setattr(
        fan_module, "_relation", lambda fan, fs: computed.append(fs) or real(fan, fs)
    )
    fan = random_subdivided_fan(0, "W4_1", 8)
    assert sum(len(c) == 2 for c in primitive_collections(fan)) == 54
    assert find_splittings(fan) == ()
    assert computed == []


def test_equator_axes_read_off_the_input_fan_match_the_equator(corpus):
    # _is_axis over a splitting's axis decides, on the input fan, every
    # ordered pair of equator rays as _is_axis decides it on the built equator
    fans = list(corpus.values()) + [
        bundle_fan(BundleSpec(twists))
        for d in range(2, 7) for twists in product(range(3), repeat=d - 1)
    ]
    for seed, name, insertions in SUBDIVIDED_CASES:
        fans += [random_subdivided_fan(seed, name, insertions),
                 random_face_subdivided_fan(seed, name, insertions)]
    pairs = axes = 0
    for fan in fans:
        for split in find_splittings(fan):
            outer = split.upper_names + split.lower_names
            for p, q in permutations(split.equator.ray_names(), 2):
                on_fan = _is_axis(fan, p, q, outer)
                assert on_fan == _is_axis(split.equator, p, q), (fan, split, p, q)
                pairs += 1
                axes += on_fan
    assert (pairs, axes) == (22836, 308)


def corpus_and_random_fans(corpus):
    """The 126 fans of the differential tests: the corpus, the plane fans and
    both kinds of subdivision of every SUBDIVIDED_CASES entry."""
    fans = [*corpus.values(), *(random_plane_fan(seed, n) for seed, n in PLANE_CASES)]
    for seed, name, insertions in SUBDIVIDED_CASES:
        fans += [random_subdivided_fan(seed, name, insertions),
                 random_face_subdivided_fan(seed, name, insertions)]
    return fans


def test_carried_fiber_types_match_the_equator_oracle(corpus):
    # the fiber type a splitting carries, decided on the input fan, against
    # the axis test on its built equator: every find_splittings splitting
    # (whose designation decided it, as _fiber_of also decides it), and
    # split_with_frame on every oriented axis, every equator cone with each of
    # its rays as pivot, and each available partner or none
    fans = corpus_and_random_fans(corpus)
    found, framed, kinds = 0, 0, Counter()
    for fan in fans:
        splittings = find_splittings(fan)
        for split in splittings:
            axis = split.upper_names + split.lower_names
            assert split.fiber == fiber_type_on_equator(split) == _fiber_of(
                fan, axis, split.pivot_name, split.rest_names
            ), split
            found += 1
        for up, down in dict.fromkeys(s.upper_names + s.lower_names for s in splittings):
            eq_names, eq_cone_sets = _equator(fan, (up, down))
            for cone in eq_cone_sets:
                tau = fan.sort_names(cone)
                for pivot in tau:
                    basis = (pivot, *(n for n in tau if n != pivot))
                    for partner in (None, *(n for n in eq_names if n not in cone)):
                        split = split_with_frame(fan, up, down, basis, partner)
                        assert split.fiber == fiber_type_on_equator(split), split
                        framed += 1
                        kinds[split.fiber.kind] += 1
    assert len(fans) == 126
    assert (found, framed) == (262, 7564)
    assert kinds == {FiberKind.PROJECTIVE_SPACE: 2376, FiberKind.BUNDLE_OVER_P1: 448,
                     FiberKind.OTHER: 4740}


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


def test_the_lazy_search_stops_at_the_first_deformable_splitting(corpus):
    # every catalog and bundle fan, plane fans and both kinds of subdivision
    chosen = set()
    for fan in corpus_and_random_fans(corpus):
        splittings = find_splittings(fan)
        for k in (0, 1, 2):
            first = next((
                (i, split) for i, split in enumerate(splittings)
                if fiber_type(split).kind is not FiberKind.OTHER and endpoint_conditions(split, k)
            ), None)
            assert _first_deformable(_splittings(fan), k) == first
            chosen.add(first and first[0])
    assert {None, 0} < chosen  # some fans have no deformable splitting, some skip one


def test_candidates_decide_as_the_splittings_built_from_them(corpus):
    # the fiber and the conditions, read off the input fan before the base
    # fan is computed, against the base fan and the equator oracle
    decided = 0
    for fan in corpus_and_random_fans(corpus):
        for split in _splittings(fan):
            fiber, (first, last) = fiber_type(split), split.lower_ends
            conditions = {k: endpoint_conditions(split, k) for k in (0, 1, 2, 5)}
            assert not {"fan", "to_normal_form"} & set(vars(split))
            lower = split.fan.generator(split.lower_names[0])
            assert (first, last) == (lower[0], lower[-1])
            assert fiber == fiber_type_on_equator(split)
            for k, report in conditions.items():
                assert report.satisfied == (k * lower[-1] + lower[0] >= 0)
            decided += 1
    assert decided == 262


def test_complementary_stars_find_the_axes_of_the_pair_scan(corpus):
    # the axes of each fan, and of each of its equators, against _is_axis on
    # every ordered pair of rays
    axes = equator_axes = 0
    for fan in corpus_and_random_fans(corpus):
        names, stars = fan.ray_names(), fan._cones_of_ray
        full = (1 << len(fan.max_cones)) - 1
        assert list(_complementary_pairs(fan, names)) == [
            (x, y) for x, y in combinations(names, 2)
            if not stars[x] & stars[y] and stars[x] | stars[y] == full
        ]
        found = [
            (up, down) for x, y in _complementary_pairs(fan, names)
            for up, down in ((x, y), (y, x)) if _is_axis(fan, up, down)
        ]
        assert found == axes_by_pair_scan(fan, names)
        axes += len(found)
        for up, down in found:
            eq_names, _ = _equator(fan, (up, down))
            on_equator = [
                (p, q) for x, y in _complementary_pairs(fan, eq_names)
                for p, q in ((x, y), (y, x)) if _is_axis(fan, p, q, (up, down))
            ]
            assert on_equator == axes_by_pair_scan(fan, eq_names, (up, down))
            equator_axes += len(on_equator)
    assert (axes, equator_axes) == (216, 164)


def test_each_unordered_axis_is_decided_once_for_both_orientations(corpus, monkeypatch):
    # find_splittings computes the fibration functional at most once per
    # unordered complementary pair of the fan and of each axis's equator,
    # and an axis's (y, x) splittings repeat its (x, y) frames in order
    computed = Counter()
    real = deform_module._fibration_functional

    def counted(fan, up, down, outer=()):
        computed[frozenset((up, down)), frozenset(outer)] += 1
        return real(fan, up, down, outer)

    monkeypatch.setattr(deform_module, "_fibration_functional", counted)
    axes = 0
    for fan in corpus_and_random_fans(corpus):
        computed.clear()
        splittings = find_splittings(fan)
        pairs = {frozenset(p) for p in _complementary_pairs(fan, fan.ray_names())}
        by_axis = {}
        for split in splittings:
            by_axis.setdefault(frozenset(split.upper_names + split.lower_names), []).append(split)
        for (pair, outer), times in computed.items():
            assert times == 1, (fan, pair, outer)
            if outer:
                assert outer in by_axis, (fan, outer)
                eq_names = [n for n in fan.ray_names() if n not in outer]
                assert pair in {frozenset(p) for p in _complementary_pairs(fan, eq_names)}
            else:
                assert pair in pairs, (fan, pair)
        for axis, splits in by_axis.items():
            x, y = fan.sort_names(axis)
            half = len(splits) // 2
            assert [(s.upper_names, s.lower_names) for s in splits] == (
                [((x,), (y,))] * half + [((y,), (x,))] * half
            )
            frames = [(s.basis_names, s.rest_names) for s in splits]
            assert frames[:half] == frames[half:], (fan, axis)
            axes += 1
    assert axes == 108


def shear_vector(split, k):
    """endpoint's shear vector for k; with no partner, its coordinates count as 0."""
    partner = split.fan.generator(split.partner_name) if split.partner_name else (0,) * split.dimension
    return (2 * k, *(-k * partner[j] for j in range(1, split.dimension - 1)))


def test_sheared_fans_are_make_fans_with_the_complex_found_afresh(corpus, monkeypatch):
    # every splitting, k = 0, 1, 2: the directly built fan is make_fan's, and
    # its collections and relations are those MMCS and the walks find on a
    # copy that has found nothing; the endpoint of a fan whose relations are
    # known solves one relation, that of the axis
    walks = []
    real_walk = fan_module._walk_to_sum
    monkeypatch.setattr(
        fan_module, "_walk_to_sum", lambda f, members, total: walks.append(
            frozenset(f.rays[i].name for i in members)
        ) or real_walk(f, members, total)
    )
    sheared = inherited = 0
    for fan in corpus_and_random_fans(corpus):
        unread = Fan(fan.dimension, fan.rays, fan.max_cones)  # nothing found yet
        relations = primitive_relations(fan)
        for source in (fan, unread):
            for split in find_splittings(source):
                up, down = split.upper_names[0], split.lower_names[0]
                for k in (0, 1, 2):
                    end = shear_lower(split, shear_vector(split, k))
                    assert make_fan(end.dimension, end.rays, end.max_cones) == end
                    if source is fan:
                        assert len(end.__dict__["_relations"]) == len(relations) - 1
                        walks.clear()
                    fresh = Fan(end.dimension, end.rays, end.max_cones)
                    got = primitive_relations(end), primitive_collections(end)
                    if source is fan:
                        assert walks == [{up, end.rays[fan._order[down]].name}]
                        inherited += 1
                    assert got == (primitive_relations(fresh), primitive_collections(fresh))
                    sheared += 1
    assert (sheared, inherited) == (1572, 786)


@functools.cache
def nef_fans():
    """The catalog fans, plane fans and star subdivisions."""
    return (
        [builtin(name) for name in catalog_names()]
        + [random_plane_fan(seed, n) for seed, n in PLANE_CASES]
        + [random_subdivided_fan(*case) for case in SUBDIVIDED_CASES]
    )


@settings(max_examples=300, deadline=2000)
@given(st.data())
def test_nef_index_scan_matches_the_scan_by_names(data):
    # a random divisor, or the anticanonical one, plus a random principal
    # divisor, which keeps the status
    fans = nef_fans()
    fan = fans[data.draw(st.integers(0, len(fans) - 1))]
    if data.draw(st.booleans()):
        base = {n: data.draw(st.integers(-3, 3)) for n in fan.ray_names()}
    else:
        base = anticanonical(fan)
    m = [data.draw(st.integers(-2, 2)) for _ in range(fan.dimension)]
    divisor = {n: c + lattice.dot(m, fan.generator(n)) for n, c in base.items()}
    assert nef_ample_status(fan, divisor) == nef_ample_status_by_names(fan, divisor)


def test_nef_fans_have_anticanonical_divisors_of_every_status():
    # so the anticanonical draws above, whose status a principal divisor
    # keeps, reach all three statuses
    assert {nef_ample_status(fan, anticanonical(fan)) for fan in nef_fans()} == set(NefAmpleStatus)


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


def test_isomorphism_matches_frame_oracle_on_subdivisions():
    fans = [
        maker(seed, name, insertions)
        for maker in (random_subdivided_fan, random_face_subdivided_fan)
        for seed, name, insertions in SUBDIVIDED_CASES
    ]
    for seed, fan in enumerate(fans):
        moved = relabelled_image(fan, seed)
        iso = fan_isomorphism(fan, moved)
        assert iso is not None and carries_cones(iso, fan, moved)
        assert iso == fan_isomorphism_by_frames(fan, moved)
        colours, moved_colours = _ray_colours(fan, moved)
        name_of = {r.generator: r.name for r in moved.rays}
        for r in fan.rays:
            assert colours[r.name] == moved_colours[name_of[iso.apply(r.generator)]]
    compared = 0
    for f1, f2 in combinations(fans, 2):
        if (f1.dimension, len(f1.rays), len(f1.max_cones)) == (
            f2.dimension, len(f2.rays), len(f2.max_cones)
        ):
            assert fan_isomorphism(f1, f2) == fan_isomorphism_by_frames(f1, f2)
            compared += 1
    assert compared


def test_refinement_rejects_plane_fans_whose_first_colours_agree():
    # 11 rays each with equal star sizes and wall labels, so only refining
    # over neighbours tells the two cycles apart
    f1, f2 = random_plane_fan(2, 7), random_plane_fan(2755, 7)
    assert sorted(_ray_signatures(f1)) == sorted(_ray_signatures(f2))
    assert _ray_colours(f1, f2) is None
    assert fan_isomorphism(f1, f2) is None
    assert fan_isomorphism_by_frames(f1, f2) is None


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


def test_fibration_functional_matches_the_full_solve(corpus):
    fans = list(corpus.values()) + [
        make(seed, name, insertions)
        for make in (random_subdivided_fan, random_face_subdivided_fan)
        for seed, name, insertions in SUBDIVIDED_CASES
    ]
    found = checked = 0
    for fan in fans:
        for collection in primitive_collections(fan):
            if len(collection) != 2:
                continue
            x, y = fan.sort_names(collection)
            for up, down in ((x, y), (y, x)):
                h = _fibration_functional(fan, up, down)
                assert h == solve_fibration_functional(fan, up, down), (fan, up, down)
                found += h is not None
                checked += 1
    assert 0 < found < checked


def _corpus_and_subdivisions(corpus):
    return list(corpus.values()) + [
        random_subdivided_fan(seed, name, insertions)
        for seed, name, insertions in SUBDIVIDED_CASES
    ]


def test_pivoted_inverses_match_per_cone_elimination(corpus, monkeypatch):
    eliminations = []
    real = lattice.unimodular_inverse
    monkeypatch.setattr(
        lattice, "unimodular_inverse", lambda columns: eliminations.append(1) or real(columns)
    )
    for fan in _corpus_and_subdivisions(corpus):
        eliminations.clear()
        rebuilt = make_fan(fan.dimension, fan.rays, fan.max_cones)
        assert len(eliminations) == 1
        for cone, inverse in zip(fan.max_cones, rebuilt._inverses):
            assert inverse == real([fan.generator(n) for n in cone.ray_names])


def _positive_coordinates(fan, found):
    # found is (cone index, coordinates in that cone's ray order)
    cone, coords = found
    return {n: c for n, c in zip(fan.max_cones[cone].ray_names, coords) if c > 0}


def _relation_by_scan(fan, collection):
    total = tuple(map(sum, zip(*(fan.generator(n) for n in collection))))
    return _positive_coordinates(fan, fan_module._scan_for_sum(fan, total))


def test_relation_walk_matches_the_linear_scan(corpus, monkeypatch):
    fans = _corpus_and_subdivisions(corpus) + [
        random_face_subdivided_fan(seed, name, insertions)
        for seed, name, insertions in SUBDIVIDED_CASES
    ]
    walked = []
    for fan in fans:
        for collection in primitive_collections(fan):
            total = tuple(map(sum, zip(*(fan.generator(n) for n in collection))))
            members = sorted(fan._order[n] for n in collection)
            found = fan_module._walk_to_sum(fan, members, total)
            assert found is not None  # the walk never gives up on these fans
            assert _positive_coordinates(fan, found) == _relation_by_scan(fan, collection)
            walked.append(primitive_relation(fan, collection))
    # with the walk forced to give up, the scan alone yields the same relations
    monkeypatch.setattr(fan_module, "_walk_to_sum", lambda fan, members, total: None)
    scanned = [
        primitive_relation(rebuilt, collection)
        for fan in fans
        for rebuilt in [make_fan(fan.dimension, fan.rays, fan.max_cones)]
        for collection in primitive_collections(rebuilt)
    ]
    assert scanned == walked


def test_relation_walk_gives_up_at_the_boundary_of_a_half_fan():
    # The upper half-plane.  The point (2, -1) lies below it: from the
    # cone (x, w) the walk would cross the boundary facet x.
    fan = make_fan(
        2,
        [("x", (1, 0)), ("w", (1, 1)), ("y", (0, 1)), ("u", (-1, 1)), ("z", (-1, 0))],
        [("x", "w"), ("w", "y"), ("y", "u"), ("u", "z")],
    )
    for collection in primitive_collections(fan):
        support = _relation_by_scan(fan, collection)
        assert primitive_relation(fan, collection).support == tuple(
            (n, support[n]) for n in fan.sort_names(support)
        )
    assert fan_module._walk_to_sum(fan, [fan._order["w"]], (2, -1)) is None


def test_candidate_cones_follow_combinations_order(corpus):
    fans = list(corpus.values()) + [
        random_plane_fan(seed, insertions) for seed, insertions in PLANE_CASES
    ] + [
        random_subdivided_fan(seed, name, insertions)
        for seed, name, insertions in SUBDIVIDED_CASES + LARGE_SUBDIVIDED_CASES
    ] + [
        random_face_subdivided_fan(seed, name, insertions)
        for seed, name, insertions in SUBDIVIDED_CASES
    ]
    for fan in fans:
        names = fan.ray_names()
        collections = primitive_collections(fan)
        for used in (collections, collections[:2], collections[1::2], ()):
            assert list(_candidate_cones(names, fan.dimension, used)) == (
                candidate_cones_by_combinations(names, fan.dimension, used)
            )


def test_candidate_cones_edge_cases():
    names = [f"g{i}" for i in range(24)]
    assert list(_candidate_cones(names[:3], 4, [])) == []
    assert list(_candidate_cones(names[:3], 2, [frozenset()])) == []
    assert list(_candidate_cones(names[:3], 0, [])) == [()]
    # lazy: the first of C(24, 12) candidates comes without walking the rest
    start = time.process_time()
    first = islice(_candidate_cones(names, 12, [frozenset({"g0", "g23"})]), 1)
    assert list(first) == [tuple(names[:12])]
    assert time.process_time() - start < 0.5


def _presentation(fan):
    return [
        FormalRelation(r.collection, tuple((k, n) for n, k in r.support))
        for r in primitive_relations(fan)
    ]


def test_relation_roundtrip_at_42_rays(monkeypatch, solves):
    # 738 relations: the scale at which scanning every 4-subset took seconds;
    # 4653 relations: the scale at which carrying a transform took a minute
    widths = []
    real = lattice._echelon
    monkeypatch.setattr(
        lattice, "_echelon", lambda rows, n: widths.append(max(map(len, rows), default=0))
        or real(rows, n)
    )
    for fan, size in ((random_subdivided_fan(3, "W4_1", 35), (42, 738)),
                      (random_subdivided_fan(3, "W4_1", 93), (100, 4653))):
        relations = _presentation(fan)
        assert (len(fan.rays), len(relations)) == size
        for basis in (fan.max_cones[0].ray_names, None):
            widths.clear()
            solves.clear()
            rebuilt = fan_from_relations(fan.dimension, fan.ray_names(), relations, basis)
            assert len(solves) == 1
            assert max(widths) <= len(fan.rays)
            assert fan_isomorphism(rebuilt, fan) is not None


def _error_of(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", ["X3_0", "W4_1", "hirzebruch(2)", "W4_5"])
def test_short_presentations_raise_the_first_candidates_error(corpus, name, solves):
    # fewer relations than generators outside a basis: every candidate fails,
    # and the first one's error is raised after its one solve
    fan = corpus[name]
    relations = _presentation(fan)
    names = fan.ray_names()
    unknowns = len(names) - fan.dimension
    # the last: as many relations as unknowns, of rank one
    for kept in (relations[:unknowns - 1], relations[1:unknowns], [], relations[:1] * unknowns):
        collections = [frozenset(r.lhs) for r in kept]
        errors = [
            _error_of(lambda: fan_module._solve_presentation(
                fan.dimension, names, fan_module._relation_matrix(names, kept), collections,
                candidate))
            for candidate in _candidate_cones(names, fan.dimension, collections)
        ]
        assert errors and None not in errors
        solves.clear()
        assert _error_of(lambda: fan_from_relations(fan.dimension, names, kept)) == errors[0]
        assert solves == [next(_candidate_cones(names, fan.dimension, collections))]


def test_repeated_relations_below_full_rank_solve_one_candidate(solves):
    # eight copies of one relation reach the count of generators outside a
    # basis, but not its rank: no candidate's unknowns can be pinned
    names = [f"g{i}" for i in range(16)]
    relations = [FormalRelation(("g0", "g1"), ())] * 8
    with pytest.raises(UnderdeterminedRelations) as error:
        fan_from_relations(8, names, relations)
    assert str(error.value) == (
        f"generators {['g1', *names[9:]]} are not pinned down by the relations"
    )
    assert solves == [("g0", *names[2:9])]


def test_a_contradictory_relation_fails_after_one_solve(solves):
    # one bumped coefficient among 403 relations on 32 rays: every candidate
    # basis meets the contradiction, and only the first is solved
    fan = random_subdivided_fan(0, "W4_1", 25)
    relations = _presentation(fan)
    bumped = relations[len(relations) // 2]
    (k, n), *rest = bumped.rhs
    relations[len(relations) // 2] = FormalRelation(bumped.lhs, ((k + 1, n), *rest))
    assert (len(fan.rays), len(relations)) == (32, 403)
    solves.clear()  # building the fan solved W4_1's presentation
    with pytest.raises(InconsistentRelations) as error:
        fan_from_relations(fan.dimension, fan.ray_names(), relations)
    assert str(error.value) == "inconsistent linear system"
    assert len(solves) == 1


def _mutated_presentations(fan, seed):
    """The fan's presentation, in input and reversed generator order, and
    twelve seeded mutations of it: a coefficient bumped, a relation dropped
    or repeated, a right-hand side name swapped, relations reordered."""
    rng = random.Random(seed)
    names = list(fan.ray_names())
    relations = _presentation(fan)
    yield names, relations
    yield names[::-1], relations[::-1]
    for _ in range(12):
        mutated = list(relations)
        i = rng.randrange(len(mutated))
        lhs, rhs = mutated[i].lhs, list(mutated[i].rhs)
        kind = rng.choice(["bump", "drop", "repeat", "rename", "shuffle"])
        if kind == "bump" and rhs:
            j = rng.randrange(len(rhs))
            rhs[j] = (rhs[j][0] + rng.choice((-1, 1)), rhs[j][1])
            mutated[i] = FormalRelation(lhs, tuple(rhs))
        elif kind == "drop":
            del mutated[i]
        elif kind == "repeat":
            mutated.append(mutated[i])
        elif kind == "rename" and rhs:
            j = rng.randrange(len(rhs))
            rhs[j] = (rhs[j][0], rng.choice(names))
            mutated[i] = FormalRelation(lhs, tuple(rhs))
        else:
            rng.shuffle(mutated)
        yield (names[::-1] if rng.random() < 0.5 else names), mutated


def test_one_solve_decides_as_the_loop_over_every_candidate(corpus, solves):
    # the first candidate basis yields a fan exactly when some candidate does,
    # and then the same fan: both succeed with equal fans or both fail
    outcomes = Counter()
    for seed, fan in enumerate(corpus_and_random_fans(corpus)):
        for names, relations in _mutated_presentations(fan, seed):
            try:
                expected = fan_from_relations_by_every_candidate(
                    fan.dimension, names, relations
                )
            except FanError:
                expected = None
            solves.clear()
            try:
                got = fan_from_relations(fan.dimension, names, relations)
            except FanError:
                got = None
            assert len(solves) <= 1
            assert got == expected, (names, relations)
            outcomes[got is not None] += 1
    assert outcomes == {True: 1303, False: 461}
