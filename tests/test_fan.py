import gc
import random
import weakref

import pytest

from conftest import (
    brute_collections,
    direction_in_fan,
    fan_isomorphism_by_frames,
    fraction_rank,
)

from fanshear import builtin, lattice
from fanshear.deform import find_splittings, star_equivalent
from fanshear.divisor import class_group, classify_fano
from fanshear.errors import (
    BadFaceStructure,
    DanglingRay,
    DimensionMismatch,
    InconsistentRelations,
    NoContainingCone,
    NonPrimitiveRay,
    NotAPrimitiveCollection,
    SingularCone,
    UnderdeterminedRelations,
)
from fanshear.fan import (
    FormalRelation,
    fan_from_relations,
    fan_isomorphism,
    is_complete,
    make_fan,
    primitive_collections,
    primitive_relation,
    primitive_relations,
)
from fanshear.lattice import UnimodularMap, shear_map


def p1_fan():
    return make_fan(1, [("e1", (1,)), ("a1", (-1,))], [("e1",), ("a1",)])


def p2_fan():
    return make_fan(
        2,
        [("e1", (1, 0)), ("e2", (0, 1)), ("a1", (-1, -1))],
        [("e1", "e2"), ("e2", "a1"), ("a1", "e1")],
    )


def hirzebruch_fan(a):
    return make_fan(
        2,
        [("e1", (1, 0)), ("a1", (-1, 0)), ("b1", (0, 1)), ("c1", (a, -1))],
        [("e1", "b1"), ("b1", "a1"), ("a1", "c1"), ("c1", "e1")],
    )


# --- construction and validation -------------------------------------------

def test_p1_is_valid():
    fan = p1_fan()
    assert fan.dimension == 1
    assert len(fan.max_cones) == 2


def test_f1_from_explicit_rays():
    fan = make_fan(
        2,
        [("e1", (1, 0)), ("b1", (0, 1)), ("a1", (-1, 0)), ("c1", (1, -1))],
        [("e1", "b1"), ("b1", "a1"), ("a1", "c1"), ("c1", "e1")],
    )
    assert is_complete(fan)
    rels = {r.collection: dict(r.support) for r in primitive_relations(fan)}
    assert rels[("b1", "c1")] == {"e1": 1}
    assert rels[("e1", "a1")] == {}


def test_non_primitive_ray_rejected():
    with pytest.raises(NonPrimitiveRay):
        make_fan(2, [("x", (2, 0)), ("y", (0, 1))], [("x", "y")])


def test_singular_cone_rejected():
    with pytest.raises(SingularCone):
        make_fan(2, [("x", (1, 0)), ("y", (1, 2))], [("x", "y")])


def test_overlapping_cones_rejected():
    with pytest.raises(BadFaceStructure):
        make_fan(
            2,
            [("x", (1, 0)), ("y", (0, 1)), ("z", (1, 1))],
            [("x", "y"), ("x", "z")],
        )


def test_bad_gluing_without_shared_rays_rejected():
    # both cones are unimodular but their interiors overlap around (0, 1)
    with pytest.raises(BadFaceStructure):
        make_fan(
            2,
            [("x", (1, 0)), ("y", (0, 1)), ("u", (1, 1)), ("v", (-1, 0))],
            [("x", "y"), ("u", "v")],
        )


def test_dangling_ray_rejected():
    with pytest.raises(DanglingRay):
        make_fan(2, [("x", (1, 0)), ("y", (0, 1)), ("z", (-1, 0))], [("x", "y")])


def test_duplicate_generator_rejected():
    with pytest.raises(BadFaceStructure):
        make_fan(2, [("x", (1, 0)), ("y", (1, 0)), ("z", (0, 1))], [("x", "z"), ("y", "z")])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        make_fan(2, [("x", (1, 0, 0)), ("y", (0, 1, 0))], [("x", "y")])


# --- completeness -----------------------------------------------------------

def test_p1_complete():
    assert is_complete(p1_fan())


def test_single_cone_not_complete():
    fan = make_fan(2, [("x", (1, 0)), ("y", (0, 1))], [("x", "y")])
    assert not is_complete(fan)


def test_x30_complete():
    assert is_complete(builtin("X3_0"))


def test_half_fan_not_complete():
    fan = make_fan(
        2,
        [("e1", (1, 0)), ("a1", (-1, 0)), ("b1", (0, 1))],
        [("e1", "b1"), ("b1", "a1")],
    )
    assert not is_complete(fan)
    assert not direction_in_fan(fan, (0, -1))


# --- primitive collections and relations ------------------------------------

def test_p2_collections():
    fan = p2_fan()
    assert primitive_collections(fan) == (frozenset({"e1", "e2", "a1"}),)


@pytest.mark.parametrize("a", [0, 1, 2, 3])
def test_hirzebruch_collections(a):
    fan = hirzebruch_fan(a)
    got = set(primitive_collections(fan))
    assert got == {frozenset({"e1", "a1"}), frozenset({"b1", "c1"})}
    assert primitive_collections(fan) == brute_collections(fan)


def test_x30_collections():
    fan = builtin("X3_0")
    got = set(primitive_collections(fan))
    assert got == {
        frozenset({"e1", "a1"}),
        frozenset({"e2", "a2"}),
        frozenset({"b1", "c1"}),
    }
    assert primitive_collections(fan) == brute_collections(fan)


def test_collections_match_oracle_on_corpus(corpus):
    for name, fan in corpus.items():
        assert primitive_collections(fan) == brute_collections(fan), name


def half_fans():
    """Incomplete fans: a plane half-fan, one cone, and X3_0's two halves."""
    plane = make_fan(
        2,
        [("e1", (1, 0)), ("a1", (-1, 0)), ("b1", (0, 1))],
        [("e1", "b1"), ("b1", "a1")],
    )
    cone = make_fan(3, [("x", (1, 0, 0)), ("y", (0, 1, 0)), ("z", (0, 0, 1))], [("x", "y", "z")])
    split = find_splittings(builtin("X3_0"))[0]
    return [plane, cone, split.upper, split.lower]


def test_collections_match_oracle_on_half_fans():
    for fan in half_fans():
        assert not is_complete(fan)
        assert primitive_collections(fan) == brute_collections(fan)


def test_spans_cone_matches_subset_test(corpus):
    rng = random.Random(11)
    for fan in list(corpus.values()) + half_fans():
        names = fan.ray_names()
        for _ in range(40):
            subset = set(rng.sample(names, rng.randint(0, len(names))))
            expected = any(subset <= cs for cs in fan.cone_sets)
            assert fan.spans_cone(subset) is expected
        assert not fan.spans_cone({names[0], "no-such-ray"})


def test_per_fan_caches_do_not_keep_the_fan_alive():
    fan = make_fan(
        2,
        [("e1", (1, 0)), ("a1", (-1, 0)), ("b1", (0, 1)), ("c1", (2, -1))],
        [("e1", "b1"), ("b1", "a1"), ("a1", "c1"), ("c1", "e1")],
    )
    assert is_complete(fan)
    assert len(primitive_collections(fan)) == 2
    assert class_group(fan).picard_rank == 2
    assert classify_fano(fan).relation_degrees == (2, 0)
    ref = weakref.ref(fan)
    del fan
    gc.collect()
    assert ref() is None


def test_x30_relations():
    fan = builtin("X3_0")
    rel = primitive_relation(fan, {"b1", "c1"})
    assert dict(rel.support) == {"e1": 2}
    assert rel.degree == 0
    rel = primitive_relation(fan, {"e2", "a2"})
    assert rel.support == ()
    assert rel.degree == 2


def test_projective_space_relation_degree():
    rel = primitive_relation(p2_fan(), {"e1", "e2", "a1"})
    assert rel.support == ()
    assert rel.degree == 3


def test_not_a_primitive_collection():
    with pytest.raises(NotAPrimitiveCollection):
        primitive_relation(p2_fan(), {"e1", "e2"})


def test_no_containing_cone_on_incomplete_fan():
    fan = make_fan(
        2,
        [("x", (1, 0)), ("y", (0, 1)), ("r", (-1, -1))],
        [("x", "r"), ("y", "r")],
    )
    with pytest.raises(NoContainingCone):
        primitive_relation(fan, {"x", "y"})


def test_relation_support_consistent_across_containing_cones(corpus):
    for fan in corpus.values():
        for collection in primitive_collections(fan):
            total = tuple(
                sum(fan.generator(n)[i] for n in collection)
                for i in range(fan.dimension)
            )
            supports = set()
            for cs in fan.cone_sets:
                coeffs = fan.cone_coefficients(cs, total)
                if all(v >= 0 for v in coeffs.values()):
                    supports.add(
                        tuple(sorted((n, v) for n, v in coeffs.items() if v > 0))
                    )
            assert len(supports) == 1


def test_max_cones_contain_no_collection(corpus):
    for fan in corpus.values():
        collections = primitive_collections(fan)
        for cs in fan.cone_sets:
            assert not any(c <= cs for c in collections)


# --- isomorphism -------------------------------------------------------------

def test_isomorphism_reflexive():
    fan = builtin("X3_0")
    iso = fan_isomorphism(fan, fan)
    assert iso is not None


def test_sheared_f3_is_f1():
    sheared = make_fan(
        2,
        [("e1", (1, 0)), ("a1", (-1, 0)), ("b1", (0, 1)), ("c1", (1, -1))],
        [("e1", "b1"), ("b1", "a1"), ("a1", "c1"), ("c1", "e1")],
    )
    assert fan_isomorphism(sheared, hirzebruch_fan(1)) is not None


def test_f0_not_isomorphic_to_f1():
    assert fan_isomorphism(hirzebruch_fan(0), hirzebruch_fan(1)) is None


def test_isomorphism_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fan_isomorphism(p1_fan(), p2_fan())


def test_isomorphism_symmetric_and_transported():
    m = UnimodularMap(((1, 2, 1), (0, 1, 1), (0, 0, 1)))
    fan = builtin("X3_0")
    moved = make_fan(
        3,
        [(r.name + "_m", m.apply(r.generator)) for r in fan.rays],
        [tuple(n + "_m" for n in c.ray_names) for c in fan.max_cones],
    )
    forward = fan_isomorphism(fan, moved)
    backward = fan_isomorphism(moved, fan)
    assert forward is not None and backward is not None
    for ray in fan.rays:
        assert backward.apply(forward.apply(ray.generator)) == ray.generator


def test_isomorphism_preserves_invariants(corpus):
    f0 = corpus["hirzebruch(2)"]
    partner = corpus["bundle(2, 2)"]
    iso = fan_isomorphism(f0, partner)
    assert iso is not None
    assert sorted(r.degree for r in primitive_relations(f0)) == sorted(
        r.degree for r in primitive_relations(partner)
    )


def carries_cones(iso, f1, f2):
    """Whether iso maps the generator set of each cone of f1 onto one of f2."""
    image = {frozenset(iso.apply(f1.generator(n)) for n in cs) for cs in f1.cone_sets}
    return image == {frozenset(f2.generator(n) for n in cs) for cs in f2.cone_sets}


def relabelled_image(fan, seed):
    """fan under a random unimodular map, with its rays, cones and cone orders shuffled."""
    rng = random.Random(seed)
    d = fan.dimension
    carry = UnimodularMap.identity(d)
    for _ in range(3):
        order = rng.sample(range(d), d)
        permute = UnimodularMap(tuple(tuple(int(j == k) for j in range(d)) for k in order))
        shear = shear_map([rng.randint(-2, 2) for _ in range(d - 1)])
        carry = shear.compose(permute).compose(carry)
    rays = list(fan.rays)
    rng.shuffle(rays)
    new_name = {r.name: f"m{i}" for i, r in enumerate(rays)}
    cones = [rng.sample(c.ray_names, d) for c in fan.max_cones]
    rng.shuffle(cones)
    return make_fan(
        d,
        [(new_name[r.name], carry.apply(r.generator)) for r in rays],
        [[new_name[n] for n in c] for c in cones],
    )


def test_isomorphism_matches_frame_oracle_on_relabelled_corpus(corpus):
    for seed, fan in enumerate(corpus.values()):
        moved = relabelled_image(fan, seed)
        iso = fan_isomorphism(fan, moved)
        assert iso is not None and carries_cones(iso, fan, moved)
        assert iso == fan_isomorphism_by_frames(fan, moved)


def test_isomorphism_matches_frame_oracle_between_corpus_fans(corpus):
    # every pair with equal ray and cone counts, except that in the two
    # large groups (the d = 3 and d = 4 bundles) each fan meets the next one
    groups = {}
    for fan in corpus.values():
        groups.setdefault((fan.dimension, len(fan.rays), len(fan.max_cones)), []).append(fan)
    found = 0
    for group in groups.values():
        for i, f1 in enumerate(group):
            for f2 in group[i + 1:i + 2] if len(group) > 20 else group[i + 1:]:
                iso = fan_isomorphism(f1, f2)
                assert iso == fan_isomorphism_by_frames(f1, f2)
                if iso is not None:
                    found += 1
                    assert carries_cones(iso, f1, f2)
    assert found == 9  # hirzebruch(a) and bundle(2, a) for a = 0..8


def test_isomorphism_compares_cones_once_all_rays_match():
    # b1 + c1 = e1 + e2 in bundle(3;1,1), so the square on e1, b1, e2, c1
    # can be cut along either diagonal: the flopped fan has the same rays,
    # and a frame mapping every ray to a ray can still miss the cones
    fan = builtin("bundle(3;1,1)")
    flip = {frozenset({"e1", "e2", "b1"}), frozenset({"e1", "e2", "c1"})}
    kept = [c.ray_names for c in fan.max_cones if frozenset(c.ray_names) not in flip]
    flopped = make_fan(3, fan.rays, kept + [("e1", "b1", "c1"), ("e2", "b1", "c1")])
    assert flopped.cone_sets != fan.cone_sets
    for f1, f2 in ((fan, flopped), (flopped, fan)):
        iso = fan_isomorphism(f1, f2)
        assert iso is not None and carries_cones(iso, f1, f2)
        assert iso == fan_isomorphism_by_frames(f1, f2)


def test_frame_search_builds_at_most_one_map(monkeypatch):
    built = []
    real = lattice.change_of_basis

    def counting(src, dst):
        built.append(dst)
        return real(src, dst)

    monkeypatch.setattr(lattice, "change_of_basis", counting)
    fan = builtin("W4_5")
    assert fan_isomorphism(fan, relabelled_image(fan, 1)) is not None
    assert len(built) == 1
    assert fan_isomorphism(builtin("W4_5"), builtin("W4_6")) is None
    assert len(built) == 1
    equator = find_splittings(builtin("X3_0"))[0].equator
    names = equator.ray_names()
    assert any(star_equivalent(equator, a, b) for a in names for b in names if a != b)
    assert len(built) == 1


# --- reconstruction from relations -------------------------------------------

def test_x30_reconstruction_vectors():
    fan = fan_from_relations(
        3,
        ["e1", "e2", "a1", "a2", "b1", "c1"],
        [
            FormalRelation(("e1", "a1"), ((1, "e2"),)),
            FormalRelation(("e2", "a2"), ()),
            FormalRelation(("b1", "c1"), ((2, "e1"),)),
        ],
        basis_cone=("e1", "e2", "b1"),
    )
    assert fan.generator("a1") == (-1, 1, 0)
    assert fan.generator("a2") == (0, -1, 0)
    assert fan.generator("c1") == (2, 0, -1)


def test_bundle_reconstruction_vectors():
    fan = fan_from_relations(
        3,
        ["e1", "e2", "a1", "b1", "c1"],
        [
            FormalRelation(("e1", "e2", "a1"), ()),
            FormalRelation(("b1", "c1"), ((1, "e1"), (1, "e2"))),
        ],
        basis_cone=("e1", "e2", "b1"),
    )
    assert fan.generator("a1") == (-1, -1, 0)
    assert fan.generator("c1") == (1, 1, -1)


def test_bundle_reconstruction_dim4():
    fan = fan_from_relations(
        4,
        ["e1", "e2", "e3", "a1", "b1", "c1"],
        [
            FormalRelation(("e1", "e2", "e3", "a1"), ()),
            FormalRelation(("b1", "c1"), ((1, "e1"), (1, "e2"))),
        ],
        basis_cone=("e1", "e2", "e3", "b1"),
    )
    assert fan.generator("c1") == (1, 1, 0, -1)


def test_inconsistent_relations():
    with pytest.raises(InconsistentRelations):
        fan_from_relations(
            2,
            ["x1", "x2", "x3"],
            [
                FormalRelation(("x1", "x2"), ()),
                FormalRelation(("x1", "x2"), ((1, "x3"),)),
            ],
            basis_cone=("x1", "x3"),
        )


def test_underdetermined_relations():
    # x4 appears in no relation, so its generator is not pinned down
    with pytest.raises(UnderdeterminedRelations):
        fan_from_relations(
            2,
            ["x1", "x2", "x3", "x4"],
            [FormalRelation(("x1", "x2"), ())],
            basis_cone=("x1", "x3"),
        )


def test_reconstruction_roundtrip(corpus):
    for name in ("X3_0", "W4_1", "W4_5", "hirzebruch(3)"):
        fan = corpus[name]
        relations = [
            FormalRelation(r.collection, tuple((k, n) for n, k in r.support))
            for r in primitive_relations(fan)
        ]
        basis = fan.max_cones[0].ray_names
        rebuilt = fan_from_relations(
            fan.dimension, fan.ray_names(), relations, basis
        )
        assert fan_isomorphism(rebuilt, fan) is not None


def test_ray_matrix_rank_oracle(corpus):
    for fan in corpus.values():
        rows = [list(r.generator) for r in fan.rays]
        assert fraction_rank(rows) == fan.dimension
