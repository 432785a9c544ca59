import gc
import random
import sys
import weakref
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_collections,
    carries_cones,
    direction_in_fan,
    facets_pair_up,
    face_walk_collections,
    fan_isomorphism_by_frames,
    fraction_rank,
    pairwise_glued,
    projective_space_fan,
    relabelled_image,
)

from fanshear import builtin, lattice
from fanshear import fan as fan_module
from fanshear.cli import main
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
    ResultNotComplete,
    ResultSingular,
    SingularCone,
    UnderdeterminedRelations,
)
from fanshear.fan import (
    Cone,
    Fan,
    FormalRelation,
    Ray,
    _certified_complete,
    _facets_pair_opposite,
    fan_from_relations,
    fan_isomorphism,
    is_complete,
    make_fan,
    primitive_collections,
    primitive_relation,
    primitive_relations,
)
from fanshear.lattice import UnimodularMap


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


def test_make_fan_eliminates_once_per_fan(monkeypatch):
    source = builtin("W4_1")
    calls = {"row_echelon": 0, "det": 0, "solve_integer": 0}
    for name in calls:
        real = getattr(lattice, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(lattice, name, counted)
    expected = {"row_echelon": 1, "det": 0, "solve_integer": 0}
    fan = make_fan(source.dimension, source.rays, source.max_cones)
    assert is_complete(fan)
    primitive_relations(fan)
    assert calls == expected
    # the pairwise fallback reads the same inverses
    monkeypatch.setattr(fan_module, "_certified_complete", lambda fan: False)
    calls.update(dict.fromkeys(calls, 0))
    make_fan(source.dimension, source.rays, source.max_cones)
    assert calls == expected
    # cones that share no facet are reached by no pivot: one elimination each
    calls.update(dict.fromkeys(calls, 0))
    make_fan(2, [("x", (1, 0)), ("y", (0, 1)), ("u", (-1, 0)), ("v", (0, -1))],
             [("x", "y"), ("u", "v")])
    assert calls == {"row_echelon": 2, "det": 0, "solve_integer": 0}


def test_every_fan_of_the_pipeline_inverts_its_cones_by_one_walk(monkeypatch, capsys):
    # make_fan's fans and a splitting's base fan, half-fans and equator all
    # fill their inverse table by the facet walk: one elimination per fan
    # whose inverses are read, and no matrix_inverse from the fan layer.
    walks, eliminations, fan_layer_inverses = [], [], []
    walk, eliminate, invert = (
        fan_module._cone_inverses, lattice.unimodular_inverse, lattice.matrix_inverse
    )

    def counted_invert(columns):
        caller = sys._getframe(1).f_globals["__name__"]
        if caller in ("fanshear.fan", "fanshear.deform", "fanshear.divisor"):
            fan_layer_inverses.append(caller)
        return invert(columns)

    monkeypatch.setattr(fan_module, "_cone_inverses", lambda fan: walks.append(1) or walk(fan))
    monkeypatch.setattr(
        lattice, "unimodular_inverse", lambda columns: eliminations.append(1) or eliminate(columns)
    )
    monkeypatch.setattr(lattice, "matrix_inverse", counted_invert)
    assert main(["catalog", "verify", "all"]) == 0
    assert main(["chain", "--dim", "6", "--from", "5,3,2,1,0", "--to", "1,1,1,1,1"]) == 0
    assert fan_layer_inverses == []
    # a cone-by-cone inversion of the fans built directly ran 229 eliminations here
    assert len(eliminations) == len(walks) <= 65


# x, y, a span the fan of P^2; s and t make cones of determinant 2 with x
# and y, and z = -y a degenerate one whose pivot from (x, y) is 0.
PRECEDENCE_RAYS = [
    ("x", (1, 0)), ("y", (0, 1)), ("a", (-1, -1)), ("s", (1, 2)), ("t", (2, 1)), ("z", (0, -1)),
]
P2_CONES = [("x", "y"), ("y", "a"), ("a", "x")]


@pytest.mark.parametrize(
    "cones,error,message",
    [
        # a singular cone comes before every later structural fault
        ([("x", "y"), ("x", "s"), ("y", "q"), ("t", "z")],
         SingularCone, "cone ('x', 's') is not unimodular"),
        ([("x", "y"), ("y", "q"), ("x", "s"), ("t", "z")],
         ValueError, "cone references unknown ray 'q'"),
        ([*P2_CONES, ("x", "s"), ("y", "y"), ("t", "z")],
         SingularCone, "cone ('x', 's') is not unimodular"),
        ([*P2_CONES, ("y", "y"), ("x", "s"), ("t", "z")],
         SingularCone, "cone ('y', 'y') repeats a ray"),
        ([*P2_CONES, ("t", "z", "x"), ("x", "s")],
         SingularCone, "maximal cone ('t', 'z', 'x') has 3 rays, expected 2"),
        ([("x", "s"), *P2_CONES, ("t", "z"), ("x", "y")],
         SingularCone, "cone ('x', 's') is not unimodular"),
        ([*P2_CONES, ("x", "a"), ("t", "z")],
         SingularCone, "cone ('t', 'z') is not unimodular"),
        ([*P2_CONES, ("x", "a")], BadFaceStructure, "duplicate maximal cone ('x', 'a')"),
        # every cone next to the first, in input order, whatever the walk meets first
        ([*P2_CONES, ("x", "s"), ("t", "y"), ("y", "z")],
         SingularCone, "cone ('x', 's') is not unimodular"),
        ([*P2_CONES, ("t", "y"), ("x", "s"), ("y", "z")],
         SingularCone, "cone ('t', 'y') is not unimodular"),
        ([*P2_CONES, ("y", "z"), ("t", "y"), ("x", "s")],
         SingularCone, "cone ('y', 'z') is not unimodular"),
        ([("x", "s")], SingularCone, "cone ('x', 's') is not unimodular"),
    ],
)
def test_make_fan_reports_the_first_faulty_cone(cones, error, message):
    with pytest.raises(error) as caught:
        make_fan(2, PRECEDENCE_RAYS, cones)
    assert str(caught.value) == message


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        make_fan(2, [("x", (1, 0, 0)), ("y", (0, 1, 0))], [("x", "y")])


def test_tuple_ray_coordinates_must_be_integers():
    # refused, not truncated: e1 = (1.5, 0) would make a complete P^2
    with pytest.raises(TypeError):
        make_fan(2, [("e1", (1.5, 0)), ("e2", (0, 1)), ("a", (-1, -1))],
                 [("e1", "e2"), ("e2", "a"), ("a", "e1")])


# --- completeness certificate -----------------------------------------------

XYZ = [("x", (1, 0)), ("y", (0, 1)), ("z", (1, 1))]
# Consecutive rays span unimodular cones turning the same way, twice round.
PLANE_TWICE = [(f"p{i}", g) for i, g in enumerate([(1, 0), (-3, 1), (2, -1), (-3, 2), (1, -1)])]
# Two turns of ring rays about the axis u, w; the second turn equals the
# first modulo u, so the star of u winds twice.
RING_TWICE = [(f"v{i}", g) for i, g in enumerate([
    (1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1),
])]

# name: dimension, rays, cones, whether each facet lies in two cones on
# opposite sides, and make_fan's message (that of the pairwise check).
NOT_FANS = {
    "overlapping cones": (
        2, XYZ, [("x", "y"), ("x", "z")], False,
        "cones ('x', 'y') and ('x', 'z') do not meet in a common face",
    ),
    # folds back at e2 and f; the first cone's ray sum is covered once
    "glued on the same side": (
        2, [("e1", (1, 0)), ("e2", (0, 1)), ("f", (1, 1)), ("a", (-1, 0)), ("b", (0, -1))],
        [("a", "b"), ("b", "e1"), ("e1", "e2"), ("e2", "f"), ("f", "a")], False,
        "cones ('e1', 'e2') and ('e2', 'f') do not meet in a common face",
    ),
    "facet in three cones": (
        2, [("x", (1, 0)), ("y", (0, 1)), ("w", (0, -1)), ("v", (-1, 1))],
        [("x", "y"), ("x", "w"), ("x", "v")], False,
        "cones ('x', 'y') and ('x', 'v') do not meet in a common face",
    ),
    "plane cycle winding twice": (
        2, PLANE_TWICE, [(f"p{i}", f"p{(i + 1) % 5}") for i in range(5)], True,
        "cones ('p0', 'p1') and ('p2', 'p3') do not meet in a common face",
    ),
    "star winding twice about a ray": (
        3, [("u", (0, 0, 1)), ("w", (0, 0, -1))] + RING_TWICE,
        [(apex, f"v{i}", f"v{(i + 1) % 8}") for apex in ("u", "w") for i in range(8)], True,
        "cones ('u', 'v0', 'v1') and ('u', 'v3', 'v4') do not meet in a common face",
    ),
}


@pytest.mark.parametrize("name", NOT_FANS)
def test_certificate_rejects_what_is_not_a_fan(name):
    dimension, rays, cones, pairs_up, message = NOT_FANS[name]
    with pytest.raises(BadFaceStructure) as caught:
        make_fan(dimension, rays, cones)
    assert str(caught.value) == message
    raw = Fan(dimension, tuple(Ray(n, g) for n, g in rays), tuple(map(Cone, cones)))
    with pytest.raises(BadFaceStructure) as caught:
        pairwise_glued(raw)
    assert str(caught.value) == message
    assert _facets_pair_opposite(raw) is pairs_up
    assert not _certified_complete(raw)


POOL = {d: [v for v in product((-1, 0, 1), repeat=d) if any(v)] for d in (2, 3)}


@st.composite
def cone_complexes(draw):
    """Unimodular cones over a small ray pool, as (dimension, cones of pool indices).

    Starts from the complete fan of (P^1)^d, star-subdivides up to three
    faces whose ray sum is in the pool, then drops, adds or swaps a ray of
    up to three cones, so both fans and non-fans come out.
    """
    d = draw(st.sampled_from(sorted(POOL)))
    pool = POOL[d]
    axes = [(tuple(int(i == j) for j in range(d)), tuple(-int(i == j) for j in range(d)))
            for i in range(d)]
    cones = {frozenset(c) for c in product(*axes)}

    def pick(items):
        return draw(st.sampled_from(sorted(items)))

    for _ in range(draw(st.integers(0, 3))):
        cone = pick(map(sorted, cones))
        face = frozenset(draw(st.sets(st.sampled_from(cone), min_size=2)))
        ray = tuple(map(sum, zip(*face)))
        if ray in pool and not any(ray in c for c in cones):
            star = {c for c in cones if face <= c}
            cones = (cones - star) | {c - {f} | {ray} for c in star for f in face}
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("drop", "add", "swap")))
        old = frozenset(pick(map(sorted, cones)))
        if edit == "drop":
            new = None
        elif edit == "add":
            new = frozenset(draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d,
                                          unique=True)))
        else:
            new = old - {pick(old)} | {draw(st.sampled_from(pool))}
        if new is None and len(cones) > 1:
            cones.discard(old)
        elif new is not None and len(new) == d and abs(lattice.det(list(new))) == 1:
            if edit == "swap":
                cones.discard(old)
            cones.add(new)
    return d, sorted(tuple(sorted(pool.index(v) for v in c)) for c in cones)


@settings(max_examples=150, deadline=2000)
@given(cone_complexes())
def test_make_fan_accepts_exactly_what_the_pairwise_oracle_accepts(complex_):
    d, cones = complex_
    used = sorted({i for c in cones for i in c})
    rays = tuple(Ray(f"r{i}", POOL[d][i]) for i in used)
    cones = tuple(Cone(tuple(f"r{i}" for i in c)) for c in cones)
    try:
        pairwise_glued(Fan(d, rays, cones))
        expected = None
    except BadFaceStructure as exc:
        expected = str(exc)
    try:
        fan = make_fan(d, rays, cones)
    except BadFaceStructure as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        # on a fan the certificate decides completeness as the
        # facet-connectivity oracle does
        assert is_complete(fan) is facets_pair_up(Fan(d, rays, cones))


# --- completeness -----------------------------------------------------------

def test_p1_complete():
    assert is_complete(p1_fan())


def test_certificate_runs_once_per_fan(monkeypatch):
    real = fan_module._certified_complete
    calls = []
    monkeypatch.setattr(fan_module, "_certified_complete", lambda fan: calls.append(fan) or real(fan))
    complete = p2_fan()
    half = make_fan(2, XYZ[:2] + [("a", (-1, 0))], [("x", "y"), ("y", "a")])
    assert calls == [complete, half]
    assert is_complete(complete) and is_complete(complete)
    assert not is_complete(half) and not is_complete(half)
    assert calls == [complete, half]


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
        assert primitive_collections(fan) == face_walk_collections(fan)


def test_collections_match_the_face_walk(corpus):
    for name, fan in corpus.items():
        assert primitive_collections(fan) == face_walk_collections(fan), name
    for d in range(1, 13):
        fan = projective_space_fan(d)
        assert primitive_collections(fan) == face_walk_collections(fan)
        assert primitive_collections(fan) == (frozenset(fan.ray_names()),)


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
    for names in [{"e1", "e2"}, ["nope"], ["e1", "nope"]]:
        with pytest.raises(NotAPrimitiveCollection):
            primitive_relation(p2_fan(), names)


def test_primitive_relation_runs_no_collection_search(monkeypatch):
    # membership is read off the cone masks; only the lists run MMCS
    known = builtin("W4_5")
    relations = primitive_relations(known)
    monkeypatch.setattr(fan_module, "_minimal_transversals", lambda fan: pytest.fail("MMCS ran"))
    fan = make_fan(known.dimension, known.rays, known.max_cones)
    assert [primitive_relation(fan, rel.collection) for rel in relations] == list(relations)


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
            for cone, inverse in zip(fan.max_cones, fan._inverses):
                coeffs = {
                    n: lattice.dot(row, total) for n, row in zip(cone.ray_names, inverse)
                }
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


def twisted_bundle(d, *twists):
    """bundle(d; twists, 0, ..., 0)."""
    padded = twists + (0,) * (d - 1 - len(twists))
    return builtin(f"bundle({d};{','.join(map(str, padded))})")


def count_frames(monkeypatch):
    """A list that records every frame fan_isomorphism's frame generator yields."""
    tried = []
    real = fan_module._matching_frames

    def counted(*args):
        for frame in real(*args):
            tried.append(frame)
            yield frame

    monkeypatch.setattr(fan_module, "_matching_frames", counted)
    return tried


@pytest.mark.parametrize("d", range(5, 10))
def test_bundles_with_different_twist_sums_are_rejected_without_frames(monkeypatch, d):
    # C * d! frames without the colours: 645120 at d = 8
    tried = count_frames(monkeypatch)
    assert fan_isomorphism(twisted_bundle(d, 3, 1), twisted_bundle(d, 2, 1)) is None
    assert fan_isomorphism(twisted_bundle(d, 2, 1), twisted_bundle(d, 3, 1)) is None
    assert tried == []


@pytest.mark.parametrize("d", range(5, 10))
def test_found_bundle_pairs_give_the_frame_oracle_map(d):
    fan = twisted_bundle(d, 3, 1)
    moved = relabelled_image(fan, d, anchored=True)
    iso = fan_isomorphism(fan, moved)
    assert iso is not None and iso == fan_isomorphism_by_frames(fan, moved)
    # the same bundles with the twists listed in another order; the oracle
    # is too slow for these past d = 6
    pairs = [
        (fan, builtin(f"bundle({d};{','.join(['0'] * (d - 3))},1,3)")),
        (builtin(f"bundle({d};{','.join(map(str, range(d - 1, 0, -1)))})"),
         builtin(f"bundle({d};{','.join(map(str, range(1, d)))})")),
    ]
    for f1, f2 in pairs:
        iso = fan_isomorphism(f1, f2)
        assert iso is not None and carries_cones(iso, f1, f2)
        if d <= 6:
            assert iso == fan_isomorphism_by_frames(f1, f2)


def test_named_non_isomorphic_pairs_match_frame_oracle():
    for f1, f2 in (
        (hirzebruch_fan(0), hirzebruch_fan(1)),
        (builtin("W4_5"), builtin("W4_6")),
        (twisted_bundle(4, 2, 2), twisted_bundle(4, 3, 1)),
    ):
        assert fan_isomorphism(f1, f2) is None
        assert fan_isomorphism_by_frames(f1, f2) is None


def test_ray_colours_of_a_relabelled_image_match(corpus):
    for seed, fan in enumerate(corpus.values()):
        moved = relabelled_image(fan, seed)
        colours, moved_colours = fan_module._ray_colours(fan, moved)
        iso = fan_isomorphism(fan, moved)
        name_of = {r.generator: r.name for r in moved.rays}
        for r in fan.rays:
            assert colours[r.name] == moved_colours[name_of[iso.apply(r.generator)]]


def test_matching_frames_keep_permutation_order():
    # the frames of fan_isomorphism before colours, with the others dropped
    cones = [Cone(("a", "b", "c", "d")), Cone(("p", "q", "r", "s")), Cone(("a", "p", "b", "q"))]
    colour = {"a": 0, "b": 1, "c": 0, "d": 1, "p": 1, "q": 1, "r": 0, "s": 0}
    wanted = [1, 0, 1, 0]
    frames = [
        p for c in cones for p in permutations(c.ray_names)
        if [colour[n] for n in p] == wanted
    ]
    assert list(fan_module._matching_frames(wanted, cones, colour)) == frames
    assert len(frames) == 8


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


def test_singular_reconstruction_names_the_first_singular_subset():
    # 2*e1 + a = e2 gives a = (-2, 1); {e2, a} avoids the collection {e1, a}
    # but has determinant 2
    with pytest.raises(ResultSingular) as caught:
        fan_from_relations(
            2,
            ["e1", "e2", "a"],
            [FormalRelation(("e1", "a"), ((-1, "e1"), (1, "e2")))],
            basis_cone=("e1", "e2"),
        )
    assert str(caught.value) == (
        "collection-free subset ('e2', 'a') is not unimodular; "
        "the relation list cannot be a complete primitive-collection list"
    )


def _rel(lhs, *rhs):
    return FormalRelation(tuple(lhs), tuple(rhs))


# (dimension, names, relations, basis cone, error type, message)
RELATION_ERRORS = [
    (2, ["x1", "x1"], [], None, ValueError, "duplicate generator names"),
    # each relation's lhs is checked before its rhs, relation by relation
    (2, ["x1", "x2"], [_rel(["x1"], (1, "zr")), _rel(["zl"])], None,
     ValueError, "relation uses unknown generator 'zr'"),
    (2, ["x1", "x2"], [_rel(["zl"], (1, "zr"))], None,
     ValueError, "relation uses unknown generator 'zl'"),
    (2, ["x1", "x2", "x3"], [_rel(["x1", "x2", "x3"])], ("x1",),
     ValueError, "basis cone needs 2 generators"),
    (2, ["x1", "x2", "x3"], [_rel(["x1", "x2", "x3"])], ("x1", "q"),
     ValueError, "basis cone uses unknown generator"),
    (2, ["x1", "x2"], [_rel(["x1", "x2"])], ("x1", "x2"),
     InconsistentRelations, "relations contradict the basis assignment"),
    (2, ["x1", "x2", "x3"], [_rel(["x1", "x2"]), _rel(["x1", "x2"], (1, "x3"))], ("x1", "x3"),
     InconsistentRelations, "inconsistent linear system"),
    (2, ["e1", "e2", "a"], [_rel(["a"], (2, "e1"))], ("e1", "e2"),
     InconsistentRelations, "generator a solves to the non-primitive vector (2, 0)"),
    (2, ["e1", "e2", "a"], [_rel(["a"])], ("e1", "e2"),
     InconsistentRelations, "generator a solves to the non-primitive vector (0, 0)"),
    (2, ["e1", "e2", "a"], [_rel(["a"], (1, "e1"))], ("e1", "e2"),
     InconsistentRelations, "generators e1 and a solve to the same vector"),
    # a + b = e1 and a - b = e2 have the rational solution a = (e1 + e2) / 2
    (2, ["e1", "e2", "a", "b"], [_rel(["a", "b"], (1, "e1")), _rel(["a"], (1, "b"), (1, "e2"))],
     ("e1", "e2"), InconsistentRelations, "no integral solution"),
    (2, ["x1", "x2", "x3"], [_rel(["x1"]), _rel(["x2"])], None,
     InconsistentRelations, "no candidate basis cone avoids the given collections"),
    (2, ["x1", "x2", "x3", "x4"], [_rel(["x1", "x2"])], ("x1", "x3"),
     UnderdeterminedRelations, "generators ['x2', 'x4'] are not pinned down by the relations"),
    (2, ["e1", "e2", "a"], [], ("e1", "e2"),
     UnderdeterminedRelations, "generators ['a'] are not pinned down by the relations"),
    (2, ["e1", "e2", "a"], [_rel(["e1", "a"])], ("e1", "e2"),
     ResultNotComplete, "reconstructed cone complex does not cover R^d"),
    (2, ["e1", "e2", "a"], [_rel(["e2"], (1, "e1")), _rel(["a"], (2, "e1"))], ("e1", "e1"),
     ValueError, "basis cone repeats a generator"),
]


@pytest.mark.parametrize("dimension,names,relations,basis,error,message", RELATION_ERRORS)
def test_reconstruction_error_types_and_messages(dimension, names, relations, basis, error,
                                                 message):
    with pytest.raises(error) as caught:
        fan_from_relations(dimension, names, relations, basis)
    assert type(caught.value) is error
    assert str(caught.value) == message


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
