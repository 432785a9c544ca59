import sys

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    check_certified,
    check_splittings_against_oracles,
    fiber_type_by_search,
    find_splittings_in_one_pass,
    fourier_motzkin_calls,
    prime_name_by_regex,
    vec_add,
    vec_scale,
)

from fanshear import builtin, lattice
from fanshear.cli import main
from fanshear.deform import (
    FiberKind,
    _first_deformable,
    _is_axis,
    _prime_name,
    endpoint,
    endpoint_conditions,
    fiber_type,
    find_splittings,
    shear_lower,
    split_with_frame,
    star_equivalent,
)
from fanshear.divisor import FanoClass, class_group, classify_fano
from fanshear.errors import ConditionsNotSatisfied
from fanshear.fan import fan_isomorphism, is_complete, make_fan, primitive_relations
from fanshear.scroll import BundleSpec, bundle_fan, deformation_chain, reduce_step


def p2_fan():
    return make_fan(
        2,
        [("e1", (1, 0)), ("e2", (0, 1)), ("a1", (-1, -1))],
        [("e1", "e2"), ("e2", "a1"), ("a1", "e1")],
    )


def ruled_threefold():
    """The product of a quadric surface with a line: equator is P1 x P1."""
    return make_fan(
        3,
        [
            ("e1", (1, 0, 0)), ("a1", (-1, 0, 0)),
            ("e2", (0, 1, 0)), ("a2", (0, -1, 0)),
            ("b1", (0, 0, 1)), ("c1", (0, 0, -1)),
        ],
        [
            (x, y, z)
            for x in ("e1", "a1")
            for y in ("e2", "a2")
            for z in ("b1", "c1")
        ],
    )


# --- find_splittings -----------------------------------------------------------

def test_p2_has_no_splitting():
    assert find_splittings(p2_fan()) == ()


@pytest.mark.parametrize("a", [1, 2, 3, 5])
def test_hirzebruch_two_splittings(a):
    splits = find_splittings(builtin(f"hirzebruch({a})"))
    assert len(splits) == 2
    assert {s.upper_names + s.lower_names for s in splits} == {
        ("b1", "c1"), ("c1", "b1")
    }


def test_hirzebruch_zero_has_four_splittings():
    splits = find_splittings(builtin("hirzebruch(0)"))
    assert len(splits) == 4
    pairs = {frozenset(s.upper_names + s.lower_names) for s in splits}
    assert pairs == {frozenset({"b1", "c1"}), frozenset({"e1", "a1"})}


def test_x30_splitting_equator_is_f1():
    splits = find_splittings(builtin("X3_0"))
    good = [s for s in splits if endpoint_conditions(s, 1)]
    assert good
    split = good[0]
    assert split.upper_names == ("b1",) and split.lower_names == ("c1",)
    assert fan_isomorphism(split.equator, builtin("hirzebruch(1)")) is not None


def test_splitting_normal_form_coordinates():
    split = find_splittings(builtin("X3_0"))[0]
    d = split.dimension
    for i, name in enumerate(split.basis_names):
        assert split.fan.generator(name) == tuple(1 if j == i else 0 for j in range(d))
    assert split.fan.generator(split.upper_names[0]) == (0,) * (d - 1) + (1,)
    assert split.fan.generator(split.lower_names[0])[-1] == -1
    for name in split.rest_names:
        assert split.fan.generator(name)[-1] == 0
    # the coordinate change really maps the input fan onto the stored one
    original = builtin("X3_0")
    for ray in original.rays:
        assert split.to_normal_form.apply(ray.generator) == split.fan.generator(ray.name)


def test_splittings_match_oracles_on_corpus(corpus):
    # one upper and one lower ray, fiber_type against a full splitting
    # search of the equator, and the equator against make_fan and
    # is_complete from scratch
    assert sum(check_splittings_against_oracles(fan) for fan in corpus.values()) > 200


def test_per_axis_searches_assemble_the_one_pass_splittings(corpus):
    assert all(find_splittings(fan) == find_splittings_in_one_pass(fan) for fan in corpus.values())


@pytest.mark.parametrize(
    "upper,lower,basis,partner,message",
    [
        ("e1", "e2", ("a2", "b1"), None, "not a fibration axis"),  # a cone, no collection
        ("e1", "a1", ("e2", "b1"), None, "not a fibration axis"),  # no fibration functional
        ("b1", "c1", ("e1", "a1"), None, "not an equator cone"),
        ("b1", "c1", ("e1", "e2"), "e2", "not an available equator ray"),
        ("b1", "c1", ("e1", "e2"), "c1", "not an available equator ray"),
        # its set is an equator cone, but a repeated ray makes no frame
        ("b1", "c1", ("e1", "e2", "e1"), None, r"\('e1', 'e2', 'e1'\) is not an equator cone"),
    ],
)
def test_split_with_frame_rejects_bad_frames(upper, lower, basis, partner, message):
    with pytest.raises(ValueError, match=message):
        split_with_frame(builtin("X3_0"), upper, lower, basis, partner)


def plane_times_two_lines():
    """P2 x P1 x P1: its (b1, c1) equator P2 x P1 has equivalent P2 rays on a common cone."""
    plane = [("e1", (1, 0)), ("e2", (0, 1)), ("a1", (-1, -1))]
    rays = [(n, g + (0, 0)) for n, g in plane] + [
        ("f", (0, 0, 1, 0)), ("g", (0, 0, -1, 0)),
        ("b1", (0, 0, 0, 1)), ("c1", (0, 0, 0, -1)),
    ]
    return make_fan(
        4,
        rays,
        [
            (x, y, z, w)
            for x, y in (("e1", "e2"), ("e2", "a1"), ("a1", "e1"))
            for z in ("f", "g")
            for w in ("b1", "c1")
        ],
    )


def test_fiber_pair_on_a_common_cone_is_other():
    # equal classes and equivalent stars, but {e1, a1} is a face of the
    # equator, not an axis, so the fiber is no bundle with these poles
    fan = plane_times_two_lines()
    split = split_with_frame(fan, "b1", "c1", ("e1", "e2", "f"), "a1")
    classes = class_group(split.equator).class_of_ray
    assert classes["e1"] == classes["a1"]
    assert star_equivalent(split.equator, "e1", "a1")
    assert fiber_type(split) == fiber_type_by_search(split)
    assert fiber_type(split).kind is FiberKind.OTHER
    assert check_splittings_against_oracles(fan) > 0


def test_split_with_frame_rebuilds_found_splittings():
    fan = builtin("X3_0")
    for s in find_splittings(fan):
        rebuilt = split_with_frame(
            fan, s.upper_names[0], s.lower_names[0], s.basis_names, s.partner_name
        )
        assert rebuilt == s


def test_axis_test_on_a_fresh_equator_costs_one_elimination(monkeypatch):
    eliminations = []
    real = lattice.unimodular_inverse
    monkeypatch.setattr(
        lattice, "unimodular_inverse", lambda columns: eliminations.append(columns) or real(columns)
    )
    fan = builtin("W4_2")
    s = find_splittings(fan)[0]
    # a fresh splitting, whose equator nothing has read yet
    equator = split_with_frame(
        fan, s.upper_names[0], s.lower_names[0], s.basis_names, s.partner_name
    ).equator
    eliminations.clear()
    assert _is_axis(equator, "x7", "x8")
    # one cone is eliminated and the facet walk pivots to the other seven
    assert len(eliminations) == 1
    assert len(equator.max_cones) == 8
    assert equator._inverses == tuple(
        real([equator.generator(n) for n in cone.ray_names]) for cone in equator.max_cones
    )


# --- fiber_type ------------------------------------------------------------------

def test_bundle_fiber_is_projective_space():
    fan = bundle_fan(BundleSpec((1, 1)))
    split = next(s for s in find_splittings(fan) if s.upper_names == ("b1",))
    kind = fiber_type(split)
    assert kind.kind is FiberKind.PROJECTIVE_SPACE
    assert kind.fiber_pair is not None


def test_x30_fiber_is_bundle():
    split = next(
        s for s in find_splittings(builtin("X3_0")) if endpoint_conditions(s, 1)
    )
    kind = fiber_type(split)
    assert kind.kind is FiberKind.BUNDLE_OVER_P1
    assert kind.fiber_pair == ("e1", "a1")


def test_product_fiber_splits_along_either_ruling():
    fan = ruled_threefold()
    splits = [s for s in find_splittings(fan) if s.upper_names == ("b1",)]
    kinds = [fiber_type(s) for s in splits]
    assert all(k.kind is FiberKind.BUNDLE_OVER_P1 for k in kinds)
    assert {frozenset(k.fiber_pair) for k in kinds} == {
        frozenset({"e1", "a1"}), frozenset({"e2", "a2"})
    }


def del_pezzo_seven_times_line():
    """Product of the degree-7 del Pezzo surface with a line.

    The pentagon equator is a fibration over the line only with reducible
    fibers, so it is neither a projective space nor an admissible bundle
    and the splitting's fiber must classify as Other.
    """
    from fanshear.fan import FormalRelation, fan_from_relations

    pentagon = [
        FormalRelation(("x5", "x6"), ()),
        FormalRelation(("x3", "x7"), ()),
        FormalRelation(("x2", "x3"), ((1, "x5"),)),
        FormalRelation(("x5", "x7"), ((1, "x2"),)),
        FormalRelation(("x2", "x6"), ((1, "x7"),)),
    ]
    return fan_from_relations(
        3,
        ["x2", "x3", "x5", "x6", "x7", "b", "c"],
        pentagon + [FormalRelation(("b", "c"), ())],
        basis_cone=("x2", "x3", "b"),
    )


def test_reducible_fiber_classifies_as_other():
    fan = del_pezzo_seven_times_line()
    assert classify_fano(fan).status is FanoClass.FANO
    splits = find_splittings(fan)
    assert len(splits) == 2
    assert {frozenset(s.upper_names + s.lower_names) for s in splits} == {
        frozenset({"b", "c"})
    }
    for split in splits:
        assert fiber_type(split).kind is FiberKind.OTHER
        with pytest.raises(ConditionsNotSatisfied):
            endpoint(split, 0)


def test_star_equivalence_on_f1_fiber_pair():
    f1 = builtin("hirzebruch(1)")
    assert star_equivalent(f1, "b1", "c1")
    assert not star_equivalent(f1, "e1", "b1")  # section star vs fiber star


# --- shear_lower ------------------------------------------------------------------

def test_zero_shear_is_identity():
    split = find_splittings(builtin("X3_0"))[0]
    assert shear_lower(split, (0, 0)) == split.fan


def test_base_fan_and_endpoint_share_no_cache_with_the_source():
    # as catalog verify uses a splitting: the source's relations first, then
    # the base fan, which finds nothing of its own; the endpoint takes the
    # source's collection masks and copies of all its relations but the
    # axis relation
    source = builtin("X3_0")
    relations = primitive_relations(source)
    split = find_splittings(source)[0]
    assert not {"_collection_masks", "_collections", "_relations"} & set(vars(split.fan))
    end = shear_lower(split, (0, 0))
    found = vars(end)
    assert found["_collection_masks"] == source._collection_masks
    assert found["_relations"] is not source._relations
    assert len(found["_relations"]) == len(relations) - 1
    assert primitive_relations(end) == relations
    assert len(source._relations) == len(relations)


def test_f3_sheared_to_f1():
    split = next(
        s for s in find_splittings(builtin("hirzebruch(3)")) if endpoint_conditions(s, 1)
    )
    sheared = shear_lower(split, (2,))
    assert fan_isomorphism(sheared, builtin("hirzebruch(1)")) is not None


def test_x30_shear_relations():
    split = next(
        s for s in find_splittings(builtin("X3_0")) if endpoint_conditions(s, 1)
    )
    sheared = shear_lower(split, (2, -1))
    rels = {r.collection: dict(r.support) for r in primitive_relations(sheared)}
    assert rels[("e1", "a1")] == {"e2": 1}
    assert rels[("e2", "a2")] == {}
    assert rels[("b1", "c'1")] == {"e2": 1}


def test_moved_rays_are_renamed_and_primed():
    split = next(
        s for s in find_splittings(builtin("X3_0")) if endpoint_conditions(s, 1)
    )
    sheared = shear_lower(split, (1, 0))
    names = set(sheared.ray_names())
    assert "c'1" in names and "c1" not in names


# ASCII letters, digits, a prime, and letters and a digit outside ASCII
NAME_CHARACTERS = st.sampled_from("abcXYZ019'_éßΩ１")


@given(st.text(NAME_CHARACTERS, max_size=6), st.lists(st.text(NAME_CHARACTERS, max_size=8)),
       st.integers(0, 3))
@example("c1", [], 0)
@example("c1", [], 2)
@example("", [], 0)
@example("", [], 2)
@example("12", [], 1)
@example("Ωc1", ["Ωc1'"], 1)
@example("éa", [], 1)
@example("abc", [], 0)
def test_prime_name_matches_the_regex_oracle(name, others, moves):
    # the oracle's own first candidates are taken too, so the prime must move
    taken = set(others)
    for _ in range(moves):
        taken.add(prime_name_by_regex(name, taken))
    assert _prime_name(name, taken) == prime_name_by_regex(name, taken)


# --- endpoint conditions ------------------------------------------------------------

def test_x30_conditions():
    split = next(
        s
        for s in find_splittings(builtin("X3_0"))
        if s.upper_names == ("b1",) and s.basis_names[0] == "e1"
    )
    assert endpoint_conditions(split, 1)
    report = endpoint_conditions(split, 3)
    assert not report
    assert any("< 0" in v for v in report.violations)


@pytest.mark.parametrize("twists", [(2,), (3, 1), (4, 0, 2)])
def test_bundle_conditions_up_to_max_twist(twists):
    fan = bundle_fan(BundleSpec(twists))
    split = next(
        s
        for s in find_splittings(fan)
        if s.upper_names == ("b1",) and s.lower_names == ("c1",)
    )
    top = max(twists)
    for k in range(top + 1):
        assert endpoint_conditions(split, k)
    assert not endpoint_conditions(split, top + 1)


def test_negative_k_rejected():
    split = find_splittings(builtin("X3_0"))[0]
    with pytest.raises(ValueError):
        endpoint_conditions(split, -1)


def test_non_integer_k_and_shear_rejected():
    # refused, not truncated: k = 0.5 would shear by k = 0, and the shear
    # vector (1.5, 0) by (1, 0)
    split = find_splittings(builtin("X3_0"))[0]
    for k in (0.5, 1.0):
        with pytest.raises(TypeError):
            endpoint_conditions(split, k)
        with pytest.raises(TypeError):
            endpoint(split, k)
        with pytest.raises(TypeError):
            _first_deformable((), k)
    with pytest.raises(TypeError):
        shear_lower(split, (1.5, 0))


# --- endpoint ------------------------------------------------------------------------

def test_x30_endpoint_is_fano():
    split = next(
        s for s in find_splittings(builtin("X3_0")) if endpoint_conditions(s, 1)
    )
    end = endpoint(split, 1)
    assert classify_fano(end).status is FanoClass.FANO
    rels = {r.collection: dict(r.support) for r in primitive_relations(end)}
    assert rels[("b1", "c'1")] == {"e2": 1}


def test_endpoint_zero_is_isomorphic_to_input():
    for name in ("X3_0", "hirzebruch(2)", "W4_1"):
        fan = builtin(name)
        split = next(
            s for s in find_splittings(fan) if fiber_type(s).kind is not FiberKind.OTHER
        )
        assert fan_isomorphism(endpoint(split, 0), fan) is not None


def test_endpoint_requires_conditions():
    split = next(
        s for s in find_splittings(builtin("X3_0")) if endpoint_conditions(s, 1)
    )
    with pytest.raises(ConditionsNotSatisfied):
        endpoint(split, 5)


def test_bundle_endpoint_uses_doubled_pivot_shear():
    # for a projective-space fiber the partner is minus the basis sum, so
    # the shear vector is (2k, k, ..., k)
    for twists, k in [((3,), 1), ((4, 2), 2), ((2, 1, 0), 1)]:
        fan = bundle_fan(BundleSpec(twists))
        split = next(
            s
            for s in find_splittings(fan)
            if s.upper_names == ("b1",) and endpoint_conditions(s, k)
        )
        q = (2 * k,) + (k,) * (split.dimension - 2)
        assert endpoint(split, k) == shear_lower(split, q)


def test_half_fans_share_exactly_the_equator():
    for name in ("X3_0", "W4_1", "hirzebruch(2)"):
        for split in find_splittings(builtin(name)):
            upper_facets = {
                cs - {split.upper_names[0]} for cs in split.upper.cone_sets
            }
            lower_facets = {
                cs - {split.lower_names[0]} for cs in split.lower.cone_sets
            }
            equator_cones = set(split.equator.cone_sets)
            assert upper_facets == lower_facets == equator_cones


def test_endpoints_are_smooth_and_complete(corpus):
    # every admissible endpoint over the whole corpus revalidates cleanly
    checked = 0
    for fan in corpus.values():
        for split in find_splittings(fan):
            if fiber_type(split).kind is FiberKind.OTHER:
                continue
            for k in (0, 1):
                if not endpoint_conditions(split, k):
                    continue
                end = endpoint(split, k)  # construction validates smoothness
                assert is_complete(end)
                checked += 1
    assert checked > 300


def test_endpoint_composition_matches_single_step():
    # two steps k1 then k2, the second carried out in the frame inherited
    # from the first (same basis cone and partner), agree with one step at
    # k1 + k2 whenever both steps' conditions hold
    for twists, k1, k2 in [((4,), 1, 1), ((4, 2), 1, 1), ((3, 3), 1, 1), ((4, 0), 1, 1)]:
        fan = bundle_fan(BundleSpec(twists))
        split = next(
            s
            for s in find_splittings(fan)
            if s.upper_names == ("b1",) and endpoint_conditions(s, k1 + k2)
        )
        once = endpoint(split, k1)
        lower2 = next(n for n in once.ray_names() if n not in fan.ray_names())
        split2 = split_with_frame(
            once, "b1", lower2, split.basis_names, split.partner_name
        )
        assert endpoint_conditions(split2, k2)
        twice = endpoint(split2, k2)
        direct = endpoint(split, k1 + k2)
        assert fan_isomorphism(twice, direct) is not None


def test_split_fan_principal_relations_vanish():
    # the d principal-divisor identities attached to a splitting's labels
    for name in ("X3_0", "W4_1", "hirzebruch(3)"):
        fan = builtin(name)
        for split in find_splittings(fan):
            cls = class_group(split.fan).class_of_ray
            rank = class_group(split.fan).picard_rank
            d = split.dimension
            for j in range(d):
                total = (0,) * rank
                for ray in split.fan.rays:
                    total = vec_add(total, vec_scale(ray.generator[j], cls[ray.name]))
                assert total == (0,) * rank


def test_corpus_endpoints_and_chain_fans_are_certified(corpus):
    # make_fan validates every fan below, sheared general fibers included,
    # by its completeness certificate, without a Fourier-Motzkin call
    chains = [((3, 0), (0, 0)), ((2, 1), (1, 2)), ((4,), (0,)), ((9, 5, 3, 2, 1, 0), (1,) * 6)]
    with fourier_motzkin_calls() as calls:
        fans = list(corpus.values())
        fans += [
            endpoint(split, k)
            for fan in corpus.values()
            for split in find_splittings(fan)
            for k in (1, 2)
            if fiber_type(split).kind is not FiberKind.OTHER and endpoint_conditions(split, k)
        ]
        for start, end in chains:
            chain = deformation_chain(BundleSpec(start), BundleSpec(end))
            fans += chain.fans
            fans += [reduce_step(s).fan for s in chain.specs if max(s.twists) >= 2]
    assert not calls
    fans = list(dict.fromkeys(fans))  # one oracle run per distinct fan
    assert len(fans) > 3 * len(corpus)
    for fan in fans:
        check_certified(fan)


def test_verify_all_solves_nothing_under_deform(monkeypatch, capsys):
    # axis tests and normal forms read the cone inverses make_fan kept
    real = lattice.solve_integer
    under_deform = []

    def counted(*args):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_globals.get("__name__") == "fanshear.deform":
                under_deform.append(frame.f_code.co_name)
            frame = frame.f_back
        return real(*args)

    monkeypatch.setattr(lattice, "solve_integer", counted)
    assert main(["catalog", "verify", "all"]) == 0
    assert "W4_9" in capsys.readouterr().out
    assert under_deform == []
