import gc
import sys
import weakref
from itertools import combinations_with_replacement, product

import pytest

from conftest import bundle_specs_for_reduction, chain_by_full_descent, reduce_step_by_search

from fanshear.deform import endpoint_conditions, find_splittings
from fanshear.errors import DimensionMismatch, PreconditionViolated
from fanshear.fan import fan_isomorphism, is_complete, primitive_relations
from fanshear.scroll import (
    BundleSpec, bundle_fan, bundle_presentation, deformation_chain, reduce_step,
)
from fanshear import builtin, deform, divisor, fileformats, scroll
from fanshear import fan as fan_module
from fanshear.cli import main


def expected_reduction_support(twists):
    """The two-branch formula for the relation after one k = 1 shear.

    twists must be descending; returns {ray name: coefficient}.
    """
    d = len(twists) + 1
    nonzero = sum(1 for p in twists if p > 0)
    if nonzero < d - 1:
        out = {f"e{i + 1}": (p - 1 if i == 0 else p) for i, p in enumerate(twists) if (p - 1 if i == 0 else p) > 0}
        out["a1"] = 1
        return out
    return {
        f"e{i + 1}": c
        for i, p in enumerate(twists)
        if (c := p - 2 if i == 0 else p - 1) > 0
    }


# --- bundle_fan ---------------------------------------------------------------

@pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
def test_bundle_fan_matches_hirzebruch(a):
    assert fan_isomorphism(bundle_fan(BundleSpec((a,))), builtin(f"hirzebruch({a})"))


def test_product_bundle_has_five_rays():
    fan = bundle_fan(BundleSpec((0, 0)))
    assert len(fan.rays) == 5
    degrees = sorted(r.degree for r in primitive_relations(fan))
    assert degrees == [2, 3]


def test_bundle_fan_frozen_vectors():
    fan = bundle_fan(BundleSpec((1, 1, 0)))
    assert fan.generator("c1") == (1, 1, 0, -1)
    fan = bundle_fan(BundleSpec((1, 1)))
    assert fan.generator("a1") == (-1, -1, 0)
    assert fan.generator("c1") == (1, 1, -1)


def test_closed_form_matches_the_fan_rebuilt_from_relations():
    # every twist vector with entries <= 4 at d = 2..5 and <= 2 at d = 6, 7,
    # and every descending one with entries <= 3 at d = 8..10; bundle_fan is
    # built without make_fan, which must accept it unchanged
    specs = [
        BundleSpec(twists)
        for d in range(2, 8)
        for twists in product(range(5 if d <= 5 else 3), repeat=d - 1)
    ] + [
        BundleSpec(twists)
        for d in range(8, 11)
        for twists in combinations_with_replacement(range(3, -1, -1), d - 1)
    ]
    assert len(specs) == 1752 + 505
    for spec in specs:
        fan = bundle_fan(spec)
        assert fan_module.make_fan(spec.dimension, fan.rays, fan.max_cones) == fan
        rebuilt = fan_module.fan_from_relations(spec.dimension, *bundle_presentation(spec))
        assert fan == rebuilt
        assert "_inverses" not in vars(fan) and "_is_complete" not in vars(fan)


def test_bundle_cones_come_in_the_candidate_search_order():
    # each d - 1 fiber rays with b1, then with c1: the d-subsets holding
    # neither relation's left-hand side, in combinations order
    for d in range(2, 11):
        spec = BundleSpec((d, *range(d - 2)))
        names, relations, _ = bundle_presentation(spec)
        oracle = fan_module._candidate_cones(names, d, [frozenset(r.lhs) for r in relations])
        assert [cone.ray_names for cone in bundle_fan(spec).max_cones] == list(oracle)


def test_bundle_spec_validation():
    with pytest.raises(ValueError):
        BundleSpec((-1, 2))
    with pytest.raises(ValueError):
        BundleSpec(())
    for twists in ((2.7, 0), ("3",), (1, None)):
        with pytest.raises(TypeError):
            BundleSpec(twists)
    assert repr(BundleSpec([2, 0])) == "BundleSpec(twists=(2, 0))"


# --- reduce_step ----------------------------------------------------------------

def test_reduce_requires_a_big_twist():
    with pytest.raises(PreconditionViolated):
        reduce_step(BundleSpec((1, 0)))


def test_reduce_branch_with_zero_twist():
    step = reduce_step(BundleSpec((2, 0)))
    assert dict(step.relation.support) == {"e1": 1, "a1": 1}
    assert step.fan.generator("c'1") == (0, -1, -1)
    assert step.renormalized.twists == (1, 1)


def test_reduce_branch_all_positive():
    step = reduce_step(BundleSpec((2, 1)))
    assert step.relation.support == ()
    assert step.renormalized.twists == (0, 0)
    assert fan_isomorphism(step.fan, bundle_fan(BundleSpec((0, 0)))) is not None


def test_reduce_surface():
    step = reduce_step(BundleSpec((3,)))
    assert dict(step.relation.support) == {"e1": 1}
    assert fan_isomorphism(step.fan, builtin("hirzebruch(1)")) is not None


def test_reduce_accepts_unsorted_twists():
    step = reduce_step(BundleSpec((0, 3)))
    assert step.spec.twists == (3, 0)


@pytest.mark.parametrize("spec", bundle_specs_for_reduction(), ids=str)
def test_reduction_formula_and_invariants(spec):
    d = spec.dimension
    step = reduce_step(spec)
    assert dict(step.relation.support) == expected_reduction_support(step.spec.twists)
    # the twist sum is invariant mod d, and the reduction makes progress:
    # the descending twist vector strictly decreases lexicographically,
    # which is the measure that makes iterated reduction terminate
    assert (sum(step.renormalized.twists) - sum(spec.twists)) % d == 0
    assert all(p >= 0 for p in step.renormalized.twists)
    assert step.renormalized.sorted().twists < step.spec.twists


def test_reduction_formula_matches_the_shear():
    # _renormalized is deformation_chain's closed form of reduce_step's twists:
    # every descending twist vector with some twist >= 2, entries <= 6 at
    # d = 2..5 and <= 4 at d = 6, 7
    specs = [
        BundleSpec(twists)
        for d in range(2, 8)
        for twists in combinations_with_replacement(range(6 if d <= 5 else 4, -1, -1), d - 1)
        if max(twists) >= 2
    ]
    assert len(specs) == 638
    for spec in specs:
        assert scroll._renormalized(spec) == reduce_step(spec).renormalized, spec


def test_reduce_step_shears_the_splitting_the_full_search_picks():
    # the first (b1, c1) splitting of the fan rebuilt from relations, picked
    # out of every splitting, at d = 2..4 and along chains at d = 5..7
    specs = bundle_specs_for_reduction() + [
        spec
        for start, end in [((6, 3, 2, 0), (3, 3, 0, 0)), ((5, 5, 2, 1, 0), (3, 2, 1, 1, 0)),
                           ((8, 6, 4, 2, 0, 0), (4, 4, 4, 4, 2, 2))]
        for spec in deformation_chain(BundleSpec(start), BundleSpec(end)).specs
        if max(spec.twists) >= 2
    ]
    assert {spec.dimension for spec in specs} == {2, 3, 4, 5, 6, 7}
    for spec in specs:
        split, sheared = reduce_step_by_search(spec)
        axis = deform._axis_splittings(bundle_fan(spec), "b1", "c1")
        assert next(axis) == split
        assert reduce_step(spec).fan == sheared


D7_CHAIN = ((8, 6, 4, 2, 0, 0), (4, 4, 4, 4, 2, 2))


def test_d7_chain_rebuilds_nothing_from_relations(monkeypatch, drawn_splittings):
    # the chain steps by the reduction formula: it draws no splitting, shears
    # nothing and solves no presentation (every fan_from_relations call
    # solves in _solve_presentation), also when its bundle fans are read
    solved, sheared = [], []
    real_solve, real_shear = fan_module._solve_presentation, deform.shear_lower
    monkeypatch.setattr(
        fan_module, "_solve_presentation", lambda *a: solved.append(a) or real_solve(*a)
    )
    monkeypatch.setattr(deform, "shear_lower", lambda *a: sheared.append(a) or real_shear(*a))
    chain = deformation_chain(*map(BundleSpec, D7_CHAIN))
    assert chain is not None and len(chain.fans) == 10
    assert (solved, drawn_splittings, sheared) == ([], [], [])


def test_d7_chain_writes_its_fans_without_validating_them(monkeypatch, tmp_path):
    # the written files read only rays and cones: no make_fan call (wherever
    # fanshear imported it) and no cone-inverse table
    validated, tables = [], []
    real_make, real_inverses = fan_module.make_fan, fan_module._cone_inverses
    importers = [
        module for name, module in sys.modules.items()
        if name.partition(".")[0] == "fanshear" and getattr(module, "make_fan", None) is real_make
    ]
    assert {fan_module, fileformats} < set(importers)
    for module in importers:
        monkeypatch.setattr(
            module, "make_fan", lambda *a: validated.append(a) or real_make(*a)
        )
    monkeypatch.setattr(
        fan_module, "_cone_inverses", lambda fan: tables.append(fan) or real_inverses(fan)
    )
    start, end = (",".join(map(str, twists)) for twists in D7_CHAIN)
    argv = ["chain", "--dim", "7", "--from", start, "--to", end, "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(list(tmp_path.glob("V*.fan"))) == 10
    assert (validated, tables) == ([], [])
    # reading a written file validates it, and make_fan accepts every one
    for path in tmp_path.glob("V*.fan"):
        assert is_complete(fileformats.parse_fan(path.read_text()))
    assert len(validated) == len(tables) == 10


def test_d7_chain_runs_no_collection_search(monkeypatch):
    # axes, equators and the sheared relations are all tested by membership
    runs = []
    real = fan_module._minimal_transversals
    monkeypatch.setattr(
        fan_module, "_minimal_transversals", lambda fan: runs.append(fan) or real(fan)
    )
    chain = deformation_chain(BundleSpec((8, 6, 4, 2, 0, 0)), BundleSpec((4, 4, 4, 4, 2, 2)))
    assert len(chain.fans) == 10
    assert runs == []


@pytest.mark.parametrize("twists", [(2,), (3, 1), (2, 2, 0)])
def test_bundle_splitting_conditions_span_twist_range(twists):
    fan = bundle_fan(BundleSpec(twists))
    split = next(
        s
        for s in find_splittings(fan)
        if s.upper_names == ("b1",) and s.lower_names == ("c1",)
    )
    for k in range(max(twists) + 1):
        assert endpoint_conditions(split, k)


# --- chains ----------------------------------------------------------------------

def test_chain_three_zero_to_zero_zero():
    chain = deformation_chain(BundleSpec((3, 0)), BundleSpec((0, 0)))
    assert chain is not None
    assert [s.twists for s in chain.specs] == [(3, 0), (2, 1), (0, 0)]


def test_chain_absent_when_incongruent():
    assert deformation_chain(BundleSpec((1, 0)), BundleSpec((0, 0))) is None


def test_chain_surface_ladder():
    chain = deformation_chain(BundleSpec((4,)), BundleSpec((0,)))
    assert chain is not None
    assert [s.twists for s in chain.specs] == [(4,), (2,), (0,)]


def test_chain_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        deformation_chain(BundleSpec((1,)), BundleSpec((1, 0)))


def test_chain_trivial():
    chain = deformation_chain(BundleSpec((2, 1)), BundleSpec((1, 2)))
    assert chain is not None
    assert [s.twists for s in chain.specs] == [(2, 1)]


def descent_by_steps(spec):
    """The number of _renormalized steps from spec to its normal form."""
    steps = 0
    while max(spec.twists) >= 2:
        spec, steps = scroll._renormalized(spec), steps + 1
    return steps


def test_descent_length_matches_the_reduction_loop():
    # every descending twist vector with entries <= 6 at d = 2..5
    specs = [
        BundleSpec(twists)
        for d in range(2, 6)
        for twists in combinations_with_replacement(range(6, -1, -1), d - 1)
    ]
    assert len(specs) == 7 + 28 + 84 + 210
    lengths = [scroll._descent_length(spec) for spec in specs]
    assert lengths == [descent_by_steps(spec) for spec in specs]
    assert max(lengths) == 6


def test_chain_walks_up_to_the_cap_and_refuses_past_it(monkeypatch):
    # (2n,) descends in n steps to (0,), so (2 * CHAIN_CAP,) is just walked
    steps = []
    real = scroll._renormalized
    monkeypatch.setattr(scroll, "_renormalized", lambda spec: steps.append(spec) or real(spec))
    cap = scroll.CHAIN_CAP
    chain = deformation_chain(BundleSpec((2 * cap,)), BundleSpec((0,)))
    assert len(chain.specs) == cap + 1 and len(steps) == cap
    steps.clear()
    with pytest.raises(ValueError, match=f"take {cap + 1} reduction steps, more than the cap of {cap}"):
        deformation_chain(BundleSpec((2 * cap + 2,)), BundleSpec((0,)))
    assert steps == []
    # (2,) lies on the descent of (2 * CHAIN_CAP,), cap - 1 steps down: only
    # those steps are walked
    chain = deformation_chain(BundleSpec((2 * cap,)), BundleSpec((2,)))
    assert len(chain.specs) == cap and len(steps) == cap - 1
    steps.clear()
    # lengths 10000 and 5000, so 5000 steps bring them level; the descents then
    # meet only after more than the cap, which the walk stops at
    with pytest.raises(ValueError, match=f"take at least {cap + 2} reduction steps, "
                                         f"more than the cap of {cap}"):
        deformation_chain(BundleSpec((15000, 0)), BundleSpec((7500, 7500)))
    assert len(steps) == cap


def test_a_twelve_digit_twist_exits_two_without_a_step(monkeypatch, capsys):
    steps = []
    real = scroll._renormalized
    monkeypatch.setattr(scroll, "_renormalized", lambda spec: steps.append(spec) or real(spec))
    status = main(["chain", "--dim", "3", "--from", "999999999999,0", "--to", "0,0"])
    assert status == 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"error: the chain's descents take 666666666666 reduction steps, "
        f"more than the cap of {scroll.CHAIN_CAP}"
    )
    assert steps == []


def test_a_chain_between_equal_large_twists_takes_no_step(monkeypatch, capsys):
    # each twist's descent takes 20000 steps, but the chain takes none
    steps = []
    real = scroll._renormalized
    monkeypatch.setattr(scroll, "_renormalized", lambda spec: steps.append(spec) or real(spec))
    status = main(["chain", "--dim", "3", "--from", "30000,0", "--to", "30000,0"])
    assert status == 0 and "steps: 0" in capsys.readouterr().out.splitlines()
    assert steps == []


def test_chains_match_the_full_descent_oracle():
    # every congruent pair of descending twist vectors with entries <= 6 at
    # d = 2..4, pairs far down one long descent, and long descents that meet late
    specs = [
        BundleSpec(twists) for d in (2, 3, 4)
        for twists in combinations_with_replacement(range(6, -1, -1), d - 1)
    ]
    pairs = [(a, b) for a in specs for b in specs if a.dimension == b.dimension]
    long_descent = chain_by_full_descent(BundleSpec((90, 0)), BundleSpec((0, 0))).specs
    pairs += [(long_descent[i], long_descent[j]) for i in (0, 17) for j in (5, 40, 59)]
    pairs += [(BundleSpec(a), BundleSpec(b)) for a, b in [((45, 45), (88, 2)), ((60, 30), (90, 0))]]
    chains = 0
    for start, end in pairs:
        expected = chain_by_full_descent(start, end)
        assert deformation_chain(start, end) == expected, (start, end)
        chains += expected is not None
    assert (len(pairs), chains) == (7897, 2063)


def test_chains_are_reversible():
    for start, end in [((4, 1), (1, 1)), ((5,), (1,)), ((3, 3), (0, 0))]:
        forward = deformation_chain(BundleSpec(start), BundleSpec(end))
        backward = deformation_chain(BundleSpec(end), BundleSpec(start))
        assert forward is not None and backward is not None
        assert [s.twists for s in forward.specs] == [
            s.twists for s in reversed(backward.specs)
        ]


def test_chain_fans_are_bundle_fans():
    chain = deformation_chain(BundleSpec((3, 0)), BundleSpec((0, 0)))
    for spec, fan in zip(chain.specs, chain.fans):
        assert fan_isomorphism(fan, bundle_fan(spec)) is not None


def test_no_fan_outlives_its_call():
    # nothing in the package keeps a fan once the chain and the step are dropped
    chain = deformation_chain(*map(BundleSpec, D7_CHAIN))
    refs = [weakref.ref(fan) for fan in chain.fans]
    refs.append(weakref.ref(reduce_step(BundleSpec((2, 0))).fan))
    del chain
    gc.collect()
    assert len(refs) == 11
    assert [ref for ref in refs if ref() is not None] == []


def test_each_bundle_fan_is_built_once(monkeypatch, tmp_path):
    built, real_bundle_fan = [], scroll.bundle_fan
    monkeypatch.setattr(scroll, "bundle_fan", lambda spec: built.append(spec) or real_bundle_fan(spec))
    start, end = (",".join(map(str, twists)) for twists in D7_CHAIN)
    argv = ["chain", "--dim", "7", "--from", start, "--to", end, "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(list(tmp_path.glob("V*.fan"))) == 10
    assert len(built) == len(set(built)) == 10
    # a chain builds its fans only when they are read, one per spec
    built.clear()
    chain = deformation_chain(*map(BundleSpec, D7_CHAIN))
    assert built == []
    assert len(chain.fans) == len(chain.specs) == 10
    assert built == list(chain.specs)
    assert chain.fans is chain.fans and len(built) == 10


def test_d7_chain_computes_no_class_group(monkeypatch, capsys):
    # a fiber pair on a projective-space equator, or on a fibration axis of
    # the equator, has one divisor class and equivalent stars by construction:
    # no fiber type computes a class group or compares stars
    classes, stars = [], []
    real_classes, real_stars = divisor.class_group, deform.star_equivalent
    monkeypatch.setattr(
        divisor, "class_group", lambda fan: classes.append(fan) or real_classes(fan)
    )
    monkeypatch.setattr(
        deform, "star_equivalent", lambda *args: stars.append(args) or real_stars(*args)
    )
    status = main(["chain", "--dim", "7", "--from", "9,5,3,2,1,0", "--to", "1,1,1,1,1,1"])
    assert status == 0
    assert "steps: 8" in capsys.readouterr().out
    # the catalog's bundle equators once took 18 class groups and 18 star comparisons
    assert main(["catalog", "verify", "all"]) == 0
    assert (classes, stars) == ([], [])
