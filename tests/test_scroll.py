import pytest

from conftest import bundle_specs_for_reduction

from fanshear.deform import endpoint_conditions, find_splittings
from fanshear.errors import DimensionMismatch, PreconditionViolated
from fanshear.fan import fan_isomorphism, primitive_relations
from fanshear.scroll import BundleSpec, bundle_fan, deformation_chain, reduce_step
from fanshear import builtin, divisor, scroll
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


def test_bundle_spec_validation():
    with pytest.raises(ValueError):
        BundleSpec((-1, 2))
    with pytest.raises(ValueError):
        BundleSpec(())


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


def test_d7_chain_computes_no_class_group(monkeypatch, capsys):
    # every equator of a bundle is a projective space, whose fiber pair
    # needs neither divisor classes nor a star comparison
    scroll._bundle_fan_cached.cache_clear()
    scroll._reduce_step_cached.cache_clear()
    calls = []
    real = divisor._class_group
    monkeypatch.setattr(divisor, "_class_group", lambda fan: calls.append(fan) or real(fan))
    status = main(["chain", "--dim", "7", "--from", "9,5,3,2,1,0", "--to", "1,1,1,1,1,1"])
    assert status == 0
    assert "steps: 8" in capsys.readouterr().out
    assert calls == []
