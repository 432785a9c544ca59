from dataclasses import replace

import pytest

from fanshear import builtin, deform
from fanshear.catalog import entry, names, reconstruct, verify_weakened
from fanshear.cli import main
from fanshear.deform import find_splittings
from fanshear.divisor import FanoClass, classify_fano
from fanshear.errors import UnknownName
from fanshear.fan import is_complete, primitive_collections, primitive_relation
from fanshear.fileformats import parse_fan, serialize_fan


def test_fixed_names():
    assert names() == (
        "X3_0", "W4_1", "W4_2", "W4_3", "W4_4",
        "W4_5", "W4_6", "W4_7", "W4_8", "W4_9",
    )


def test_unknown_name():
    with pytest.raises(UnknownName):
        builtin("W4_10")
    with pytest.raises(UnknownName):
        builtin("bundle(3;1)")  # wrong twist count


@pytest.mark.parametrize(
    "name,rays",
    [
        ("X3_0", 6),
        ("W4_1", 7),
        ("W4_2", 8),
        ("W4_5", 9),
        ("W4_9", 10),
        ("hirzebruch(0)", 4),
        ("bundle(3;1,1)", 5),
        ("bundle(4;2,0,1)", 6),
    ],
)
def test_builtin_ray_counts(name, rays):
    fan = builtin(name)
    assert len(fan.rays) == rays
    assert is_complete(fan)


def test_hirzebruch_zero_is_product_of_lines():
    fan = builtin("hirzebruch(0)")
    assert classify_fano(fan).status is FanoClass.FANO
    assert len(find_splittings(fan)) == 4


def test_fixed_entries_have_labels():
    assert entry("W4_1").expected.endpoint_type_label == "D7"
    assert entry("W4_9").expected.endpoint_type_label == "U1"
    assert entry("X3_0").expected.endpoint_type_label is None


def test_verify_x30():
    report = verify_weakened(entry("X3_0"))
    assert report.ok
    assert "b1+c'1 = e2" in report.endpoint_relations
    assert report.extra_collections == ()


def test_verify_hirzebruch_two():
    report = verify_weakened(entry("hirzebruch(2)"))
    assert report.ok
    # the endpoint of the degree-two surface is the product of lines
    assert "b1+c'1 = 0" in report.endpoint_relations


def test_verify_fails_honestly_on_fano_input():
    # hirzebruch(1) is Fano; held to a weak-Fano expectation it must fail
    item = entry("hirzebruch(1)")
    wrong = replace(item, expected=replace(
        item.expected, classification=FanoClass.WEAK_FANO_NOT_FANO,
        endpoint_k=1, endpoint_is_fano=True,
    ))
    report = verify_weakened(wrong)
    assert not report.ok
    failing = [s for s in report.stages if not s.ok]
    assert failing and failing[0].name == "classification"
    assert failing[0].detail.endswith("expected WeakFanoNotFano")


@pytest.mark.parametrize(
    "name,classification",
    [
        ("hirzebruch(0)", FanoClass.FANO),
        ("hirzebruch(1)", FanoClass.FANO),
        ("hirzebruch(5)", FanoClass.NOT_WEAK_FANO),
        ("bundle(3;1,0)", FanoClass.FANO),
        ("bundle(4;2,1,0)", FanoClass.NOT_WEAK_FANO),
    ],
)
def test_verify_holds_each_entry_to_its_own_expectation(name, classification):
    item = entry(name)
    assert item.expected.classification is classification
    assert item.expected.endpoint_k is None
    report = verify_weakened(item)
    assert report.ok
    # no endpoint is expected, so the splitting and endpoint stages do not run
    assert [s.name for s in report.stages][-1] == "classification"
    assert report.endpoint_relations == ()


def test_verify_checks_the_expected_endpoint_fano_status():
    item = entry("hirzebruch(2)")
    assert verify_weakened(item).ok
    report = verify_weakened(replace(item, expected=replace(item.expected, endpoint_is_fano=False)))
    assert not report.ok
    assert [s.name for s in report.stages if not s.ok] == ["endpoint_fano"]


def test_verify_all_classifies_each_splitting_once(monkeypatch, capsys):
    asked, computed = [], []
    real_ask, real_compute = deform.fiber_type, deform._classify_fiber
    monkeypatch.setattr(deform, "fiber_type", lambda s: asked.append(s) or real_ask(s))
    monkeypatch.setattr(deform, "_classify_fiber", lambda s: computed.append(s) or real_compute(s))
    assert main(["catalog", "verify", "all"]) == 0
    capsys.readouterr()
    # asked and computed hold the splittings, so no id below is reused
    assert len(computed) == len({id(s) for s in computed}) == len({id(s) for s in asked})
    assert len(asked) > len(computed)  # endpoint asks again and hits the cache


def test_presented_collections_are_exhaustive():
    # the recomputed primitive-collection sets match the presentations
    for name in names():
        item = entry(name)
        fan = reconstruct(item)
        assert set(primitive_collections(fan)) == {
            frozenset(r.lhs) for r in item.relations
        }


def test_equator_matches_presentation_with_axis_relation_stripped():
    # dropping the two-ray axis relation leaves the fiber fan's presentation
    for name in ("W4_1", "W4_5", "W4_9"):
        item = entry(name)
        fan = reconstruct(item)
        axis = next(
            r for r in item.relations
            if {n: k for k, n in r.rhs}.get("x1", 0) == 2
        )
        split = next(
            s for s in find_splittings(fan) if set(s.upper_names + s.lower_names) == set(axis.lhs)
        )
        expected = {
            frozenset(r.lhs): {n: k for k, n in r.rhs}
            for r in item.relations
            if r is not axis
        }
        got = {
            frozenset(c): dict(primitive_relation(split.equator, c).support)
            for c in primitive_collections(split.equator)
        }
        assert got == expected


def test_serialization_roundtrip_bit_exact():
    for name in list(names()) + ["hirzebruch(4)", "bundle(3;2,0)"]:
        fan = builtin(name)
        text = serialize_fan(fan)
        assert parse_fan(text) == fan
        assert serialize_fan(parse_fan(text)) == text
