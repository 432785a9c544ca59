import re
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from fanshear import builtin, catalog, deform
from fanshear import fan as fan_module
from fanshear.catalog import (
    CatalogEntry, ExpectedOutcome, entry, names, reconstruct, verify_weakened,
)
from fanshear.cli import main
from fanshear.deform import find_splittings
from fanshear.divisor import FanoClass, classify_fano
from fanshear.errors import UnknownName
from fanshear.fan import is_complete, primitive_collections, primitive_relation
from fanshear.fileformats import parse_fan, serialize_fan


BASE_FANS_COMPUTED_BY_VERIFY = {
    "X3_0": 1, "W4_1": 1, "W4_2": 1, "W4_3": 1, "W4_4": 1,
    "W4_5": 1, "W4_6": 1, "W4_7": 1, "W4_8": 1, "W4_9": 1,
}
SPLITTINGS_DRAWN_BY_VERIFY = {**BASE_FANS_COMPUTED_BY_VERIFY, "W4_2": 5, "W4_3": 5}


def test_verify_builds_splittings_only_up_to_the_first_deformable(
    capsys, built_splittings, drawn_splittings
):
    # find_splittings draws 56 on the ten entries (12 each on W4_2 and
    # W4_3); verification draws splittings up to the first deformable one,
    # and only that one, the one it deforms, computes its base fan
    built, drawn = {}, {}
    for name in names():
        built_splittings.clear()
        drawn_splittings.clear()
        assert main(["catalog", "verify", name]) == 0
        built[name], drawn[name] = len(built_splittings), len(drawn_splittings)
        assert len(built_splittings) == 1 and built_splittings[0] is drawn_splittings[-1], name
    assert built == BASE_FANS_COMPUTED_BY_VERIFY
    assert drawn == SPLITTINGS_DRAWN_BY_VERIFY
    built_splittings.clear()
    drawn_splittings.clear()
    assert main(["catalog", "verify", "all"]) == 0
    assert len(built_splittings) == sum(BASE_FANS_COMPUTED_BY_VERIFY.values()) == 10
    assert len(drawn_splittings) == sum(SPLITTINGS_DRAWN_BY_VERIFY.values()) == 18
    # the shear reads the base fan only: no half-fan, no equator
    for split in drawn_splittings:
        assert not {"upper", "lower", "equator"} & set(vars(split))
    assert sum("fan" in vars(split) for split in drawn_splittings) == 10


def test_find_splittings_builds_only_the_splittings_it_returns(built_splittings, drawn_splittings):
    # the designations are read off the input fan, not off an extra
    # splitting, and the splittings returned compute nothing until read
    total = 0
    for name in names():
        drawn_splittings.clear()
        found = find_splittings(builtin(name))
        assert drawn_splittings == list(found), name
        for split in found:
            assert not {"fan", "upper", "lower", "equator", "to_normal_form"} & set(vars(split))
        total += len(found)
    assert total == 56
    assert built_splittings == []


def test_verify_all_fills_one_inverse_table_per_fan_it_reads(capsys, monkeypatch):
    # no equator's table is filled only to read its designations or its fiber
    # type: the ten entries' fans and their ten endpoints
    tables = []
    real = fan_module._cone_inverses
    monkeypatch.setattr(fan_module, "_cone_inverses", lambda fan: tables.append(fan) or real(fan))
    assert main(["catalog", "verify", "all"]) == 0
    assert len(tables) == len({id(fan) for fan in tables}) == 20


def test_verify_runs_at_most_two_collection_searches_per_entry(capsys, monkeypatch):
    # one: the catalog's collections against the fan's; the endpoint takes
    # the fan's collections, and all its relations but one, from the fan
    runs, validated = [], []
    real, real_make = fan_module._minimal_transversals, fan_module.make_fan
    monkeypatch.setattr(
        fan_module, "_minimal_transversals", lambda fan: runs.append(fan) or real(fan)
    )
    monkeypatch.setattr(fan_module, "make_fan", lambda *a: validated.append(a) or real_make(*a))
    for name in names():
        runs.clear()
        validated.clear()
        assert main(["catalog", "verify", name]) == 0
        # the fan reconstructed from the entry's relations, and not its endpoint
        assert len(runs) == len(validated) == 1, name
    runs.clear()
    validated.clear()
    assert main(["catalog", "verify", "all"]) == 0
    assert len(runs) == len(validated) == len(names()) == 10


def test_verify_all_tests_few_axes(capsys, monkeypatch):
    # only the ray pairs whose stars split the maximal cones are tested as
    # axes, of the fan and of each equator, each unordered pair once (1092
    # tests over every ordered pair, 120 over each orientation of a pair,
    # 68 while each bundle fiber was tested again), and no fiber type tests
    tested = []
    real = deform._is_axis
    monkeypatch.setattr(deform, "_is_axis", lambda *a: tested.append(a) or real(*a))
    assert main(["catalog", "verify", "all"]) == 0
    assert len(tested) == 50


def test_verify_all_walks_to_67_relation_sums(capsys, monkeypatch):
    # the endpoints solve only their axis relations: every other relation
    # is copied from the input fan
    walks = []
    real = fan_module._walk_to_sum
    monkeypatch.setattr(
        fan_module, "_walk_to_sum", lambda *a: walks.append(a) or real(*a)
    )
    assert main(["catalog", "verify", "all"]) == 0
    assert len(walks) == 67


def bundle_names_up_to(top):
    """Every bundle(d;...) with twists in {0, 1, 2}: all orders for d <= 5, descending above."""
    for d in range(2, top + 1):
        for twists in product(range(3), repeat=d - 1):
            if d <= 5 or list(twists) == sorted(twists, reverse=True):
                yield f"bundle({d};{','.join(map(str, twists))})"


def test_verify_passes_on_every_small_twist_bundle():
    # a twist-sum-2 bundle of dimension d >= 3 has a k = 1 endpoint with
    # twist sum 2 mod d, which is weak Fano but not Fano
    failed = [n for n in bundle_names_up_to(8) if not verify_weakened(entry(n)).ok]
    assert failed == []
    for a in range(9):
        assert verify_weakened(entry(f"hirzebruch({a})")).ok, a
    assert entry("bundle(2;2)").expected.endpoint_is_fano
    assert not entry("bundle(3;2,0)").expected.endpoint_is_fano


def test_verify_twist_sum_two_bundle_output(capsys):
    assert main(["catalog", "verify", "bundle(3;2,0)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "stage_endpoint_fano: pass (WeakFanoNotFano)" in out
    assert "endpoint_relation: b1+c'1 = e1 + a1" in out
    assert out[-1] == "verified: true"


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
    # an empty twist, and digits that are not ASCII
    for name in ["bundle(3;1,,0)", "bundle(3;,1,0)", "hirzebruch(\uff11)", "bundle(3;1,\u0660)"]:
        with pytest.raises(UnknownName, match="no catalog entry"):
            builtin(name)
    for name in ["bundle(0;1)", "bundle(1;5)"]:
        with pytest.raises(UnknownName, match="needs d ≥ 2"):
            builtin(name)


def parsed_by_regex(name):
    """The twists entry() once read from a family name with its regular expressions."""
    m = re.match(r"hirzebruch\(([0-9]+)\)\Z", name)
    if m:
        return (int(m.group(1)),)
    m = re.match(r"bundle\(([0-9]+);([0-9]+(?:,[0-9]+)*)\)\Z", name)
    if m:
        d = int(m.group(1))
        twists = tuple(int(p) for p in m.group(2).split(","))
        if d < 2:
            raise UnknownName(f"bundle({d};...): a bundle needs d ≥ 2")
        if len(twists) != d - 1:
            raise UnknownName(f"bundle({d};...) needs {d - 1} twists")
        return twists
    raise UnknownName(f"no catalog entry named {name!r}")


def outcome(parse, name):
    try:
        return parse(name)
    except UnknownName as exc:
        return str(exc)


@given(st.lists(st.sampled_from(
    ["hirzebruch", "bundle", "(", ")", ";", ",", "0", "1", "3", "١", "x", " ", "\n"]
), max_size=9).map("".join))
@example("bundle(3;1,0)")
@example("hirzebruch(12)")
@example("bundle(3;1,0))")
@example("bundle(1;)")
@example("bundle(3;1;0)")
def test_family_names_parse_as_the_regular_expressions_did(name):
    with mock.patch.object(catalog, "_bundle_entry", lambda _, spec: spec.twists):
        assert outcome(entry, name) == outcome(parsed_by_regex, name)


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


def with_expected(item, **changes):
    """item, built anew, with the given fields of its expected outcome changed."""
    e = item.expected
    expected = ExpectedOutcome(**{
        "classification": e.classification, "endpoint_k": e.endpoint_k,
        "endpoint_is_fano": e.endpoint_is_fano, "endpoint_type_label": e.endpoint_type_label,
        **changes,
    })
    return CatalogEntry(
        item.name, item.dimension, item.generator_names, item.relations, item.basis, expected,
    )


def test_verify_fails_honestly_on_fano_input():
    # hirzebruch(1) is Fano; held to a weak-Fano expectation it must fail
    item = entry("hirzebruch(1)")
    wrong = with_expected(
        item, classification=FanoClass.WEAK_FANO_NOT_FANO, endpoint_k=1, endpoint_is_fano=True,
    )
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
    report = verify_weakened(with_expected(item, endpoint_is_fano=False))
    assert not report.ok
    assert [s.name for s in report.stages if not s.ok] == ["endpoint_fano"]


def test_verify_all_classifies_each_splitting_once(
    monkeypatch, capsys, built_splittings, drawn_splittings
):
    asked, computed = [], []
    real_ask, real_compute = deform.fiber_type, deform._fiber_of
    monkeypatch.setattr(deform, "fiber_type", lambda s: asked.append(s) or real_ask(s))
    monkeypatch.setattr(deform, "_fiber_of", lambda *a: computed.append(a) or real_compute(*a))
    assert main(["catalog", "verify", "all"]) == 0
    capsys.readouterr()
    # every splitting drawn is asked, and comes classified by its designation,
    # as _fiber_of classifies it on the input fan; the one deformed is asked
    # again, by the report and by endpoint
    assert computed == [] and len(drawn_splittings) == 18
    assert list(dict.fromkeys(map(id, asked))) == list(map(id, drawn_splittings))
    assert len(asked) == 18 + 2 * 10
    assert len(built_splittings) == 10
    assert all(any(split is s for s in drawn_splittings) for split in built_splittings)
    assert all(real_ask(s) is vars(s)["fiber"] for s in asked)
    assert all(
        s.fiber == real_compute(s.source, s.upper_names + s.lower_names, s.pivot_name, s.rest_names)
        for s in drawn_splittings
    )


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
