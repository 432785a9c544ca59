"""The frozen-record semantics of every record class the package exports.

`fanshear._record.frozen` builds the records; these tests pin the frozen
dataclass behaviour the package and its reports rely on: the repr,
equality and hashing by field tuple within one class, keyword construction
and defaults, immutability, validation in __post_init__, and cached
properties on an immutable record.
"""

import enum

import pytest

import fanshear
from fanshear import (
    BundleSpec, Cone, DeformationChain, DivisorClassData, ExpectedOutcome, FanoClass, Fan,
    IrrelevantData, Ray, UnimodularMap, builtin, class_group, classify_fano, deformation_chain,
    endpoint_conditions, entry, fiber_type, find_splittings, irrelevant_data,
    primitive_relations, reduce_step, verify_weakened,
)


def samples():
    fan = builtin("X3_0")
    split = find_splittings(fan)[0]
    item = entry("X3_0")
    report = verify_weakened(item)
    return [
        fan, fan.rays[0], fan.max_cones[0], primitive_relations(fan)[0], item.relations[0],
        item, item.expected, split, fiber_type(split), endpoint_conditions(split, 1),
        class_group(fan), classify_fano(fan), irrelevant_data(fan), UnimodularMap.identity(3),
        BundleSpec((2, 1)), reduce_step(BundleSpec((2, 1))),
        deformation_chain(BundleSpec((3, 0)), BundleSpec((0, 0))), report, report.stages[0],
    ]


def field_names(record):
    return tuple(type(record).__annotations__)


def fields(record):
    return tuple(getattr(record, n) for n in field_names(record))


def test_samples_cover_every_exported_record_class():
    exported = {
        value for value in vars(fanshear).values()
        if isinstance(value, type) and value.__module__.startswith("fanshear.")
        and not issubclass(value, (Exception, enum.Enum))
    }
    assert exported <= {type(record) for record in samples()}


def test_repr_is_the_dataclass_repr():
    assert repr(Ray("e1", (1, 0))) == "Ray(name='e1', generator=(1, 0))"
    assert repr(BundleSpec([2, 1])) == "BundleSpec(twists=(2, 1))"
    assert repr(ExpectedOutcome(FanoClass.FANO, None, None)) == (
        "ExpectedOutcome(classification=<FanoClass.FANO: 'Fano'>, endpoint_k=None, "
        "endpoint_is_fano=None, endpoint_type_label=None)"
    )
    for record in samples():
        shown = ", ".join(f"{n}={getattr(record, n)!r}" for n in field_names(record))
        assert repr(record) == f"{type(record).__qualname__}({shown})"


def test_equal_records_are_equal_and_hash_equal():
    for record in samples():
        copy = type(record)(*fields(record))
        assert copy is not record and copy == record and not copy != record
        if isinstance(record, DivisorClassData):
            # class_of_ray is a mapping proxy, so the hash reads its sorted items
            matrix, rank, classes = fields(record)
            assert hash(copy) == hash(record) == hash((matrix, rank, *sorted(classes.items())))
            reordered = DivisorClassData(matrix, rank, dict(reversed(classes.items())))
            assert reordered == record and hash(reordered) == hash(record)
            assert {record: 1}[copy] == 1
        else:
            assert hash(copy) == hash(record) == hash(fields(record))


def test_records_of_different_classes_are_never_equal():
    value = ((1, 0), (0, 1))
    records = [Cone(value), IrrelevantData(value), DeformationChain(value), UnimodularMap(value)]
    for a in records:
        for b in records:
            assert (a == b) is (a is b)
            if a is not b:
                assert a.__eq__(b) is NotImplemented
    assert Cone(value) != value and Cone(("a",)) != IrrelevantData(("a",))


def test_keyword_construction_and_defaults():
    for record in samples():
        by_name = {n: getattr(record, n) for n in reversed(field_names(record))}
        assert type(record)(**by_name) == record
    outcome = ExpectedOutcome(classification=FanoClass.FANO, endpoint_k=None,
                              endpoint_is_fano=None)
    assert outcome.endpoint_type_label is None
    assert ExpectedOutcome(FanoClass.FANO, 1, True, "V") == ExpectedOutcome(
        FanoClass.FANO, 1, True, endpoint_type_label="V")
    with pytest.raises(TypeError):
        Ray("e1")
    with pytest.raises(TypeError):
        Ray("e1", (1,), name="e2")


def test_fields_cannot_be_assigned_or_deleted():
    for record in samples():
        first = field_names(record)[0]
        before = getattr(record, first)
        with pytest.raises(AttributeError):
            setattr(record, first, None)
        with pytest.raises(AttributeError):
            delattr(record, first)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert getattr(record, first) is before


def test_post_init_normalises_and_validates():
    assert BundleSpec([2, 1]).twists == (2, 1)
    with pytest.raises(TypeError):
        BundleSpec(["2", 1])
    with pytest.raises(ValueError):
        BundleSpec((-1,))
    with pytest.raises(ValueError):
        BundleSpec(())
    with pytest.raises(ValueError, match="square"):
        UnimodularMap(((1, 0),))
    with pytest.raises(ValueError, match="unimodular"):
        UnimodularMap(((2, 0), (0, 1)))


def test_cached_properties_fill_on_immutable_records():
    built = builtin("W4_1")
    fan = Fan(built.dimension, built.rays, built.max_cones)
    assert "cone_sets" not in vars(fan)
    assert fan.cone_sets == tuple(frozenset(c.ray_names) for c in fan.max_cones)
    assert vars(fan)["cone_sets"] is fan.cone_sets
    chain = deformation_chain(BundleSpec((3, 0)), BundleSpec((0, 0)))
    assert "fans" not in vars(chain)
    fans = chain.fans
    assert len(fans) == len(chain.specs) == 3
    assert vars(chain)["fans"] is fans is chain.fans
    # a splitting's fields are its frame; everything else is computed when
    # first read, then kept
    split = find_splittings(fan)[0]
    lazy = ("fiber", "lower_ends", "to_normal_form", "fan", "upper", "lower", "equator")
    assert tuple(vars(split)) == (
        "source", "basis_names", "rest_names", "upper_names", "lower_names"
    )
    for name in lazy:
        assert name not in vars(split)
        value = getattr(split, name)
        assert vars(split)[name] is value is getattr(split, name)
    assert split.fiber is fiber_type(split)
    assert split.source is fan and split == find_splittings(fan)[0]
