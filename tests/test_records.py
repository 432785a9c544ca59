"""The frozen-record semantics of every record class the package exports.

`fanshear._record.frozen` builds the records; these tests pin the frozen
dataclass behaviour the package and its reports rely on: the repr,
equality and hashing by field tuple within one class, keyword construction
and defaults, immutability, validation in __post_init__, and cached
properties on an immutable record.
"""

import enum
from itertools import product

import pytest

from conftest import exec_frozen

import fanshear
from fanshear import (
    BundleSpec, Cone, DeformationChain, DivisorClassData, ExpectedOutcome, FanoClass, Fan,
    IrrelevantData, Ray, UnimodularMap, builtin, class_group, classify_fano, deformation_chain,
    endpoint_conditions, entry, fiber_type, find_splittings, irrelevant_data,
    primitive_relations, reduce_step, split_with_frame, verify_weakened,
)


def samples(name="X3_0"):
    fan = builtin(name)
    split = find_splittings(fan)[0]
    item = entry(name)
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


def exec_generated(cls):
    """cls with its own body only, its methods generated from source by conftest.exec_frozen."""
    body = {
        key: value for key, value in vars(cls).items()
        if getattr(value, "__module__", None) != "fanshear._record"
        and key not in ("__dict__", "__weakref__")
    }
    return exec_frozen(type(cls.__name__, (), {**body, "__qualname__": cls.__qualname__}))


def test_repr_eq_and_hash_match_the_methods_generated_from_source():
    records = samples() + samples("W4_1")
    generated = {cls: exec_generated(cls) for cls in map(type, records)}
    twins = [generated[type(record)](*fields(record)) for record in records]
    for record, twin in zip(records, twins):
        assert type(twin) is not type(record)
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
    for (a, a_twin), (b, b_twin) in product(zip(records, twins), repeat=2):
        assert (a == b) is (a_twin == b_twin)
        assert (a.__eq__(b) is NotImplemented) is (a_twin.__eq__(b_twin) is NotImplemented)
    assert sum(a == b for a, b in product(records, repeat=2)) > len(records)


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


def test_calls_bind_as_the_init_generated_from_source():
    # every split of the arguments into positional and keyword ones, with
    # and without the default, one positional too many, an unknown keyword
    # and a field given twice
    twin = exec_generated(ExpectedOutcome)
    names = field_names(ExpectedOutcome(FanoClass.FANO, None, None))
    values = (FanoClass.FANO, 1, True, "V", "extra")
    calls = []
    for count in range(len(values) + 1):
        for mask in range(2 ** len(names)):
            kwargs = {n: v for i, (n, v) in enumerate(zip(names, values)) if mask >> i & 1}
            calls += [(values[:count], kwargs), (values[:count], {**kwargs, "other": 0})]

    def built(cls, args, kwargs):
        try:
            return fields(cls(*args, **kwargs))
        except TypeError:
            return TypeError

    outcomes = [built(ExpectedOutcome, *call) for call in calls]
    assert outcomes == [built(twin, *call) for call in calls]
    assert TypeError in outcomes and (FanoClass.FANO, 1, True, None) in outcomes


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
    # a splitting's fields are its frame; find_splittings fills in its fiber
    # type, and everything else is computed when first read, then kept
    split = find_splittings(fan)[0]
    lazy = ("lower_ends", "to_normal_form", "fan", "upper", "lower", "equator")
    frame = ("source", "basis_names", "rest_names", "upper_names", "lower_names")
    assert tuple(vars(split)) == (*frame, "fiber")
    for name in lazy:
        assert name not in vars(split)
        value = getattr(split, name)
        assert vars(split)[name] is value is getattr(split, name)
    assert split.fiber is fiber_type(split)
    assert split.source is fan and split == find_splittings(fan)[0]
    # a splitting with an explicit frame decides its fiber type when first read
    framed = split_with_frame(
        fan, *split.upper_names, *split.lower_names, split.basis_names, split.partner_name
    )
    assert tuple(vars(framed)) == frame and framed == split
    assert fiber_type(framed) == split.fiber and vars(framed)["fiber"] is framed.fiber
