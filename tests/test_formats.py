import re

import pytest
from hypothesis import example, given, strategies as st

from fanshear import builtin
from fanshear.errors import ParseError, SingularCone
from fanshear.fan import fan_from_relations
from fanshear.fileformats import (
    _parse_int,
    parse_fan,
    parse_relation_presentation,
    serialize_fan,
)

F2_TEXT = """\
# a ruled surface of degree two
dim 2

ray e1 1 0
ray a1 -1 0
ray b1 0 1
ray c1 2 -1    # the sheared section

cone e1 b1
cone b1 a1
cone a1 c1
cone c1 e1
"""


def test_parse_with_comments_and_blanks():
    fan = parse_fan(F2_TEXT)
    assert fan.dimension == 2
    assert fan.generator("c1") == (2, -1)
    assert len(fan.max_cones) == 4


def test_serialize_is_canonical():
    fan = parse_fan(F2_TEXT)
    assert serialize_fan(fan) == (
        "dim 2\n"
        "ray e1 1 0\n"
        "ray a1 -1 0\n"
        "ray b1 0 1\n"
        "ray c1 2 -1\n"
        "cone e1 b1\n"
        "cone b1 a1\n"
        "cone a1 c1\n"
        "cone c1 e1\n"
    )


def test_roundtrip_field_by_field():
    fan = builtin("W4_5")
    assert parse_fan(serialize_fan(fan)) == fan


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("ray x 1 0\n", "ray before dim"),
        ("dim 2\nray x 1\n", "needs a name and 2 integers"),
        ("dim 2\nray x 1 0\nray x 0 1\n", "duplicate ray name"),
        ("dim 2\nray x 1 0\ncone x y\n", "unknown ray 'y'"),
        ("dim 2\nray x 1 z\n", "expected an integer"),
        ("dim 2\nray x 1_0 1\n", "expected an integer, got '1_0'"),
        ("dim 2\nray x \uff11 0\n", "expected an integer"),
        ("dim \u0662\n", "expected an integer"),
        ("dim 2\nwat 1\n", "unknown keyword"),
        ("dim 2\ndim 3\n", "duplicate dim"),
        ("", "missing dim"),
        ("dim 2\n", "no rays"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_fan(text)
    assert fragment in str(err.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_fan("dim 2\nray x 1 oops\n")
    assert "line 2" in str(err.value)


def test_math_errors_pass_through():
    with pytest.raises(SingularCone):
        parse_fan("dim 2\nray x 1 0\nray y 1 2\ncone x y\n")


REL_TEXT = """\
dim 3
gens e1 e2 a1 a2 b1 c1
rel e1+a1 = e2
rel e2+a2 = 0
rel b1+c1 = 2*e1
basis e1 e2 b1
"""


def test_relation_file_reconstructs_catalog_fan():
    dimension, gens, relations, basis = parse_relation_presentation(REL_TEXT)
    fan = fan_from_relations(dimension, gens, relations, basis)
    assert fan == builtin("X3_0")


def test_relation_file_without_basis():
    text = "dim 2\ngens e1 a1 b1 c1\nrel e1+a1 = 0\nrel b1+c1 = 3*e1\n"
    dimension, gens, relations, basis = parse_relation_presentation(text)
    assert basis is None
    fan = fan_from_relations(dimension, gens, relations, basis)
    assert len(fan.max_cones) == 4


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("dim 2\nrel a+b = 0\n", "rel before gens"),
        ("dim 2\ngens a b\nrel a+c = 0\n", "unknown generator 'c'"),
        ("dim 2\ngens a b\nrel a b\n", "needs an '='"),
        ("dim 2\ngens a b\nrel a+b = 1_0*a\n", "line 3: expected an integer, got '1_0'"),
        ("gens a b\n", "missing dim"),
        ("dim 2\ngens a b\nbasis a q\n", "unknown generator 'q'"),
        # a repeated header is rejected, not overwritten by the last one
        ("dim 5\ndim 2\ngens a b\n", "line 2: duplicate dim line"),
        ("dim 2\ngens a b\ngens a b\n", "line 3: duplicate gens line"),
        ("dim 2\ngens a b\nbasis a b\nbasis a b\n", "line 4: duplicate basis line"),
        ("dim 2\ngens a b a\n", "line 2: duplicate generator name"),
        ("dim 2\n", "missing gens line"),
        ("dim 2\ngens a b c\nrel a+ = 0\n", "line 3: empty term on the left-hand side"),
    ],
)
def test_relation_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_relation_presentation(text)
    assert fragment in str(err.value)


@given(st.text(st.sampled_from(["+", "-", "0", "7", "9", "_", " ", "\n", "a", "١", "²", "１"]),
               max_size=6))
@example("+")
@example("")
@example("1_0")
@example("١")
@example("²")
@example("-0")
@example("+-1")
def test_parse_int_reads_exactly_an_optionally_signed_run_of_ascii_digits(token):
    if re.fullmatch(r"[+-]?[0-9]+", token):
        assert _parse_int(token) == int(token)
    else:
        with pytest.raises(ParseError, match="expected an integer"):
            _parse_int(token)
