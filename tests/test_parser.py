"""Grammar front end: round-trips, acceptance, rejection with positions."""

from __future__ import annotations

import pytest

from vflie import DEFAULT_CONTEXT, ParseError, VariableContext
from vflie.parser import parse_expression, parse_field

from conftest import rand_field, rand_poly, rng
from vflie.ring import format_poly


def test_field_example_from_text():
    v = parse_field("y*Dx + x^2*exp(y)*Dz", DEFAULT_CONTEXT)
    assert str(v) == "y*Dx + x^2*exp(y)*Dz"
    assert v.comps[1].is_zero


def test_bare_basis_symbol():
    v = parse_field("Dz", DEFAULT_CONTEXT)
    assert v == DEFAULT_CONTEXT.partial(2)


def test_double_star_rejected_with_position():
    with pytest.raises(ParseError) as err:
        parse_field("x**2*Dz", DEFAULT_CONTEXT)
    assert err.value.position == 2
    assert err.value.expected  # expected-token set is reported


@pytest.mark.parametrize(
    "text, position",
    [("2\u00b2*Dx", 1), ("x^\u00b2*Dx", 2), ("\u0663*Dx", 0)],
    ids=["superscript-digit", "superscript-exponent", "arabic-indic-digit"],
)
def test_non_ascii_digits_rejected_with_position(text, position):
    with pytest.raises(ParseError) as err:
        parse_field(text, DEFAULT_CONTEXT)
    assert err.value.position == position


def test_term_without_basis_symbol_rejected():
    with pytest.raises(ParseError):
        parse_field("x*Dz + 3", DEFAULT_CONTEXT)


def test_zero_field_round_trip():
    v = parse_field("0", DEFAULT_CONTEXT)
    assert v.is_zero
    assert str(v) == "0"
    assert parse_field(str(v), DEFAULT_CONTEXT) == v


def test_parenthesized_input_accepted_canonical_output_expanded():
    v = parse_field("(x+y)*Dz", DEFAULT_CONTEXT)
    assert str(v) == "x*Dz + y*Dz"
    assert parse_field(str(v), DEFAULT_CONTEXT) == v


def test_signs_and_rationals():
    p = parse_expression("-3/2*x + y - 1/7", DEFAULT_CONTEXT)
    assert str(p) == "-1/7 - 3/2*x + y"
    assert parse_expression(str(p), DEFAULT_CONTEXT) == p


def test_leading_minus_on_fields():
    v = parse_field("-Dx + 2*Dz", DEFAULT_CONTEXT)
    assert str(v) == "-Dx + 2*Dz"


def test_exp_linform_variants():
    for text in ("exp(y)", "exp(2*x+3/2*y)", "exp(-y)", "exp(x-2*z)"):
        p = parse_expression(text, DEFAULT_CONTEXT)
        assert parse_expression(str(p), DEFAULT_CONTEXT) == p


def test_exp_requires_linear_form():
    with pytest.raises(ParseError):
        parse_expression("exp(x^2)", DEFAULT_CONTEXT)
    with pytest.raises(ParseError):
        parse_expression("exp(1)", DEFAULT_CONTEXT)


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        parse_expression("w + x", DEFAULT_CONTEXT)
    with pytest.raises(ParseError):
        parse_field("Dw", DEFAULT_CONTEXT)


def test_two_basis_symbols_in_one_term_rejected():
    with pytest.raises(ParseError):
        parse_field("Dx*Dz", DEFAULT_CONTEXT)


def test_bracketed_basis_symbol():
    assert parse_field("D[z]", DEFAULT_CONTEXT) == DEFAULT_CONTEXT.partial(2)


def test_custom_variable_names():
    ctx = VariableContext(("u", "v"))
    v = parse_field("v*Du + 2*Dv", ctx)
    assert str(v) == "v*Du + 2*Dv"


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_expression("x + y )", DEFAULT_CONTEXT)


def test_round_trip_on_random_polys():
    r = rng(20240510)
    for _ in range(60):
        p = rand_poly(r, allow_exp=True, max_deg=3)
        assert parse_expression(format_poly(p, DEFAULT_CONTEXT.names), DEFAULT_CONTEXT) == p


def test_round_trip_on_random_fields():
    r = rng(20240511)
    for _ in range(60):
        v = rand_field(r, DEFAULT_CONTEXT, allow_exp=True)
        assert parse_field(str(v), DEFAULT_CONTEXT) == v
        # printing is canonical: a second round trip reproduces the string
        assert str(parse_field(str(v), DEFAULT_CONTEXT)) == str(v)
