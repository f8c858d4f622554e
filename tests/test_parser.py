"""Grammar front end: round-trips, acceptance, rejection with positions."""

from __future__ import annotations

from string import ascii_letters, digits

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vflie import DEFAULT_CONTEXT, ExpPoly, ParseError, VariableContext
from vflie.parser import _tokenize, parse_expression, parse_field

from conftest import Q, rand_field, rand_poly, rng
from vflie.ring import ExpMonomial, format_poly, term_text


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


# (coefficient, the magnitude text it is written with)
TERM_COEFFS = [
    (Q(1), ""), (Q(-1), ""), (Q(3), "3"), (Q(-3), "3"),
    (Q(1, 2), "1/2"), (Q(-1, 2), "1/2"), (Q(7, 3), "7/3"), (Q(-12, 5), "12/5"),
]
# (monomial, its text)
TERM_MONOS = {
    "constant": (ExpMonomial((0, 0, 0), (0, 0, 0)), ""),
    "exp-only": (ExpMonomial((0, 0, 0), (0, Q(-3, 2), 1)), "exp(-3/2*y+z)"),
    "powers": (ExpMonomial((1, 2, 0), (0, 0, 0)), "x*y^2"),
    "mixed": (ExpMonomial((0, 0, 3), (1, 0, 0)), "z^3*exp(x)"),
}


@pytest.mark.parametrize("coeff, mag", TERM_COEFFS, ids=lambda v: str(v))
@pytest.mark.parametrize("kind", TERM_MONOS)
def test_term_text_spells_signs_and_magnitudes(coeff, mag, kind):
    """term_text writes the magnitude from numerator and denominator: no
    text for a unit coefficient unless the term is otherwise empty, the
    sign apart; and the term and its field re-parse to themselves."""
    mono, shape = TERM_MONOS[kind]
    names = DEFAULT_CONTEXT.names
    for tail in ("", "Dy"):
        expected = "*".join(part for part in (mag, shape, tail) if part) or "1"
        assert term_text(coeff, mono, names, tail) == (coeff < 0, expected)
    p = ExpPoly(3, {mono: coeff})
    assert parse_expression(str(p), DEFAULT_CONTEXT) == p
    v = parse_field(f"({p})*Dy - ({p})*x*Dz", DEFAULT_CONTEXT)
    assert parse_field(str(v), DEFAULT_CONTEXT) == v


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


# -- tokenizer ----------------------------------------------------------------------

_SYMBOLS = "+-*^/()[]"
_DIGITS = frozenset(digits)
_NAME_START = frozenset(ascii_letters + "_")
_NAME_CHARS = _NAME_START | _DIGITS


def reference_tokens(text: str) -> list[tuple[str, str, int]]:
    """A character-by-character scanner: ASCII digit runs, ASCII names, the
    nine symbols, str.isspace skipped, anything else a ParseError."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("NAT", text[i:j], i))
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


def scan(tokenize, text: str):
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        return ("error", exc.position, str(exc))
    return [t if isinstance(t, tuple) else (t.kind, t.text, t.pos) for t in tokens]


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@example("\u0663 x\u00e9")
@example("x\u3000+\x1c")
@example(" y \u3000")
@given(st.text(st.one_of(
    # grammar characters, Unicode digits, letters and whitespace, stray symbols
    st.sampled_from([*"09azAZ_Dxexp+-*^/()[]. !{\t\n\r", "\u0663", "\u00e9", "\x1c", "\u3000", "\x85", "\u00b2"]),
    st.characters(),
), max_size=16))
def test_tokenizer_matches_a_reference_scanner(text):
    assert scan(_tokenize, text) == scan(reference_tokens, text)
