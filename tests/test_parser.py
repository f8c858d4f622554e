"""Grammar front end: round-trips, acceptance, rejection with positions, the
tokenizer against a reference scanner, and random expression trees against
the ring."""

from __future__ import annotations

from string import ascii_letters, digits

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vflie import DEFAULT_CONTEXT, ExpPoly, ParseError, VariableContext
from vflie.parser import MAX_DEPTH, _tokenize, parse_expression, parse_field

from conftest import Q, rand_field, rand_poly, rng
from vflie.ring import _ZEROS, ExpMonomial, format_poly, term_text


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


@pytest.mark.parametrize("text", ["0", "-0", "0*x", " 0 * y^2 "])
def test_a_lone_zero_term_is_the_zero_field(text):
    assert parse_field(text, DEFAULT_CONTEXT) == parse_field("0*Dx", DEFAULT_CONTEXT)


FACTOR = ("rational", "variable", "'exp'", "'('")
END = ("'+'", "'-'", "'*'", "end of input")
# one row per ParseError raise site: (text, mode, message, position, expected)
PARSE_ERRORS = [
    ("x + 2$", "expression", "unexpected character '$'", 5, ()),
    ("Dx + 2 $", "field", "unexpected character '$'", 7, ()),
    ("1/0*Dx", "field", "zero denominator", 2, ()),
    ("1/x*Dx", "field", "unexpected 'x'", 2, ("natural number",)),
    ("exp(w)*Dx", "field", "unknown variable 'w'", 4, ("variable",)),
    ("exp(y+exp)", "expression", "unknown variable 'exp'", 6, ("variable",)),
    ("x*Dw", "field", "unknown basis symbol Dw", 2, ("basis symbol",)),
    ("x*D[w]", "field", "unknown basis symbol Dw", 2, ("basis symbol",)),
    ("Dx*Dw", "field", "unknown basis symbol Dw", 3, ("basis symbol",)),
    ("Dx*Dz", "field", "more than one basis symbol in a term", 3, ()),
    ("Dx*D[z]", "field", "more than one basis symbol in a term", 3, ()),
    ("D[x]*D[z]", "field", "more than one basis symbol in a term", 5, ()),
    ("D[y]*x*Dy", "field", "more than one basis symbol in a term", 7, ()),
    ("(x+y*z", "expression", "unexpected 'end of input'", 6, ("')'",)),
    ("exp(x*Dx", "field", "unexpected '*'", 5, ("')'",)),
    ("D[x*y", "field", "unexpected '*'", 3, ("']'",)),
    ("D*x", "field", "unexpected '*'", 1, ("'['",)),
    ("D[2]", "field", "unexpected '2'", 2, ("variable",)),
    ("x^y*Dx", "field", "unexpected 'y'", 2, ("natural number",)),
    ("x^", "expression", "unexpected 'end of input'", 2, ("natural number",)),
    ("", "field", "unexpected 'end of input'", 0, FACTOR + ("basis symbol",)),
    ("", "expression", "unexpected 'end of input'", 0, FACTOR),
    ("  ", "field", "unexpected 'end of input'", 2, FACTOR + ("basis symbol",)),
    ("exp(1)", "expression", "unexpected ')'", 5, ("'*'",)),
    ("exp(2 x)", "expression", "unexpected 'x'", 6, ("'*'",)),
    ("exp(-)", "expression", "unexpected ')'", 5, ("variable",)),
    ("exp x", "expression", "unexpected 'x'", 4, ("'('",)),
    ("x + y )", "expression", "unexpected ')'", 6, END),
    ("Dx Dy", "field", "unexpected 'Dy'", 3, END),
    ("--x", "expression", "unexpected '-'", 1, FACTOR),
    ("(Dx)", "field", "unexpected 'Dx'", 1, FACTOR),
    ("Dx", "expression", "unexpected 'Dx'", 0, FACTOR),
    ("x**2*Dz", "field", "unexpected '*'", 2, FACTOR + ("basis symbol",)),
    ("w*Dx", "field", "unexpected 'w'", 0, FACTOR + ("basis symbol",)),
    ("x*Dz + 3", "field", "term without a basis symbol", 7, ("basis symbol",)),
    # every term without a basis symbol but a lone zero term is an error at
    # the first such term, even where such terms cancel
    ("3*Dx + 2 + x - 2", "field", "term without a basis symbol", 7, ("basis symbol",)),
    ("Dx + 3 - 3", "field", "term without a basis symbol", 5, ("basis symbol",)),
    ("Dz - x + x", "field", "term without a basis symbol", 5, ("basis symbol",)),
    ("0 + Dx", "field", "term without a basis symbol", 0, ("basis symbol",)),
    ("0 - 0", "field", "term without a basis symbol", 0, ("basis symbol",)),
    # the scalar-term check comes before the check for trailing input
    ("Dx + 3 )", "field", "term without a basis symbol", 5, ("basis symbol",)),
    # one level past the nesting bound, at the "(" that opens it
    (" (" * (MAX_DEPTH + 1) + "x", "field",
     f"parentheses nested deeper than {MAX_DEPTH}", 2 * MAX_DEPTH + 1, ()),
]


@pytest.mark.parametrize(
    "text, mode, message, position, expected", PARSE_ERRORS, ids=[repr(row[0])[:24] for row in PARSE_ERRORS]
)
def test_parse_errors_are_pinned(text, mode, message, position, expected):
    parse = parse_field if mode == "field" else parse_expression
    with pytest.raises(ParseError) as err:
        parse(text, DEFAULT_CONTEXT)
    assert str(err.value).split(" at position ")[0] == message
    assert (err.value.position, err.value.expected) == (position, expected)


def test_parentheses_nest_up_to_the_bound():
    nested = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert parse_expression(nested, DEFAULT_CONTEXT) == parse_expression("x", DEFAULT_CONTEXT)
    assert parse_field(nested + "*Dy", DEFAULT_CONTEXT) == parse_field("x*Dy", DEFAULT_CONTEXT)
    # a sibling parenthesis does not add a level
    assert parse_field(f"{nested}*{nested}*Dy", DEFAULT_CONTEXT) == parse_field("x^2*Dy", DEFAULT_CONTEXT)


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
        return tokenize(text)
    except ParseError as exc:
        return ("error", exc.position, str(exc))


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


# -- oracle: random expression trees, printed loosely, evaluated in the ring -------

CONTEXTS = [VariableContext(("t",)), VariableContext(("u", "v")), DEFAULT_CONTEXT]


def const(n: int, value) -> ExpPoly:
    return ExpPoly.monomial((0,) * n, (0,) * n, value)


@st.composite
def rationals(draw):
    """(text, value) of a rational, sometimes written p/1."""
    p, q = draw(st.integers(0, 9)), draw(st.integers(1, 4))
    return (f"{p}/{q}" if q > 1 or draw(st.booleans()) else str(p)), Q(p, q)


@st.composite
def linforms(draw, names):
    """(text, rates) of a linear form; half of them end with their own
    negation, so that the rates cancel (exp(x - x) = 1)."""
    n = len(names)
    terms = draw(st.lists(st.tuples(st.booleans(), st.integers(0, n - 1), rationals()), min_size=1, max_size=3))
    if draw(st.booleans()):
        terms += [(not negative, i, r) for negative, i, r in terms]
    text, rates = "", [Q(0)] * n
    for k, (negative, i, (r_text, r)) in enumerate(terms):
        if r == 0:
            r_text, r = "", Q(1)
        text += ("-" if negative else "" if k == 0 else "+") + (f"{r_text}*" if r_text else "") + names[i]
        rates[i] += -r if negative else r
    return text, rates


@st.composite
def factors(draw, names, depth):
    n = len(names)
    kind = draw(st.sampled_from(("rational", "var", "exp", "paren") if depth < 2 else ("rational", "var", "exp")))
    if kind == "rational":
        text, value = draw(rationals())
        return text, const(n, value)
    if kind == "var":
        i, a = draw(st.integers(0, n - 1)), draw(st.integers(0, 3))
        powers = [0] * n
        powers[i] = a
        return (names[i] if a == 1 and draw(st.booleans()) else f"{names[i]}^{a}"), ExpPoly.monomial(powers, (0,) * n)
    if kind == "exp":
        text, rates = draw(linforms(names))
        return f"exp({text})", ExpPoly.monomial((0,) * n, rates)
    text, value = draw(expressions(names, depth + 1))
    return f"({text})", value


@st.composite
def terms(draw, names, depth):
    parts = draw(st.lists(factors(names, depth), min_size=1, max_size=3))
    value = const(len(names), 1)
    for _, v in parts:
        value = value * v
    return [text for text, _ in parts], value


def join(draw, texts_and_signs) -> str:
    """Join (negative, text) terms with a leading sign and loose spacing."""
    out = ""
    for k, (negative, text) in enumerate(texts_and_signs):
        space = draw(st.sampled_from(("", " ")))
        out += ("-" if negative else "") if k == 0 else f"{space}{'-' if negative else '+'}{space}"
        out += text
    return out


@st.composite
def expressions(draw, names, depth=0):
    drawn = draw(st.lists(st.tuples(st.booleans(), terms(names, depth)), min_size=1, max_size=3))
    value = const(len(names), 0)
    for negative, (_, v) in drawn:
        value = value - v if negative else value + v
    return join(draw, [(negative, "*".join(parts)) for negative, (parts, _) in drawn]), value


@st.composite
def fields(draw, names):
    """Terms with one basis symbol each, at a random place in the term, in
    either spelling."""
    n = len(names)
    comps = [const(n, 0)] * n
    pieces = []
    for negative, (parts, value) in draw(st.lists(st.tuples(st.booleans(), terms(names, 0)), min_size=1, max_size=3)):
        j = draw(st.integers(0, n - 1))
        symbol = draw(st.sampled_from((f"D{names[j]}", f"D[{names[j]}]")))
        parts.insert(draw(st.integers(0, len(parts))), symbol)
        pieces.append((negative, "*".join(parts)))
        comps[j] = comps[j] - value if negative else comps[j] + value
    return join(draw, pieces), comps


def assert_canonical(p: ExpPoly) -> None:
    """Coefficients are Fractions and every monomial is stored as the
    validating constructor stores it: ints for integral rates, and the
    shared zeros object when there is no exponential factor."""
    for mono, coeff in p._terms.items():
        assert type(coeff) is Q and coeff
        assert type(mono) is ExpMonomial
        ref = ExpMonomial(mono.powers, mono.rates)
        assert tuple(mono) == tuple(ref)
        assert [list(map(type, part)) for part in mono] == [list(map(type, part)) for part in ref]
        if not any(mono[0]):
            assert mono[0] is _ZEROS[p.nvars]


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.data())
def test_parse_expression_matches_the_ring_on_random_trees(data):
    ctx = data.draw(st.sampled_from(CONTEXTS))
    text, value = data.draw(expressions(ctx.names))
    parsed = parse_expression(text, ctx)
    assert parsed == value, text
    assert_canonical(parsed)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.data())
def test_parse_field_matches_the_ring_on_random_trees(data):
    ctx = data.draw(st.sampled_from(CONTEXTS))
    text, comps = data.draw(fields(ctx.names))
    parsed = parse_field(text, ctx)
    assert parsed.comps == tuple(comps), text
    for comp in parsed.comps:
        assert_canonical(comp)


@pytest.mark.parametrize("text", [
    "exp(1/2*x)*exp(1/2*x)", "(exp(1/2*x))*exp(1/2*x)", "exp(1/2*x + 1/2*x)*y",
    "(exp(x))*(exp(-x))", "exp(x - x)*z", "(x + exp(y))*(x - exp(-y))", "x*2/3*y*x^0",
])
def test_parsed_monomials_are_canonical(text):
    assert_canonical(parse_expression(text, DEFAULT_CONTEXT))
