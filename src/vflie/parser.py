"""Text front end for ring elements and vector fields.

Grammar (canonical printed output is a strict subset of what is accepted):

    expr    := ["-"] term (("+"|"-") term)*
    term    := factor ("*" factor)*
    factor  := rational | var | var "^" nat | "exp" "(" linform ")" | "(" expr ")"
    linform := ["-"] linterm (("+"|"-") linterm)*
    linterm := (rational "*")? var
    rational:= nat ("/" nat)?

Numbers (nat) are ASCII digits 0-9 and names are ASCII letters, digits and
"_"; any other character is a ParseError at its position.  Parentheses nest
at most MAX_DEPTH deep; the "(" that opens a deeper level is a ParseError.

Vector fields attach basis symbols "D<name>" (also accepted: "D[<name>]") as
factors, e.g. "y*Dx + x^2*exp(y)*Dz"; every term must contain exactly one
basis symbol.  The zero field prints and parses as "0": the one term without
a basis symbol that parse_field accepts is a lone term of value zero ("0",
"-0", "0*x"); any other such term is a ParseError at its start.

A term is read in one pass as a single monomial: the product of its
rationals, a power per variable and a rate per variable, written into its
component's term map in the ring's canonical form.  Only a term with
parenthesized factors multiplies term maps (ring.mul_add).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .fields import VariableContext, VectorField
from .ring import ExpMonomial, ExpPoly, Q, _add_term, _new, _poly, _stored_rates, mul_add

MAX_DEPTH = 100

# tokens are matched where they start, so whitespace between them is skipped;
# the symbols are the unnamed group, so a symbol's kind is its text
_TOKEN = re.compile(r"(?P<NAT>[0-9]+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|[-+*^/()\[\]]")
# a character that starts no token and is not whitespace; \s accepts exactly
# what str.isspace does
_BAD = re.compile(r"[^\sA-Za-z0-9_+\-*^/()\[\]]")
_FACTOR_EXPECTED = ("rational", "variable", "'exp'", "'('")
_END_EXPECTED = ("'+'", "'-'", "'*'", "end of input")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) tokens, kind NAT, NAME or the symbol itself,
    closed by an END token."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    tokens = [(m.lastgroup or m[0], m[0], m.start()) for m in _TOKEN.finditer(text)]
    tokens.append(("END", "", len(text)))
    return tokens


def _add_product(out: dict, mono: ExpMonomial, coeff: Fraction, parens: list) -> None:
    """out += coeff * mono * the product of the parenthesized factors."""
    terms = {mono: coeff}
    for p in parens:
        product: dict = {}
        mul_add(product, _poly(p.nvars, terms), p)
        terms = product
    for term in terms.items():
        _add_term(out, *term)


class _Parser:
    def __init__(self, text: str, ctx: VariableContext):
        self.tokens = _tokenize(text)
        self.i = 0
        n = self.n = len(ctx.names)
        # a variable's position in the stored (reversed) power and rate tuples
        self.slots = dict(zip(ctx.names, range(n - 1, -1, -1)))

    def expect(self, kind: str, expected: tuple[str, ...]) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1] or 'end of input'!r}", tok[2], expected)
        self.i += 1
        return tok

    def accept(self, kind: str) -> bool:
        if self.tokens[self.i][0] == kind:
            self.i += 1
            return True
        return False

    def rational(self) -> tuple[int, int]:
        """(numerator, denominator) of the rational at the current NAT token."""
        num = int(self.tokens[self.i][1])
        self.i += 1
        if not self.accept("/"):
            return num, 1
        _, text, pos = self.expect("NAT", ("natural number",))
        den = int(text)
        if not den:
            raise ParseError("zero denominator", pos)
        return num, den

    def linform(self, rates: list) -> None:
        """Add the rates of a linear form to the term's rates."""
        sign = -1 if self.accept("-") else 1
        while True:
            num = den = 1
            if self.tokens[self.i][0] == "NAT":
                num, den = self.rational()
                self.expect("*", ("'*'",))
            _, name, pos = self.expect("NAME", ("variable",))
            slot = self.slots.get(name)
            if slot is None:
                raise ParseError(f"unknown variable {name!r}", pos, ("variable",))
            rates[slot] += sign * num if den == 1 else Q(sign * num, den)
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                return

    def expr(self, field: bool, depth: int) -> list[dict]:
        """Term maps: in field mode one per component, then that of the terms
        without a basis symbol; otherwise that last map alone."""
        tokens, n, slots = self.tokens, self.n, self.slots
        maps = [{} for _ in range(n + 1)] if field else [{}]
        sign = -1 if self.accept("-") else 1
        terms = 0
        stray = None  # start of the first term without a basis symbol
        while True:
            start = tokens[self.i][2]
            num, den, comp = sign, 1, -1
            powers, rates, parens = [0] * n, [0] * n, []
            while True:
                kind, text, pos = tokens[self.i]
                if kind == "NAT":
                    a, b = self.rational()
                    num, den = num * a, den * b
                elif kind == "(":
                    if depth == MAX_DEPTH:
                        raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
                    self.i += 1
                    parens.append(_poly(n, self.expr(False, depth + 1)[-1]))
                    self.expect(")", ("')'",))
                elif text == "exp":
                    self.i += 1
                    self.expect("(", ("'('",))
                    self.linform(rates)
                    self.expect(")", ("')'",))
                elif text in slots:
                    self.i += 1
                    power = int(self.expect("NAT", ("natural number",))[1]) if self.accept("^") else 1
                    powers[slots[text]] += power
                elif field and kind == "NAME" and text[0] == "D":
                    self.i += 1
                    name = text[1:]
                    if not name:
                        self.expect("[", ("'['",))
                        name = self.expect("NAME", ("variable",))[1]
                        self.expect("]", ("']'",))
                    if name not in slots:
                        raise ParseError(f"unknown basis symbol D{name}", pos, ("basis symbol",))
                    if comp >= 0:
                        raise ParseError("more than one basis symbol in a term", pos)
                    comp = n - 1 - slots[name]
                else:
                    expected = _FACTOR_EXPECTED + (("basis symbol",) if field else ())
                    raise ParseError(f"unexpected {text or 'end of input'!r}", pos, expected)
                if tokens[self.i][0] != "*":
                    break
                self.i += 1
            terms += 1
            if field and comp < 0 and stray is None:
                stray = start
            if num:
                mono = _new(ExpMonomial, (_stored_rates(rates), tuple(powers)))
                if parens:
                    _add_product(maps[comp], mono, Q(num, den), parens)
                else:
                    _add_term(maps[comp], mono, Q(num, den))
            kind = tokens[self.i][0]
            if kind != "+" and kind != "-":
                break
            self.i += 1
            sign = 1 if kind == "+" else -1
        if stray is not None and (terms > 1 or maps[-1]):
            raise ParseError("term without a basis symbol", stray, ("basis symbol",))
        return maps


def parse_expression(text: str, ctx: VariableContext) -> ExpPoly:
    """Parse a coefficient-ring expression over the context's variables."""
    parser = _Parser(text, ctx)
    terms = parser.expr(False, 0)[-1]
    parser.expect("END", _END_EXPECTED)
    return _poly(ctx.nvars, terms)


def parse_field(text: str, ctx: VariableContext) -> VectorField:
    """Parse a vector-field expression such as 'y*Dx + x^2*exp(y)*Dz'."""
    parser = _Parser(text, ctx)
    maps = parser.expr(True, 0)
    parser.expect("END", _END_EXPECTED)
    return VectorField(ctx, [_poly(parser.n, terms) for terms in maps[:-1]])
