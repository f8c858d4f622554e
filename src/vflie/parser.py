"""Text front end for ring elements and vector fields.

Grammar (canonical printed output is a strict subset of what is accepted):

    expr    := ["-"] term (("+"|"-") term)*
    term    := factor ("*" factor)*
    factor  := rational | var | var "^" nat | "exp" "(" linform ")" | "(" expr ")"
    linform := ["-"] linterm (("+"|"-") linterm)*
    linterm := (rational "*")? var
    rational:= nat ("/" nat)?

Numbers (nat) are ASCII digits 0-9 and names are ASCII letters, digits and
"_"; any other character is a ParseError at its position.

Vector fields attach basis symbols "D<name>" (also accepted: "D[<name>]") as
factors, e.g. "y*Dx + x^2*exp(y)*Dz"; every term must contain exactly one
basis symbol.  The zero field prints and parses as "0".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .fields import VariableContext, VectorField
from .ring import ExpPoly, Q

# one token after optional whitespace; \s accepts exactly what str.isspace does
_TOKEN = re.compile(
    r"\s*(?:(?P<NAT>[0-9]+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<SYMBOL>[-+*^/()\[\]]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # NAT | NAME | the symbol itself | END
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while m := _TOKEN.match(text, i):
        kind = m.lastgroup
        tokens.append(_Token(m[kind] if kind == "SYMBOL" else kind, m[kind], m.start(kind)))
        i = m.end()
    rest = text[i:].lstrip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    tokens.append(_Token("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: VariableContext):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def accept(self, kind: str) -> _Token | None:
        if self.tok.kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        if self.tok.kind != kind:
            raise ParseError(
                f"unexpected {self.tok.text or 'end of input'!r}", self.tok.pos, expected
            )
        return self.advance()

    # -- grammar -------------------------------------------------------------

    _FACTOR_EXPECTED = ("rational", "variable", "'exp'", "'('")

    def parse_rational(self) -> Fraction:
        num = int(self.expect("NAT", ("rational",)).text)
        if self.accept("/"):
            den = int(self.expect("NAT", ("natural number",)).text)
            if den == 0:
                raise ParseError("zero denominator", self.tokens[self.i - 1].pos)
            return Q(num, den)
        return Q(num)

    def parse_linform(self) -> tuple[Fraction, ...]:
        rates = [Q(0)] * self.ctx.nvars
        sign = -1 if self.accept("-") else 1
        while True:
            rate = Q(1)
            if self.tok.kind == "NAT":
                rate = self.parse_rational()
                self.expect("*", ("'*'",))
            name_tok = self.expect("NAME", ("variable",))
            if name_tok.text not in self.ctx.names:
                raise ParseError(
                    f"unknown variable {name_tok.text!r}", name_tok.pos, ("variable",)
                )
            rates[self.ctx.index(name_tok.text)] += sign * rate
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                return tuple(rates)

    def parse_factor(self, field_mode: bool) -> tuple[ExpPoly | None, int | None]:
        """Return (poly, None) or (None, component index) for a basis symbol."""
        t = self.tok
        n = self.ctx.nvars
        if t.kind == "NAT":
            return ExpPoly.const(n, self.parse_rational()), None
        if t.kind == "(":
            self.advance()
            inner = self.parse_expr(field_mode=False)
            self.expect(")", ("')'",))
            return inner, None
        if t.kind == "NAME":
            if t.text == "exp":
                self.advance()
                self.expect("(", ("'('",))
                rates = self.parse_linform()
                self.expect(")", ("')'",))
                return ExpPoly.monomial((0,) * n, rates), None
            if t.text in self.ctx.names:
                self.advance()
                idx = self.ctx.index(t.text)
                if self.accept("^"):
                    power = int(self.expect("NAT", ("natural number",)).text)
                    powers = [0] * n
                    powers[idx] = power
                    return ExpPoly.monomial(tuple(powers), (Q(0),) * n), None
                return ExpPoly.var(n, idx), None
            if field_mode and t.text.startswith("D"):
                if t.text == "D":
                    self.advance()
                    self.expect("[", ("'['",))
                    name_tok = self.expect("NAME", ("variable",))
                    self.expect("]", ("']'",))
                    name = name_tok.text
                else:
                    self.advance()
                    name = t.text[1:]
                if name not in self.ctx.names:
                    raise ParseError(
                        f"unknown basis symbol D{name}", t.pos, ("basis symbol",)
                    )
                return None, self.ctx.index(name)
        expected = self._FACTOR_EXPECTED + (("basis symbol",) if field_mode else ())
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.pos, expected)

    def parse_term(self, field_mode: bool) -> tuple[ExpPoly, int | None]:
        poly = ExpPoly.const(self.ctx.nvars, 1)
        comp: int | None = None
        while True:
            p, c = self.parse_factor(field_mode)
            if c is not None:
                if comp is not None:
                    raise ParseError(
                        "more than one basis symbol in a term", self.tokens[self.i - 1].pos
                    )
                comp = c
            else:
                poly = poly * p
            if not self.accept("*"):
                return poly, comp

    def parse_expr(self, field_mode: bool) -> ExpPoly | VectorField:
        n = self.ctx.nvars
        scalar = ExpPoly.zero(n)
        comps = [ExpPoly.zero(n) for _ in range(n)]
        sign = -1 if self.accept("-") else 1
        while True:
            start = self.tok.pos
            poly, comp = self.parse_term(field_mode)
            signed = poly * sign
            if comp is None:
                scalar = scalar + signed
                if field_mode and not signed.is_zero:
                    scalar_pos = start
            else:
                comps[comp] = comps[comp] + signed
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                break
        if not field_mode:
            return scalar
        if not scalar.is_zero:
            raise ParseError("term without a basis symbol", scalar_pos, ("basis symbol",))
        return VectorField(self.ctx, tuple(comps))


def parse_expression(text: str, ctx: VariableContext) -> ExpPoly:
    """Parse a coefficient-ring expression over the context's variables."""
    parser = _Parser(text, ctx)
    result = parser.parse_expr(field_mode=False)
    parser.expect("END", ("'+'", "'-'", "'*'", "end of input"))
    assert isinstance(result, ExpPoly)
    return result


def parse_field(text: str, ctx: VariableContext) -> VectorField:
    """Parse a vector-field expression such as 'y*Dx + x^2*exp(y)*Dz'."""
    parser = _Parser(text, ctx)
    result = parser.parse_expr(field_mode=True)
    parser.expect("END", ("'+'", "'-'", "'*'", "end of input"))
    assert isinstance(result, VectorField)
    return result
