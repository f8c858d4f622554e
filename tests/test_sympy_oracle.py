"""The row bracket against sympy, an optional differential oracle.

sympy brackets the fields as expressions, [U, W]_k = sum_i U_i dW_k/dx_i
- W_i dU_k/dx_i, with its own diff, and the difference from the engine's
bracket must expand to 0.  The fields are drawn from a seeded generator as
term data, exp-free or with rational exponential rates; sympy reads that
data directly and the engine through its public constructors, so the oracle
shares no code with vflie.  The whole module is skipped when sympy is not
installed."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

sp = pytest.importorskip("sympy")

from vflie import DEFAULT_CONTEXT, ExpMonomial, ExpPoly  # noqa: E402
from vflie.fields import Columns  # noqa: E402

X = sp.symbols("x y z")
RATES = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


def draw_field(r: random.Random, exponential: bool) -> list[list[tuple]]:
    """Per component, up to three (powers, rates, coefficient) terms."""
    comps = []
    for _ in range(3):
        terms = []
        for _ in range(r.randint(0, 3)):
            powers = tuple(r.randint(0, 3) for _ in range(3))
            rates = tuple(r.choice(RATES) if exponential else 0 for _ in range(3))
            terms.append((powers, rates, Fraction(r.choice((-3, -1, 1, 2, 5)), r.choice((1, 1, 2, 3)))))
        comps.append(terms)
    return comps


def rational(value) -> "sp.Rational":
    value = Fraction(value)
    return sp.Rational(value.numerator, value.denominator)


def sympy_term(powers, rates, coeff):
    return rational(coeff) * sp.Mul(*(v**a * sp.exp(rational(rate) * v) for v, a, rate in zip(X, powers, rates)))


def sympy_field(comps: list[list[tuple]]) -> list:
    return [sp.Add(*(sympy_term(*t) for t in terms)) for terms in comps]


def sympy_bracket(u: list, w: list) -> list:
    return [sp.Add(*(u[i] * sp.diff(w[k], X[i]) - w[i] * sp.diff(u[k], X[i]) for i in range(3)))
            for k in range(3)]


def engine_field(comps: list[list[tuple]]):
    polys = []
    for terms in comps:
        poly = ExpPoly(3)
        for powers, rates, coeff in terms:
            poly = poly + ExpPoly(3, {ExpMonomial(powers, rates): coeff})
        polys.append(poly)
    return DEFAULT_CONTEXT.field(polys)


def as_sympy(comps) -> list:
    """Per component, a sum of sympy terms over (monomial, coefficient) pairs."""
    return [sp.Add(*(sympy_term(m.powers, m.rates, c) for m, c in terms)) for terms in comps]


def assert_same(want: list, got: list) -> None:
    for a, b in zip(want, got):
        assert sp.expand(a - b) == 0, f"{a} != {b}"


@pytest.mark.parametrize("exponential", [False, True], ids=["exp-free", "exponential"])
@pytest.mark.parametrize("seed", range(8))
def test_row_bracket_matches_sympy(seed, exponential):
    """VectorField.bracket on pairs of three drawn fields, and the row bracket
    of all three pairs over one shared column table, whose later brackets
    find the columns the earlier ones made."""
    r = random.Random(9000 + 2 * seed + exponential)
    data = [draw_field(r, exponential) for _ in range(3)]
    fields = [engine_field(d) for d in data]
    oracle = [sympy_field(d) for d in data]
    columns = Columns(3)
    operands = [columns.operand(columns.vector(comp._terms for comp in f.comps)) for f in fields]
    for a, b in combinations(range(3), 2):
        want = sympy_bracket(oracle[a], oracle[b])
        assert_same(want, as_sympy(comp.term_map().items() for comp in fields[a].bracket(fields[b]).comps))
        row = columns.bracket(operands[a], operands[b])
        got: list[list] = [[], [], []]
        for k, c in row.items():
            i, mono = columns.keys[k]
            got[i].append((mono, c))
        assert_same(want, as_sympy(got))
