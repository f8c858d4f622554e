"""The ring and the row bracket against sympy, an optional differential oracle.

sympy brackets the fields as expressions, [U, W]_k = sum_i U_i dW_k/dx_i
- W_i dU_k/dx_i, with its own diff, and the difference from the engine's
bracket must expand to 0.  In the same way ExpPoly.diff is checked against
sympy's diff in each variable, and ExpPoly.substitute against sympy's
simultaneous subs.  The elements are drawn from a seeded generator as term
data, exp-free or with rational exponential rates; sympy reads that data
directly and the engine through its public constructors, so the oracle
shares no code with vflie.  The whole module is skipped when sympy is not
installed."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

sp = pytest.importorskip("sympy")

from vflie import DEFAULT_CONTEXT, ExpMonomial, ExpPoly, SubstitutionOutsideRing  # noqa: E402
from vflie.fields import Columns  # noqa: E402

X = sp.symbols("x y z")
RATES = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


def draw_terms(r: random.Random, rate_vars=(0, 1, 2), max_terms: int = 3, max_power: int = 3) -> list[tuple]:
    """Up to max_terms (powers, rates, coefficient) terms, with rates only in
    the variables rate_vars."""
    terms = []
    for _ in range(r.randint(0, max_terms)):
        powers = tuple(r.randint(0, max_power) for _ in range(3))
        rates = tuple(r.choice(RATES) if v in rate_vars else 0 for v in range(3))
        terms.append((powers, rates, Fraction(r.choice((-3, -1, 1, 2, 5)), r.choice((1, 1, 2, 3)))))
    return terms


def draw_field(r: random.Random, exponential: bool) -> list[list[tuple]]:
    """Per component, up to three (powers, rates, coefficient) terms."""
    return [draw_terms(r, (0, 1, 2) if exponential else ()) for _ in range(3)]


def rational(value) -> "sp.Rational":
    value = Fraction(value)
    return sp.Rational(value.numerator, value.denominator)


def sympy_term(powers, rates, coeff):
    return rational(coeff) * sp.Mul(*(v**a * sp.exp(rational(rate) * v) for v, a, rate in zip(X, powers, rates)))


def sympy_poly(terms: list[tuple]):
    return sp.Add(*(sympy_term(*t) for t in terms))


def sympy_field(comps: list[list[tuple]]) -> list:
    return [sympy_poly(terms) for terms in comps]


def sympy_bracket(u: list, w: list) -> list:
    return [sp.Add(*(u[i] * sp.diff(w[k], X[i]) - w[i] * sp.diff(u[k], X[i]) for i in range(3)))
            for k in range(3)]


def engine_poly(terms: list[tuple]) -> ExpPoly:
    poly = ExpPoly(3)
    for powers, rates, coeff in terms:
        poly = poly + ExpPoly(3, {ExpMonomial(powers, rates): coeff})
    return poly


def engine_field(comps: list[list[tuple]]):
    return DEFAULT_CONTEXT.field([engine_poly(terms) for terms in comps])


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


@pytest.mark.parametrize("exponential", [False, True], ids=["exp-free", "exponential"])
@pytest.mark.parametrize("seed", range(8))
def test_diff_matches_sympy(seed, exponential):
    """ExpPoly.diff in each variable on a drawn element."""
    r = random.Random(9100 + 2 * seed + exponential)
    terms = draw_terms(r, (0, 1, 2) if exponential else (), max_terms=6)
    poly, oracle = engine_poly(terms), sympy_poly(terms)
    for i, v in enumerate(X):
        assert_same([sp.diff(oracle, v)], as_sympy([poly.diff(i).term_map().items()]))


def linear_form(r: random.Random) -> list[tuple]:
    """A homogeneous linear polynomial a x + b y + c z, each term drawn."""
    terms = []
    for v in range(3):
        a = r.choice((-2, -1, 0, 1, Fraction(1, 2), 3))
        if a:
            terms.append((tuple(int(k == v) for k in range(3)), (0, 0, 0), a))
    return terms


@pytest.mark.parametrize("exponential", [False, True], ids=["exp-free", "exponential"])
@pytest.mark.parametrize("seed", range(8))
def test_substitute_matches_sympy(seed, exponential):
    """ExpPoly.substitute against sympy's simultaneous subs.  A variable that
    an exponential reads gets a homogeneous linear replacement, any other a
    drawn polynomial, and about one in four is left as it is."""
    r = random.Random(9200 + 2 * seed + exponential)
    rate_vars = tuple(sorted(r.sample(range(3), r.randint(1, 3)))) if exponential else ()
    terms = draw_terms(r, rate_vars, max_terms=4)
    replacements = {}
    for v in range(3):
        if r.random() < 0.25:
            continue
        replacements[v] = linear_form(r) if v in rate_vars else draw_terms(r, (), 2, 2)
    got = engine_poly(terms).substitute({v: engine_poly(t) for v, t in replacements.items()})
    want = sympy_poly(terms).subs({X[v]: sympy_poly(t) for v, t in replacements.items()}, simultaneous=True)
    assert_same([want], as_sympy([got.term_map().items()]))


def test_affine_replacement_in_exponential_leaves_the_ring():
    """exp(y) at y + 1 is e * exp(y), whose coefficient sympy finds
    irrational, so the engine refuses it."""
    y = X[1]
    coefficient = sp.simplify(sp.exp(y).subs(y, y + 1) / sp.exp(y))
    assert coefficient == sp.E and coefficient.is_rational is False
    exp_y = ExpPoly(3, {ExpMonomial((0, 0, 0), (0, 1, 0)): 1})
    y_plus_1 = engine_poly([((0, 1, 0), (0, 0, 0), 1), ((0, 0, 0), (0, 0, 0), 1)])
    with pytest.raises(SubstitutionOutsideRing):
        exp_y.substitute({1: y_plus_1})
