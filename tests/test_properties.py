"""Property-based checks with hypothesis: the text round trip, the Lie
identities of the field bracket, and closure invariance under a change of
generating set.  Derandomized, so every run draws the same examples."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from vflie import DEFAULT_CONTEXT, RECIPES, ExpPoly, build, close, random_spec
from vflie.parser import parse_expression, parse_field

ctx = DEFAULT_CONTEXT
checks = settings(derandomize=True, deadline=None, database=None, max_examples=30)

coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
rates = st.sampled_from((Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)))
terms = st.tuples(
    st.tuples(*[st.integers(0, 2)] * 3), st.tuples(*[rates] * 3), coefficients
)


@st.composite
def polys(draw, max_terms: int = 3) -> ExpPoly:
    out = ExpPoly.zero(3)
    for powers, rate, coeff in draw(st.lists(terms, max_size=max_terms)):
        out = out + ExpPoly.monomial(powers, rate, coeff)
    return out


def fields(max_terms: int = 2):
    return st.lists(polys(max_terms), min_size=3, max_size=3).map(ctx.field)


@checks
@given(polys())
def test_expression_text_round_trip(p):
    assert parse_expression(str(p), ctx) == p


@checks
@given(fields(3))
def test_field_text_round_trip(v):
    assert parse_field(str(v), ctx) == v


@checks
@given(fields(), fields(), fields(), coefficients)
def test_bracket_is_bilinear_and_antisymmetric(u, v, w, a):
    assert u.bracket(v) == -v.bracket(u)
    assert (u * a + v).bracket(w) == u.bracket(w) * a + v.bracket(w)


@settings(checks, max_examples=12)
@given(fields(), fields(), fields())
def test_bracket_satisfies_jacobi(u, v, w):
    total = u.bracket(v.bracket(w)) + v.bracket(w.bracket(u)) + w.bracket(u.bracket(v))
    assert total.is_zero


@settings(checks, max_examples=30)
@given(st.sampled_from(RECIPES), st.integers(0, 40), st.data())
def test_closure_ignores_generator_order_and_scale(recipe, seed, data):
    gens = list(build(random_spec(recipe, seed, 2)).generators)
    L = close(gens)
    order = data.draw(st.permutations(range(len(gens))))
    scales = data.draw(st.lists(coefficients, min_size=len(gens), max_size=len(gens)))
    M = close([gens[i] * s for i, s in zip(order, scales)])
    assert M.basis == L.basis
    assert M.structure == L.structure
