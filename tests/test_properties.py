"""Property-based checks with hypothesis: the text round trip, the field
bracket against the term-list oracle and the Lie identities, canonical ring
results, the monomial order, echelon coordinates against the dense oracle,
pushforward as a bracket homomorphism, and closure invariance under a change
of generating set.  Derandomized, so every run draws the same examples."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vflie import DEFAULT_CONTEXT, RECIPES, CoordinateChange, ExpPoly, build, close, random_spec
from vflie.linalg import EchelonBasis, coordinatize, uncoordinatize
from vflie.parser import parse_expression, parse_field
from vflie.ring import ExpMonomial

from conftest import naive_add, naive_diff, naive_mul, naive_of, oracle_coords

ctx = DEFAULT_CONTEXT
checks = settings(derandomize=True, deadline=None, database=None, max_examples=30)

coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
rates = st.sampled_from((Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)))
terms = st.tuples(
    st.tuples(*[st.integers(0, 2)] * 3), st.tuples(*[rates] * 3), coefficients
)


@st.composite
def polys(draw, max_terms: int = 3, term_shapes=terms) -> ExpPoly:
    out = ExpPoly.zero(3)
    for powers, rate, coeff in draw(st.lists(term_shapes, max_size=max_terms)):
        out = out + ExpPoly.monomial(powers, rate, coeff)
    return out


def fields(max_terms: int = 2, term_shapes=terms):
    return st.lists(polys(max_terms, term_shapes), min_size=3, max_size=3).map(ctx.field)


# exp factors in z only: a change that fixes z keeps substitution inside the ring
z_rates = st.sampled_from((Fraction(0), Fraction(0), Fraction(1), Fraction(-1)))
z_terms = st.tuples(
    st.tuples(*[st.integers(0, 2)] * 3),
    st.tuples(st.just(Fraction(0)), st.just(Fraction(0)), z_rates),
    coefficients,
)


def used_polys(used: tuple[int, ...]):
    """Polynomials in the variables `used`, of degree at most 2 in each."""
    powers = st.tuples(*[st.integers(0, 2) if i in used else st.just(0) for i in range(3)])
    return polys(2, st.tuples(powers, st.just((Fraction(0),) * 3), coefficients))


def as_terms(naive: dict) -> list:
    return [(powers, rates, coeff) for (powers, rates), coeff in naive.items()]


def assert_canonical(p: ExpPoly) -> None:
    for mono, coeff in p.term_map().items():
        assert coeff, "a zero coefficient is stored"
        rebuilt = ExpMonomial(mono.powers, mono.rates)
        assert mono == rebuilt and rebuilt == mono
        assert hash(mono) == hash(rebuilt)


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


@checks
@given(fields(3), fields(3))
def test_bracket_matches_term_list_oracle(v, w):
    got = v.bracket(w)
    for i in range(3):
        expected: dict = {}
        for j in range(3):
            plus = naive_mul(naive_of(v.comps[j]), as_terms(naive_diff(naive_of(w.comps[i]), j)))
            minus = naive_mul(naive_of(w.comps[j]), as_terms(naive_diff(naive_of(v.comps[i]), j)))
            expected = naive_add(as_terms(expected), as_terms(plus))
            expected = naive_add(
                as_terms(expected), [(p, r, -c) for p, r, c in as_terms(minus)]
            )
        assert {(m.powers, m.rates): c for m, c in got.comps[i].term_map().items()} == expected


@checks
@given(polys(), polys(), fields(), fields(), coefficients, st.integers(0, 2))
def test_ring_results_are_canonical(p, q, v, w, a, i):
    # (p + q) * (p - q) cancels its cross terms inside one product
    results = [p * q, (p + q) * (p - q), p + q, p - q, q - q, -p, p * a, a * p, p * 0, p.diff(i)]
    results += v.bracket(w).comps + v.bracket(v).comps + (v + w).bracket(v - w).comps
    for r in results:
        assert_canonical(r)
    assert (q - q).is_zero and (p * 0).is_zero and v.bracket(v).is_zero


@settings(checks, max_examples=12)
@given(fields(), fields(), fields())
def test_bracket_satisfies_jacobi(u, v, w):
    total = u.bracket(v.bracket(w)) + v.bracket(w.bracket(u)) + w.bracket(u.bracket(v))
    assert total.is_zero


# half the monomials carry no exponential factor, so `<` takes its fast path
monomials = st.builds(
    ExpMonomial,
    st.tuples(*[st.integers(0, 2)] * 3),
    st.one_of(st.just((Fraction(0),) * 3), st.tuples(*[rates] * 3)),
)


@settings(checks, max_examples=200)
@given(monomials, monomials)
def test_monomial_order_is_sort_key_order(a, b):
    assert (a < b) == (a.sort_key() < b.sort_key())
    assert (b < a) == (b.sort_key() < a.sort_key())
    assert [a < b, b < a, a == b].count(True) == 1


@settings(checks, max_examples=25)
@given(st.lists(fields(), min_size=2, max_size=5), st.data())
def test_express_matches_oracle_in_any_insertion_order(vs, data):
    assume(any(not c.is_polynomial for v in vs for c in v.comps))
    scales = st.lists(coefficients | st.just(Fraction(0)), min_size=len(vs), max_size=len(vs))
    combo = ctx.field([ExpPoly.zero(3)] * 3)
    for v, a in zip(vs, data.draw(scales)):
        combo = combo + v * a
    for _ in range(2):
        order = data.draw(st.permutations(range(len(vs))))
        basis = EchelonBasis()
        for i in order:
            basis.insert(coordinatize(vs[i]))
        rows = [uncoordinatize(row, ctx) for row in basis.rows]
        assert basis.express(coordinatize(combo)) == oracle_coords(rows, [combo])[0]


@settings(checks, max_examples=20)
@given(used_polys((1, 2)), used_polys((2,)), fields(2, z_terms), fields(2, z_terms))
def test_pushforward_commutes_with_bracket(p, q, u, v):
    # triangular change x -> x + p(y, z), y -> y + q(z), z -> z, inverted by hand
    x, y, z = (ctx.var_poly(i) for i in range(3))
    y_back = y - q
    forward = (x + p, y + q, z)
    inverse = (x - p.substitute({1: y_back}), y_back, z)
    change = CoordinateChange(ctx, forward, inverse)
    assert u.bracket(v).pushforward(change) == u.pushforward(change).bracket(v.pushforward(change))


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
