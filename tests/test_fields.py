"""Brackets, derivation action, pushforwards, coordinate-change validation."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vflie.fields
import vflie.ring
from vflie import (
    ContextMismatch,
    CoordinateChange,
    DEFAULT_CONTEXT,
    ExpMonomial,
    ExpPoly,
    InvalidCoordinateChange,
    SubstitutionOutsideRing,
    VariableContext,
    build,
    close,
    random_spec,
)
from vflie.fields import Columns, monomial_half
from vflie.parser import parse_expression, parse_field

from conftest import (
    as_terms,
    assert_fractions,
    inverted,
    naive_diff,
    naive_mul,
    naive_of,
    rand_field,
    rand_poly,
    rng,
)

ctx = DEFAULT_CONTEXT


def F(text: str):
    return parse_field(text, ctx)


def E(text: str):
    return parse_expression(text, ctx)


# -- bracket -----------------------------------------------------------------------


def test_constant_fields_commute():
    assert F("Dx").bracket(F("Dy")).is_zero


def test_bracket_forces_constant_h():
    assert F("x*Dz").bracket(F("y*Dx")) == F("-y*Dz")


def test_bracket_mixed_exponential():
    left = F("y*Dx + x^2*exp(y)*Dz")
    assert left.bracket(F("x*Dz")) == F("y*Dz")


def test_bracket_numeric_cross_check():
    # [V, W] acts on functions as V(W(f)) - W(V(f)), exactly in the ring:
    # on the coordinate functions and on random exp-polynomials
    r = rng(20240520)
    V = F("y*Dx + x^2*exp(y)*Dz")
    W = F("x*Dz")
    B = V.bracket(W)
    funcs = [ctx.var_poly(i) for i in range(3)]
    funcs += [rand_poly(r, allow_exp=True) for _ in range(5)]
    for f in funcs:
        assert B.apply(f) == V.apply(W.apply(f)) - W.apply(V.apply(f))


def test_bracket_sums_the_monomial_formula_over_term_pairs(monkeypatch):
    # the bracket differentiates no component and multiplies no term maps:
    # it is the row bracket, which calls monomial_half once per nonzero
    # half, a term m*d_i of one field and a term of the other that reads
    # x_i, and bracketing leaves the fields' equality and hashing as they
    # were
    calls = {"diff": 0, "mul_add": 0, "formula": 0}
    real_diff, real_mul_add, real_formula = ExpPoly.diff, vflie.fields.mul_add, monomial_half

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    texts = [f"y*Dx + x^{k}*exp(y)*Dz + z*Dy" for k in range(11)] + ["x*y*Dz"]
    v, *others = [F(t) for t in texts]
    fresh = [F(t) for t in texts]
    hashes = [hash(f) for f in fresh]
    monkeypatch.setattr(ExpPoly, "diff", counting("diff", real_diff))
    for module in (vflie.ring, vflie.fields):
        monkeypatch.setattr(module, "mul_add", counting("mul_add", real_mul_add))
    monkeypatch.setattr(vflie.fields, "monomial_half", counting("formula", real_formula))
    first = [v.bracket(w) for w in others]
    # v = y*Dx + exp(y)*Dz + z*Dy makes 4 halves with each x^k*exp(y)
    # field and 3 the other way round, one of them, z*Dy with y*Dx, the
    # same column pair as one of the 4 and so filled once; with x*y*Dz, 2
    # and 1
    assert calls == {"diff": 0, "mul_add": 0, "formula": 10 * (4 + 3 - 1) + 2 + 1}
    assert [v.bracket(w) for w in others] == first
    assert [v, *others] == fresh
    assert [hash(f) for f in (v, *others)] == hashes
    with pytest.raises(AttributeError):
        v.comps = fresh[1].comps
    with pytest.raises(AttributeError):
        v.anything = None


def test_monomial_half_examples():
    def mono(text):
        return next(iter(E(text).term_map()))

    # x*y d_x(x^2*exp(y)) = 2*x^2*y*exp(y): one lowered-power term, and
    # x^2*exp(y) d_z(x*y) = 0, so [x*y d_x, x^2*exp(y) d_z] = 2*x^2*y*exp(y) d_z
    assert monomial_half(0, mono("x*y"), mono("x^2*exp(y)")) == [(mono("x^2*y*exp(y)"), 2)]
    assert monomial_half(2, mono("x^2*exp(y)"), mono("x*y")) == ()
    # exp(x/2) d_x(x) = exp(x/2), x d_x(exp(x/2)) = x*exp(x/2)/2: a rate term
    e, x = mono("exp(1/2*x)"), mono("x")
    assert monomial_half(0, e, x) == [(e, 1)]
    assert monomial_half(0, x, e) == [(mono("x*exp(1/2*x)"), Fraction(1, 2))]
    # y*exp(y) d_y(y*exp(-y)) = y - y^2: both terms, and the rates cancel
    assert monomial_half(1, mono("y*exp(y)"), mono("y*exp(-y)")) == [(mono("y"), 1), (mono("y^2"), -1)]
    # a half is nonzero exactly when n reads x_i
    y, z = mono("y"), mono("z")
    assert monomial_half(0, y, z) == () and monomial_half(1, z, y) == [(z, 1)]


POWERS = st.tuples(*[st.integers(0, 3)] * 3)
# powers up to and across 2**31, the limit below which a column's degree
# must lie for it to be packed
WIDE_POWERS = st.tuples(*[st.sampled_from((0, 1, 2, 2**31 - 2, 2**31 - 1, 2**31, 2**31 + 1))] * 3)
RATES = st.tuples(*[st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))] * 3)


@st.composite
def monomial_pairs(draw):
    """(m, n), each exp-free with small or wide powers, with an exponential
    factor, or a product whose rates cancel, exp(r.x) * exp(-r.x), which
    stores the shared zeros."""
    def monomial():
        kind = draw(st.sampled_from(("free", "wide", "exp", "cancel")))
        if kind == "wide":
            return ExpMonomial(draw(WIDE_POWERS), (0, 0, 0))
        powers = draw(POWERS)
        if kind == "free":
            return ExpMonomial(powers, (0, 0, 0))
        rates = draw(RATES)
        if kind == "exp":
            return ExpMonomial(powers, rates)
        product = ExpPoly.monomial(powers, rates) * ExpPoly.monomial((0, 0, 0), [-r for r in rates])
        (mono,) = product.term_map()
        assert mono[0] is vflie.ring._ZEROS[3]
        return mono

    return monomial(), monomial()


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(monomial_pairs(), st.integers(0, 2), st.integers(0, 2))
def test_monomial_half_is_the_naive_product(pair, i, j):
    """monomial_half(i, m, n) is m d_i(n) on the naive term lists, whether
    both monomials are exp-free (one step), one is exponential or both.
    Columns._half of the columns m d_i and n d_j is its terms on the ids of
    component j, whether the product column is new or found by its pack,
    and no two columns share a key, also where a product's degree crosses
    the pack limit 2**31; each column reads the variables of its nonzero
    powers and rates.  Small exp-free columns of component j are made
    first, so a pack sum that carried into the next variable would find
    one of them."""
    m, n = pair
    naive = naive_mul(naive_of(ExpPoly(3, {m: 1})), as_terms(naive_diff(naive_of(ExpPoly(3, {n: 1})), i)))
    half = monomial_half(i, m, n)
    assert isinstance(half, (list, tuple))
    assert {(mono.powers, mono.rates): c for mono, c in half} == naive
    columns = Columns(3)
    columns.vector({ExpMonomial(p, (0, 0, 0)): 1 for p in product(range(3), repeat=3)} if c == j else {}
                   for c in range(3))
    (k,), (l,) = (columns.vector({mono: 1} if c == comp else {} for c in range(3)) for comp, mono in ((i, m), (j, n)))
    for column, mono in ((k, m), (l, n)):
        assert (columns.packs[column] is None) == (mono.has_exp or mono.degree >= 2**31)
        assert columns.reads[column] == tuple(v for v in range(3) if mono.powers[v] or mono.rates[v])
    for _ in range(2):  # the product columns are made, then found
        got = columns._half(k, l)
        want = {columns.ids[j][mono]: c for mono, c in half}
        assert got == want and [type(c) for c in got.values()] == [type(c) for c in want.values()]
    assert len(set(columns.keys)) == len(columns.keys)


def test_basis_fields_are_the_fields_of_the_unit_rows():
    """Each basis field, built in one pass from its primitive integer row
    over the pivot head, equals Columns.field of its unit row, and every
    coefficient is a Fraction, also over a unit head: on recipe draws, the
    dimension-88 one among them, and on fields with a fractional rate."""
    draws = [build(random_spec(recipe, seed, degree)).generators
             for recipe, seed, degree in (("center-rank1", 3, 3), ("nonabelian-projection", 1, 3),
                                          ("single-chain", 5, 3), ("center-rank1", 7, 6))]
    draws.append([F("Dx"), F("Dy"), F("3*x*exp(1/2*y)*Dz - 2*y*Dx")])
    dims = []
    for gens in draws:
        L = close(gens, cap_dim=200)
        echelon = L._echelon
        assert L.basis == tuple(echelon.columns.field(echelon.row(i), L.ctx) for i in echelon.order())
        assert_fractions(c for b in L.basis for comp in b.comps for c in comp.term_map().values())
        dims.append(L.dim)
    assert dims[3] == 88


def test_integral_rate_sums_are_stored_as_ints():
    """exp(x/2) * exp(x/2) stores the rate 1 as the int that parsing exp(x)
    stores, not as Fraction(1): in a ring product, in a field bracket and
    in a half of the column table."""
    def rate_types(monos):
        return {type(r) for rates, _ in monos for r in rates}

    half = E("exp(1/2*x)")
    product = half * half
    assert product == E("exp(x)") and rate_types(product.term_map()) == {int}
    u, v = F("exp(1/2*x)*Dz"), F("exp(1/2*x)*Dx")
    bracket = u.bracket(v)
    assert bracket == F("-1/2*exp(x)*Dz")
    assert rate_types(m for comp in bracket.comps for m in comp.term_map()) == {int}
    columns = Columns(3)
    operands = [columns.operand(columns.vector(c.term_map() for c in f.comps)) for f in (u, v)]
    vec = columns.bracket(*operands)
    assert rate_types(columns.keys[k][1] for k in vec) == {int}
    halves = [h for row in columns._halves.values() for h in row.values()]
    assert halves and rate_types(columns.keys[k][1] for h in halves for k in h) == {int}


# -- derivation action ----------------------------------------------------------------


def test_apply_single_partial():
    assert F("Dx").apply(E("x^2")) == E("2*x")


def test_apply_product_rule():
    assert F("y*Dx").apply(E("x*y")) == E("y^2")


def test_apply_kills_constants():
    r = rng(20240521)
    for _ in range(10):
        v = rand_field(r, ctx, allow_exp=True)
        assert v.apply(E("1")).is_zero


def test_apply_leibniz():
    r = rng(20240522)
    for _ in range(30):
        v = rand_field(r, ctx, allow_exp=True)
        p = E("x*y + z^2")
        q = E("x - 2*z")
        assert v.apply(p * q) == v.apply(p) * q + p * v.apply(q)


# -- bracket laws ----------------------------------------------------------------------


def test_antisymmetry_randomized():
    r = rng(20240523)
    for _ in range(30):
        v = rand_field(r, ctx, allow_exp=True)
        w = rand_field(r, ctx, allow_exp=True)
        assert v.bracket(w) == -(w.bracket(v))


def test_jacobi_randomized():
    r = rng(20240524)
    for _ in range(20):
        u = rand_field(r, ctx, max_deg=1, allow_exp=True)
        v = rand_field(r, ctx, max_deg=1, allow_exp=True)
        w = rand_field(r, ctx, max_deg=1, allow_exp=True)
        total = (
            u.bracket(v.bracket(w))
            + v.bracket(w.bracket(u))
            + w.bracket(u.bracket(v))
        )
        assert total.is_zero


def test_bilinearity():
    r = rng(20240525)
    for _ in range(20):
        u = rand_field(r, ctx)
        v = rand_field(r, ctx)
        w = rand_field(r, ctx)
        assert (u + v).bracket(w) == u.bracket(w) + v.bracket(w)
        assert (u * 3).bracket(w) == u.bracket(w) * 3


def test_context_mismatch_rejected():
    other = VariableContext(("u", "v"))
    with pytest.raises(ContextMismatch):
        F("Dx").bracket(parse_field("Du", other))


# -- coordinate changes -------------------------------------------------------------------


def shear() -> CoordinateChange:
    # new x = x + y, everything else fixed
    return CoordinateChange(
        ctx,
        (E("x + y"), E("y"), E("z")),
        (E("x - y"), E("y"), E("z")),
    )


def z_affine() -> CoordinateChange:
    return CoordinateChange(
        ctx,
        (E("x"), E("y"), E("2*z + 3")),
        (E("x"), E("y"), E("1/2*z - 3/2")),
    )


def test_pushforward_identity():
    v = F("y*Dx + x^2*exp(y)*Dz")
    coords = tuple(ctx.var_poly(i) for i in range(3))
    assert v.pushforward(CoordinateChange(ctx, coords, coords)) == v


def test_pushforward_affine_rescale():
    # chain rule forces the factor 2 on the new third coordinate
    assert F("Dz").pushforward(z_affine()) == F("2*Dz")


def test_pushforward_shear():
    assert F("x*Dz").pushforward(shear()) == F("(x - y)*Dz")
    # homomorphism cross-check against [Dx, x*Dz] = Dz
    lhs = F("Dx").bracket(F("x*Dz")).pushforward(shear())
    rhs = F("Dx").pushforward(shear()).bracket(F("x*Dz").pushforward(shear()))
    assert lhs == rhs


def test_pushforward_homomorphism_randomized():
    r = rng(20240526)
    changes = [shear(), z_affine(), poly_triangular()]
    for change in changes:
        for _ in range(10):
            v = rand_field(r, ctx)
            w = rand_field(r, ctx)
            assert v.bracket(w).pushforward(change) == v.pushforward(change).bracket(
                w.pushforward(change)
            )


def poly_triangular() -> CoordinateChange:
    # new z = z + x^2*y, invertible with polynomial inverse
    return CoordinateChange(
        ctx,
        (E("x"), E("y"), E("z + x^2*y")),
        (E("x"), E("y"), E("z - x^2*y")),
    )


def test_pushforward_round_trip():
    r = rng(20240527)
    for change in (shear(), z_affine(), poly_triangular()):
        for _ in range(10):
            v = rand_field(r, ctx)
            assert v.pushforward(change).pushforward(inverted(change)) == v


def test_pushforward_exponential_needs_linear_substitution():
    # the inverse substitutes z - x^2*y for z; fine for polynomial fields,
    # outside the ring for fields with exp(z)
    v = ctx.field([E("0"), E("0"), E("exp(z)")])
    with pytest.raises(SubstitutionOutsideRing):
        v.pushforward(poly_triangular())


def test_coordinate_change_requires_exact_inverse():
    with pytest.raises(InvalidCoordinateChange):
        CoordinateChange(ctx, (E("x + y"), E("y"), E("z")), (E("x"), E("y"), E("z")))


def test_coordinate_change_requires_polynomial_maps():
    with pytest.raises(InvalidCoordinateChange):
        CoordinateChange(ctx, (E("exp(x)"), E("y"), E("z")), (E("x"), E("y"), E("z")))


def test_field_text_round_trip_examples():
    # canonical order is component-major, monomial-minor
    for text in ("Dx", "y*Dx + x^2*exp(y)*Dz", "1/2*z*Dx - Dy", "x*Dz + y*Dz"):
        assert str(parse_field(text, ctx)) == text
