"""Property-based checks with hypothesis: the text round trip, the field
bracket against the term-list oracle and the Lie identities, canonical ring
results, the monomial order, the support test that lets close() skip a
bracket, the row bracket on column ids (and its half table) against the
field bracket and the term-list oracle, the integer echelon kernel and its coordinates against the dense oracles,
run-time exactness, pushforward as a bracket homomorphism,
closure invariance under a change of generating set, basis combinations
(LieAlgebra.element) against term-list sums, the series and center of
nilpotent and non-nilpotent closures against the dense oracles, and the
CLI's JSON writer against json.dumps(indent=2).
Derandomized, so every run draws the same examples."""

from __future__ import annotations

import copy
import json
import pickle
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vflie.fields
from vflie import (
    ClosureCapExceeded,
    DEFAULT_CONTEXT,
    RECIPES,
    CoordinateChange,
    ExpPoly,
    VectorField,
    build,
    close,
    random_spec,
)
from vflie.cli import _write_json
from vflie.fields import Columns, coordinatize, uncoordinatize
from vflie.linalg import EchelonBasis, null_space
from vflie.parser import parse_expression, parse_field
from vflie.ring import ExpMonomial

from conftest import (
    as_terms,
    naive_bracket,
    naive_canon,
    naive_diff,
    naive_mul,
    naive_of,
    oracle_coords,
    oracle_center,
    oracle_member,
    oracle_rank,
    oracle_row_basis,
    oracle_series_terms,
    oracle_support,
    provably_commute,
)

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
    for comp, expected in zip(got.comps, naive_bracket(v, w)):
        assert {(m.powers, m.rates): c for m, c in comp.term_map().items()} == expected


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


# half the monomials carry no exponential factor; a zero rate is drawn as
# int 0 or as Fraction(0), an integral rate as an int or as a Fraction
any_zero = st.sampled_from((0, Fraction(0)))
any_rate = st.one_of(any_zero, rates, st.sampled_from((1, -1, 2)))
monomials = st.builds(
    ExpMonomial,
    st.tuples(*[st.integers(0, 2)] * 3),
    st.one_of(st.tuples(*[any_zero] * 3), st.tuples(*[any_rate] * 3)),
)


def oracle_key(m: ExpMonomial) -> tuple:
    """The documented term order from the public fields: rates from the last
    variable to the first, then powers from the last variable to the first."""
    n = len(m.powers)
    return (
        [m.rates[i] for i in range(n - 1, -1, -1)],
        [m.powers[i] for i in range(n - 1, -1, -1)],
    )


@settings(checks, max_examples=200)
@given(monomials, monomials)
def test_monomial_order_is_sort_key_order(a, b):
    ka, kb = oracle_key(a), oracle_key(b)
    assert (a < b) == (ka < kb) and (b < a) == (kb < ka)
    assert (a <= b) == (ka <= kb) and (a > b) == (ka > kb)
    assert (tuple(a) < tuple(b)) == (ka < kb)  # the value is its own sort key
    assert [a < b, b < a, a == b].count(True) == 1


@settings(checks, max_examples=200)
@given(monomials, monomials)
def test_monomial_value_semantics_match_the_oracle_key(a, b):
    ka, kb = oracle_key(a), oracle_key(b)
    assert (a == b) == (ka == kb) and (a != b) == (ka != kb)
    if a == b:
        assert hash(a) == hash(b)
    assert a.has_exp == any(a.rates) and all(type(r) is Fraction for r in a.rates)
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is ExpMonomial and twin == a and hash(twin) == hash(a)
        assert oracle_key(twin) == ka and (twin < b) == (ka < kb)
    # the same monomial with its zero rates given as int 0, then as Fraction(0)
    for twin in (ExpMonomial(a.powers, [r or 0 for r in a.rates]), ExpMonomial(a.powers, a.rates)):
        assert twin == a and hash(twin) == hash(a) and {a: 1}[twin] == 1


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


# -- the support test of close() -----------------------------------------------


@st.composite
def supported_fields(draw) -> VectorField:
    """A field that moves and reads only drawn subsets of the variables,
    with exp factors among the read ones, so disjoint supports are common."""
    moved = draw(st.sets(st.integers(0, 2), min_size=1, max_size=2))
    read = draw(st.sets(st.integers(0, 2), max_size=2))
    powers = st.tuples(*[st.integers(0, 2) if i in read else st.just(0) for i in range(3)])
    rate_tuples = st.tuples(*[rates if i in read else st.just(Fraction(0)) for i in range(3)])
    shapes = st.lists(st.tuples(powers, rate_tuples, coefficients), min_size=1, max_size=2)
    comps = [ExpPoly.zero(3)] * 3
    for i in moved:
        for p, r, c in draw(shapes):
            comps[i] = comps[i] + ExpPoly.monomial(p, r, c)
    return ctx.field(comps)


@settings(checks, max_examples=150)
@given(st.one_of(supported_fields(), fields()), supported_fields())
def test_support_test_is_sound(u, v):
    # an operand's support masks, which close() and the tensor test, are
    # the oracle's, and a pair those masks prove commuting brackets to zero
    columns = Columns(3)
    for w in (u, v):
        assert columns.operand(vector_of(columns, w)).masks == oracle_support(w)
    if provably_commute(u, v):
        assert u.bracket(v).is_zero and v.bracket(u).is_zero


# fractional rates, as in test_algebra.EXP_RATIONAL_RATES: an integer row
# bracketed over such a rate gives a Fraction coefficient
fractional_rates = st.sampled_from(
    (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(-3, 5), Fraction(1, 7))
)
fractional_terms = st.tuples(
    st.tuples(*[st.integers(0, 2)] * 3), st.tuples(*[fractional_rates] * 3), coefficients
)
zero_field = ctx.field([ExpPoly.zero(3)] * 3)
operands = st.one_of(fields(3, fractional_terms), supported_fields(), st.just(zero_field))


def vector_of(columns: Columns, v: VectorField) -> dict:
    """v's vector over the column table, through its term-map path."""
    return columns.vector(comp.term_map() for comp in v.comps)


def integer_vector(vec: dict) -> tuple[dict, int]:
    """(vec times the lcm s of its denominators, with int values; s), as a
    primitive integer echelon row is a multiple of its unit row."""
    scale = lcm(1, *(c.denominator for c in vec.values()))
    return {k: int(c * scale) for k, c in vec.items()}, scale


def oracle_masks(key) -> tuple[int, int]:
    """(moves, reads) of the column field of a (component, monomial) key,
    read off the monomial's public powers and rates."""
    i, mono = key
    reads = sum(1 << j for j in range(3) if mono.powers[j] or mono.rates[j])
    return 1 << i, reads


@st.composite
def cancelling_pairs(draw) -> tuple[VectorField, VectorField]:
    """Two fields on one component with one shared monomial m, so that the
    halves m d_i(m) and -(m d_i(m)) of [m d_i, m d_i] meet and cancel."""
    i = draw(st.integers(0, 2))
    powers, rate, _ = draw(fractional_terms)
    shared = ExpPoly.monomial(powers, rate, 1)
    comps = [ExpPoly.zero(3)] * 3
    u, v = list(comps), list(comps)
    u[i] = shared * draw(coefficients) + draw(polys(1, fractional_terms))
    v[i] = shared * draw(coefficients)
    return ctx.field(u), ctx.field(v)


bracket_pairs = st.one_of(
    st.tuples(operands, operands),
    operands.map(lambda u: (u, u)),
    cancelling_pairs(),
    st.tuples(fields(3, terms), fields(3, terms)),
)


def integral_rates(*fields: VectorField) -> bool:
    return all(
        r.denominator == 1 for f in fields for comp in f.comps for m in comp.term_map() for r in m.rates
    )


@settings(checks, max_examples=200)
@given(bracket_pairs)
def test_row_and_field_brackets_match_the_naive_bracket(pair):
    # Columns.bracket, read back through the keys, and VectorField.bracket
    # against the term-list oracle, on Fraction coefficients, fractional exp
    # rates and same-component pairs whose halves cancel; on the integer
    # vectors of fields with integral rates the row bracket stays int.  The
    # half table it fills holds only nonempty halves half(k, l) = m d_i(n)
    # of columns k = m d_i and l = n d_j with n reading x_i, each equal to
    # the oracle's m * d(n)/d var i on component j
    u, v = pair
    want = naive_bracket(u, v)
    field = u.bracket(v)
    for comp, expected in zip(field.comps, want):
        assert {(m.powers, m.rates): c for m, c in comp.term_map().items()} == expected
        assert all(type(c) is Fraction for c in comp.term_map().values())
    columns = Columns(3)
    a, b = vector_of(columns, u), vector_of(columns, v)
    got: list[dict] = [{}, {}, {}]
    for k, c in columns.bracket(columns.operand(a), columns.operand(b)).items():
        i, mono = columns.keys[k]
        got[i][mono.powers, mono.rates] = c
    assert got == want
    (ia, sa), (ib, sb) = integer_vector(a), integer_vector(b)
    scaled = columns.bracket(columns.operand(ia), columns.operand(ib))
    if integral_rates(u, v):
        assert all(type(c) is int for c in scaled.values())
    for k, row in columns._halves.items():
        (i, m), moves_k = columns.keys[k], oracle_masks(columns.keys[k])[0]
        for l, half in row.items():
            (j, n), reads_l = columns.keys[l], oracle_masks(columns.keys[l])[1]
            assert half and all(half.values()) and moves_k & reads_l
            expected = naive_mul([(m.powers, m.rates, Fraction(1))], as_terms(naive_diff(
                [(n.powers, n.rates, Fraction(1))], i)))
            assert {columns.keys[key][1]: c for key, c in half.items()} == {
                ExpMonomial(*key): c for key, c in expected.items()
            }
            assert all(columns.keys[key][0] == j for key in half)


@settings(checks, max_examples=150)
@given(operands, operands)
def test_bracket_kernel_matches_coordinatized_bracket(u, v):
    # the row bracket's vector, read back through the column table, is the
    # term-list oracle's bracket in (component, monomial) coordinates, also
    # on the integer vectors close() brackets, where it is scaled by the
    # product of the two scales; an operand's masks give the field's
    # support, and a pair the support test proves commuting brackets to the
    # empty vector
    columns = Columns(3)

    def keyed(vec):
        out = {}
        for k, c in vec.items():
            i, m = columns.keys[k]
            out[i, m.powers, m.rates] = c
        return out

    def oracle(x, y):
        return {(i, *key): c for i, comp in enumerate(naive_bracket(x, y)) for key, c in comp.items()}

    a, b = columns.operand(vector_of(columns, u)), columns.operand(vector_of(columns, v))
    assert a.masks == oracle_support(u) and b.masks == oracle_support(v)
    for x, y, want in ((a, b, oracle(u, v)), (b, a, oracle(v, u))):
        assert keyed(columns.bracket(x, y)) == want
    (ia, sa), (ib, sb) = integer_vector(a.vec), integer_vector(b.vec)
    got = columns.bracket(columns.operand(ia), columns.operand(ib))
    assert keyed(got) == {key: c * sa * sb for key, c in oracle(u, v).items()}
    if provably_commute(u, v):
        assert got == {}


@settings(checks, max_examples=150)
@given(operands, operands)
def test_bracket_kernel_never_multiplies_by_zero(u, v):
    # the row bracket adds a half only when the half is nonzero, scaled by
    # the product of two nonzero coordinates, so no product it forms has a
    # zero factor
    columns = Columns(3)
    adds = []
    real_axpy = vflie.fields._axpy

    def recording(dst, src, scale):
        adds.append((src, scale))
        real_axpy(dst, src, scale)

    a, b = vector_of(columns, u), vector_of(columns, v)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vflie.fields, "_axpy", recording)
        for x, y in ((a, b), (b, a), (integer_vector(a)[0], integer_vector(b)[0])):
            columns.bracket(columns.operand(x), columns.operand(y))
    assert all(src and all(src.values()) and scale for src, scale in adds)


def test_support_test_examples():
    # both move z only and read only x and y: every term X_z * d/dz vanishes
    assert provably_commute(parse_field("x*y*Dz", ctx), parse_field("y^2*exp(y)*Dz", ctx))
    # Dx moves x, which x*Dz reads: [Dx, x*Dz] = Dz
    assert not provably_commute(parse_field("Dx", ctx), parse_field("x*Dz", ctx))
    assert not provably_commute(parse_field("x*Dz", ctx), parse_field("Dx", ctx))
    # an exponential factor reads its variable too
    assert not provably_commute(parse_field("Dy", ctx), parse_field("exp(y)*Dz", ctx))


def test_close_never_brackets_a_provably_commuting_pair(monkeypatch):
    draws = [build(random_spec(recipe, seed, 3)).generators for recipe in RECIPES for seed in (0, 1)]
    draws.append(build(random_spec("center-rank1", 23, 6)).generators)
    real_bracket = Columns.bracket
    calls, skippable = 0, []

    def counting_bracket(self, u, v):
        nonlocal calls
        calls += 1
        fields_uv = [uncoordinatize({self.keys[k]: c for k, c in w.vec.items()}, ctx) for w in (u, v)]
        if provably_commute(*fields_uv):
            skippable.append(tuple(map(str, fields_uv)))
        return real_bracket(self, u, v)

    monkeypatch.setattr(Columns, "bracket", counting_bracket)
    skipping = [close(gens) for gens in draws]
    skipped_calls = calls
    assert skippable == []
    # every field moving and reading every variable: no pair can be skipped
    real_operand = Columns.operand

    def unmasked(self, vec):
        operand = real_operand(self, vec)
        operand.masks = (0b111, 0b111)
        return operand

    monkeypatch.setattr(Columns, "operand", unmasked)
    reference = [close(gens) for gens in draws]
    assert calls - skipped_calls > 2 * skipped_calls  # the skip does fire
    for got, want in zip(skipping, reference):
        assert got.basis == want.basis
        assert got.structure == want.structure


# -- the integer echelon kernel --------------------------------------------------

# mixed denominators and numerators up to 10^12, with zeros for sparsity
entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 12)),
)


@st.composite
def rational_matrices(draw) -> list[list[Fraction]]:
    """A few rows over a few columns, often with a dependent row appended."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(entries), draw(entries)
        rows.append([a * p + b * q for p, q in zip(rows[0], rows[1])])
    return rows


def unit_rows(matrix: list[list[Fraction]]) -> list[dict[int, Fraction]]:
    """The oracle's reduced rows scaled to unit pivots, as sparse rows."""
    out = []
    for row in oracle_row_basis(matrix):
        head = next(c for c in row if c)
        out.append({i: c / head for i, c in enumerate(row) if c})
    return out


def sparse(row: list[Fraction]) -> dict[int, Fraction]:
    return {i: c for i, c in enumerate(row) if c}


def combine(scales: list[Fraction], rows: list[dict], ncols: int) -> list[Fraction]:
    """sum(scales[i] * rows[i]) over sparse rows, as a dense list."""
    return [sum((a * row.get(c, 0) for a, row in zip(scales, rows)), Fraction(0)) for c in range(ncols)]


@settings(checks, max_examples=80)
@given(rational_matrices(), st.data())
def test_integer_kernel_matches_dense_oracle(matrix, data):
    ncols = len(matrix[0])
    probe = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    scales = data.draw(st.lists(entries, min_size=len(matrix), max_size=len(matrix)))
    combo = combine(scales, [sparse(row) for row in matrix], ncols)
    expected_rows = unit_rows(matrix)
    for _ in range(2):
        order = data.draw(st.permutations(range(len(matrix))))
        basis = EchelonBasis()
        for i in order:
            basis.insert(sparse(matrix[i]))
        assert basis.rows_sorted() == expected_rows
        for vec in (probe, combo):
            assert basis.contains(sparse(vec)) == oracle_member(matrix, vec)
        assert combine(basis.express(sparse(combo)), basis.rows, ncols) == combo
    columns = [sparse([row[c] for row in matrix]) for c in range(ncols)]
    kernel = null_space(columns)
    assert len(kernel) == ncols - len(expected_rows)
    for x in kernel:
        assert all(x.values())
        assert all(sum(row[c] * a for c, a in x.items()) == 0 for row in matrix)
    # canonical form, by dense arithmetic alone: the free columns are those in
    # the span of the columns before them, and the kernel vector of each is 1
    # there, 0 at every other free column and supported up to it
    dense_columns = [[row[c] for row in matrix] for c in range(ncols)]
    free = [c for c in range(ncols)
            if oracle_rank(dense_columns[:c + 1]) == oracle_rank(dense_columns[:c])]
    assert [max(x) for x in kernel] == free
    for c, x in zip(free, kernel):
        assert x[c] == 1 and not set(x) & set(free) - {c}
    # row keys of kinds that do not compare, str and tuple, give the same basis
    mixed = [{f"r{r}" if r % 2 else (r, "row"): c for r, c in col.items()} for col in columns]
    assert null_space(mixed) == kernel


def assert_fractions(values) -> None:
    for c in values:
        assert type(c) is Fraction, f"{c!r} is a {type(c).__name__}, not a Fraction"


@settings(checks, max_examples=25)
@given(rational_matrices(), st.sampled_from(RECIPES), st.integers(0, 40), st.data())
def test_kernel_returns_only_fractions_at_run_time(matrix, recipe, seed, data):
    # the run-time side of test_ring.py::test_package_computes_no_floats:
    # a stray int / int, or an unscaled integer row, would show here
    ncols = len(matrix[0])
    basis = EchelonBasis()
    for row in matrix:
        basis.insert(sparse(row))
    scales = data.draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
    for row in basis.rows:
        assert_fractions(row.values())
    assert_fractions(basis.express(sparse(combine(scales, basis.rows, ncols))))
    assert_fractions(basis.express(sparse(matrix[-1])))
    # a caller's ints leave the kernel as Fractions too
    numerators = [{k: c.numerator for k, c in sparse(row).items()} for row in matrix]
    int_basis = EchelonBasis()
    for row in numerators:
        int_basis.insert(row)
    assert_fractions(int_basis.express(numerators[-1]))
    for row in int_basis.rows:
        assert_fractions(row.values())
    for x in null_space([sparse([row[c] for row in matrix]) for c in range(ncols)]):
        assert_fractions(x.values())
    # close() brackets integer rows; none of their int coefficients may leak
    # into the basis, the center or the structure constants
    drawn = close(build(random_spec(recipe, seed, 2)).generators)
    exp_rates = close([parse_field(t, ctx) for t in ("Dx", "y*Dx + x^2*exp(2/3*y)*Dz", "x*Dz")])
    for L in (drawn, exp_rates):
        for comps in L.structure.values():
            assert_fractions(comps.values())
        for b in L.basis:
            assert_fractions(L.express(b))
        for v in (*L.basis, *L.center()):
            for comp in v.comps:
                assert_fractions(comp.term_map().values())


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


def naive_combination(basis, coeffs) -> list[dict]:
    """sum_k coeffs[k] * basis[k] per component, on raw term lists."""
    return [
        naive_canon([(p, r, a * c) for b, a in zip(basis, coeffs) if a
                     for p, r, c in naive_of(b.comps[i])])
        for i in range(ctx.nvars)
    ]


@settings(checks, max_examples=30)
@given(st.sampled_from(RECIPES), st.integers(0, 40), st.data())
def test_element_is_the_sum_of_scaled_basis_fields(recipe, seed, data):
    L = close(build(random_spec(recipe, seed, 2)).generators)
    n = L.dim
    k = data.draw(st.integers(0, n - 1))
    vectors = [[0] * n]
    for c in (-1, Fraction(1, 2), 3):
        vectors.append([c if t == k else 0 for t in range(n)])
    vectors.append(data.draw(st.lists(coefficients, min_size=n, max_size=n)))
    vectors.append(data.draw(st.lists(
        st.sampled_from((0, 1, -2, Fraction(1, 2), Fraction(-5, 3))), min_size=n, max_size=n)))
    for coeffs in vectors:
        v = L.element(coeffs)
        assert [naive_canon(naive_of(c)) for c in v.comps] == naive_combination(L.basis, coeffs)
        assert_fractions(c for comp in v.comps for c in comp.term_map().values())


# nilpotent and non-nilpotent generators: affine and sl2 actions, a diagonal
# one, an exponential shift and Heisenberg-type chains
SERIES_POOL = tuple(
    parse_field(text, ctx)
    for text in (
        "Dx", "Dy", "Dz", "x*Dx", "x^2*Dx", "y*Dy", "x*Dx + 2*z*Dz", "exp(x)*Dy",
        "y*Dx", "x*Dz", "z*Dy", "y*Dx + x*Dz", "exp(y)*Dz", "x*y*Dz",
    )
)


@settings(checks, max_examples=40)
@given(st.lists(st.sampled_from(SERIES_POOL), min_size=1, max_size=4, unique=True))
def test_series_and_center_match_the_dense_oracles(gens):
    try:
        L = close(gens, cap_dim=12, cap_degree=4)
    except ClosureCapExceeded:
        return
    for kind in ("lower-central", "derived"):
        report = L.series(kind)
        terms = oracle_series_terms(L, kind)
        assert list(report.dims) == [len(t) for t in terms], kind
        assert report.terminated_at_zero == (not terms[-1])
    # the certificate holds exactly for the nilpotent closures
    assert (L._nilpotency_certificate is not None) == L.is_nilpotent()
    assert L.center_coeffs() == oracle_center(L)


# report values: quotes, backslashes, control and non-ASCII characters (astral
# ones included) in strings and keys, ints of any size and sign, empty and
# nested containers
json_strings = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028'),
                                 st.characters()), max_size=6)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(-10**300, 10**300), json_strings),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_strings, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(checks, max_examples=300)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    out: list[str] = []
    _write_json(value, out, "\n")
    assert "".join(out) == json.dumps(value, indent=2)


def test_json_writer_rejects_what_reports_never_hold():
    # no float or Fraction reaches a report, and every report key is a str
    for value in (0.5, Fraction(1, 2), {1: "a"}, [{"k": {None: 0}}], {"k": object()}):
        with pytest.raises(TypeError):
            _write_json(value, [], "\n")
