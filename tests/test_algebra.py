"""Closure, structure tensors, center, series, projections, quotients."""

from __future__ import annotations

import gc
import re
import weakref
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vflie.algebra
import vflie.fields
import vflie.ring
from vflie import (
    ClosureCapExceeded,
    ContextMismatch,
    CoordinateChange,
    DEFAULT_CONTEXT,
    EchelonBasis,
    ExpMonomial,
    ExpPoly,
    InternalInvariantViolation,
    LieAlgebra,
    NotAnIdeal,
    NotInSpan,
    ProjectionHypothesisViolated,
    RECIPES,
    build,
    classify,
    close,
    generic_rank,
    jordan_chains,
    random_spec,
    split_check,
    VariableContext,
    VectorField,
)
from vflie.linalg import (
    Columns,
    ForwardEchelon,
    _integral,
    coordinatize,
    echelon_of,
    null_space,
    to_dense,
)
from vflie.parser import parse_expression, parse_field

from conftest import (
    Q,
    adjoint_matrix,
    naive_bracket,
    naive_canon,
    naive_field_coords,
    naive_of,
    oracle_bracket,
    oracle_center,
    oracle_coords,
    oracle_member,
    oracle_quotient,
    oracle_rank,
    oracle_row_basis,
    oracle_series_terms,
    provably_commute,
    rng,
)

ctx = DEFAULT_CONTEXT


def F(text: str):
    return parse_field(text, ctx)


def algebra(*texts: str, **kw) -> LieAlgebra:
    return close([F(t) for t in texts], **kw)


EX_SPLIT_FAIL = ("Dx", "y*Dx", "Dy + (x^2+y^2)*Dz", "(x+y)*Dz")  # closes to dim 8
EX_EXP = ("Dx", "y*Dx + x^2*exp(y)*Dz", "x*Dz")  # closes to dim 8
HEISENBERG = ("Dx", "y*Dx + x*Dz", "Dz")
TWO_CHAIN = ("Dz", "z*Dx", "z^2*Dx + z*Dy", "Dx", "Dy")  # closes to dim 5
# exp terms with rational rates: the only place where an integer echelon row
# times a rate is a Fraction
EXP_RATIONAL_RATES = (
    ("Dx", "exp(1/2*x)*Dy", "x*exp(1/2*x)*Dz"),  # dim 4
    ("Dx", "y*Dx + x^2*exp(2/3*y)*Dz", "x*Dz"),  # dim 8, nilpotent
    ("Dy", "exp(-3/5*y)*Dx", "y^2*exp(-3/5*y)*Dz", "1/7*Dz"),  # dim 6
    ("Dx", "exp(1/3*x + 1/2*y)*Dz", "Dy"),  # dim 3
    ("1/3*Dx + 2/5*y*Dz", "7/4*Dy", "x*Dz"),  # dim 4, nilpotent
)


def center_oracle(L: LieAlgebra) -> int:
    """Independent center dimension: null space of bracket constraints assembled
    from raw field brackets and a naive coordinatization."""
    brackets = []
    for j in range(L.dim):
        brackets.extend(L.basis[i].bracket(L.basis[j]) for i in range(L.dim))
    coords = naive_field_coords(list(L.basis) + brackets)
    width = len(coords[0])
    rows = []
    for col in range(width):
        for j in range(L.dim):
            rows.append([coords[L.dim + j * L.dim + i][col] for i in range(L.dim)])
    rows = [r for r in rows if any(r)]
    return L.dim - oracle_rank(rows) if rows else L.dim


# -- closure ------------------------------------------------------------------------


def test_abelian_translations():
    L = algebra("Dx", "Dy", "Dz")
    assert L.dim == 3 and L.is_abelian()
    assert not L.structure


def test_closure_polynomial_example_dim8():
    L = algebra(*EX_SPLIT_FAIL)
    assert L.dim == 8
    expected = ["Dx", "y*Dx", "Dy + (x^2+y^2)*Dz", "Dz", "x*Dz", "y*Dz", "x*y*Dz", "y^2*Dz"]
    for text in expected:
        assert L.contains(F(text))


def test_closure_exponential_example_dim8():
    L = algebra(*EX_EXP)
    assert L.dim == 8
    for text in (
        "Dx", "y*Dx + x^2*exp(y)*Dz", "x*Dz", "Dz",
        "y*Dz", "x*exp(y)*Dz", "exp(y)*Dz", "y*exp(y)*Dz",
    ):
        assert L.contains(F(text))


def test_closure_exponential_variant_is_smaller():
    # replacing x^2*exp(y) by exp(y) in the second generator changes the algebra
    L = algebra("Dx", "y*Dx + exp(y)*Dz", "x*Dz")
    assert L.dim == 5
    assert [str(b) for b in L.basis] == [
        "Dx", "y*Dx + exp(y)*Dz", "Dz", "x*Dz", "y*Dz",
    ]


def test_closure_cap_exceeded_for_unbounded_growth():
    # oracle: [x*Dx, x^k*Dx] = (k-1) x^k ... degrees grow without bound
    with pytest.raises(ClosureCapExceeded):
        algebra("Dx", "x*Dx", "x^3*Dx")


def test_closure_respects_small_dim_cap():
    with pytest.raises(ClosureCapExceeded):
        algebra(*EX_SPLIT_FAIL, cap_dim=5)


def test_dim_cap_message_names_the_cap_without_claiming_infinite_dimension():
    # finite: this draw closes at dim 88, above the default cap of 64
    gens = build(random_spec("center-rank1", 7, 6)).generators
    with pytest.raises(ClosureCapExceeded) as info:
        close(gens)
    exc = info.value
    message = str(exc)
    assert "cap_dim=64" in message and "dimension 65" in message
    assert "round" in message and "--cap-dim" in message
    assert "infinite" not in message
    assert (exc.cap, exc.limit, exc.dim) == ("cap_dim", 64, 65)
    assert exc.round >= 1 and f"round {exc.round}" in message
    assert exc.pending > 0 and f"{exc.pending} pairs pending" in message
    assert close(gens, cap_dim=200).dim == 88


def test_round_cap_reports_how_far_the_closure_got():
    with pytest.raises(ClosureCapExceeded) as info:
        algebra(*EX_SPLIT_FAIL, cap_rounds=1)  # closes to dim 8 in more layers
    exc = info.value
    # pinned: layer 1 leaves dim 7, so the 4 generators times the 3 new rows
    # are the pairs of layer 2, none of them visited yet
    assert (exc.cap, exc.limit, exc.dim, exc.round, exc.pending) == ("cap_rounds", 1, 7, 1, 12)
    message = str(exc)
    assert "cap_rounds=1" in message and f"dimension {exc.dim}" in message
    assert "round 1" in message and "--cap-rounds" in message
    assert "infinite" not in message
    assert algebra(*EX_SPLIT_FAIL, cap_rounds=exc.round + 8).dim == 8
    # a round is one bracket depth: [Dx, x^5*Dy] = 5*x^4*Dy, then one power
    # of x less per round down to Dy, so dim 7 after round 5, and round 6
    # finds [S, Dy] = 0
    with pytest.raises(ClosureCapExceeded) as info:
        algebra("Dx", "x^5*Dy", cap_rounds=5)
    exc = info.value
    assert (exc.cap, exc.limit, exc.dim, exc.round) == ("cap_rounds", 5, 7, 5)
    assert algebra("Dx", "x^5*Dy", cap_rounds=6).dim == 7


def test_dim_cap_fields_are_pinned_mid_closure():
    # center-rank1 seed 7 passes dimension 40 in its third generator layer,
    # with 31 of that layer's S x frontier pairs still to visit; pairs the
    # supports prove commuting count as visited
    gens = build(random_spec("center-rank1", 7, 6)).generators
    with pytest.raises(ClosureCapExceeded) as info:
        close(gens, cap_dim=40)
    exc = info.value
    assert (exc.cap, exc.limit, exc.dim, exc.round, exc.pending) == ("cap_dim", 40, 41, 3, 31)


def test_dim_cap_fields_are_pinned_mid_layer_at_a_larger_dimension():
    # center-rank1 seed 11, degree bound 10 (dimension 227) passes dimension
    # 150 inside its seventh generator layer, with 114 pairs still to visit
    gens = build(random_spec("center-rank1", 11, 10)).generators
    with pytest.raises(ClosureCapExceeded) as info:
        close(gens, cap_dim=150)
    exc = info.value
    assert (exc.cap, exc.limit, exc.dim, exc.round, exc.pending) == ("cap_dim", 150, 151, 7, 114)


def test_close_hands_over_a_fully_reduced_echelon():
    # close() settles each layer, so the echelon LieAlgebra reads has every
    # row primitive, with a positive pivot and zero at every other pivot;
    # the pivot is the least (component, monomial) key of the column table
    L = close(build(random_spec("center-rank1", 7, 6)).generators, cap_dim=200)
    echelon = L._echelon
    assert len(echelon) == L.dim == 88
    pivots = set(echelon.pivots)
    assert len(pivots) == 88
    key = echelon.columns.keys.__getitem__
    for i in range(len(echelon)):
        row, pivot = echelon.primitive_row(i), echelon.pivots[i]
        assert pivot == min(row, key=key) and row[pivot] > 0
        assert pivots & set(row) == {pivot}
        assert gcd(*row.values()) == 1


def test_close_brackets_the_integer_rows(monkeypatch):
    # close() and the tensor bracket the echelon's primitive integer rows on
    # their column ids, and the basis fields are built from those rows and
    # their heads, so no unit row is read at construction
    gens = build(random_spec("center-rank1", 7, 6)).generators
    calls = {"row": 0, "bracket": 0}
    real_row, real_bracket = EchelonBasis.row, Columns.bracket

    def counting_row(self, index):
        calls["row"] += 1
        return real_row(self, index)

    def counting_bracket(self, u, v):
        calls["bracket"] += 1
        assert all(type(c) is int for c in (*u.vec.values(), *v.vec.values()))
        return real_bracket(self, u, v)

    monkeypatch.setattr(EchelonBasis, "row", counting_row)
    monkeypatch.setattr(Columns, "bracket", counting_bracket)
    L = close(gens, cap_dim=200)
    assert L.dim == 88
    assert calls == {"row": 0, "bracket": 351}


def test_close_fills_each_column_pair_once(monkeypatch):
    # the row bracket on the dimension-88 draw: each half m d_i(n) d_j of a
    # pair of column fields is filled by the formula once, no half it fills
    # is empty, and no operand field is built, differentiated or multiplied
    gens = build(random_spec("center-rank1", 7, 6)).generators
    calls = {"mul_add": 0, "diff": 0, "field": 0}
    filled = []
    real_half, real_mul_add, real_diff = Columns._half, vflie.fields.mul_add, ExpPoly.diff

    def recording_half(self, k, l):
        half = real_half(self, k, l)
        filled.append(((k, l), half))
        return half

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(Columns, "_half", recording_half)
    for module in (vflie.ring, vflie.fields):
        monkeypatch.setattr(module, "mul_add", counting("mul_add", real_mul_add))
    monkeypatch.setattr(ExpPoly, "diff", counting("diff", real_diff))
    monkeypatch.setattr(VectorField, "__init__", counting("field", VectorField.__init__))
    L = close(gens, cap_dim=200)
    assert L.dim == 88
    # the basis fields are the only fields built
    assert calls == {"mul_add": 0, "diff": 0, "field": 88}
    assert len(filled) == 393
    assert len({pair for pair, _ in filled}) == len(filled)
    assert all(half for _, half in filled)


def test_tensor_brackets_the_pairs_its_support_classes_allow(monkeypatch):
    # the tensor groups its rows by support masks and brackets only the
    # pairs a < b of classes that may not commute, ascending: exactly the
    # pairs that the per-pair support test keeps, with each row grouped
    # once (Columns.operand), which gives its support masks
    L = close(build(random_spec("center-rank1", 7, 6)).generators, cap_dim=200)
    echelon = L._echelon
    index = {id(echelon.primitive_row(i)): k for k, i in enumerate(echelon.order())}
    assert len(index) == L.dim == 88
    expected = [
        (a, b)
        for (a, u), (b, v) in combinations(enumerate(L.basis), 2)
        if not provably_commute(u, v)
    ]
    pairs, operands = [], []
    real_bracket, real_operand = Columns.bracket, Columns.operand

    def recording_bracket(self, u, v):
        pairs.append((index[id(u.vec)], index[id(v.vec)]))
        return real_bracket(self, u, v)

    def counting_operand(self, vec):
        operands.append(vec)
        return real_operand(self, vec)

    monkeypatch.setattr(Columns, "bracket", recording_bracket)
    monkeypatch.setattr(Columns, "operand", counting_operand)
    fresh = LieAlgebra(L.ctx, echelon)
    assert pairs == expected and len(pairs) == 165
    assert len(operands) == 88
    assert fresh.structure == L.structure and list(fresh.structure) == sorted(fresh.structure)
    operands.clear()
    monkeypatch.setattr(Columns, "bracket", real_bracket)
    close(build(random_spec("center-rank1", 7, 6)).generators, cap_dim=200)
    assert len(operands) == 176  # each row grouped once in close(), once in the tensor


def test_a_closure_keeps_no_pair_table():
    # the half table belongs to one closure's column table and is emptied
    # once the tensor is built; no two closures share one, so nothing is
    # kept between closures or after them
    gens = build(random_spec("center-rank1", 7, 6)).generators
    first, second = close(gens, cap_dim=200), close(gens, cap_dim=200)
    a, b = first._echelon.columns, second._echelon.columns
    assert a is not b and a._halves == {} and b._halves == {}
    fresh = LieAlgebra(first.ctx, first._echelon)
    assert fresh.structure == first.structure and a._halves == {}
    for L in (algebra("Dx", "y*Dx + x*Dz", "Dz"), close(gens, cap_dim=200).project([0, 1]).image):
        assert L._echelon.columns._halves == {}


def test_zero_generators_close_through_the_vector_path():
    zero = F("0")
    assert close([zero]).dim == 0
    assert close([zero], cap_degree=1).dim == 0  # the zero field has degree -1
    L = close([zero, F("Dx")])
    assert L.dim == 1 and L.basis == (F("Dx"),)
    # [x^2*Dx, x^2*Dy] = 2*x^3*Dy: the cap names the bracket's degree
    with pytest.raises(ClosureCapExceeded) as info:
        algebra("0", "x^2*Dx", "x^2*Dy", cap_degree=2)
    exc = info.value
    assert (exc.cap, exc.limit, exc.dim, exc.round, exc.pending) == ("cap_degree", 2, 2, 1, 0)
    assert "degree 3" in str(exc)


def test_cap_degree_is_a_closure_limit():
    # [Dx, x^5*Dy] = 5*x^4*Dy, ... down to Dy: dim 7, degree 5
    with pytest.raises(ClosureCapExceeded) as info:
        algebra("Dx", "x^5*Dy", cap_degree=4)
    exc = info.value
    assert (exc.cap, exc.limit, exc.dim, exc.round, exc.pending) == ("cap_degree", 4, 1, 0, 0)
    message = str(exc)
    assert "cap_degree=4" in message and "degree 5" in message
    assert "--degree-cap" in message and "infinite" not in message
    assert algebra("Dx", "x^5*Dy", cap_degree=5).dim == 7


def test_a_cap_that_is_not_an_int_is_a_type_error(monkeypatch):
    # cap_dim=2.5 ran and reported "closure exceeded cap_dim=2.5", and
    # cap_dim=True ran as 1; either is refused before any bracket
    def no_bracket(self, u, v):
        raise AssertionError("a bracket was taken")

    monkeypatch.setattr(Columns, "bracket", no_bracket)
    for cap in ("cap_dim", "cap_rounds", "cap_degree"):
        for value in (2.5, True, False, 3.0, Q(3), "3", None):
            with pytest.raises(TypeError, match=f"{cap} {re.escape(repr(value))} is not an int"):
                algebra(*HEISENBERG, **{cap: value})
    monkeypatch.undo()
    assert algebra(*HEISENBERG, cap_dim=3, cap_rounds=1, cap_degree=1).dim == 3


def test_closure_deterministic_and_generator_order_independent():
    L1 = algebra(*EX_SPLIT_FAIL)
    L2 = algebra(*reversed(EX_SPLIT_FAIL))
    assert [str(b) for b in L1.basis] == [str(b) for b in L2.basis]
    assert L1.structure == L2.structure


def test_closure_idempotent():
    L = algebra(*EX_EXP)
    again = close(list(L.basis))
    assert [str(b) for b in again.basis] == [str(b) for b in L.basis]


def test_closure_agrees_with_naive_fixpoint_oracle():
    # independent oracle: recompute all pairwise brackets of the full current
    # list every round, membership-tested with the naive dense routine; the
    # inputs are random affine fields, one small draw of every recipe, the
    # exponential example and exp terms with rational rates
    r = rng(20240545)
    inputs = []
    for _ in range(10):
        gens = []
        for _ in range(r.randint(2, 3)):
            f = parse_field("0", ctx) + ctx.field(
                [
                    ctx.const(r.randint(-2, 2)) + ctx.var_poly(1) * r.randint(-2, 2),
                    ctx.zero_poly(),
                    ctx.const(r.randint(-2, 2)) + ctx.var_poly(0) * r.randint(-2, 2),
                ]
            )
            gens.append(f)
        inputs.append(gens)
    inputs.extend(build(random_spec(recipe, 0, 2)).generators for recipe in RECIPES)
    inputs.append([F(t) for t in EX_EXP])
    inputs.extend([F(t) for t in texts] for texts in EXP_RATIONAL_RATES)
    for gens in inputs:
        if all(g.is_zero for g in gens):
            continue
        fields = [g for g in gens if not g.is_zero]
        kept = []
        for f in fields:
            coords = naive_field_coords(kept + [f])
            if not oracle_member(coords[:-1], coords[-1]):
                kept.append(f)
        while True:
            grown = False
            for i in range(len(kept)):
                for j in range(len(kept)):
                    w = kept[i].bracket(kept[j])
                    if w.is_zero:
                        continue
                    coords = naive_field_coords(kept + [w])
                    if not oracle_member(coords[:-1], coords[-1]):
                        kept.append(w)
                        grown = True
            if not grown:
                break
        L = close(gens)
        assert L.dim == len(kept)
        for f in kept:
            assert L.contains(f)


@pytest.mark.parametrize("index, error, message", [
    ((-4, 1, 3), ValueError, "basis index -4 out of range"),
    ((0, 1, 7), ValueError, "basis index 7 out of range"),
    ((0, -3, 3), ValueError, "basis index -3 out of range"),
    ((5, 0, 0), ValueError, "basis index 5 out of range"),
    ((0, 1.0, 3), TypeError, "basis index 1.0 is not an int"),
])
def test_structure_constant_rejects_a_bad_index(index, error, message):
    # [e_0, e_1] = e_3: a negative index used to wrap round to (0, 1, 3) and
    # return 1, one past the end to return 0 or raise a bare IndexError, and
    # a float to read the int it equals
    L = algebra("Dx", "y*Dx + x*Dz", "Dy")
    assert L.dim == 4 and L.c(0, 1, 3) == 1 and L.c(1, 0, 3) == -1
    with pytest.raises(error, match=re.escape(message)):
        L.c(*index)


def test_structure_tensor_antisymmetry_and_jacobi():
    for texts in (EX_SPLIT_FAIL, EX_EXP, HEISENBERG, TWO_CHAIN):
        L = algebra(*texts)
        d = L.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    assert L.c(i, j, k) == -L.c(j, i, k)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    unit = lambda t: [Q(1) if s == t else Q(0) for s in range(d)]
                    jac = [Q(0)] * d
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = L.bracket_coeffs(unit(b), unit(c))
                        outer = L.bracket_coeffs(unit(a), inner)
                        jac = [x + y for x, y in zip(jac, outer)]
                    assert not any(jac)


@pytest.fixture(scope="module")
def oracle_corpus() -> list[LieAlgebra]:
    """Every recipe at degree bound 3, the two nilpotent inputs with rational
    exp rates, and the dim-39 center-rank1 closure."""
    algebras = [close(build(random_spec(recipe, 0, 3)).generators) for recipe in RECIPES]
    algebras += [algebra(*EXP_RATIONAL_RATES[i]) for i in (1, 4)]
    large = close(build(random_spec("center-rank1", 10, 5)).generators)
    assert large.dim >= 30
    return algebras + [large]


mixed = st.builds(Q, st.integers(-6, 6).filter(bool), st.integers(1, 12))


@st.composite
def coordinate_vectors(draw, L: LieAlgebra) -> dict:
    """A sparse w with mixed denominators; often a combination a*e_j + b*e_k
    whose brackets with some e_i cancel in a coordinate."""
    w = {}
    if L.dim:
        support = draw(st.lists(st.integers(0, L.dim - 1), unique=True, max_size=4))
        w = {j: draw(mixed) for j in support}
    shared = [
        (ad_i, j, k, t)
        for ad_i in L._int_ad[0]
        for j, k in combinations(sorted(ad_i), 2)
        for t in set(ad_i[j]) & set(ad_i[k])
    ]
    if shared and draw(st.booleans()):
        ad_i, j, k, t = draw(st.sampled_from(shared))
        scale = draw(mixed)
        w = {j: scale * ad_i[k][t], k: -scale * ad_i[j][t]}
    return w


def dense_value(vec: dict, scale: int, n: int) -> list:
    """The exact dense value vec / scale of an integer routine's result."""
    return [Q(vec.get(k, 0), scale) for k in range(n)]


def assert_all_int(*values) -> None:
    assert all(type(c) is int for c in values), [type(c) for c in values]


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.data())
def test_ad_image_is_every_nonzero_bracket_with_a_unit(oracle_corpus, data):
    """_ad_image(w) over its scale is the nonzero [e_i, w] of _bracket over
    its scale, and _bracket(u, w) over its scale is the dense oracle's
    bracket, which reads only c(); both take integer coordinates and return
    ints, including on algebras whose ad rows have denominators D_v != 1."""
    fractional = [n for n, L in enumerate(oracle_corpus) if any(d != 1 for d in L._int_ad[1])]
    assert fractional, "no corpus algebra has an ad row with a denominator"
    source = data.draw(st.one_of(
        st.sampled_from(fractional),
        st.sampled_from(range(len(oracle_corpus))),
        st.tuples(st.sampled_from(RECIPES), st.integers(0, 40)),
    ))
    if isinstance(source, int):
        L = oracle_corpus[source]
    else:
        L = close(build(random_spec(source[0], source[1], 2)).generators)
    u = _integral(data.draw(coordinate_vectors(L)))[0]
    w = _integral(data.draw(coordinate_vectors(L)))[0]
    vec, scale = L._bracket(u, w)
    assert dense_value(vec, scale, L.dim) == oracle_bracket(L)(to_dense(u, L.dim), to_dense(w, L.dim))
    expected = {}
    for i in range(L.dim):
        unit_vec, unit_scale = L._bracket({i: 1}, w)
        if unit_vec:
            expected[i] = dense_value(unit_vec, unit_scale, L.dim)
    images, image_scale = L._ad_image(w)
    assert {i: dense_value(v, image_scale, L.dim) for i, v in images.items()} == expected
    assert_all_int(scale, image_scale, *vec.values(), *(c for v in images.values() for c in v.values()))


def test_ad_image_drops_a_bracket_that_cancels():
    # [Dx, (x+y)*Dz] = [Dy, (x+y)*Dz] = Dz, so [e, Dx - Dy] cancels to zero
    L = algebra("Dx", "Dy", "(x+y)*Dz")
    w = {j: int(c) for j, c in enumerate(L.express(F("Dx - Dy"))) if c}
    assert len(w) == 2 and L._ad_image(w) == ({}, 1)
    assert L._ad_image({j: 1 for j in w}) == ({3: {2: -2}}, 1)


# recipe-mix draws (the acceptance gate's degree bounds) whose ad tables
# have denominators D_v of 2 to 4, and one draw of each recipe at seed 0
DENOMINATOR_DRAWS = [("heisenberg", s) for s in range(7, 13)]
DENOMINATOR_DRAWS += [("abelian-projection", 8), ("center-rank1", 4), ("center-rank1", 6)]


@pytest.fixture(scope="module")
def recipe_mix_draws() -> list[tuple[LieAlgebra, object]]:
    """(algebra, oracle_bracket) for DENOMINATOR_DRAWS and seed 0 of every recipe."""
    draws = DENOMINATOR_DRAWS + [(recipe, 0) for recipe in RECIPES]
    out = []
    for recipe, seed in draws:
        bound = 4 if recipe in ("center-rank2", "single-chain") else 3
        L = close(build(random_spec(recipe, seed, bound)).generators)
        out.append((L, oracle_bracket(L)))
    assert all(max(L._int_ad[1]) > 1 for L, _ in out[: len(DENOMINATOR_DRAWS)])
    return out


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.data())
def test_integer_routines_match_the_oracle_on_recipe_draws(recipe_mix_draws, data):
    """On recipe draws, several with D_v > 1: _bracket and _ad_image return
    only ints, vector / L is the conftest oracle_bracket, and bracket_coeffs,
    which scales Fraction coordinates to integers and divides once, is too."""
    L, bracket = data.draw(st.sampled_from(recipe_mix_draws))
    n = L.dim
    # a full-support vector mixes the ad rows of every denominator
    vectors = st.one_of(coordinate_vectors(L), st.fixed_dictionaries({i: mixed for i in range(n)}))
    u, w = data.draw(vectors), data.draw(vectors)
    dense_u, dense_w = to_dense(u, n), to_dense(w, n)
    assert L.bracket_coeffs(dense_u, dense_w) == bracket(dense_u, dense_w)
    (iu, su), (iw, sw) = _integral(u), _integral(w)
    vec, scale = L._bracket(iu, iw)
    assert dense_value(vec, scale * su * sw, n) == bracket(dense_u, dense_w)
    images, image_scale = L._ad_image(iw)
    units = [[Q(int(i == k)) for k in range(n)] for i in range(n)]
    expected = {i: v for i in range(n) if any(v := bracket(units[i], dense_w))}
    assert {i: dense_value(v, image_scale * sw, n) for i, v in images.items()} == expected
    assert_all_int(scale, image_scale, *vec.values(), *(c for v in images.values() for c in v.values()))


def test_structure_tensor_matches_naive_bracket_oracle(oracle_corpus):
    # LieAlgebra builds the tensor from the engine's own brackets, so every
    # pair is checked here against brackets that share no code with the
    # engine: [b_i, b_j] = sum_k c(i, j, k) b_k term for term, and a pair is
    # stored exactly when its bracket is nonzero
    for L in oracle_corpus:
        n = L.ctx.nvars
        for i, j in combinations(range(L.dim), 2):
            coeffs = L.structure.get((i, j), {})
            combination = [
                naive_canon([(p, r, a * c) for k, a in coeffs.items()
                             for p, r, c in naive_of(L.basis[k].comps[comp])])
                for comp in range(n)
            ]
            got = naive_bracket(L.basis[i], L.basis[j])
            assert got == combination, (L.dim, i, j)
            assert ((i, j) in L.structure) == any(got), (L.dim, i, j)


def test_express_and_element_round_trip():
    L = algebra(*EX_EXP)
    r = rng(20240540)
    for _ in range(10):
        coeffs = [Q(r.randint(-3, 3), r.choice((1, 2))) for _ in range(L.dim)]
        assert L.express(L.element(coeffs)) == coeffs
    with pytest.raises(NotInSpan):
        L.express(F("x^5*Dz"))


def test_element_of_a_unit_vector_is_the_basis_field():
    L = algebra(*EX_EXP)
    for k in range(L.dim):
        for one in (1, Q(1)):
            unit = [0] * L.dim
            unit[k] = one
            assert L.element(unit) is L.basis[k]
        unit[k] = Q(-3, 2)
        assert L.element(unit) == L.basis[k] * Q(-3, 2)
    assert L.element([0] * L.dim).is_zero


def test_element_checks_the_length_of_the_vector():
    # zip would drop the fourth coefficient, or read a missing one as zero
    L = algebra(*HEISENBERG)
    for coeffs in ([1, 1, 1, 1], [1, 1], [], [0, 0, 1, 0]):
        with pytest.raises(ValueError, match="wrong length"):
            L.element(coeffs)
    assert str(L.element([1, 1, 1])) == "Dx + y*Dx + Dz + x*Dz"


def test_float_coefficients_are_type_errors():
    # Fraction(0.5) would pass for 1/2, and Fraction(0.1) is not 1/10
    L = algebra(*HEISENBERG)
    calls = (
        L.element,
        lambda v: L.ideal_subspace([v]),
        lambda v: L.verify_ideal([v]),
        lambda v: L.quotient_structure([v]),
    )
    for call in calls:
        for coeffs in ([0.5, 0, 0], [0, 0, 0.1], [0.0, 0, 1]):
            with pytest.raises(TypeError, match="is not an int or Fraction"):
                call(coeffs)
    assert L.element([Q(1, 2), 0, 0]) == F("1/2*Dx")
    assert L.quotient_structure([[0, 0, Q(1, 2)]]).dim == 2


def test_a_float_index_is_a_type_error():
    # int(1.9) would keep variable 1, and int(1.0) would take basis element 1
    L = algebra(*HEISENBERG)
    for kept in ([0, 1.9], [1.0], [0, Q(1)]):
        with pytest.raises(TypeError, match="kept variable .* is not a name or an index"):
            L.project(kept)
    for call in (L.ideal_subspace, L.verify_ideal, L.quotient_structure):
        for item in (1.0, 2.5, Q(2)):
            with pytest.raises(TypeError, match=re.escape(f"ideal item {item!r} is not a basis index")):
                call([item])
    assert L.project(["x", 1]).kept == (0, 1)
    assert L.quotient_structure([2]).dim == 2


def test_a_bool_index_is_a_type_error():
    # True is an int: c(0, True, 2) read e_1 and gave 1, project([True])
    # kept y, and ideal_subspace([True]) took e_1
    L = algebra(*HEISENBERG)
    for index in (True, False):
        for args in ((0, index, 2), (index, 1, 2), (0, 1, index)):
            with pytest.raises(TypeError, match=f"basis index {index!r} is not an int"):
                L.c(*args)
        with pytest.raises(TypeError, match=f"kept variable {index!r} is not a name or an index"):
            L.project([index])
        for call in (L.ideal_subspace, L.verify_ideal, L.quotient_structure):
            with pytest.raises(TypeError, match=f"ideal item {index!r} is not a basis index"):
                call([index])
    assert L.c(0, 1, 2) == 1 and L.project([0, 1]).kept == (0, 1)
    assert len(L.ideal_subspace([1])) == 1


def test_a_coefficient_vector_must_be_a_sequence():
    # a dict was read as its keys: {0: 5, 1: 0, 2: 0} gave basis[1] + 2*basis[2]
    L = algebra(*HEISENBERG)
    for coeffs in ({0: 5, 1: 0, 2: 0}, {1, 2, 3}, iter([1, 0, 0])):
        with pytest.raises(TypeError, match="is not a sequence"):
            L.element(coeffs)
    with pytest.raises(TypeError, match="is not a basis index, a field or a coefficient vector"):
        L.ideal_subspace([{0: 5, 1: 0, 2: 0}])
    assert L.element((1, 0, 0)) is L.basis[0]


def test_membership_checks_the_context():
    L = algebra(*HEISENBERG)
    other = parse_field("Da", VariableContext(("a", "b", "c")))
    assert L.contains(F("Dx")) and not L.contains(F("Dy"))
    with pytest.raises(ContextMismatch):
        L.contains(other)
    with pytest.raises(ContextMismatch):
        L.express(other)


# -- center -------------------------------------------------------------------------


def test_center_of_abelian_is_everything():
    L = algebra("Dx", "Dy", "Dz")
    assert len(L.center()) == 3


def test_center_of_polynomial_example():
    L = algebra(*EX_SPLIT_FAIL)
    c = L.center()
    assert [str(v) for v in c] == ["Dz"]
    assert center_oracle(L) == 1


def test_center_of_exponential_example():
    L = algebra(*EX_EXP)
    c = L.center()
    assert len(c) == 4
    assert center_oracle(L) == 4
    for v in c:
        assert v.comps[0].is_zero and v.comps[1].is_zero
        assert v.comps[2].depends_only_on((1,))  # all of the form g(y)Dz
    assert generic_rank(c) == 1


def test_center_matches_oracle_randomized():
    r = rng(20240541)
    from vflie import build, random_spec

    for recipe in ("center-rank2", "single-chain", "heisenberg"):
        for seed in range(3):
            L = close(build(random_spec(recipe, seed, 2)).generators)
            assert len(L.center()) == center_oracle(L)


def test_center_fields_are_computed_once(monkeypatch):
    L = algebra(*EX_EXP)
    first = L.center()
    calls = []
    real_null_space = vflie.algebra.null_space
    real_field = LieAlgebra._field

    def counting_null_space(columns):
        calls.append("null_space")
        return real_null_space(columns)

    def counting_field(self, coeffs):
        calls.append("_field")
        return real_field(self, coeffs)

    monkeypatch.setattr(vflie.algebra, "null_space", counting_null_space)
    monkeypatch.setattr(LieAlgebra, "_field", counting_field)
    second = L.center()
    assert calls == []
    assert second == first and second is not first
    second.clear()
    assert L.center() == first and len(first) == 4
    assert calls == []
    # a fresh algebra computes its own center through both
    assert algebra(*EX_EXP).center() == first
    assert "null_space" in calls and "_field" in calls


def test_center_coeffs_hands_out_copies():
    # editing a vector before center() is first read used to edit the cache
    expected = algebra(*HEISENBERG).center_coeffs()
    L = algebra(*HEISENBERG)
    edited = L.center_coeffs()
    edited[0][0] = 1
    edited[0][2] = 5
    assert L.center_coeffs() == expected != edited
    assert [str(v) for v in L.center()] == ["Dz"]
    assert classify(L).subcase == "a"


LARGE_REPORT_DRAWS = (("center-rank1", 5, 5), ("center-rank1", 9, 6), ("center-rank1", 10, 5))


def test_integer_ad_rows_are_exact():
    """Each entry of the integer ad tables over its row's denominator D_v is
    the structure constant that c() reads from the tensor, D_v is the lcm of
    that row's denominators, no zero is stored, and the tables are not built
    before their first read."""
    draws = [close(build(random_spec(r, s, 3)).generators) for r in RECIPES for s in (0, 1)]
    draws += [close(build(random_spec(*spec)).generators, cap_dim=200) for spec in LARGE_REPORT_DRAWS]
    fractional = 0
    for L in draws:
        assert "_int_ad" not in vars(L)
        tables, dens = L._int_ad
        n = L.dim
        for v in range(n):
            lcm = 1
            for j in range(n):
                for k in range(n):
                    entry = tables[v].get(j, {}).get(k, 0)
                    assert type(entry) is int
                    assert Q(entry, dens[v]) == L.c(v, j, k), (n, v, j, k)
                    d = L.c(v, j, k).denominator
                    lcm = lcm * d // gcd(lcm, d)
            assert dens[v] == lcm
            assert all(all(row.values()) for row in tables[v].values()), "a zero entry is stored"
            fractional += dens[v] != 1
    assert fractional, "no draw has a structure constant that is not an integer"


def test_structure_text_is_the_fraction_text(oracle_corpus):
    """report() and QuotientStructure.to_dict() write the structure from the
    integer tensor: each entry c over its pair's scale s is reduced by their
    gcd, which is str(Fraction(c, s)) entry for entry."""
    specs = [*LARGE_REPORT_DRAWS, *((recipe, seed, 3) for recipe, seed in DENOMINATOR_DRAWS)]
    draws = [*oracle_corpus, *(close(build(random_spec(*spec)).generators, cap_dim=200)
                               for spec in specs)]
    write = vflie.algebra._structure_text
    fractional = quotients = 0
    for L in draws:
        want = [[a, b, k, str(Q(c, s))]
                for (a, b), (s, entries) in sorted(L._tensor.items()) for k, c in entries]
        assert write(L._tensor) == want == L.report()["structure"], L.dim
        fractional += any("/" in text for *_, text in want)
        if center := L.center_coeffs():
            q = L.quotient_structure(center)
            assert q.to_dict()["structure"] == [[a, b, k, str(c)] for (a, b), comps
                                                in sorted(q.structure.items()) for k, c in comps.items()]
            quotients += bool(q._tensor)
    assert fractional and quotients


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**4), st.integers(1, 60))
def test_structure_text_of_drawn_entries(c, s, factor):
    # negative entries, and entries sharing a factor with their scale
    c, s = c * factor, s * factor
    entries = [(0, c), (1, -c), (2, s), (3, -s)]
    got = vflie.algebra._structure_text({(0, 1): (s, entries)})
    assert got == [[0, 1, k, str(Q(e, s))] for k, e in entries]


def test_report_reads_no_unit_row_and_no_fraction_tensor(monkeypatch):
    # the basis fields come from the primitive integer rows and the report's
    # structure from the integer tensor, so on the large-report draws neither
    # close() nor report() reads a unit row or builds the Fraction tensor
    calls = []
    real_row, real_fraction_tensor = EchelonBasis.row, vflie.algebra._fraction_tensor

    def counting_row(self, index):
        calls.append("row")
        return real_row(self, index)

    def counting_fraction_tensor(tensor):
        calls.append("fraction tensor")
        return real_fraction_tensor(tensor)

    monkeypatch.setattr(EchelonBasis, "row", counting_row)
    monkeypatch.setattr(vflie.algebra, "_fraction_tensor", counting_fraction_tensor)
    for spec in LARGE_REPORT_DRAWS:
        L = close(build(random_spec(*spec)).generators, cap_dim=200)
        assert L.report()["dim"] == L.dim >= 33
        assert "structure" not in vars(L) and "_rows" not in vars(L)
    assert calls == []


def dense_structure(L: LieAlgebra) -> dict[tuple[int, int], list]:
    """(a, b) -> the dense coordinates of [b_a, b_b] for every a != b, by
    the term-list bracket and one dense elimination (oracle_coords)."""
    n = L.ctx.nvars
    pairs = [(a, b) for a in range(L.dim) for b in range(L.dim) if a != b]
    fields = [
        L.ctx.field([ExpPoly(n, {ExpMonomial(p, r): c for (p, r), c in comp.items()})
                     for comp in naive_bracket(L.basis[a], L.basis[b])])
        for a, b in pairs
    ]
    return dict(zip(pairs, oracle_coords(list(L.basis), fields) if fields else []))


def test_the_tensor_stays_integer_until_read():
    """The tensor is kept as integers over one scale per pair; close(), and
    the series, center and abelian test, which read the integer ad table,
    leave the Fraction form unbuilt.  Once read, `structure`, c(), the ad
    table and report()["structure"] are the dense oracle's constants."""
    draws = [close(build(random_spec(r, s, 3)).generators) for r in RECIPES for s in (0, 1)]
    draws += [algebra(*texts) for texts in EXP_RATIONAL_RATES]
    fractional = 0
    for L in draws:
        assert "structure" not in vars(L)
        assert all(type(s) is int and s > 0 and all(type(c) is int and c for _, c in entries)
                   for s, entries in L._tensor.values())
        for query in (L.is_abelian, L.is_nilpotent, L.center):
            query()
        assert "structure" not in vars(L)
        dense = dense_structure(L)
        want = {
            (a, b): {k: c for k, c in enumerate(dense[a, b]) if c}
            for a, b in combinations(range(L.dim), 2) if any(dense[a, b])
        }
        assert L.structure == want and list(L.structure) == sorted(want)
        assert all(list(comps) == sorted(comps) for comps in L.structure.values())
        tables, dens = L._int_ad
        for (a, b), coords in dense.items():
            for k, c in enumerate(coords):
                assert L.c(a, b, k) == c and Q(tables[a].get(b, {}).get(k, 0), dens[a]) == c
        assert L.report()["structure"] == [
            [a, b, k, str(c)] for (a, b), comps in want.items() for k, c in comps.items()
        ]
        fractional += any(c.denominator != 1 for comps in want.values() for c in comps.values())
    assert fractional, "no draw has a structure constant that is not an integer"


# -- series -------------------------------------------------------------------------


def test_heisenberg_lower_central():
    L = algebra(*HEISENBERG)
    report = L.series("lower-central")
    assert report.dims == (3, 1, 0) and report.terminated_at_zero


def test_abelian_series():
    L = algebra("Dx", "Dy", "Dz")
    assert L.series("lower-central").dims == (3, 0)
    assert L.series("derived").dims == (3, 0)


def test_series_match_structure_constant_oracle(oracle_corpus):
    stalled = [algebra("Dx", "x*Dx"), algebra("Dx", "x*Dx", "x^2*Dx")]  # series stop above 0
    for L in oracle_corpus + stalled:
        for kind in ("lower-central", "derived"):
            report = L.series(kind)
            terms = oracle_series_terms(L, kind)
            assert list(report.dims) == [len(t) for t in terms], (L.dim, kind)
            assert report.terminated_at_zero == (report.dims[-1] == 0)


def test_lower_central_series_insert_count_is_pinned(monkeypatch):
    """Center-rank1 seed 5 (dim 33) takes the certificate: [g, g] once per
    nonzero pair, the layers W_2, W_3, ... of V's chain and their sum make
    exactly 135 entries into forward elimination (ForwardEchelon.add, which
    forward_echelon goes through), none of them empty.  The fallback
    ad-image loop made 219."""
    L = close(build(random_spec("center-rank1", 5, 5)).generators)
    inserted = []
    real_add = ForwardEchelon.add

    def recording_add(self, vec):
        inserted.append(dict(vec))
        return real_add(self, vec)

    monkeypatch.setattr(ForwardEchelon, "add", recording_add)
    report = L.series("lower-central")
    assert report.dims == (33, 30, 28, 23, 14, 0) and report.terminated_at_zero
    assert all(inserted), "an empty vector reached the echelon"
    assert len(inserted) == 135


def test_span_only_steps_settle_no_echelon(monkeypatch):
    """[g, g], the nilpotency certificate and the center of center-rank1
    seed 5 (dim 33) need only spans and kernels: forward elimination and
    null_space's column elimination, never a fully reduced echelon."""
    L = close(build(random_spec("center-rank1", 5, 5)).generators)
    calls = []
    for name in ("insert", "_settle"):

        def recording(self, *args, _name=name, _real=getattr(EchelonBasis, name)):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(EchelonBasis, name, recording)
    assert L.dim == 33
    L._square, L._nilpotency_certificate, L._center
    assert L._nilpotency_certificate is not None and len(L._center) == 14
    assert calls == []


class CountingTable(dict):
    """An ad table that records each lookup of a row in it."""

    def __init__(self, table, lookups):
        super().__init__(table)
        self.lookups = lookups

    def __contains__(self, key):
        self.lookups.append(key)
        return super().__contains__(key)


def count_ad_row_lookups(L, lookups):
    tables, dens = L._int_ad
    L.__dict__["_int_ad"] = ([CountingTable(t, lookups) for t in tables], dens)


def test_layers_skip_central_generators():
    # every e_v of an abelian algebra is central, so its chain W_1, 0 needs
    # no bracket at all: _layers reads no ad table row and sums no image
    draws = [close(build(random_spec("abelian-rank2", s, 3)).generators) for s in range(13)]
    lookups = []
    for L in draws:
        count_ad_row_lookups(L, lookups)
        assert L.is_abelian()
        assert L._nilpotency_certificate == (tuple(range(L.dim)), (L.dim, 0))
    assert lookups == []
    # in Heisenberg, chained from its whole basis, the central Dz is never
    # bracketed: each image is summed from the entries of its layer row
    # against the ad rows of e_v, one lookup per entry, and the 3 + 1 layer
    # rows have one entry each, so two acting e_v make (3 + 1) * 2 sums
    L = algebra("Dx", "Dy + x*Dz", "Dz")
    count_ad_row_lookups(L, lookups)
    layers = L._layers(tuple(range(L.dim)))
    assert [len(W) for W in layers] == [3, 1] and all(len(w) == 1 for W in layers for w in W)
    assert len(lookups) == (3 + 1) * 2


# (generators, lower-central dims, derived dims, center) of the ad-image loop
FALLBACK = [
    (("Dx", "x*Dx", "x^2*Dx"), (3,), (3,), []),  # sl2: [g, g] = g, so V is empty
    (("Dx", "x*Dx"), (2, 1), (2, 1, 0), []),
    (("Dx", "x*Dy", "y*Dy"), (4, 2), (4, 2, 0), []),
    (("Dx", "x*Dx", "Dz"), (3, 1), (3, 1, 0), [[Q(0), Q(0), Q(1)]]),
]


def test_square_is_the_span_of_the_brackets(oracle_corpus):
    # [g, g] is the forward echelon of the tensor's own integer rows: its
    # length is the rank of the dense [e_i, e_j] rows that c() reads, and its
    # pivots are the least indices of the dense oracle's row basis
    fallback = [(algebra(*texts), derived) for texts, _, derived, _ in FALLBACK]
    for L in [*oracle_corpus, *(L for L, _ in fallback)]:
        n = L.dim
        rows = [[L.c(i, j, k) for k in range(n)] for i, j in combinations(range(n), 2)]
        rows = [row for row in rows if any(row)]
        assert len(L._square) == oracle_rank(rows), n
        least = sorted(next(k for k, c in enumerate(row) if c) for row in oracle_row_basis(rows))
        assert sorted(L._square.rows) == least, n
    # the derived series of a non-nilpotent algebra starts from [g, g]
    for L, derived in fallback:
        assert L.series("derived").dims == derived


@pytest.mark.parametrize("texts, lower, derived, center", FALLBACK)
def test_non_nilpotent_algebras_take_the_fallback(monkeypatch, texts, lower, derived, center):
    L = algebra(*texts)
    ad_images, kernel_acting = [], []
    real_ad_image, real_kernel = LieAlgebra._ad_image, vflie.algebra.common_kernel

    def counting_ad_image(self, w):
        ad_images.append(w)
        return real_ad_image(self, w)

    def counting_kernel(ad, acting):
        kernel_acting.append(acting)
        return real_kernel(ad, acting)

    monkeypatch.setattr(LieAlgebra, "_ad_image", counting_ad_image)
    monkeypatch.setattr(vflie.algebra, "common_kernel", counting_kernel)
    assert L._nilpotency_certificate is None
    assert L.center_coeffs() == center and kernel_acting == [range(L.dim)]
    for kind, dims in (("lower-central", lower), ("derived", derived)):
        report = L.series(kind)
        assert report.dims == dims
        assert report.terminated_at_zero == (dims[-1] == 0)
        assert list(dims) == [len(t) for t in oracle_series_terms(L, kind)]
    assert ad_images, "the lower-central series did not walk the ad images"
    assert not L.is_nilpotent()


@pytest.mark.parametrize("spec, dims, calls", [
    (("center-rank1", 5, 5), (33, 30, 0), 30),  # not one per pair: C(30, 2) = 435
    (("nonabelian-projection", 1, 3), (13, 10, 4, 0), 14),  # not 45 + 6 = 51
])
def test_derived_series_takes_each_rows_ad_image_once(monkeypatch, spec, dims, calls):
    L = close(build(random_spec(*spec)).generators, cap_dim=200)
    L._square  # [g, g] is read off the tensor, with no ad image
    ad_images = []
    real_ad_image = LieAlgebra._ad_image

    def counting_ad_image(self, w):
        ad_images.append(w)
        return real_ad_image(self, w)

    monkeypatch.setattr(LieAlgebra, "_ad_image", counting_ad_image)
    assert L.series("derived").dims == dims
    assert len(ad_images) == calls
    # each row's images, combined with every earlier row, are its pair brackets
    rows = [L._square.rows[k] for k in sorted(L._square.rows)]
    pairs = [L._bracket(rows[i], rows[j])[0] for j in range(len(rows)) for i in range(j)]
    assert list(L._pair_brackets(rows)) == pairs


def test_both_center_routes_match_the_oracle(oracle_corpus):
    """common_kernel over the whole basis and over the certificate's V give
    the canonical center of the dense all-pairs oracle."""
    draws = [close(build(random_spec(r, s, 2)).generators) for r in RECIPES for s in (1, 2)]
    fallback = [algebra(*texts) for texts, *_ in FALLBACK]
    certified = 0

    def dense_kernel(L, acting):
        return [to_dense(v, L.dim) for v in vflie.algebra.common_kernel(L._int_ad[0], acting)]

    for L in oracle_corpus + draws + fallback:
        expected = oracle_center(L)
        assert dense_kernel(L, range(L.dim)) == expected, L.dim
        certificate = L._nilpotency_certificate
        if certificate is not None:
            certified += 1
            assert dense_kernel(L, certificate[0]) == expected, L.dim
        assert L.center_coeffs() == expected
    assert certified == len(oracle_corpus) + len(draws)


def test_nilpotency_certificate_premises(oracle_corpus):
    """V spans g modulo [g, g], each W_{k+1} is exactly [V, W_k], the last
    layer brackets to zero, and the layers span g: checked with the dense
    oracle bracket and rank, not the engine's elimination."""
    large = [close(build(random_spec("center-rank1", s, b)).generators) for s, b in ((5, 5), (9, 6))]
    for L in oracle_corpus + large:
        assert L.is_nilpotent()
        certificate = L._nilpotency_certificate
        assert certificate is not None, L.dim
        gens, dims = certificate
        n = L.dim
        bracket = oracle_bracket(L)
        unit = lambda i: [Q(int(j == i)) for j in range(n)]
        squares = [v for a, b in combinations(range(n), 2) if any(v := bracket(unit(a), unit(b)))]
        assert oracle_rank([unit(v) for v in gens] + squares) == n
        assert oracle_rank(squares) == n - len(gens)
        layers = [[[Q(row.get(j, 0)) for j in range(n)] for row in W] for W in L._layers(gens)]
        assert layers[0] == [unit(v) for v in gens]
        for k, rows in enumerate(layers):
            images = [v for g in gens for w in rows if any(v := bracket(unit(g), w))]
            if k + 1 == len(layers):
                assert not images, "the last layer does not bracket to zero"
            else:
                following = layers[k + 1]
                assert oracle_rank(following) == len(following)
                assert oracle_rank(images) == len(following) == oracle_rank(images + following)
        tails = [[row for rows in layers[k:] for row in rows] for k in range(len(layers))]
        assert oracle_rank(tails[0]) == n
        assert dims == (*map(oracle_rank, tails), 0)


def test_series_are_cached_per_algebra(monkeypatch):
    L = algebra(*EX_SPLIT_FAIL)
    real_forward_echelon = vflie.algebra.forward_echelon
    calls = []

    def counting_forward_echelon(rows):
        calls.append(1)
        return real_forward_echelon(rows)

    monkeypatch.setattr(vflie.algebra, "forward_echelon", counting_forward_echelon)
    for kind in ("lower-central", "derived"):
        before = len(calls)
        first = L.series(kind)
        computed = len(calls)
        assert computed > before
        assert L.series(kind) == first
        assert len(calls) == computed
    assert L.is_nilpotent() and L.is_solvable()
    assert len(calls) == computed


def test_report_takes_solvability_from_a_nilpotent_series(monkeypatch):
    real = vflie.algebra.LieAlgebra._compute_series
    kinds = []

    def counting(self, kind):
        kinds.append(kind)
        return real(self, kind)

    monkeypatch.setattr(vflie.algebra.LieAlgebra, "_compute_series", counting)
    report = algebra(*EX_SPLIT_FAIL).report()
    assert report["nilpotent"] and report["solvable"]
    assert kinds == ["lower-central"]
    assert algebra("Dx", "x*Dx").report()["solvable"] is True
    assert algebra("Dx", "x*Dx", "x^2*Dx").report()["solvable"] is False


def test_invariants_survive_a_coordinate_change():
    # the two changes of test_rank_invariant_under_pushforward in test_linalg
    E = lambda t: parse_expression(t, ctx)
    changes = [
        CoordinateChange(ctx, (E("x + y"), E("y"), E("z")), (E("x - y"), E("y"), E("z"))),
        CoordinateChange(
            ctx, (E("x"), E("y"), E("z + x^2*y")), (E("x"), E("y"), E("z - x^2*y"))
        ),
    ]

    def invariants(L: LieAlgebra) -> tuple:
        center = L.center()
        return (
            L.dim,
            L.series("lower-central").dims,
            len(center),
            generic_rank(L.basis),
            generic_rank(center),
        )

    for recipe in RECIPES:
        generators = build(random_spec(recipe, 0, 3)).generators
        expected = invariants(close(generators))
        for change in changes:
            pushed = close([g.pushforward(change) for g in generators])
            assert invariants(pushed) == expected, (recipe, change)


def test_polynomial_example_is_nilpotent():
    L = algebra(*EX_SPLIT_FAIL)
    assert L.series("lower-central").terminated_at_zero
    assert L.is_nilpotent() and L.is_solvable() and not L.is_abelian()


def test_affine_line_solvable_not_nilpotent():
    L = algebra("Dx", "x*Dx")
    assert L.is_solvable() and not L.is_nilpotent()
    assert L.series("lower-central").dims == (2, 1)


def test_sl2_like_not_solvable():
    L = algebra("Dx", "x*Dx", "x^2*Dx")
    assert L.dim == 3
    assert not L.is_nilpotent() and not L.is_solvable()


def test_single_field_nilpotent():
    assert algebra("y*Dx + x^2*exp(y)*Dz").is_nilpotent()


# -- projection ----------------------------------------------------------------------


def test_project_exponential_example():
    L = algebra(*EX_EXP)
    proj = L.project(["x", "y"])
    assert proj.image.dim == 2
    assert proj.kernel_dim == 6
    assert {str(b) for b in proj.image.basis} == {"Dx", "y*Dx"}
    assert L.dim == proj.image.dim + proj.kernel_dim


def test_project_abelian():
    L = algebra("Dx", "Dy", "Dz")
    proj = L.project(["x", "y"])
    assert proj.image.dim == 2 and proj.kernel_dim == 1


def test_project_kernel_is_abelian_ideal():
    for texts in (EX_SPLIT_FAIL, EX_EXP, TWO_CHAIN):
        L = algebra(*texts)
        kept = ["x", "y"] if texts is not TWO_CHAIN else ["z"]
        proj = L.project(kept)
        kernel = list(proj.kernel_coeffs)
        for s in range(len(kernel)):
            for t in range(len(kernel)):
                assert not any(L.bracket_coeffs(kernel[s], kernel[t]))
        span = [list(v) for v in kernel]
        for i in range(L.dim):
            unit = [Q(1) if t == i else Q(0) for t in range(L.dim)]
            for w in kernel:
                assert oracle_member(span, L.bracket_coeffs(unit, list(w)))


def test_project_hypothesis_violation():
    L = algebra("Dx", "z*Dx")  # x-component depends on dropped z
    with pytest.raises(ProjectionHypothesisViolated):
        L.project(["x", "y"])


def test_project_image_of_two_chain():
    L = algebra(*TWO_CHAIN)
    proj = L.project(["z"])
    assert proj.image.dim == 1 and proj.kernel_dim == 4


def test_projection_matches_closing_the_restricted_images():
    # oracle: close() on the nonzero restricted images, and the null space
    # of the basis with its dropped components zeroed in the full context
    sources = [build(random_spec(recipe, seed, 3)).generators
               for recipe in RECIPES for seed in range(3)]
    sources += [[F(t) for t in texts] for texts in (EX_SPLIT_FAIL, EX_EXP, HEISENBERG, TWO_CHAIN)]
    checked = 0
    for gens in sources:
        L = close(gens)
        for size in (1, 2):
            for kept in combinations(range(3), size):
                try:
                    proj = L.project(kept)
                except ProjectionHypothesisViolated:
                    continue
                sub = VariableContext(tuple(ctx.names[i] for i in kept))
                images = [VectorField(sub, tuple(b.comps[i].restrict(kept) for i in kept))
                          for b in L.basis]
                nonzero = [f for f in images if not f.is_zero]
                if nonzero:
                    old = close(nonzero)
                    assert proj.image.basis == old.basis, kept
                    assert proj.image.structure == old.structure, kept
                else:
                    assert proj.image.dim == 0 and not proj.image.structure
                zero = ctx.zero_poly()
                padded = [coordinatize(ctx.field([c if i in kept else zero
                                                  for i, c in enumerate(b.comps)]))
                          for b in L.basis]
                assert proj.kernel_coeffs == tuple(tuple(to_dense(v, L.dim)) for v in null_space(padded))
                checked += 1
    assert checked > len(sources)


def test_projection_parts_are_computed_once_per_kept_set(monkeypatch):
    L = algebra(*EX_EXP)
    first = L.project(["x", "y"])
    real_init = LieAlgebra.__init__
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(LieAlgebra, "__init__", counting_init)
    for kept in (["x", "y"], ["y", "x"], [1, 0], (0, 1), ["y", 0]):
        again = L.project(kept)
        assert again is not first and again.source is L and again.kept == (0, 1)
        assert again.kernel_coeffs == first.kernel_coeffs
        assert again.kernel_basis == first.kernel_basis
        assert again.image.basis == first.image.basis
    assert built == []
    # each kept set has its own parts
    T = algebra("Dx", "Dy", "Dz")
    built.clear()
    assert T.project(["x", "y"]).kernel_dim == 1 and T.project(["z"]).kernel_dim == 2
    assert T.project([1, 0]).image.dim == 2 and len(built) == 2
    broken = algebra("Dx", "z*Dx")
    for _ in range(2):
        with pytest.raises(ProjectionHypothesisViolated):
            broken.project(["x", "y"])


def test_an_analysed_algebra_is_freed_by_reference_counting():
    # every cache holds data without a reference back to the algebra, so
    # the last reference going frees it with the cyclic collector off
    L = algebra(*EX_SPLIT_FAIL)
    ref = weakref.ref(L)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        closed = algebra(*EX_EXP)  # the integer tensor only
        closed_ref = weakref.ref(closed)
        del closed
        assert closed_ref() is None
        assert L.structure and L._int_ad
        center = L.center()
        kernel = list(L.project(["x", "y"]).kernel_coeffs)
        report = classify(L)
        chains = jordan_chains(L, L.basis[0], kernel)
        verdict = split_check(L, kernel)
        assert center and report.case and chains.chains and verdict.split is not None
        del L
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_projection_with_an_empty_image():
    proj = algebra("Dz").project(["x", "y"])
    assert proj.image.dim == 0 and proj.kernel_dim == 1


def column_echelon(fields) -> EchelonBasis:
    """The fields' vectors, inserted in order, over a new column table."""
    columns = Columns(3)
    echelon = EchelonBasis(columns)
    for f in fields:
        echelon.insert(columns.vector(comp.term_map() for comp in f.comps))
    return echelon


def test_algebra_over_a_span_that_is_not_closed_is_refused():
    # [Dx, x*Dy] = Dy leaves the span
    with pytest.raises(InternalInvariantViolation):
        LieAlgebra(ctx, column_echelon([F("Dx"), F("x*Dy")]))


def test_an_echelon_without_a_column_table_is_refused():
    # LieAlgebra takes only an echelon over a column table; one keyed by
    # coordinatize's (component, monomial) pairs, or by integers, is a
    # TypeError, and the basis put in over a table gives close()'s algebra
    draws = [build(random_spec(recipe, 0, 3)).generators for recipe in RECIPES]
    draws.append(build(random_spec("center-rank1", 7, 6)).generators)
    for gens in draws:
        L = close(gens, cap_dim=200)
        for echelon in (echelon_of(map(coordinatize, L.basis)), echelon_of([{0: Q(1)}])):
            with pytest.raises(TypeError, match="column table"):
                LieAlgebra(L.ctx, echelon)
        M = LieAlgebra(L.ctx, column_echelon(L.basis))
        assert [str(b) for b in M.basis] == [str(b) for b in L.basis]
        assert M.structure == L.structure and list(M.structure) == list(L.structure)
        # the basis went in in pivot order, so it is the order read back
        assert M._order == list(range(L.dim))
        # put in in L's insertion order, the basis gives L's order
        by_insertion = sorted(range(L.dim), key=L._order.__getitem__)
        N = LieAlgebra(L.ctx, column_echelon([L.basis[k] for k in by_insertion]))
        assert N._order == L._order and N.structure == L.structure


def test_a_monomial_without_a_column_is_outside_the_span():
    L = algebra(*HEISENBERG)
    for M in (L, LieAlgebra(ctx, column_echelon(L.basis))):
        keys = M._echelon.columns.keys
        size = len(keys)
        for f in (F("x^5*Dy"), M.basis[0] + F("exp(z)*Dx")):
            assert not M.contains(f)
            with pytest.raises(NotInSpan):
                M.express(f)
        # a query makes no column; a field in the span still expresses
        assert len(keys) == size
        assert M.contains(M.basis[1] * 3)
        assert M.express(M.basis[1] * 3) == [Q(3) if k == 1 else Q(0) for k in range(M.dim)]


# -- adjoint -------------------------------------------------------------------------


def test_adjoint_of_central_element_is_zero():
    L = algebra(*HEISENBERG)
    mat = adjoint_matrix(L, F("Dz"))
    assert all(not any(row) for row in mat)


def test_adjoint_action_example():
    L = algebra("Dx", "Dy", "z*Dx", "Dz")
    mat = adjoint_matrix(L, F("Dz"))
    i_zdx = [str(b) for b in L.basis].index("z*Dx")
    i_dx = [str(b) for b in L.basis].index("Dx")
    assert mat[i_dx][i_zdx] == 1
    total = sum(1 for row in mat for v in row if v)
    assert total == 1


def test_adjoint_nilpotent_for_nilpotent_algebra():
    for texts in (EX_SPLIT_FAIL, EX_EXP, HEISENBERG, TWO_CHAIN):
        L = algebra(*texts)
        for i in range(L.dim):
            unit = [Q(1) if t == i else Q(0) for t in range(L.dim)]
            mat = adjoint_matrix(L, unit)
            power = mat
            for _ in range(L.dim):
                power = [
                    [
                        sum(power[r][k] * mat[k][c] for k in range(L.dim))
                        for c in range(L.dim)
                    ]
                    for r in range(L.dim)
                ]
            assert all(not any(row) for row in power)


# -- quotients -----------------------------------------------------------------------


def test_quotient_by_whole_algebra():
    L = algebra(*HEISENBERG)
    q = L.quotient_structure(list(range(L.dim)))
    assert q.dim == 0


def test_heisenberg_mod_center_is_abelian():
    L = algebra(*HEISENBERG)
    q = L.quotient_structure(L.center())
    assert q.dim == 2 and not q.structure


def test_polynomial_example_quotient_pattern():
    # modding out the projection kernel leaves [e1, e2] = -e0
    L = algebra(*EX_SPLIT_FAIL)
    proj = L.project(["x", "y"])
    q = L.quotient_structure(list(proj.kernel_coeffs))
    assert q.dim == 3
    assert q.structure == {(1, 2): {0: Q(-1)}}


def test_quotient_by_central_line_off_the_basis():
    # Dy + Dz is central, so its line is an ideal; modulo it [Dx, x*Dy] = Dy
    # is -Dz, which only reducing by the ideal's row reveals
    L = algebra("Dx", "x*Dy", "Dz")
    assert [str(b) for b in L.basis] == ["Dx", "Dy", "x*Dy", "Dz"]
    q = L.quotient_structure([F("Dy + Dz")])
    assert q.rep_indices == (0, 2, 3)
    assert q.structure == {(0, 1): {2: Q(-1)}}
    ideal = [L.express(F("Dy + Dz"))]
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        unit = lambda r: [Q(int(t == q.rep_indices[r])) for t in range(L.dim)]
        lifted = L.bracket_coeffs(unit(a), unit(b))
        for c, coeff in q.structure.get((a, b), {}).items():
            lifted[q.rep_indices[c]] -= coeff
        assert oracle_member(ideal, lifted)


def test_not_an_ideal_detected():
    L = algebra(*HEISENBERG)
    span_dx = [i for i, b in enumerate(L.basis) if str(b) == "Dx"]
    with pytest.raises(NotAnIdeal) as caught:
        L.quotient_structure(span_dx)
    assert str(caught.value) == "[y*Dx + x*Dz, ideal] is not contained in the ideal"


def test_quotients_match_the_all_pairs_oracle(oracle_corpus):
    # modulo the center and modulo every nonzero lower-central term
    for L in oracle_corpus:
        terms = oracle_series_terms(L, "lower-central")
        center = L.center_coeffs()
        for ideal in ([center] if center else []) + [t for t in terms if t]:
            q = L.quotient_structure(ideal)
            assert (q.rep_indices, q.structure) == oracle_quotient(L, ideal), L.dim


def test_report_schema():
    L = algebra(*HEISENBERG)
    report = L.report()
    assert list(report.keys()) == [
        "variables", "basis", "dim", "structure", "nilpotent",
        "solvable", "abelian", "center", "generic_rank", "center_rank",
    ]
    assert report["dim"] == 3 and report["nilpotent"] is True
    # the realization spans the x and z directions only
    assert report["generic_rank"] == 2 and report["center_rank"] == 1
    assert all(isinstance(entry[3], str) for entry in report["structure"])
