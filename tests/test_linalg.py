"""Echelon bases over sparse coordinates, dense helpers, generic rank."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vflie import (
    ContextMismatch,
    CoordinateChange,
    DEFAULT_CONTEXT,
    EchelonBasis,
    NotInSpan,
    VariableContext,
    build,
    close,
    coordinatize,
    generic_rank,
    linalg,
    random_spec,
    uncoordinatize,
)
from vflie.fields import Columns
from vflie.linalg import null_space_dense, rref_dense, solve_dense, to_sparse
from vflie.parser import parse_expression, parse_field

from conftest import (
    Q,
    naive_field_coords,
    oracle_generic_rank,
    oracle_member,
    oracle_rank,
    rand_field,
    rand_poly,
    rng,
)

ctx = DEFAULT_CONTEXT


def F(text: str):
    return parse_field(text, ctx)


# -- coordinatization -----------------------------------------------------------


def test_coordinatize_unit_field():
    cv = coordinatize(F("Dx"))
    assert len(cv) == 1
    ((comp, mono), coeff), = cv.items()
    assert comp == 0 and mono.is_constant and coeff == 1


def test_coordinatize_zero_field():
    assert coordinatize(F("0")) == {}


def test_coordinatize_two_terms_and_linearity():
    cv = coordinatize(F("y*Dx + x^2*exp(y)*Dz"))
    assert len(cv) == 2 and all(c == 1 for c in cv.values())
    r = rng(20240530)
    for _ in range(20):
        v = rand_field(r, ctx, allow_exp=True)
        w = rand_field(r, ctx, allow_exp=True)
        combo = coordinatize(v * 2 + w * Q(-3, 2))
        expect = dict()
        for key, c in coordinatize(v).items():
            expect[key] = expect.get(key, Q(0)) + 2 * c
        for key, c in coordinatize(w).items():
            expect[key] = expect.get(key, Q(0)) + Q(-3, 2) * c
        assert combo == {k: c for k, c in expect.items() if c}


def test_uncoordinatize_round_trip():
    r = rng(20240531)
    for _ in range(20):
        v = rand_field(r, ctx, allow_exp=True)
        assert uncoordinatize(coordinatize(v), ctx) == v


# -- echelon insert/express -------------------------------------------------------


def test_insert_empty_then_dependent():
    basis = EchelonBasis()
    assert basis.insert(coordinatize(F("Dx"))).independent
    assert not basis.insert(coordinatize(F("3*Dx"))).independent


def test_insert_dependent_combination():
    basis = EchelonBasis()
    basis.insert(coordinatize(F("Dx")))
    basis.insert(coordinatize(F("y*Dx")))
    combo = coordinatize(F("2*Dx + 5*y*Dx"))
    assert basis.contains(combo) and basis.express(combo) == [Q(2), Q(5)]
    assert not basis.insert(combo).independent and len(basis) == 2


def test_express_examples():
    basis = EchelonBasis()
    basis.insert(coordinatize(F("Dx")))
    basis.insert(coordinatize(F("Dz")))
    assert basis.express(coordinatize(F("Dz"))) == [Q(0), Q(1)]
    with pytest.raises(NotInSpan):
        basis.express(coordinatize(F("Dy")))


def test_explicit_zero_coefficients_are_ignored():
    basis = EchelonBasis()
    basis.insert({0: Q(1)})
    assert basis.contains({1: Q(0)})
    assert basis.express({1: Q(0)}) == [Q(0)]
    assert not basis.insert({2: Q(0)}).independent
    assert basis.express({0: Q(3), 2: Q(0)}) == [Q(3)] and len(basis) == 1


def test_int_inputs_give_fraction_coordinates():
    basis = EchelonBasis()
    basis.insert({0: 2, 1: 1})
    basis.insert({2: 4})
    coords = basis.express({0: 6, 1: 3, 2: 1})
    assert coords == [Q(6), Q(1)]
    for c in coords:
        assert type(c) is Q
    # the residual and row coefficients stay int inside the kernel
    values: dict = {}
    assert basis._residual({0: 2, 3: 5}, values) == ({1: -1, 3: 5}, 1)
    assert values == {0: 2}


def test_a_float_coefficient_is_a_type_error_naming_its_key():
    basis = EchelonBasis()
    basis.insert({0: Q(1)})
    for call in (basis.insert, basis.contains, basis.express):
        with pytest.raises(TypeError, match="key 7 is not rational: 0.5"):
            call({0: Q(1), 7: 0.5})


def test_to_sparse_takes_ints_and_fractions_only():
    assert to_sparse([0, 2, Q(1, 3), Q(0)]) == {1: Q(2), 2: Q(1, 3)}
    assert all(type(c) is Q for c in to_sparse([3, Q(1, 2), True]).values())
    # a caller's Fraction is kept as it is, not copied
    third = Q(1, 3)
    assert to_sparse([0, third])[1] is third
    for bad in (0.5, 0.0, "1/2"):
        with pytest.raises(TypeError, match="is not an int or Fraction"):
            to_sparse([Q(1), bad])


def test_express_unique_by_echelon():
    basis = EchelonBasis()
    basis.insert(coordinatize(F("Dx")))
    basis.insert(coordinatize(F("y*Dx")))
    assert basis.express(coordinatize(F("2*Dx + 5*y*Dx"))) == [Q(2), Q(5)]


def test_membership_agrees_with_dense_oracle():
    r = rng(20240532)
    for trial in range(15):
        fields = [rand_field(r, ctx, max_terms=2) for _ in range(4)]
        probe = rand_field(r, ctx, max_terms=2)
        basis = EchelonBasis()
        for f in fields:
            basis.insert(coordinatize(f))
        dense = naive_field_coords(fields + [probe])
        assert basis.contains(coordinatize(probe)) == oracle_member(
            dense[:-1], dense[-1]
        )


def field_vectors(r, count):
    return [coordinatize(rand_field(r, ctx, max_terms=2)) for _ in range(count)]


def int_vectors(r, count):
    return [to_sparse([Q(r.randint(-2, 2)) for _ in range(6)]) for _ in range(count)]


# (basis factory, pivot order) for field keys and for integer basis coordinates
# the documented term order, from the public fields: component, then rates and
# powers from the last variable to the first
FIELD_KEYS = (EchelonBasis, lambda k: (k[0], k[1].rates[::-1], k[1].powers[::-1]))
INT_KEYS = (EchelonBasis, lambda k: k)


def test_span_invariant_under_insertion_order():
    r = rng(20240533)
    for make, (new_basis, _) in ((field_vectors, FIELD_KEYS), (int_vectors, INT_KEYS)):
        for _ in range(5):
            vectors = make(r, 5)
            forward, backward = new_basis(), new_basis()
            for v in vectors:
                forward.insert(v)
            for v in reversed(vectors):
                backward.insert(v)
            assert forward.rows_sorted() == backward.rows_sorted()


def test_echelon_invariants():
    field_rows = [coordinatize(F(t)) for t in ("Dx + y*Dz", "y*Dx + Dz", "Dz + x*Dz", "y*Dx")]
    int_rows = [to_sparse(v) for v in ([0, 2, 1, 0], [3, 0, 1, 5], [0, 0, 2, 4], [3, 2, 2, 5])]
    for vectors, (new_basis, sort_key) in ((field_rows, FIELD_KEYS), (int_rows, INT_KEYS)):
        basis = new_basis()
        for v in vectors:
            basis.insert(v)
        rows = basis.rows_sorted()
        pivots = [min(r, key=sort_key) for r in rows]
        assert pivots == sorted(pivots, key=sort_key)
        for i, row in enumerate(rows):
            assert row[pivots[i]] == 1
            for j, other in enumerate(rows):
                if i != j:
                    assert pivots[i] not in other


# entries with denominators, so pivot coefficients other than 1 and
# primitive rows with content to divide out, over few keys, so later vectors
# often depend on earlier ones
ENTRIES = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))
LAYERS = st.lists(
    st.lists(st.dictionaries(st.integers(0, 5), ENTRIES, max_size=4), max_size=6),
    max_size=5,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(LAYERS)
def test_settled_layers_match_one_by_one_inserts(layers):
    # the same vectors as layers (_extend, then _settle) and one at a time
    # (insert) give the same pivots, the same primitive rows in the same
    # order after every layer, and the same independence flags; the settled
    # rows are fully reduced and span every vector put in
    layered, single = EchelonBasis(), EchelonBasis()
    seen = []
    for layer in layers:
        flags = [layered._extend(v) for v in layer]
        layered._settle()
        assert flags == [single.insert(v).independent for v in layer]
        assert layered.pivots == single.pivots
        rows = [layered.primitive_row(i) for i in range(len(layered))]
        assert rows == [single.primitive_row(i) for i in range(len(single))]
        for row, pivot in zip(rows, layered.pivots):
            assert row[pivot] > 0 and pivot == min(row)
            assert all(p not in row for p in layered.pivots if p != pivot)
        seen += layer
        assert all(layered.contains(v) for v in seen)


@st.composite
def vectors_with_duplicates(draw):
    """Sparse int and Fraction vectors with explicit zero entries, where some
    vectors repeat an earlier one, or a multiple of it, exactly."""
    vecs = draw(st.lists(st.dictionaries(st.integers(0, 5), ENTRIES, max_size=4), max_size=12))
    for _ in range(draw(st.integers(0, 3)) if vecs else 0):
        vec = draw(st.sampled_from(vecs))
        scale = draw(st.sampled_from([1, -2, Q(1, 3)]))
        vecs.insert(draw(st.integers(0, len(vecs))), {k: scale * c for k, c in vec.items()})
    return vecs


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(vectors_with_duplicates())
def test_one_open_layer_matches_echelon_of(vecs):
    # all the vectors put into one open layer (_extend) and settled once, as
    # close() does, leave the pivots, every primitive row and the pivot
    # order that echelon_of, one insert at a time, leaves
    layered, sequential = EchelonBasis(), linalg.echelon_of(vecs)
    flags = [layered._extend(v) for v in vecs]
    layered._settle()
    assert sum(flags) == len(sequential)
    assert layered.pivots == sequential.pivots
    assert [layered.primitive_row(i) for i in range(len(layered))] == [
        sequential.primitive_row(i) for i in range(len(sequential))
    ]
    assert layered.order() == sequential.order()
    # a float still names its key, whether or not the key is a pivot
    for key in (0, 9, *sequential.pivots[:1]):
        bad = {1: Q(1, 2), key: 0.5}
        for call in (sequential.express, sequential.contains, sequential.insert, layered._extend):
            with pytest.raises(TypeError, match=f"key {key} is not rational: 0.5"):
                call(bad)


# six (component, monomial) keys in key order
MONOMIAL_KEYS = sorted(coordinatize(F("Dx + y*Dx + x*Dy + x^2*Dy + exp(y)*Dz + z*Dz")))


def columns_seen_in(order):
    """A column table whose ids follow `order`, a permutation of the indices
    of MONOMIAL_KEYS: the keys are first seen in that order, not in key order."""
    columns = Columns(3)
    for k in order:
        i, mono = MONOMIAL_KEYS[k]
        terms = [{}, {}, {}]
        terms[i][mono] = 1
        columns.vector(terms)
    return columns


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.permutations(range(len(MONOMIAL_KEYS))), LAYERS)
# ids reverse the key order: one layer whose first row holds the second's
# pivot needs the least key at _extend, the descending key sort at _settle
# and the key order at order()
@example([5, 4, 3, 2, 1, 0], [[{0: 1, 1: 1}, {1: 1, 2: 1}]])
def test_column_ids_keep_the_key_order(order, layers):
    # the same vectors, keyed by (component, monomial) and by column ids
    # first seen in another order, give the same pivots, order() and
    # primitive rows once translated back, by insert and by layers
    columns = columns_seen_in(order)
    ids = [columns.ids[i][mono] for i, mono in MONOMIAL_KEYS]
    assert sorted(ids, key=columns.keys.__getitem__) == ids

    def keyed(row):
        return {columns.keys[k]: c for k, c in row.items()}

    inserted = (EchelonBasis(), EchelonBasis(columns))
    layered = (EchelonBasis(), EchelonBasis(columns))
    for layer in layers:
        by_key = [{MONOMIAL_KEYS[k]: c for k, c in v.items()} for v in layer]
        by_id = [{ids[k]: c for k, c in v.items()} for v in layer]
        assert [inserted[0].insert(v).independent for v in by_key] == [
            inserted[1].insert(v).independent for v in by_id
        ]
        assert [layered[0]._extend(v) for v in by_key] == [layered[1]._extend(v) for v in by_id]
        layered[0]._settle()
        layered[1]._settle()
        for tuples, numbered in (inserted, layered):
            assert numbered.columns is columns and tuples.columns is None
            assert tuples.pivots == [columns.keys[p] for p in numbered.pivots]
            assert tuples.order() == numbered.order()
            assert [tuples.primitive_row(i) for i in range(len(tuples))] == [
                keyed(numbered.primitive_row(i)) for i in range(len(numbered))
            ]


def test_settle_rewrites_only_the_rows_the_layer_hits():
    basis = EchelonBasis()
    basis.insert({0: 1, 2: 3})
    basis.insert({1: 2, 3: 1})
    kept = basis.primitive_row(1)
    # 4*e2 + 2*e4 has pivot 2, which row 0 holds: that row alone changes
    assert basis._extend({2: 4, 4: 2}) and not basis._extend({2: 2, 4: 1})
    assert basis._settle() == (0,)
    assert basis.primitive_row(0) == {0: 2, 4: -3} and basis.primitive_row(2) == {2: 2, 4: 1}
    assert basis.primitive_row(1) is kept
    assert basis._settle() == ()
    # insert is a settled layer of one: it reports the rows it reduced
    assert basis.insert({4: 1, 5: 1}).dirtied == (0, 2)


def test_an_echelon_keeps_only_its_integer_rows_and_pivots():
    # the unit rows are built on each read, so nothing beside the rows and
    # their pivots has to follow a settle
    basis = EchelonBasis()
    basis.insert({0: 1, 2: Q(3, 2)})
    assert basis._extend({1: 2, 2: 1}) and basis._extend({2: 4, 3: 1})
    basis._settle()
    assert basis.row(0) == {0: 1, 3: Q(-3, 8)} and basis.rows[2] == {2: 1, 3: Q(1, 4)}
    assert basis.row(0) is not basis.row(0)
    assert set(vars(basis)) == {"columns", "pivots", "_pivot_row", "_ints"}


# -- integer row helpers -------------------------------------------------------------

BIG = 2**64
# nonzero entries, small and above 2**64, of either sign
ENTRIES = st.one_of(st.integers(-30, 30), st.integers(-4 * BIG, 4 * BIG)).filter(bool)
KEYS = st.integers(0, 7)


def least_scale(values) -> int:
    """The least s > 0 with s * v an integer for every rational v, by
    Fraction arithmetic alone: the lcm of s and d is s times the
    denominator of s / d."""
    s = 1
    for v in values:
        s *= Fraction(s, Fraction(v).denominator).denominator
    return s


@st.composite
def vectors_with_lead(draw) -> tuple[dict[int, int], int]:
    """(vec, lead): a nonzero integer vector, often with a shared factor,
    and one of its keys, whose entry is sometimes +-1."""
    factor = draw(st.sampled_from([1, 2, -6, 35, BIG + 3, -3 * BIG]))
    vec = {k: factor * c for k, c in draw(st.dictionaries(KEYS, ENTRIES, min_size=1, max_size=8)).items()}
    lead = draw(st.sampled_from(sorted(vec)))
    if draw(st.booleans()):
        vec[lead] = draw(st.sampled_from([1, -1]))
    return vec, lead


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(vectors_with_lead())
def test_primitive_is_the_least_positive_lead_integer_multiple(drawn):
    # vec over the gcd of its entries, signed so that vec[lead] > 0, is the
    # least multiple of vec / vec[lead] with integer entries
    vec, lead = drawn
    unit = {k: Fraction(c, vec[lead]) for k, c in vec.items()}
    s = least_scale(unit.values())
    got = linalg._primitive(dict(vec), lead)
    assert got == {k: s * q for k, q in unit.items()}
    assert got[lead] > 0 and all(type(c) is int for c in got.values())


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.data())
def test_eliminate_is_a_positive_multiple_of_the_fraction_difference(data):
    dst, key = data.draw(vectors_with_lead())
    if data.draw(st.booleans()):  # a multiple of dst, so the difference is zero
        m = data.draw(st.sampled_from([1, 3, BIG]))
        row = {k: m * c if dst[key] > 0 else -m * c for k, c in dst.items()}
    else:
        row = data.draw(st.dictionaries(KEYS, ENTRIES, max_size=8))
        row[key] = data.draw(st.one_of(st.just(1), st.integers(1, 4 * BIG)))
    before = dict(dst), dict(row)
    got = linalg._eliminate(dst, row, key)
    assert (dst, row) == before
    ratio = Fraction(dst[key], row[key])
    diff = {k: v for k in dst.keys() | row.keys() if (v := dst.get(k, 0) - ratio * row.get(k, 0))}
    assert key not in got and got.keys() == diff.keys()
    assert all(type(c) is int for c in got.values())
    if diff:
        first = min(diff)
        scale = got[first] / diff[first]
        assert scale > 0 and all(got[k] == scale * v for k, v in diff.items())


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.dictionaries(KEYS, st.builds(
    Fraction, ENTRIES, st.one_of(st.integers(1, 12), st.integers(1, 4 * BIG), st.just(BIG)))))
def test_integral_takes_the_least_positive_scale(vec):
    s = least_scale(vec.values())
    ints, scale = linalg._integral(vec)
    assert scale == s and ints == {k: s * c for k, c in vec.items()}
    assert all(type(c) is int for c in (scale, *ints.values()))


# -- dense helpers ------------------------------------------------------------------


def test_rref_and_rank_against_oracle():
    r = rng(20240534)
    for _ in range(30):
        matrix = [
            [Q(r.randint(-3, 3)) for _ in range(r.randint(1, 5))] for _ in range(4)
        ]
        width = len(matrix[0])
        matrix = [row[:width] + [Q(0)] * (width - len(row)) for row in matrix]
        assert len(rref_dense(matrix)[0]) == oracle_rank(matrix)


def test_null_space_vectors_annihilate():
    r = rng(20240535)
    for _ in range(20):
        matrix = [[Q(r.randint(-2, 2)) for _ in range(5)] for _ in range(3)]
        for vec in null_space_dense(matrix, 5):
            for row in matrix:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        assert len(null_space_dense(matrix, 5)) == 5 - oracle_rank(matrix)


def test_solve_dense_finds_solutions_and_detects_inconsistency():
    A = [[Q(1), Q(2)], [Q(2), Q(4)]]
    assert solve_dense(A, [Q(3), Q(6)]) == [Q(3), Q(0)]
    assert solve_dense(A, [Q(3), Q(7)]) is None


def test_solve_dense_against_oracle():
    r = rng(20240539)
    for trial in range(40):
        rows, cols = r.randint(1, 5), r.randint(1, 5)
        # low rank, so random right-hand sides are often inconsistent
        basis = [[Q(r.randint(-2, 2)) for _ in range(cols)] for _ in range(r.randint(1, 3))]
        A = [
            [sum(r.randint(-1, 1) * b[c] for b in basis) for c in range(cols)]
            for _ in range(rows)
        ]
        if trial % 2:
            x = [Q(r.randint(-3, 3), r.choice((1, 2))) for _ in range(cols)]
            b = [sum(a * v for a, v in zip(row, x)) for row in A]
        else:
            b = [Q(r.randint(-3, 3)) for _ in range(rows)]
        consistent = oracle_rank(A) == oracle_rank([row + [v] for row, v in zip(A, b)])
        solution = solve_dense(A, b)
        assert (solution is not None) == consistent
        if solution is not None:
            assert [sum(a * v for a, v in zip(row, solution)) for row in A] == b
            # free unknowns are 0: column c is free when it adds no rank
            for c in range(cols):
                if oracle_rank([row[: c + 1] for row in A]) == oracle_rank([row[:c] for row in A]):
                    assert solution[c] == 0
    for A, b in (([[Q(1), 2.0]], [Q(1)]), ([[Q(1), 0.0]], [Q(1)]), ([[Q(1)]], [1.0]), ([[Q(1)]], [0.0])):
        with pytest.raises(TypeError, match="is not an int or Fraction"):
            solve_dense(A, b)
    # solve_dense reads null_space_dense, which checks a zero entry too
    with pytest.raises(TypeError, match="coefficient 0.0 is not an int or Fraction"):
        null_space_dense([[Q(1), 0.0]], 2)


# -- generic rank ----------------------------------------------------------------------


def test_rank_one_family():
    assert generic_rank([F("Dx"), F("y*Dx"), F("y^2*Dx")]) == 1


def test_rank_identity():
    assert generic_rank([F("Dx"), F("Dy"), F("Dz")]) == 3


def test_rank_planar_family():
    fields = [F("Dx"), F("y*Dx + x^2*exp(y)*Dz"), F("x*Dz")]
    assert generic_rank(fields) == 2


def test_rank_bounded_by_counts():
    r = rng(20240536)
    for _ in range(20):
        fields = [rand_field(r, ctx, max_terms=2) for _ in range(r.randint(1, 4))]
        k = generic_rank(fields)
        assert k <= min(len(fields), 3)


def test_rank_invariant_under_linear_recombination():
    r = rng(20240537)
    fields = [F("Dx"), F("y*Dx + x^2*exp(y)*Dz"), F("x*Dz")]
    for _ in range(10):
        # random unimodular integer recombinations preserve the span
        a, b, c = fields
        m = r.choice([1, -1, 2])
        recombined = [a + b * m, b, c + a * r.randint(-2, 2)]
        assert generic_rank(recombined) == generic_rank(fields)


def test_rank_invariant_under_pushforward():
    r = rng(20240538)
    E = lambda t: parse_expression(t, ctx)
    changes = [
        CoordinateChange(ctx, (E("x + y"), E("y"), E("z")), (E("x - y"), E("y"), E("z"))),
        CoordinateChange(
            ctx, (E("x"), E("y"), E("z + x^2*y")), (E("x"), E("y"), E("z - x^2*y"))
        ),
    ]
    for change in changes:
        for _ in range(10):
            fields = [rand_field(r, ctx, max_terms=2) for _ in range(3)]
            pushed = [f.pushforward(change) for f in fields]
            assert generic_rank(pushed) == generic_rank(fields)


def test_rank_checks_every_context_before_dropping_zero_fields():
    plane = VariableContext(("x", "y"))
    zero = plane.field([plane.zero_poly()] * 2)
    for fields in ([F("Dx"), zero], [zero, F("Dx")], [F("0*Dx"), zero]):
        with pytest.raises(ContextMismatch):
            generic_rank(fields)


def rank_family(r, context: VariableContext) -> list:
    """Ring combinations of a few random fields placed first, then the fields
    themselves, a zero field and duplicates; exp terms in about half."""
    n = context.nvars
    zero = context.field([context.zero_poly()] * n)
    base = [
        rand_field(r, context, max_terms=2, allow_exp=r.random() < 0.5)
        for _ in range(r.randint(0, n))
    ]
    dependent = []
    for _ in range(r.randint(1, 2)):
        acc = zero
        for b in base:
            acc = acc + b * rand_poly(r, n, max_terms=1, allow_exp=True)
        dependent.append(acc)
    return dependent + base + [zero] + base[: r.randint(0, len(base))]


def test_rank_matches_all_minors_oracle_in_any_order():
    r = rng(20240539)
    for names in (("x",), ("x", "y"), ("x", "y", "z")):
        context = VariableContext(names)
        ranks = set()
        for _ in range(40):
            family = rank_family(r, context)
            k = oracle_generic_rank(family)
            ranks.add(k)
            assert generic_rank(family) == k
            assert generic_rank(family[::-1]) == k
            for _ in range(2):
                shuffled = list(family)
                r.shuffle(shuffled)
                assert generic_rank(shuffled) == k
        assert ranks == set(range(len(names) + 1))  # every rank is exercised


def test_rank_skips_identically_zero_columns():
    # minors range over the moved columns only; the oracle tries them all
    r = rng(20240540)
    for names in (("x", "y"), ("x", "y", "z")):
        context = VariableContext(names)
        zero_poly = context.zero_poly()
        for _ in range(30):
            dropped = r.sample(range(len(names)), r.randint(1, len(names) - 1))
            family = [
                context.field([zero_poly if c in dropped else p for c, p in enumerate(f.comps)])
                for f in rank_family(r, context)
            ]
            assert generic_rank(family) == oracle_generic_rank(family)
            assert generic_rank(family) <= len(names) - len(dropped)


def test_rank_makes_at_most_three_minors_per_field(monkeypatch):
    # dim-88 rank-2 basis: every 3 x 3 minor is zero, so trying all minors
    # takes C(88, 3) determinants before any 2 x 2 one
    L = close(build(random_spec("center-rank1", 7, 6)).generators, cap_dim=200)
    real_det = linalg._det
    depth = top_level = 0

    def counting_det(entries):
        nonlocal depth, top_level
        top_level += depth == 0
        depth += 1
        try:
            return real_det(entries)
        finally:
            depth -= 1

    monkeypatch.setattr(linalg, "_det", counting_det)
    assert L.dim == 88
    assert generic_rank(L.basis) == 2
    # the basis moves x and z only, so the walk stops at its second kept field
    assert top_level == 2
