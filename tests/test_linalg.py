"""Echelon bases over sparse coordinates, dense helpers, generic rank."""

from __future__ import annotations

import pytest

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
    assert basis.reduce(combo)[0] == {} and basis.contains(combo)
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
FIELD_KEYS = (EchelonBasis, lambda k: (k[0], k[1].sort_key()))
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
    for fields in ([F("Dx"), zero], [zero, F("Dx")]):
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
    assert 0 < top_level <= 3 * L.dim
