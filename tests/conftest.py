"""Shared helpers: seeded random generators and independent oracles.

The oracles here deliberately avoid the engine's own code paths: the naive
polynomial oracle works on raw term lists, the dense rank oracle is a
fresh Gaussian elimination, and the generic-rank oracle tries every minor
through its own Leibniz determinant, so cross-checks stay two-route.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from vflie import DEFAULT_CONTEXT, CoordinateChange, ExpPoly, LieAlgebra, VariableContext, VectorField
from vflie.ring import ExpMonomial

Q = Fraction

# `python -m vflie` subprocesses import the same source tree as the tests
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def ctx() -> VariableContext:
    return DEFAULT_CONTEXT


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_poly(
    r: random.Random,
    nvars: int = 3,
    *,
    max_terms: int = 3,
    max_deg: int = 2,
    allow_exp: bool = False,
) -> ExpPoly:
    out = ExpPoly.zero(nvars)
    for _ in range(r.randint(0, max_terms)):
        powers = tuple(r.randint(0, max_deg) for _ in range(nvars))
        if allow_exp:
            rates = tuple(Q(r.randint(-1, 1)) for _ in range(nvars))
        else:
            rates = (Q(0),) * nvars
        coeff = Q(r.randint(-3, 3), r.choice((1, 2)))
        out = out + ExpPoly.monomial(powers, rates, coeff)
    return out


def rand_field(r: random.Random, context: VariableContext, **kw) -> VectorField:
    return context.field([rand_poly(r, context.nvars, **kw) for _ in range(context.nvars)])


# -- helpers the engine does not need ------------------------------------------


def evaluate(p: ExpPoly, point) -> float:
    """Floating-point value at a point, for finite-difference sanity checks."""
    total = 0.0
    for m, c in p.term_map().items():
        value = float(c) * math.exp(sum(float(r) * float(v) for r, v in zip(m.rates, point)))
        for v, a in zip(point, m.powers):
            value *= float(v) ** a
        total += value
    return total


def inverted(change: CoordinateChange) -> CoordinateChange:
    return CoordinateChange(change.ctx, change.inverse, change.forward)


def provably_commute(u: VectorField, v: VectorField) -> bool:
    """The support test of close() and the tensor, pair by pair, on the
    masks of oracle_support: neither field moves a variable that the
    other's coefficients read."""
    (moves_u, reads_u), (moves_v, reads_v) = oracle_support(u), oracle_support(v)
    return not (moves_u & reads_v or moves_v & reads_u)


def adjoint_matrix(L: LieAlgebra, v) -> list[list[Fraction]]:
    """Matrix of ad(v) on the basis from the structure constants alone:
    entry [k][j] is the e_k-coefficient of [v, e_j]."""
    x = L.express(v) if isinstance(v, VectorField) else v
    n = L.dim
    return [
        [sum((a * L.c(i, j, k) for i, a in enumerate(x)), Q(0)) for j in range(n)]
        for k in range(n)
    ]


# -- naive term-list oracle for ring arithmetic --------------------------------

NaiveTerm = tuple[tuple[int, ...], tuple[Fraction, ...], Fraction]


def naive_of(p: ExpPoly) -> list[NaiveTerm]:
    return [(m.powers, m.rates, c) for m, c in p.term_map().items()]


def naive_canon(terms: list[NaiveTerm]) -> dict:
    acc: dict = {}
    for powers, rates, coeff in terms:
        key = (powers, rates)
        acc[key] = acc.get(key, Q(0)) + coeff
    return {k: v for k, v in acc.items() if v}


def naive_add(a: list[NaiveTerm], b: list[NaiveTerm]) -> dict:
    return naive_canon(list(a) + list(b))


def naive_mul(a: list[NaiveTerm], b: list[NaiveTerm]) -> dict:
    out: list[NaiveTerm] = []
    for pa, ra, ca in a:
        for pb, rb, cb in b:
            out.append(
                (
                    tuple(x + y for x, y in zip(pa, pb)),
                    tuple(x + y for x, y in zip(ra, rb)),
                    ca * cb,
                )
            )
    return naive_canon(out)


def naive_diff(a: list[NaiveTerm], i: int) -> dict:
    out: list[NaiveTerm] = []
    for powers, rates, coeff in a:
        if powers[i]:
            lowered = list(powers)
            lowered[i] -= 1
            out.append((tuple(lowered), rates, coeff * powers[i]))
        if rates[i]:
            out.append((powers, rates, coeff * rates[i]))
    return naive_canon(out)


def as_terms(naive: dict) -> list[NaiveTerm]:
    return [(powers, rates, coeff) for (powers, rates), coeff in naive.items()]


def naive_bracket(u: VectorField, w: VectorField) -> list[dict]:
    """[u, w] per component as naive term dicts, on raw term lists:
    component k is sum_i u_i d_i w_k - w_i d_i u_k."""
    n = len(u.comps)
    out = []
    for k in range(n):
        acc: dict = {}
        for i in range(n):
            plus = naive_mul(naive_of(u.comps[i]), as_terms(naive_diff(naive_of(w.comps[k]), i)))
            minus = naive_mul(naive_of(w.comps[i]), as_terms(naive_diff(naive_of(u.comps[k]), i)))
            acc = naive_add(as_terms(acc), as_terms(plus) + [(p, r, -c) for p, r, c in as_terms(minus)])
        out.append(acc)
    return out


def oracle_support(v: VectorField) -> tuple[int, int]:
    """(moves, reads) read off the naive term lists: bit i of moves is set
    when component i is nonzero, bit j of reads when some term has a power
    or a rate in variable j."""
    moves = reads = 0
    for i, comp in enumerate(v.comps):
        terms = naive_of(comp)
        moves |= bool(terms) << i
        for powers, rate, _ in terms:
            for j in range(len(powers)):
                if powers[j] or rate[j]:
                    reads |= 1 << j
    return moves, reads


def assert_poly_is(p: ExpPoly, naive: dict) -> None:
    got = {(m.powers, m.rates): c for m, c in p.term_map().items()}
    assert got == naive


# -- independent dense rank oracle ---------------------------------------------


def oracle_rank(matrix: list[list[Fraction]]) -> int:
    return len(oracle_row_basis(matrix))


def oracle_row_basis(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """A basis of the row space: the pivot rows left by the elimination."""
    rows = [list(r) for r in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / head
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rows[:rank]


def oracle_member(span: list[list[Fraction]], vec: list[Fraction]) -> bool:
    if not span:
        return not any(vec)
    return oracle_rank(span) == oracle_rank(span + [vec])


# -- dense structure-constant oracles --------------------------------------------


def oracle_bracket(L: LieAlgebra):
    """[u, w] on dense coordinate lists, summed over every structure constant
    L.c(i, j, k): no sparse walk and no ad table."""
    n = L.dim
    nonzero = []
    for i in range(n):
        for j in range(n):
            vec = [L.c(i, j, k) for k in range(n)]
            if any(vec):
                nonzero.append((i, j, vec))

    def bracket(u: list[Fraction], w: list[Fraction]) -> list[Fraction]:
        out = [Q(0)] * n
        for i, j, vec in nonzero:
            if u[i] and w[j]:
                out = [o + u[i] * w[j] * c for o, c in zip(out, vec)]
        return out

    return bracket


def oracle_series_terms(L: LieAlgebra, kind: str) -> list[list[list[Fraction]]]:
    """Every term of the lower-central or derived series, as a dense row
    basis, until it stabilizes; bracket vectors over all pairs, each term's
    span taken by the dense rank oracle."""
    n = L.dim
    bracket = oracle_bracket(L)
    units = [[Q(int(i == j)) for i in range(n)] for j in range(n)]
    terms = [units]
    while terms[-1]:
        current = terms[-1]
        left = units if kind == "lower-central" else current
        nxt = oracle_row_basis([v for u in left for w in current if any(v := bracket(u, w))])
        if len(nxt) == len(current):
            break
        terms.append(nxt)
    return terms


def oracle_center(L: LieAlgebra) -> list[list[Fraction]]:
    """Canonical center basis from every pair: x is central when
    sum_a x_a c(a, b, k) = 0 for all b and k.  One vector per free column of
    the dense reduced constraint rows, ascending, with 1 at that column."""
    n = L.dim
    rows = [[L.c(a, b, k) for a in range(n)] for b in range(n) for k in range(n)]
    reduced = oracle_row_basis([r for r in rows if any(r)])
    pivots = [next(c for c, v in enumerate(row) if v) for row in reduced]
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Q(int(c == free)) for c in range(n)]
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free] / row[p]
        basis.append(vec)
    return basis


def oracle_quotient(L: LieAlgebra, ideal: list[list[Fraction]]) -> tuple[tuple[int, ...], dict]:
    """(rep_indices, tensor) of L/ideal: the representatives are the columns
    off the pivots of the ideal's reduced rows, and the bracket of every pair
    of them is reduced by those rows densely."""
    n = L.dim
    rows = oracle_row_basis(ideal)
    pivots = [next(c for c, v in enumerate(row) if v) for row in rows]
    reps = tuple(c for c in range(n) if c not in pivots)
    bracket = oracle_bracket(L)
    unit = lambda r: [Q(int(i == r)) for i in range(n)]
    tensor = {}
    for a, b in combinations(range(len(reps)), 2):
        v = bracket(unit(reps[a]), unit(reps[b]))
        for row, p in zip(rows, pivots):
            factor = v[p] / row[p]
            v = [x - factor * y for x, y in zip(v, row)]
        assert not any(v[p] for p in pivots)
        comps = {c: v[rep] for c, rep in enumerate(reps) if v[rep]}
        if comps:
            tensor[(a, b)] = comps
    return reps, tensor


# -- all-minors generic rank oracle ---------------------------------------------


def oracle_det(entries: list[list[ExpPoly]]) -> ExpPoly:
    """Leibniz expansion: a signed product over every permutation."""
    k = len(entries)
    acc = ExpPoly.zero(entries[0][0].nvars)
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(k), 2))
        term = entries[0][perm[0]]
        for row in range(1, k):
            term = term * entries[row][perm[row]]
        acc = acc - term if inversions % 2 else acc + term
    return acc


def oracle_generic_rank(fields: list[VectorField]) -> int:
    """Largest k with a nonzero k x k minor, trying every minor from the top k."""
    fields = [f for f in fields if not f.is_zero]
    if not fields:
        return 0
    n = fields[0].ctx.nvars
    m = len(fields)
    for k in range(min(m, n), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                entries = [[fields[r].comps[c] for c in cols] for r in rows]
                if not oracle_det(entries).is_zero:
                    return k
    return 0


# -- naive field coordinatization (independent of vflie.linalg) -----------------


def naive_field_coords(fields: list[VectorField]) -> list[list[Fraction]]:
    keys: set = set()
    for f in fields:
        for i, comp in enumerate(f.comps):
            for mono in comp.term_map():
                keys.add((i, mono.powers, mono.rates))
    ordered = sorted(keys)
    out = []
    for f in fields:
        row = []
        for i, powers, rates in ordered:
            row.append(f.comps[i].term_map().get(ExpMonomial(powers, rates), Q(0)))
        out.append(row)
    return out


def oracle_coords(basis: list[VectorField], fields: list[VectorField]) -> list[list[Fraction]]:
    """Coordinates of each field over independent basis fields, by one
    elimination of the transposed system [basis | fields]."""
    n = len(basis)
    keyed = list(zip(*naive_field_coords(list(basis) + list(fields))))  # one row per key
    reduced = oracle_row_basis([list(row) for row in keyed])
    assert len(reduced) == n, "basis fields are dependent, or a field lies outside their span"
    out = [[Q(0)] * n for _ in fields]
    for row in reduced:
        pivot = next(c for c, v in enumerate(row) if v)
        assert pivot < n, "a field lies outside the span of the basis"
        for j in range(len(fields)):
            out[j][pivot] = row[n + j] / row[pivot]
    return out
