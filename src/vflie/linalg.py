"""Exact sparse linear algebra over Q.

EchelonBasis is the one elimination routine: a fully reduced row set with
unit pivots over sparse vectors, so span membership, residuals, coordinates
and null spaces are all exact.  Its keys are either (component, monomial)
pairs, which coordinatize vector fields, or integer basis coordinates,
which the structure-constant layer uses; only the key order differs.  The
dense helpers (rref_dense, null_space_dense, solve_dense) are thin list
adapters over integer-key bases; no engine code calls them, and they remain
for the tests and the benchmark tracer (bench/tracing.py).  generic_rank
decides the pointwise-span dimension of a field family by greedy span growth
over the fraction field: a field is kept when one of at most three small
symbolic minors is nonzero, so a family of m fields costs O(m) minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import ContextMismatch, NotInSpan
from .fields import VariableContext, VectorField
from .ring import ExpMonomial, ExpPoly, Q, _poly

Key = tuple[int, ExpMonomial]
CoordVector = dict[Key, Fraction]
SparseVector = dict[int, Fraction]

ZERO = Q(0)


def key_sort(key: Key):
    return (key[0], key[1].sort_key())


def coordinatize(field: VectorField) -> CoordVector:
    """Linear bijection onto sparse coordinates keyed by (component, monomial)."""
    out: CoordVector = {}
    for i, comp in enumerate(field.comps):
        for mono, coeff in comp.term_map().items():
            out[(i, mono)] = coeff
    return out


def uncoordinatize(vec: CoordVector, ctx: VariableContext) -> VectorField:
    """Inverse of coordinatize on the Fraction vectors it and EchelonBasis give."""
    n = ctx.nvars
    comps: list[dict[ExpMonomial, Fraction]] = [{} for _ in range(n)]
    for (i, mono), coeff in vec.items():
        if coeff:
            comps[i][mono] = coeff
    return VectorField(ctx, tuple(_poly(n, c) for c in comps))


def to_sparse(vec: Sequence[Fraction]) -> SparseVector:
    """Integer-key sparse form of a dense coefficient list."""
    return {i: Q(c) for i, c in enumerate(vec) if c}


def to_dense(vec: Mapping[int, Fraction], n: int) -> list[Fraction]:
    return [vec.get(i, ZERO) for i in range(n)]


def _axpy(dst: dict, src: Mapping, scale: Fraction) -> None:
    """dst += scale * src, dropping exact zeros."""
    for key, coeff in src.items():
        acc = dst.get(key, ZERO) + scale * coeff
        if acc:
            dst[key] = acc
        else:
            dst.pop(key, None)


@dataclass
class InsertResult:
    independent: bool
    residual: dict
    index: int | None
    dirtied: tuple[int, ...]


class EchelonBasis:
    """Mutable reduced row set with unit pivots, one owner at a time.

    A row's pivot is its least key under `order`: key_sort (the default)
    for field keys (component, monomial), or None to compare the keys
    themselves, as for integer basis coordinates.  Rows are stored in
    insertion order so callers can keep stable indices while the basis
    grows; `order()` gives the pivot-sorted (reduced row-echelon) view.
    Every pivot column is zero in all other rows, so the sorted rows depend
    only on the span, not on the insertion order.
    """

    def __init__(self, order: Callable[[Any], Any] | None = key_sort) -> None:
        self.rows: list[dict] = []
        self.pivots: list = []
        self._pivot_row: dict = {}
        self._key = order

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Mapping) -> tuple[dict, dict[int, Fraction]]:
        """Fully reduce a copy of vec; returns (residual, row -> coefficient)."""
        v = {k: c for k, c in vec.items() if c}
        coeffs: dict[int, Fraction] = {}
        hits = sorted((k for k in v if k in self._pivot_row), key=self._key)
        for key in hits:
            coeff = v.get(key)
            if not coeff:
                continue
            row_idx = self._pivot_row[key]
            coeffs[row_idx] = coeff
            _axpy(v, self.rows[row_idx], -coeff)
        return v, coeffs

    def contains(self, vec: Mapping) -> bool:
        residual, _ = self.reduce(vec)
        return not residual

    def insert(self, vec: Mapping) -> InsertResult:
        residual, _ = self.reduce(vec)
        if not residual:
            return InsertResult(False, {}, None, ())
        lead = min(residual, key=self._key)
        scale = residual[lead]
        row = {k: c / scale for k, c in residual.items()}
        index = len(self.rows)
        dirtied = []
        for i, other in enumerate(self.rows):
            coeff = other.get(lead)
            if coeff:
                _axpy(other, row, -coeff)
                dirtied.append(i)
        self.rows.append(row)
        self.pivots.append(lead)
        self._pivot_row[lead] = index
        return InsertResult(True, row, index, tuple(dirtied))

    def express(self, vec: Mapping) -> list[Fraction]:
        """Exact coordinates of vec over the rows (insertion order)."""
        residual, coeffs = self.reduce(vec)
        if residual:
            raise NotInSpan("vector is outside the span of the basis")
        return [coeffs.get(i, ZERO) for i in range(len(self.rows))]

    def order(self) -> list[int]:
        """Row indices sorted by pivot key (the reduced row-echelon order)."""
        key = self._key or (lambda k: k)
        return sorted(range(len(self.rows)), key=lambda i: key(self.pivots[i]))

    def rows_sorted(self) -> list[dict]:
        return [self.rows[i] for i in self.order()]


def echelon_of(rows: Iterable[Mapping[int, Fraction]]) -> EchelonBasis:
    """Integer-key echelon basis of the span of the given sparse rows."""
    basis = EchelonBasis(order=None)
    for row in rows:
        basis.insert(row)
    return basis


def null_space(columns: Sequence[Mapping[Any, Fraction]]) -> list[list[Fraction]]:
    """Canonical null-space basis of the matrix with these sparse columns
    (row keys of any hashable kind): one vector per free column, ascending."""
    rows: dict[Any, SparseVector] = {}
    for s, col in enumerate(columns):
        for t, c in col.items():
            rows.setdefault(t, {})[s] = c
    ncols = len(columns)
    basis = echelon_of(rows.values())
    pivots = set(basis.pivots)
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ZERO] * ncols
        vec[free] = Q(1)
        for row, pivot in zip(basis.rows, basis.pivots):
            vec[pivot] = -row.get(free, ZERO)
        out.append(vec)
    return out


# -- dense adapters -------------------------------------------------------------


def rref_dense(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a copy; returns (rows, pivot columns)."""
    if not matrix:
        return [], []
    basis = echelon_of(map(to_sparse, matrix))
    order = basis.order()
    ncols = len(matrix[0])
    return [to_dense(basis.rows[i], ncols) for i in order], [basis.pivots[i] for i in order]


def null_space_dense(matrix: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Canonical null-space basis: one vector per free column, ascending."""
    return null_space([{r: row[c] for r, row in enumerate(matrix) if row[c]} for c in range(ncols)])


def solve_dense(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """One exact solution of A x = b with free unknowns set to 0, or None."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    basis = echelon_of(to_sparse([*row, b]) for row, b in zip(matrix, rhs))
    solution = [ZERO] * ncols
    for row, pivot in zip(basis.rows, basis.pivots):
        if pivot == ncols:
            return None  # pivot in the constant column: inconsistent
        solution[pivot] = row.get(ncols, ZERO)
    return solution


# -- generic rank -------------------------------------------------------------


def _det(entries: list[list[ExpPoly]]) -> ExpPoly:
    k = len(entries)
    if k == 1:
        return entries[0][0]
    if k == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    acc = ExpPoly.zero(entries[0][0].nvars)
    for j in range(k):
        minor = [[row[c] for c in range(k) if c != j] for row in entries[1:]]
        term = entries[0][j] * _det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def generic_rank(fields: Sequence[VectorField]) -> int:
    """Rank of the coefficient matrix (rows fields, columns variables).

    This is the largest k with a symbolically nonzero k x k minor.  The
    coefficients lie in an integral domain, so it is also the dimension of
    the fields' span over its fraction field, and greedy span growth finds
    it: walk the fields in order and keep one exactly when some maximal
    minor of the kept rows plus it is nonzero (at most C(n, k+1) <= 3
    minors), stopping once n are kept.  For these real-analytic
    coefficients the rank equals the maximal pointwise span dimension,
    attained on a dense open set; a rank at a specific point is
    deliberately not computed.
    """
    if not fields:
        return 0
    ctx = fields[0].ctx
    for f in fields:
        if f.ctx != ctx:
            raise ContextMismatch("rank of fields over different contexts")
    n = ctx.nvars
    kept: list[VectorField] = []
    for f in fields:
        if len(kept) == n:
            break
        rows = [*kept, f]
        for cols in combinations(range(n), len(rows)):
            if not _det([[r.comps[c] for c in cols] for r in rows]).is_zero:
                kept.append(f)
                break
    return len(kept)
