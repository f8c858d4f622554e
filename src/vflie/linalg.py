"""Exact sparse linear algebra over Q.

Two echelon containers share one integer row update, _eliminate, on
primitive integer rows, integer-preserving in the spirit of Bareiss (Math.
Comp. 22, 1968), each row pivoting on its least key.  EchelonBasis is the
fully reduced row set, so span membership, residuals and coordinates are
exact; it takes vectors in by layers (`_extend`, `_settle`), only close()
holds a layer open, and every public method sees and leaves a settled
echelon.  Every vector enters it through `_residual`, one pass that checks
each entry is rational; an integer vector, such as a bracket of integer
rows or an integer ad-table row, is never turned into Fractions.
`primitive_row` hands out a stored integer row itself, which callers must
not mutate.  Given Fractions or ints, every value it returns is a
Fraction, and a value that is not rational (a float) raises TypeError.
ForwardEchelon does forward elimination alone, on integer vectors over
integer keys, for readers of a span's pivots, length and spanning rows
([g, g], the series, the nilpotency certificate): any echelon whose rows
have distinct least-key pivots has the reduced echelon's pivot set, so
they need no back-substitution.  null_space eliminates a matrix's
columns on a ForwardEchelon, each tagged with its combination, and reads
a kernel vector off each column that reduces to zero.

EchelonBasis keys are of two kinds: field coordinates, the int column ids
of a column table (fields.Columns), which order as their (component,
monomial) keys, and integer basis coordinates, which order themselves.

Every gcd and lcm is math.gcd or math.lcm, which take and return ints, so
the integer steps stay exact.

The one sparse multiply-accumulate, ring._axpy, serves the integer
elimination as it serves the row bracket and every Fraction combination,
and _combination sums scaled vectors through it.  The dense helpers
(rref_dense, null_space_dense, solve_dense) are thin list adapters over
integer-key bases, and solve_dense reads its solution off
null_space_dense; no engine code calls them, and they remain for the tests
and the benchmark tracer (bench/tracing.py).
generic_rank decides the pointwise-span dimension of a field family by
greedy span growth over the fraction field: a field is kept when one of at
most three small symbolic minors over the moved columns is nonzero, so a
family of m fields costs O(m) minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Any, Iterable, Mapping, Sequence

from .errors import ContextMismatch, NotInSpan
from .fields import Columns, VectorField
from .ring import ExpPoly, Q, _axpy, _poly, _rational, mul_add

SparseVector = dict[int, Fraction]

ZERO = Q(0)


def to_sparse(vec: Sequence[Fraction]) -> SparseVector:
    """Integer-key sparse form of a dense list of ints and Fractions, every
    value a Fraction: a caller's Fraction is kept as it is and an int made
    one.  Any other value, a float included, raises TypeError."""
    return {i: c if type(c) is Fraction else Q(c)
            for i, c in enumerate(vec) if _rational(c, "coefficient")}


def to_dense(vec: Mapping[int, Fraction], n: int) -> list[Fraction]:
    return [vec.get(i, ZERO) for i in range(n)]


def _combination(vectors: Sequence[Mapping], coeffs: Mapping[int, Any]) -> dict:
    """sum_s coeffs[s] * vectors[s] over sparse vectors, by _axpy."""
    out: dict = {}
    for s, c in coeffs.items():
        _axpy(out, vectors[s], c)
    return out


def _integral(vec: Mapping[Any, Fraction]) -> tuple[dict[Any, int], int]:
    """(ints, s): the integer vector ints and the least s > 0 with
    vec == ints / s."""
    scale = 1
    for c in vec.values():
        if c.denominator != 1:
            scale = lcm(scale, c.denominator)
    return {k: scale // c.denominator * c.numerator for k, c in vec.items()}, scale


def _primitive(vec: dict[Any, int], lead: Any) -> dict[Any, int]:
    """vec divided by its content, the gcd of its entries, signed so that
    vec[lead] is positive.  A row whose pivot coefficient is +-1 has
    content 1, so it skips the gcd."""
    g = abs(vec[lead])
    if g != 1:
        g = gcd(*vec.values())
    if vec[lead] < 0:
        g = -g
    return vec if g == 1 else {k: c // g for k, c in vec.items()}


def _eliminate(dst: Mapping[Any, int], row: Mapping[Any, int], key: Any) -> dict[Any, int]:
    """The one integer row update: (h/g)*dst - (c/g)*row as a new dict, with
    c = dst[key], h = row[key] > 0 and g = gcd(c, h) > 0, so dst is copied
    unscaled when h divides c.  It is zero at key and, up to the positive
    scale h/g, equals dst - (c/h)*row, so _primitive of it is the primitive
    form of that difference."""
    c, h = dst[key], row[key]
    g = gcd(c, h)
    out = dict(dst) if h == g else {k: h // g * a for k, a in dst.items()}
    _axpy(out, row, -(c // g))
    return out


def _cleared(row: Mapping[Any, int], lead: Any, rows: Mapping[Any, dict[Any, int]]) -> dict[Any, int]:
    """A new primitive dict: row with the pivots of `rows` (pivot -> row,
    each zero at the others' pivots, so the order of clearing does not
    matter) cleared.  The caller has checked that row holds one of them."""
    for p, other in rows.items():
        if p in row:
            row = _eliminate(row, other, p)
    return _primitive(row, lead)


@dataclass
class InsertResult:
    independent: bool  # the vector was outside the span; its row is now rows[-1]
    dirtied: tuple[int, ...]  # indices of older rows it reduced


class EchelonBasis:
    """Mutable fully reduced row set, one owner at a time.

    A row's pivot is its least key.  Rows are stored in insertion order so
    callers can keep stable indices while the basis grows; `order()` gives
    the pivot-sorted (reduced row-echelon) view.

    Keys are of one kind per echelon.  Without a column table they order
    themselves (integer basis coordinates).  With one (`columns`, for field
    coordinates) they are its int ids, hashed as ints, and the key order is
    still that of their (component, monomial) keys, through columns.keys:
    it is read at exactly three sites, the least key in `_extend`, the
    descending sort in `_settle` and `order()`, so the pivots, rows and
    order are those of the tuple-keyed echelon, translated.

    Invariant of the settled rows (full reduction): every settled row is
    zero at every other settled row's pivot.  So subtracting one row never
    changes a vector's coefficient at another pivot, `_residual` may clear
    the pivots in any order, and the sorted rows depend only on the span, not
    on the insertion order.  It also gives coordinates for free: a vector
    in the span has, on the unit row of pivot p, its own value at p.

    Invariant of the open layer (the rows `_extend` stored since the last
    `_settle`): each layer row is zero at every settled pivot and at the
    pivots of the layer rows before it.  Such rows are independent and the
    residual of a vector on them is unique, so `_extend` decides
    independence and picks the pivot exactly as a one-vector layer would.
    `_settle` reduces the layer's rows among themselves in descending pivot
    order, then clears the layer's pivots from the settled rows; the rows
    are then the same as after inserting the layer's vectors one by one.
    Only the settled rows are indexed by pivot (`_pivot_row`, whose size is
    the number of settled rows), so `_extend` reduces on them through
    `_residual` and on the layer one row at a time.  The public methods
    require a settled echelon; `insert` settles its own layer of one, and
    only close() holds a longer layer open, settling it before any read.

    Rows are kept integer-preserving, in the spirit of Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 22 (1968): each is a primitive integer vector (content removed)
    with a positive pivot coefficient, so elimination does no rational
    arithmetic.  `_residual` scales its input once to integers; `_extend` and
    `_settle` update a row with the one step other = (h/g) * other -
    (c/g) * row, g = gcd(c, h), and divide out the content once at the
    end.  `primitive_row` returns a stored integer row as it is, to be
    read and never mutated.  The unit-pivot Fraction rows (`row`, `rows`)
    are built on each read.
    """

    def __init__(self, columns: Columns | None = None) -> None:
        self.columns = columns
        self.pivots: list = []
        self._pivot_row: dict = {}
        self._ints: list[dict[Any, int]] = []

    def __len__(self) -> int:
        return len(self._ints)

    def row(self, index: int) -> dict:
        """Row `index` (insertion order) with unit pivot, as Fractions."""
        ints = self._ints[index]
        head = ints[self.pivots[index]]
        return {k: Fraction(c, head) for k, c in ints.items()}

    def primitive_row(self, index: int) -> dict:
        """Row `index` (insertion order) as stored: a primitive integer vector
        with positive pivot coefficient, row(index) times that coefficient.
        Read-only: it is the echelon's own row, not a copy."""
        return self._ints[index]

    def _residual(self, vec: Mapping, values: dict | None = None) -> tuple[dict, int]:
        """(r, s): an integer residual r and scale s with
        vec - sum(coeffs[i] * row(i)) == r / s, coeffs[i] being vec's value
        at row i's pivot, by full reduction its unit row's coefficient, so
        that the coeffs of a vec in the span are its coordinates.  One pass
        over vec drops its zeros, checks each entry is rational, finds the
        pivots it hits and grows the scale by lcm, taken only for a
        denominator or pivot head other than 1.  At scale 1, the common
        case of an integer vector such as a bracket of integer rows, that
        pass has already written the integer residual before elimination;
        any other scale rebuilds it once.
        Given a dict `values`, it also hands back what it subtracts: for
        each row i whose pivot vec hits, values[i] = s * coeffs[i], the
        scaled vector's value at that pivot, an int, read as the row is
        subtracted (by full reduction no other row changes it)."""
        pivot_row, ints = self._pivot_row, self._ints
        residual: dict = {}
        hits = []
        scale = 1
        for k, c in vec.items():
            if not c:
                continue
            try:
                num, den = c.numerator, c.denominator
            except AttributeError:
                raise TypeError(f"coefficient at key {k!r} is not rational: {c!r}") from None
            residual[k] = num
            if den != 1:
                scale = lcm(scale, den)
            if k in pivot_row:
                row = ints[pivot_row[k]]
                head = row[k]
                if head != 1:
                    scale = lcm(scale, den * (head // gcd(num, head)))
                hits.append((k, row))
        if scale != 1:
            residual = {k: scale // c.denominator * c.numerator for k, c in vec.items() if c}
        for k, row in hits:
            c = residual[k]
            if values is not None:
                values[pivot_row[k]] = c
            _axpy(residual, row, -(c // row[k]))
        return residual, scale

    def contains(self, vec: Mapping) -> bool:
        return not self._residual(vec)[0]

    def insert(self, vec: Mapping) -> InsertResult:
        """Add vec and keep the rows fully reduced: a layer of one vector,
        settled at once, so the new row's pivot is cleared from each older
        row."""
        if not self._extend(vec):
            return InsertResult(False, ())
        return InsertResult(True, self._settle())

    def _extend(self, vec: Mapping) -> bool:
        """Add vec to the open layer; True when it is outside the span, its
        row then the last.  vec is reduced on the settled rows, then on the
        layer's rows in insertion order, and stored primitive; no other row
        changes until `_settle`."""
        residual = self._residual(vec)[0]
        pivots, ints = self.pivots, self._ints
        for i in range(len(self._pivot_row), len(ints)):
            if pivots[i] in residual:
                residual = _eliminate(residual, ints[i], pivots[i])
        if not residual:
            return False
        columns = self.columns
        lead = min(residual) if columns is None else min(residual, key=columns.keys.__getitem__)
        ints.append(_primitive(residual, lead))
        pivots.append(lead)
        return True

    def _settle(self) -> tuple[int, ...]:
        """Close the open layer, restoring full reduction; returns the indices
        of the settled rows it changed.  The layer's rows are reduced among
        themselves in descending pivot order, so each meets only pivots
        already final, and then the layer's pivots are cleared from each
        older row in one pass.  A row that hits no new pivot keeps its dict.
        A layer of one row, as `insert` opens, tests its pivot by lookup;
        sent down the layer path instead, recipe-mix ran 10 %, large-report
        7 % and large-closure 2 % slower in-process, so the branch stays."""
        start, end = len(self._pivot_row), len(self._ints)
        pivots, ints = self.pivots, self._ints
        dirtied = []
        if end - start == 1:
            p, new = pivots[start], ints[start]
            for i in range(start):
                if p in ints[i]:
                    ints[i] = _primitive(_eliminate(ints[i], new, p), pivots[i])
                    dirtied.append(i)
        else:
            layer: dict = {}  # pivot -> fully reduced row, filled downwards
            done = layer.keys()
            for i in self._by_pivot(range(start, end), reverse=True):
                if not done.isdisjoint(ints[i].keys()):
                    ints[i] = _cleared(ints[i], pivots[i], layer)
                layer[pivots[i]] = ints[i]
            for i in range(start):
                if not done.isdisjoint(ints[i].keys()):
                    ints[i] = _cleared(ints[i], pivots[i], layer)
                    dirtied.append(i)
        for i in range(start, end):
            self._pivot_row[pivots[i]] = i
        return tuple(dirtied)

    def express(self, vec: Mapping) -> list[Fraction]:
        """Exact coordinates of vec over the rows (insertion order)."""
        values: dict[int, int] = {}
        residual, scale = self._residual(vec, values)
        if residual:
            raise NotInSpan("vector is outside the span of the basis")
        coeffs = [ZERO] * len(self._ints)
        for i, c in values.items():
            coeffs[i] = Fraction(c, scale)
        return coeffs

    def order(self) -> list[int]:
        """Row indices sorted by pivot key (the reduced row-echelon order)."""
        return self._by_pivot(range(len(self._ints)))

    def _by_pivot(self, indices: Iterable[int], reverse: bool = False) -> list[int]:
        """Row indices sorted by their pivots' keys."""
        pivots = self.pivots
        if self.columns is None:
            return sorted(indices, key=pivots.__getitem__, reverse=reverse)
        keys = self.columns.keys
        return sorted(indices, key=lambda i: keys[pivots[i]], reverse=reverse)


def echelon_of(rows: Iterable[Mapping[Any, Fraction]]) -> EchelonBasis:
    """Echelon basis of the span of the given sparse rows (keys of one kind),
    inserted one at a time.  Settling them as one layer leaves the same rows
    but forward-reduces each vector on rows that are not yet reduced among
    themselves, which keeps large entries that full reduction would have
    cleared."""
    basis = EchelonBasis()
    for row in rows:
        basis.insert(row)
    return basis


class ForwardEchelon:
    """Row-echelon form of a growing span of integer vectors over keys that
    order themselves (integer basis coordinates): forward elimination only,
    for readers that need a span's pivots, length and spanning rows.

    `rows` maps each pivot to its row, in insertion order.  A row's pivot is
    its least key and the pivots are distinct, which is all an echelon
    needs: the least key of a nonzero combination of rows is the least
    pivot among them, so the pivots are the least keys of the span's
    vectors, those of its reduced echelon, and the length is its rank.  A
    vector is reduced (`reduce`) while its least key is a pivot, by the one
    integer row update _eliminate with that pivot's row, whose other keys
    are larger, so each step raises the least key; no row is reduced by a
    later one.  Rows are primitive with a positive pivot coefficient and may
    be a caller's own dict, so they are read and never mutated.
    """

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Mapping[int, int]) -> Mapping[int, int]:
        """vec less integer multiples of the rows, up to a positive scale,
        until its least key is no pivot: zero exactly when vec is in the
        span.  vec is not mutated; it comes back as it is when its least key
        is no pivot."""
        rows = self.rows
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                break
            vec = _eliminate(vec, row, lead)
        return vec

    def append(self, residual: Mapping[int, int]) -> None:
        """Store a nonzero reduced vector as a row, pivot its least key."""
        lead = min(residual)
        self.rows[lead] = _primitive(residual, lead)

    def add(self, vec: Mapping[int, int]) -> bool:
        """Add a vector with no zero entry; True when it was outside the span."""
        residual = self.reduce(vec)
        if residual:
            self.append(residual)
        return bool(residual)


def forward_echelon(rows: Iterable[Mapping[int, int]]) -> ForwardEchelon:
    """ForwardEchelon of the span of the given integer rows, added in order."""
    echelon = ForwardEchelon()
    for row in rows:
        echelon.add(row)
    return echelon


def null_space(columns: Sequence[Mapping[Any, Fraction]]) -> list[SparseVector]:
    """Canonical null-space basis of the matrix with these sparse columns
    (row keys of any hashable kind): one sparse vector over the column
    indices per free column, ascending, with 1 at that column and 0 at
    every other free column.

    The columns themselves are eliminated, in order, on a ForwardEchelon,
    each scaled to integers and tagged with its combination: row keys are
    numbered first-seen as -1, -2, ..., so no caller's key is ever compared,
    and column s carries its scale at key s >= 0, which sorts after every
    row key.  A column whose row part reduces to zero lies in the span of
    the columns before it, so it is free, and what is left, all tags, is
    its kernel vector at once, supported on itself and the pivot columns
    before it.  Scaled to 1 at its own column, that vector is unique, so it
    is the one the reduced row-echelon form of the matrix gives.
    """
    ids: dict[Any, int] = {}
    echelon = ForwardEchelon()
    out = []
    for s, col in enumerate(columns):
        ints, scale = _integral({t: c for t, c in col.items() if _rational(c, "coefficient")})
        vec = {s: scale}
        for t, c in ints.items():
            k = ids.get(t)
            if k is None:
                k = ids[t] = -1 - len(ids)
            vec[k] = c
        residual = echelon.reduce(vec)
        if min(residual) < 0:
            echelon.append(residual)
        else:
            head = residual[s]
            out.append({k: Fraction(c, head) for k, c in residual.items()})
    return out


# -- dense adapters -------------------------------------------------------------


def _check_width(matrix: Sequence[Sequence[Fraction]], ncols: int) -> None:
    if any(len(row) != ncols for row in matrix):
        raise ValueError(f"every row must have {ncols} entries")


def rref_dense(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a copy; returns (rows, pivot columns)."""
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    _check_width(matrix, ncols)
    basis = echelon_of(map(to_sparse, matrix))
    order = basis.order()
    return [to_dense(basis.row(i), ncols) for i in order], [basis.pivots[i] for i in order]


def null_space_dense(matrix: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Canonical null-space basis: one vector per free column, ascending."""
    _check_width(matrix, ncols)
    columns = [to_sparse([row[c] for row in matrix]) for c in range(ncols)]
    return [to_dense(vec, ncols) for vec in null_space(columns)]


def solve_dense(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """One exact solution of A x = b with free unknowns set to 0, or None.
    When the last column of [A | -b] is free, its canonical kernel vector
    is that solution followed by 1; else A x = b is inconsistent."""
    if len(rhs) != len(matrix):
        raise ValueError("A and b must have the same number of rows")
    if not matrix:
        return []
    ncols = len(matrix[0])
    augmented = [[*row, -_rational(b, "coefficient")] for row, b in zip(matrix, rhs)]
    kernel = null_space_dense(augmented, ncols + 1)
    if not kernel or not kernel[-1][ncols]:
        return None
    return kernel[-1][:ncols]


# -- generic rank -------------------------------------------------------------


def _det(entries: list[list[ExpPoly]]) -> ExpPoly:
    """Cofactor expansion along the first row, summed into one term map
    by mul_add, so no intermediate product or sum is built."""
    k = len(entries)
    if k == 1:
        return entries[0][0]
    out: dict = {}
    for j, head in enumerate(entries[0]):
        if k == 2:
            minor = entries[1][1 - j]
        else:
            minor = _det([[row[c] for c in range(k) if c != j] for row in entries[1:]])
        mul_add(out, head if j % 2 == 0 else -head, minor)
    return _poly(head.nvars, out)


def generic_rank(fields: Sequence[VectorField]) -> int:
    """Rank of the coefficient matrix (rows fields, columns variables).

    This is the largest k with a symbolically nonzero k x k minor.  The
    coefficients lie in an integral domain, so it is also the dimension of
    the fields' span over its fraction field, and greedy span growth finds
    it: walk the fields in order and keep one exactly when some maximal
    minor of the kept rows plus it is nonzero (at most C(n, k+1) <= 3
    minors).  A column that no field moves adds no rank, so minors range
    over the moved columns only, and the walk stops once it has kept as
    many fields as there are moved columns.  For these real-analytic
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
    columns = [c for c in range(ctx.nvars) if any(f.comps[c] for f in fields)]
    kept: list[VectorField] = []
    for f in fields:
        if len(kept) == len(columns):
            break
        rows = [*kept, f]
        for cols in combinations(columns, len(rows)):
            if not _det([[r.comps[c] for c in cols] for r in rows]).is_zero:
                kept.append(f)
                break
    return len(kept)
