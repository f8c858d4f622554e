"""Vector fields with exact ring coefficients and their coordinates:
bracket, derivation action, and pushforward under user-supplied invertible
polynomial coordinate changes.

Field coordinates are keyed by (component, monomial), the public form of
coordinatize.  A column table (Columns; close() makes one per closure)
numbers those keys with int ids, so an echelon over it hashes ints while
its pivots follow the keys, and it brackets rows on their ids
(Columns.bracket, the one field bracket) by summing the nonzero halves
m d_i(n) d_j of their column fields (monomial_half), each computed once
per table.  The support masks of its operands let _can_fail_to_commute
prove a pair commuting without a bracket.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Any, Iterable, Mapping, Sequence, Union

from .errors import ContextMismatch, InvalidCoordinateChange
from .ring import (
    _ZEROS,
    DEFAULT_NAMES,
    ExpMonomial,
    ExpPoly,
    Scalar,
    _axpy,
    _new,
    _poly,
    _stored_rates,
    join_terms,
    mul_add,
    term_text,
)

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def monomial_reads(mono: ExpMonomial) -> int:
    """Bitmask of the variables a monomial depends on: bit j is set when its
    power or its rate in variable j is nonzero.  The monomial is read as
    stored, (reversed rates, reversed powers), so position k of either
    tuple is variable nvars - 1 - k."""
    rates, powers = mono
    top = 1 << (len(powers) - 1)
    mask = 0
    for k, (power, rate) in enumerate(zip(powers, rates)):
        if power or rate:
            mask |= top >> k
    return mask


def monomial_half(i: int, m: ExpMonomial, n: ExpMonomial) -> Sequence[tuple]:
    """m d_i(n) as (monomial, coefficient) terms with nonzero coefficients:
    the half of [m d_i, n d_j] = m d_i(n) d_j - n d_j(m) d_i on d_j.

    d_i(n) = a n / x_i + r n, with a and r the power and the rate of n in
    variable i, so a half is at most a lowered-power term and a rate term of
    m n, nonzero exactly when n reads x_i.  A coefficient is an int (a
    power) or a stored rate (an int or a Fraction).  When m and n both
    carry the shared exp-free rates (ring._ZEROS), as a product whose
    rates cancel does too, r is 0 and the half is the one term
    (m n / x_i, a), made in one step."""
    (rm, pm), (rn, pn) = m, n
    k = len(pn) - 1 - i  # the position of variable i in the reversed tuples
    a, r = pn[k], rn[k]
    if not (a or r):
        return ()
    zeros = _ZEROS[len(pm)]
    if rm is zeros and rn is zeros:
        lowered = list(map(add, pm, pn))
        lowered[k] -= 1
        return [(_new(ExpMonomial, (zeros, tuple(lowered))), a)]
    rates = rm if rn is zeros else rn if rm is zeros else _stored_rates(tuple(map(add, rm, rn)))
    powers = tuple(map(add, pm, pn))
    terms = []
    if a:
        lowered = list(powers)
        lowered[k] -= 1
        terms.append((_new(ExpMonomial, (rates, tuple(lowered))), a))
    if r:
        terms.append((_new(ExpMonomial, (rates, powers)), r))
    return terms


@dataclass(frozen=True)
class VariableContext:
    """Ordered list of 1 to 3 variable names, fixed for a session."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.names) <= 3:
            raise ValueError("a context has 1 to 3 variables")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not _NAME_RE.match(name) or name == "exp":
                raise ValueError(f"invalid variable name: {name!r}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def zero_poly(self) -> ExpPoly:
        return ExpPoly.zero(self.nvars)

    def const(self, value: Scalar) -> ExpPoly:
        return ExpPoly.const(self.nvars, value)

    def var_poly(self, index: int) -> ExpPoly:
        return ExpPoly.var(self.nvars, index)

    def partial(self, index: int) -> "VectorField":
        """The coordinate field d/d(names[index])."""
        comps = [self.zero_poly()] * self.nvars
        comps[index] = self.const(1)
        return VectorField(self, tuple(comps))

    def field(self, comps: Sequence[ExpPoly]) -> "VectorField":
        return VectorField(self, tuple(comps))


DEFAULT_CONTEXT = VariableContext(DEFAULT_NAMES)


class VectorField:
    """First-order differential operator sum_i comps[i] * d/d(var i).

    The bracket is the row bracket (Columns.bracket) of the two fields'
    vectors.
    """

    __slots__ = ("ctx", "comps")

    def __init__(self, ctx: VariableContext, comps: Sequence[ExpPoly]):
        comps = tuple(comps)
        if len(comps) != ctx.nvars:
            raise ContextMismatch("one component per variable is required")
        for c in comps:
            if c.nvars != ctx.nvars:
                raise ContextMismatch("component over the wrong variable count")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("VectorField is immutable")

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def _check(self, other: "VectorField") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("vector fields belong to different contexts")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.ctx == other.ctx and self.comps == other.comps

    def __hash__(self) -> int:
        return hash((self.ctx, self.comps))

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(self.ctx, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(self.ctx, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.ctx, tuple(-c for c in self.comps))

    def __mul__(self, scalar: Union[int, Fraction, ExpPoly]) -> "VectorField":
        return VectorField(self.ctx, tuple(c * scalar for c in self.comps))

    __rmul__ = __mul__

    def apply(self, p: ExpPoly) -> ExpPoly:
        """Derivation action on a ring element: sum_i comps[i] * dp/dx_i."""
        if p.nvars != self.ctx.nvars:
            raise ContextMismatch("element over the wrong variable count")
        out: dict = {}
        for i, c in enumerate(self.comps):
            if c:
                mul_add(out, c, p.diff(i))
        return _poly(p.nvars, out)

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket [self, other]: the row bracket (Columns.bracket) of
        the fields' vectors over a column table of their own."""
        self._check(other)
        columns = Columns(self.ctx.nvars)
        u, v = (columns.operand(columns.vector(c._terms for c in f.comps)) for f in (self, other))
        return columns.field(columns.bracket(u, v), self.ctx)

    def pushforward(self, change: "CoordinateChange") -> "VectorField":
        """Transform under the change's differential, expressed in the new chart."""
        if change.ctx != self.ctx:
            raise ContextMismatch("coordinate change belongs to a different context")
        inverse_map = dict(enumerate(change.inverse))
        comps = tuple(
            self.apply(fwd).substitute(inverse_map) for fwd in change.forward
        )
        return VectorField(self.ctx, comps)

    def depends_only_on(self, indices: Iterable[int]) -> bool:
        allowed = tuple(indices)
        return all(c.depends_only_on(allowed) for c in self.comps)

    def __str__(self) -> str:
        names = self.ctx.names
        return join_terms(
            term_text(coeff, mono, names, tail="D" + name)
            for name, comp in zip(names, self.comps)
            for mono, coeff in comp.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"VectorField({self!s})"


@dataclass(frozen=True)
class CoordinateChange:
    """Invertible polynomial coordinate change with a user-supplied inverse.

    forward[i] expresses new coordinate i in the old variables; inverse[i]
    expresses old variable i in the new ones.  Both directions must be
    polynomial, and both compositions are verified to be the identity at
    construction — the engine never solves for an inverse.
    """

    ctx: VariableContext
    forward: tuple[ExpPoly, ...]
    inverse: tuple[ExpPoly, ...]

    def __post_init__(self) -> None:
        n = self.ctx.nvars
        if len(self.forward) != n or len(self.inverse) != n:
            raise InvalidCoordinateChange("one expression per variable is required")
        for p in (*self.forward, *self.inverse):
            if p.nvars != n:
                raise InvalidCoordinateChange("expression over the wrong variable count")
            if not p.is_polynomial:
                raise InvalidCoordinateChange("coordinate changes must be polynomial")
        fwd = dict(enumerate(self.forward))
        inv = dict(enumerate(self.inverse))
        for i in range(n):
            if self.forward[i].substitute(inv) != self.ctx.var_poly(i):
                raise InvalidCoordinateChange(
                    f"forward o inverse is not the identity in coordinate {self.ctx.names[i]}"
                )
            if self.inverse[i].substitute(fwd) != self.ctx.var_poly(i):
                raise InvalidCoordinateChange(
                    f"inverse o forward is not the identity in coordinate {self.ctx.names[i]}"
                )


# -- field coordinates ---------------------------------------------------------

Key = tuple[int, ExpMonomial]
_READ_VARS = tuple(tuple(j for j in range(3) if mask >> j & 1) for mask in range(8))


def coordinatize(field: VectorField) -> dict[Key, Fraction]:
    """Linear bijection onto sparse coordinates keyed by (component, monomial)."""
    return {
        (i, mono): c for i, comp in enumerate(field.comps) for mono, c in comp.term_map().items()
    }


def uncoordinatize(vec: Mapping[Key, Fraction], ctx: VariableContext) -> VectorField:
    """Inverse of coordinatize."""
    n = ctx.nvars
    comps: list[dict[ExpMonomial, Fraction]] = [{} for _ in range(n)]
    for (i, mono), coeff in vec.items():
        if coeff:
            comps[i][mono] = coeff
    return VectorField(ctx, tuple(_poly(n, c) for c in comps))


@dataclass
class Operand:
    """A vector over a column table, its (id, coefficient) terms grouped by
    component and by each variable they read, and its support masks."""

    vec: Mapping[int, Any]
    masks: tuple[int, int]
    comps: dict[int, list]
    readers: dict[int, list]


class Columns:
    """The column table of field coordinates: the one map between
    (component, monomial) keys and int column ids, and the one row bracket.

    ids[i] maps a monomial of component i to its id, keys[id] maps back
    and reads[id] is the variables it reads (monomial_reads); top_degree
    is the largest total degree of a key's monomial (-1 for an empty
    table), so no vector over the table has a higher degree, and close()
    scans a vector's degree (`degree`, on the stored powers of its keys)
    only when top_degree is above its cap.  Ids are given in the order the
    keys are first seen, so they do not follow the key order; an
    EchelonBasis over the table pivots on the least key, not the least id.
    A vector over the table is a dict id -> coefficient.

    `bracket` brackets two operands (`operand`): [u, v] sums u[k] * v[l] *
    half(k, l), half(k, l) the vector of m d_i(n) d_j for the columns
    k = m d_i and l = n d_j (monomial_half), over u's terms k on each d_i
    and v's terms l that read x_i, whose halves are the nonzero ones, minus
    the same with u and v swapped.  A half is filled on first
    use; `release` empties the half table once the tensor is built.
    """

    def __init__(self, nvars: int) -> None:
        self.ids: list[dict[ExpMonomial, int]] = [{} for _ in range(nvars)]
        self.keys: list[Key] = []
        self.reads: list[tuple[int, ...]] = []
        self.top_degree = -1
        self._halves: defaultdict[int, dict[int, dict[int, Any]]] = defaultdict(dict)

    def _new(self, i: int, mono: ExpMonomial) -> int:
        k = self.ids[i][mono] = len(self.keys)
        self.keys.append((i, mono))
        degree = sum(mono[1])
        if degree > self.top_degree:
            self.top_degree = degree
        self.reads.append(_READ_VARS[monomial_reads(mono)])
        return k

    def operand(self, vec: Mapping[int, Any]) -> Operand:
        """vec grouped by component and by the variables its terms read, with
        the support masks read off the non-empty groups."""
        comps, readers, keys, reads = {}, {}, self.keys, self.reads
        for term in vec.items():
            comps.setdefault(keys[term[0]][0], []).append(term)
            for j in reads[term[0]]:
                readers.setdefault(j, []).append(term)
        bit = (1).__lshift__  # bit(i) == 1 << i
        return Operand(vec, (sum(map(bit, comps)), sum(map(bit, readers))), comps, readers)

    def bracket(self, u: Operand, v: Operand) -> dict[int, Any]:
        """The vector of [u, v] for operands over the table, exact zeros
        dropped: int for int vectors over integral rates, else exact
        Fractions.  A monomial first seen gets an id."""
        halves = self._halves
        out: dict[int, Any] = {}
        for left, right, sign in ((u, v, 1), (v, u, -1)):
            for i, terms in left.comps.items():
                readers = right.readers.get(i)
                if readers is None:
                    continue
                for k, a in terms:
                    row = halves[k]
                    a *= sign
                    for l, b in readers:
                        half = row.get(l)
                        if half is None:
                            half = row[l] = self._half(k, l)
                        _axpy(out, half, a * b)
        return out

    def _half(self, k: int, l: int) -> dict[int, Any]:
        """half(k, l), the vector of m d_i(n) d_j for columns m d_i, n d_j."""
        (i, m), (j, n) = self.keys[k], self.keys[l]
        ids = self.ids[j]
        half = {}
        for mono, coeff in monomial_half(i, m, n):
            key = ids.get(mono)
            half[self._new(j, mono) if key is None else key] = coeff
        return half

    def release(self) -> None:
        """Drop the half table; a later bracket fills it again."""
        self._halves = defaultdict(dict)

    def vector(self, comps: Iterable[Mapping[ExpMonomial, Any]]) -> dict[int, Any]:
        """The vector of the field with these per-component term maps
        (nonzero coefficients); a monomial first seen gets an id."""
        out = {}
        for i, terms in enumerate(comps):
            ids = self.ids[i]
            for mono, c in terms.items():
                k = ids.get(mono)
                out[self._new(i, mono) if k is None else k] = c
        return out

    def find(self, field: VectorField) -> dict[int, Fraction] | None:
        """The vector of a field over this table, or None when a monomial of
        it has no id: it then lies outside the span of any rows over the
        table.  Makes no id, so a query does not grow the table."""
        out = {}
        for ids, comp in zip(self.ids, field.comps):
            for mono, c in comp._terms.items():
                k = ids.get(mono)
                if k is None:
                    return None
                out[k] = c
        return out

    def field(self, row: Mapping[int, Any], ctx: VariableContext, head: int = 1) -> VectorField:
        """The field whose vector is row / head, each coefficient made one
        Fraction(c, head) in the same pass, so that it keeps the _poly
        contract.  LieAlgebra gives a primitive integer row and its pivot
        entry, the head, for a unit row; any other caller gives a vector of
        Fractions (a combination of unit rows or a bracket of field
        vectors) and head 1."""
        n = ctx.nvars
        keys = self.keys
        comps: list[dict[ExpMonomial, Any]] = [{} for _ in range(n)]
        for k, coeff in row.items():
            if coeff:
                i, mono = keys[k]
                comps[i][mono] = Fraction(coeff, head)
        return VectorField(ctx, tuple(_poly(n, c) for c in comps))

    def degree(self, vec: Iterable[int]) -> int:
        """Total degree of the field with this vector: the largest over its
        monomials, and -1 for the zero vector, as ExpPoly.degree counts it."""
        keys = self.keys
        return max((sum(keys[k][1][1]) for k in vec), default=-1)


def _can_fail_to_commute(s: tuple[int, int], t: tuple[int, int]) -> bool:
    """False when the support masks s and t (Operand.masks) prove the
    bracket zero: neither field moves a variable that the other's
    coefficients read, so every term X_j * d Y_i/d var j of [X, Y] has
    X_j = 0 or d Y_i/d var j = 0, and likewise with X and Y swapped."""
    return bool(s[0] & t[1] or t[0] & s[1])
