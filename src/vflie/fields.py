"""Vector fields with exact ring coefficients: bracket, derivation action,
pushforward under user-supplied invertible polynomial coordinate changes."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import ContextMismatch, InvalidCoordinateChange
from .ring import ExpPoly, Scalar, _poly, join_terms, mul_add, term_text

DEFAULT_NAMES = ("x", "y", "z")

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

# sparse (index, nonzero ring element) pairs, as the Jacobian cache keeps them
Entries = tuple[tuple[int, ExpPoly], ...]


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

    The sparse Jacobian (`_jacobian`) is computed lazily, on the field's
    first bracket, and kept in a slot: each nonzero component is
    differentiated once in each variable the field reads, so a field
    bracketed many times costs (nonzero components) x (read variables)
    derivatives in all.  So are the support masks of `support()`: bit j of
    `moves` is set when comps[j] is nonzero, and bit j of `reads` when some
    coefficient depends on var j (a power > 0 or a rate != 0).  The caches
    take no part in == or hash, and the field stays immutable to callers.
    """

    __slots__ = ("ctx", "comps", "_jac", "_support")

    def __init__(self, ctx: VariableContext, comps: Sequence[ExpPoly]):
        comps = tuple(comps)
        if len(comps) != ctx.nvars:
            raise ContextMismatch("one component per variable is required")
        for c in comps:
            if c.nvars != ctx.nvars:
                raise ContextMismatch("component over the wrong variable count")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "_jac", None)
        object.__setattr__(self, "_support", None)

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

    def _jacobian(self) -> tuple[Entries, tuple[Entries, ...]]:
        """(nonzero, columns), computed once per field: nonzero lists the
        pairs (j, comps[j]) with comps[j] != 0, and columns[j] the pairs
        (i, d comps[i] / d var j) with a nonzero derivative.

        Only the variables the field reads are differentiated in; every
        other column is empty.  The reads mask comes from the support slot:
        close() and the tensor fill it in their support test before any
        bracket, and support() fills it otherwise."""
        jac = self._jac
        if jac is None:
            reads = (self._support or self.support())[1]
            nonzero = tuple((j, c) for j, c in enumerate(self.comps) if c)
            columns = tuple(
                tuple((i, d) for i, c in nonzero if (d := c.diff(j)))
                if reads >> j & 1
                else ()
                for j in range(self.ctx.nvars)
            )
            jac = (nonzero, columns)
            object.__setattr__(self, "_jac", jac)
        return jac

    def support(self) -> tuple[int, int]:
        """(moves, reads) bitmasks over the variables; computed once per field.

        Bit i of moves is set when comps[i] is nonzero; bit j of reads when
        some term of some component has a power > 0 or a rate != 0 in
        variable j.  The terms are read as stored, (reversed rates, reversed
        powers), so position k of either tuple is variable nvars - 1 - k.

        [X, Y] = 0 whenever moves(X) & reads(Y) and moves(Y) & reads(X) are
        both empty: every term X_j * d Y_i/d var j has X_j = 0 or
        d Y_i/d var j = 0, and likewise with X and Y swapped.
        """
        masks = self._support
        if masks is None:
            moves = reads = 0
            top = 1 << (self.ctx.nvars - 1)
            for i, c in enumerate(self.comps):
                if c:
                    moves |= 1 << i
                    for rates, powers in c.term_map():
                        for k, (power, rate) in enumerate(zip(powers, rates)):
                            if power or rate:
                                reads |= top >> k
            masks = (moves, reads)
            object.__setattr__(self, "_support", masks)
        return masks

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket [self, other]; bilinear and antisymmetric."""
        self._check(other)
        n = self.ctx.nvars
        return VectorField(self.ctx, [_poly(n, out) for out in self._bracket_terms(other)])

    def _bracket_terms(self, other: "VectorField") -> list[dict]:
        """The term maps of [self, other], one per component, owned by the
        caller; the contexts are not checked.

        Component i is sum_j self_j * d other_i/d var j - other_j * d self_i/d var j,
        accumulated into one term map over the sparse Jacobians: only the
        nonzero self_j meet only the nonzero d other_i/d var j, and likewise
        for the mirror term, so no product has a zero factor."""
        v, dv = self._jacobian()
        w, dw = other._jacobian()
        comps: list[dict] = [{} for _ in range(self.ctx.nvars)]
        for j, vj in v:
            for i, d in dw[j]:
                mul_add(comps[i], vj, d)
        for j, wj in w:
            for i, d in dv[j]:
                mul_add(comps[i], wj, d, -1)
        return comps

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

    @classmethod
    def identity(cls, ctx: VariableContext) -> "CoordinateChange":
        coords = tuple(ctx.var_poly(i) for i in range(ctx.nvars))
        return cls(ctx, coords, coords)
