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

    The Jacobian (d comps[i] / d var j for all i, j) is computed lazily, on
    the field's first bracket, and kept in a slot, so a field bracketed many
    times is differentiated n^2 times in all.  The cache takes no part in ==
    or hash, and the field stays immutable to callers.
    """

    __slots__ = ("ctx", "comps", "_jac")

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

    def _jacobian(self) -> tuple[tuple[ExpPoly, ...], ...]:
        """Entry [i][j] is d comps[i] / d var j; computed once per field."""
        jac = self._jac
        if jac is None:
            n = self.ctx.nvars
            jac = tuple(tuple(c.diff(j) if c else c for j in range(n)) for c in self.comps)
            object.__setattr__(self, "_jac", jac)
        return jac

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket [self, other]; bilinear and antisymmetric.

        Component i is sum_j self_j * d other_i/d var j - other_j * d self_i/d var j,
        accumulated into one term map."""
        self._check(other)
        n = self.ctx.nvars
        v, w = self.comps, other.comps
        dv, dw = self._jacobian(), other._jacobian()
        comps = []
        for i in range(n):
            out: dict = {}
            for j in range(n):
                mul_add(out, v[j], dw[i][j])
                mul_add(out, w[j], dv[i][j], -1)
            comps.append(_poly(n, out))
        return VectorField(self.ctx, comps)

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
