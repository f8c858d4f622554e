"""Vector fields with exact ring coefficients: bracket, derivation action,
pushforward under user-supplied invertible polynomial coordinate changes.
The one field bracket is the row bracket (linalg.Columns.bracket), which
sums the half formula monomial_half; VectorField.bracket imports linalg at
call time, since linalg imports this module."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence, Union

from .errors import ContextMismatch, InvalidCoordinateChange
from .ring import (
    _ZEROS,
    ExpMonomial,
    ExpPoly,
    Scalar,
    _new,
    _poly,
    _stored_rates,
    join_terms,
    mul_add,
    term_text,
)

DEFAULT_NAMES = ("x", "y", "z")

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

    The bracket is the row bracket (linalg.Columns.bracket) of the two
    fields' vectors.
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
        """Lie bracket [self, other]: the row bracket (linalg.Columns.bracket)
        of the fields' vectors over a column table of their own."""
        from .linalg import Columns  # linalg imports this module

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
