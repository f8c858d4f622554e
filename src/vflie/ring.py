"""Exact arithmetic in the coefficient ring Q[x,y,z] * exp(Q-linear forms).

An element is a finite Q-linear combination of terms

    c * x^a * y^b * z^e * exp(l1*x + l2*y + l3*z)

with natural-number powers and rational rates.  The ring is closed under
addition, multiplication, partial differentiation and (restricted)
substitution, and zero-testing is exact: an element is zero iff its term
map is empty.  Values are immutable after construction and safe to share.

Contexts with one or two variables use shorter tuples; the ring code only
cares about tuple length.

The module holds no mutable state.  Products are never truncated and the ring
sets no degree limit of its own: close() bounds the total degree of every
field that enters a closure (its cap_degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import ContextMismatch, SubstitutionOutsideRing

Q = Fraction
Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class ExpMonomial:
    """One term shape: powers per variable plus exponential rates per variable.

    Two monomials are equal iff powers and rates are componentwise equal;
    sort_key gives the global total order (lexicographic on (rates, powers))
    used for canonical term ordering everywhere in the engine.
    """

    powers: tuple[int, ...]
    rates: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.powers) != len(self.rates):
            raise ValueError("powers and rates must have the same length")
        if any(p < 0 for p in self.powers):
            raise ValueError("powers must be natural numbers")

    @property
    def nvars(self) -> int:
        return len(self.powers)

    @property
    def degree(self) -> int:
        return sum(self.powers)

    @property
    def is_constant(self) -> bool:
        return not any(self.powers) and not any(self.rates)

    @property
    def has_exp(self) -> bool:
        return any(self.rates)

    def sort_key(self):
        # later variables are more significant: 1 < x < x^2 < y < x*y < y^2 ...
        return (tuple(reversed(self.rates)), tuple(reversed(self.powers)))


def _unit_monomial(nvars: int) -> ExpMonomial:
    return ExpMonomial((0,) * nvars, (Q(0),) * nvars)


class ExpPoly:
    """Canonical element of the coefficient ring: a map monomial -> coefficient.

    No stored coefficient is zero.  All operations return canonical values.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[ExpMonomial, Scalar] | None = None):
        if not 1 <= nvars <= 3:
            raise ValueError("the engine supports 1 to 3 variables")
        canon: dict[ExpMonomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if mono.nvars != nvars:
                    raise ContextMismatch(
                        f"monomial over {mono.nvars} variables in a {nvars}-variable element"
                    )
                c = Q(coeff)
                if c:
                    canon[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", canon)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "ExpPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> "ExpPoly":
        return cls(nvars, {_unit_monomial(nvars): Q(value)})

    @classmethod
    def var(cls, nvars: int, index: int) -> "ExpPoly":
        powers = [0] * nvars
        powers[index] = 1
        return cls(nvars, {ExpMonomial(tuple(powers), (Q(0),) * nvars): Q(1)})

    @classmethod
    def monomial(
        cls,
        powers: Sequence[int],
        rates: Sequence[Scalar],
        coeff: Scalar = 1,
    ) -> "ExpPoly":
        mono = ExpMonomial(tuple(powers), tuple(Q(r) for r in rates))
        return cls(mono.nvars, {mono: Q(coeff)})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_polynomial(self) -> bool:
        """True when no term carries an exponential factor."""
        return all(not m.has_exp for m in self._terms)

    @property
    def is_constant(self) -> bool:
        return all(m.is_constant for m in self._terms)

    @property
    def degree(self) -> int:
        """Max total polynomial degree over the terms; -1 for the zero element."""
        return max((m.degree for m in self._terms), default=-1)

    def degree_in(self, index: int) -> int:
        """Max power of one variable over the terms; -1 for the zero element."""
        return max((m.powers[index] for m in self._terms), default=-1)

    def constant_coefficient(self) -> Fraction:
        return self._terms.get(_unit_monomial(self.nvars), Q(0))

    def depends_only_on(self, indices: Iterable[int]) -> bool:
        """True when every power and rate outside `indices` is zero."""
        allowed = set(indices)
        for m in self._terms:
            for i in range(self.nvars):
                if i in allowed:
                    continue
                if m.powers[i] or m.rates[i]:
                    return False
        return True

    def sorted_terms(self) -> list[tuple[ExpMonomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def term_map(self) -> dict[ExpMonomial, Fraction]:
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "ExpPoly") -> None:
        if self.nvars != other.nvars:
            raise ContextMismatch("elements belong to different variable contexts")

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        self._check(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono, Q(0)) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return ExpPoly(self.nvars, out)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly(self.nvars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "ExpPoly | Scalar") -> "ExpPoly":
        if isinstance(other, (int, Fraction)):
            s = Q(other)
            if not s:
                return ExpPoly.zero(self.nvars)
            return ExpPoly(self.nvars, {m: c * s for m, c in self._terms.items()})
        self._check(other)
        out: dict[ExpMonomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = ExpMonomial(
                    tuple(a + b for a, b in zip(m1.powers, m2.powers)),
                    tuple(a + b for a, b in zip(m1.rates, m2.rates)),
                )
                acc = out.get(mono, Q(0)) + c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return ExpPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ExpPoly":
        if n < 0:
            raise ValueError("negative powers are not in the ring")
        result = ExpPoly.const(self.nvars, 1)
        for _ in range(n):
            result = result * self
        return result

    def diff(self, index: int) -> "ExpPoly":
        """Exact partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        out: dict[ExpMonomial, Fraction] = {}

        def acc(mono: ExpMonomial, coeff: Fraction) -> None:
            if not coeff:
                return
            prev = out.get(mono, Q(0)) + coeff
            if prev:
                out[mono] = prev
            else:
                out.pop(mono, None)

        for m, c in self._terms.items():
            a = m.powers[index]
            if a:
                powers = list(m.powers)
                powers[index] = a - 1
                acc(ExpMonomial(tuple(powers), m.rates), c * a)
            rate = m.rates[index]
            if rate:
                acc(m, c * rate)
        return ExpPoly(self.nvars, out)

    def substitute(self, replacements: Mapping[int, "ExpPoly"]) -> "ExpPoly":
        """Replace variables by ring elements, exactly.

        A variable occurring inside an exponential argument must be replaced
        by a homogeneous Q-linear polynomial (no constant term: exp(c) with
        rational c != 0 is irrational), otherwise SubstitutionOutsideRing is
        raised.  Variables occurring only in the polynomial part may be
        replaced by any ring element.
        """
        n = self.nvars
        repl: dict[int, ExpPoly] = {}
        for i, p in replacements.items():
            if not 0 <= i < n:
                raise ValueError(f"variable index {i} out of range")
            if p.nvars != n:
                raise ContextMismatch("replacement has a different variable count")
            repl[i] = p
        for i in range(n):
            repl.setdefault(i, ExpPoly.var(n, i))

        def linear_coeffs(p: ExpPoly, feeding_var: int) -> list[Fraction]:
            coeffs = [Q(0)] * n
            for m, c in p._terms.items():
                if m.has_exp or m.degree != 1:
                    raise SubstitutionOutsideRing(
                        f"replacement for variable {feeding_var} feeds an exponential "
                        "argument but is not a homogeneous linear polynomial"
                    )
                j = next(k for k, a in enumerate(m.powers) if a)
                coeffs[j] += c
            return coeffs

        result = ExpPoly.zero(n)
        power_cache: dict[tuple[int, int], ExpPoly] = {}
        for m, c in self._terms.items():
            rates = [Q(0)] * n
            for i, rate in enumerate(m.rates):
                if rate:
                    for j, lam in enumerate(linear_coeffs(repl[i], i)):
                        rates[j] += rate * lam
            part = ExpPoly.monomial((0,) * n, rates, c)
            for i, a in enumerate(m.powers):
                if a:
                    key = (i, a)
                    if key not in power_cache:
                        power_cache[key] = repl[i] ** a
                    part = part * power_cache[key]
            result = result + part
        return result

    def restrict(self, indices: Sequence[int]) -> "ExpPoly":
        """Re-express over the subcontext `indices`; requires depends_only_on."""
        if not self.depends_only_on(indices):
            raise ContextMismatch("element depends on a variable outside the subcontext")
        k = len(indices)
        out: dict[ExpMonomial, Fraction] = {}
        for m, c in self._terms.items():
            mono = ExpMonomial(
                tuple(m.powers[i] for i in indices),
                tuple(m.rates[i] for i in indices),
            )
            out[mono] = c
        return ExpPoly(k, out)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        from .fields import DEFAULT_NAMES

        return format_poly(self, DEFAULT_NAMES[: self.nvars])

    def __repr__(self) -> str:
        return f"ExpPoly({self!s})"


def format_linform(rates: Sequence[Fraction], names: Sequence[str]) -> str:
    """Render a Q-linear form, e.g. '2*x+y-3/2*z'; compact, no spaces."""
    out = ""
    for rate, name in zip(rates, names):
        if not rate:
            continue
        mag = "" if abs(rate) == 1 else f"{abs(rate)}*"
        if not out:
            out = ("-" if rate < 0 else "") + mag + name
        else:
            out += ("-" if rate < 0 else "+") + mag + name
    return out


def term_text(coeff: Fraction, mono: ExpMonomial, names: Sequence[str], tail: str = "") -> tuple[bool, str]:
    """Magnitude text of one term plus its sign; `tail` appends a basis symbol."""
    parts: list[str] = []
    for name, a in zip(names, mono.powers):
        if a == 1:
            parts.append(name)
        elif a > 1:
            parts.append(f"{name}^{a}")
    if mono.has_exp:
        parts.append(f"exp({format_linform(mono.rates, names)})")
    if tail:
        parts.append(tail)
    mag = abs(coeff)
    if mag != 1 or not parts:
        parts.insert(0, str(mag))
    return coeff < 0, "*".join(parts)


def format_poly(p: ExpPoly, names: Sequence[str]) -> str:
    """Canonical text form; re-parses to an equal element."""
    if p.is_zero:
        return "0"
    out = ""
    for mono, coeff in p.sorted_terms():
        negative, text = term_text(coeff, mono, names)
        if not out:
            out = ("-" if negative else "") + text
        else:
            out += (" - " if negative else " + ") + text
    return out
