"""Exact arithmetic in the coefficient ring Q[x,y,z] * exp(Q-linear forms).

An element is a finite Q-linear combination of terms

    c * x^a * y^b * z^e * exp(l1*x + l2*y + l3*z)

with natural-number powers and rational rates.  The ring is closed under
addition, multiplication, partial differentiation and (restricted)
substitution, and zero-testing is exact: an element is zero iff its term
map is empty.  Values are immutable after construction and safe to share.

A monomial is the tuple (reversed rates, reversed powers), its own sort key,
so tuple's `==`, `hash` and `<` are the ring's, and they run in C on term-map
lookups, echelon keys and sorts.  That `<` is the engine's one term order:
printed terms, echelon pivots and basis order all follow it, and keys such as
(component, monomial) compare natively.  Rates without an exponential factor
are the shared int zeros (0,)*n and integral rates are ints, so only a
fractional rate hashes in Python; the `rates` property gives Fractions back.
Every monomial the ring or a bracket makes stores its rates through one
helper, _stored_rates, also where fractional rates sum to an integer.

The public constructors ExpMonomial(...) and ExpPoly(...) validate their
input: a power that is not an int, or a rate or coefficient that is not an
int or Fraction (a float, say), is a TypeError.  Values the ring builds itself
(sums, negatives, products, derivatives, restrictions) are canonical by
construction and skip that re-validation.  Products of term maps go through
one multiply-accumulate helper, mul_add, which ExpPoly.__mul__ and
VectorField.apply share.  Brackets multiply no term maps: they sum the
half formula fields.monomial_half.  Sparse vectors have one of their own,
_axpy, which the row bracket and every elimination share.

Contexts with one or two variables use shorter tuples; the ring code only
cares about tuple length.  An ExpPoly prints over DEFAULT_NAMES.

The module holds no mutable state.  Products are never truncated and the ring
sets no degree limit of its own: close() bounds the total degree of every
field that enters a closure (its cap_degree).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Any, Iterable, Mapping, Sequence, Union

from .errors import ContextMismatch, SubstitutionOutsideRing

Q = Fraction
Scalar = Union[int, Fraction]

DEFAULT_NAMES = ("x", "y", "z")

# the shared rates of a monomial without an exponential factor, by nvars
_ZEROS = tuple((0,) * n for n in range(4))
_new = tuple.__new__


def _stored_rates(rates: tuple) -> tuple:
    """Rates as a monomial stores them: the shared zeros when all vanish,
    else ints where a rate is integral, so that a sum of fractional rates
    such as 1/2 + 1/2 stores the int 1."""
    if not any(rates):
        return _ZEROS[len(rates)]
    return tuple(r.numerator if r.denominator == 1 else r for r in rates)


def _rational(value: object, what: str) -> Scalar:
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} {value!r} is not an int or Fraction")
    return value


class ExpMonomial(tuple):
    """One term shape: powers per variable plus exponential rates per variable.

    The value is its own sort key, the tuple (reversed rates, reversed
    powers): equal iff powers and rates are, and `<` is the engine's term
    order, later variables more significant (1 < x < x^2 < y < x*y < y^2 ...).
    The properties read the stored tuple back, the rates as Fractions.
    """

    __slots__ = ()

    def __new__(cls, powers: Sequence[int], rates: Sequence[Scalar]) -> "ExpMonomial":
        powers, rates = tuple(powers), tuple(rates)
        if len(powers) != len(rates):
            raise ValueError("powers and rates must have the same length")
        if not 1 <= len(powers) <= 3:
            raise ValueError("the engine supports 1 to 3 variables")
        for a in powers:
            if not isinstance(a, int):
                raise TypeError(f"power {a!r} is not an int")
            if a < 0:
                raise ValueError("powers must be natural numbers")
        for r in rates:
            _rational(r, "rate")
        return _new(cls, (_stored_rates(rates[::-1]), powers[::-1]))

    def __reduce__(self):
        return ExpMonomial, (self.powers, self.rates)

    def __repr__(self) -> str:
        return f"ExpMonomial(powers={self.powers!r}, rates={self.rates!r})"

    @property
    def powers(self) -> tuple[int, ...]:
        return self[1][::-1]

    @property
    def rates(self) -> tuple[Fraction, ...]:
        return tuple(map(Q, reversed(self[0])))

    @property
    def has_exp(self) -> bool:
        return any(self[0])

    @property
    def nvars(self) -> int:
        return len(self[1])

    @property
    def degree(self) -> int:
        return sum(self[1])

    @property
    def is_constant(self) -> bool:
        return not (any(self[0]) or any(self[1]))


def _poly(nvars: int, terms: dict) -> "ExpPoly":
    """Wrap a term map the ring built itself: nonzero Fraction coefficients
    on monomials over nvars variables.  The map is owned by the result."""
    p = object.__new__(ExpPoly)
    p.nvars = nvars
    p._terms = terms
    return p


def mul_add(out: dict, a: "ExpPoly", b: "ExpPoly") -> None:
    """out += a * b on a term map, dropping exact zeros.

    Rates are added only when both factors carry an exponential factor."""
    if not b._terms:
        return
    get = out.get
    zeros = _ZEROS[a.nvars]
    b_terms = b._terms.items()
    for (r1, p1), c1 in a._terms.items():
        for (r2, p2), c2 in b_terms:
            # the shared zeros mark a factor without exp; any other zero
            # rates still come out right through the sum below
            if r2 is zeros:
                rates = r1
            elif r1 is zeros:
                rates = r2
            else:
                rates = _stored_rates(tuple(map(add, r1, r2)))
            mono = _new(ExpMonomial, (rates, tuple(map(add, p1, p2))))
            acc = get(mono)
            if acc is None:
                out[mono] = c1 * c2
            else:
                acc += c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]


def _add_term(out: dict, mono: ExpMonomial, coeff: Fraction) -> None:
    """out[mono] += coeff for a nonzero coeff, dropping an exact zero."""
    acc = out.get(mono)
    if acc is None:
        out[mono] = coeff
    else:
        acc += coeff
        if acc:
            out[mono] = acc
        else:
            del out[mono]


def _axpy(dst: dict, src: Mapping, scale: Any) -> None:
    """dst += scale * src, dropping exact zeros; integer rows with an int
    scale stay int, so elimination and Fraction combinations share it."""
    for key, coeff in src.items():
        acc = dst.get(key, 0) + scale * coeff
        if acc:
            dst[key] = acc
        else:
            dst.pop(key, None)


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
                if not isinstance(mono, ExpMonomial):
                    raise TypeError(f"term key {mono!r} is not an ExpMonomial")
                if mono.nvars != nvars:
                    raise ContextMismatch(
                        f"monomial over {mono.nvars} variables in a {nvars}-variable element"
                    )
                c = Q(_rational(coeff, "coefficient"))
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
        return cls.monomial((0,) * nvars, (0,) * nvars, value)

    @classmethod
    def var(cls, nvars: int, index: int) -> "ExpPoly":
        powers = [0] * nvars
        powers[index] = 1
        return cls.monomial(powers, (0,) * nvars)

    @classmethod
    def monomial(
        cls,
        powers: Sequence[int],
        rates: Sequence[Scalar],
        coeff: Scalar = 1,
    ) -> "ExpPoly":
        mono = ExpMonomial(powers, rates)
        return cls(mono.nvars, {mono: coeff})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_polynomial(self) -> bool:
        """True when no term carries an exponential factor."""
        return not any(any(rates) for rates, _ in self._terms)

    @property
    def is_constant(self) -> bool:
        return all(m.is_constant for m in self._terms)

    @property
    def degree(self) -> int:
        """Max total polynomial degree over the terms; -1 for the zero element."""
        return max((sum(powers) for _, powers in self._terms), default=-1)

    def degree_in(self, index: int) -> int:
        """Max power of one variable over the terms; -1 for the zero element."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        k = -1 - index  # position in the reversed powers
        return max((powers[k] for _, powers in self._terms), default=-1)

    def depends_only_on(self, indices: Iterable[int]) -> bool:
        """True when every power and rate outside `indices` is zero."""
        allowed = set(indices)
        outside = [-1 - i for i in range(self.nvars) if i not in allowed]
        for rates, powers in self._terms:
            for k in outside:
                if powers[k] or rates[k]:
                    return False
        return True

    def sorted_terms(self) -> list[tuple[ExpMonomial, Fraction]]:
        return sorted(self._terms.items())

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
        if not isinstance(other, ExpPoly):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            _add_term(out, mono, coeff)
        return _poly(self.nvars, out)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ExpPoly":
        return _poly(self.nvars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "ExpPoly | Scalar") -> "ExpPoly":
        if isinstance(other, (int, Fraction)):
            s = Q(other)
            if not s:
                return ExpPoly.zero(self.nvars)
            return _poly(self.nvars, {m: c * s for m, c in self._terms.items()})
        if not isinstance(other, ExpPoly):
            return NotImplemented
        self._check(other)
        out: dict[ExpMonomial, Fraction] = {}
        mul_add(out, self, other)
        return _poly(self.nvars, out)

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
        k = -1 - index  # position in the reversed powers and rates
        out: dict[ExpMonomial, Fraction] = {}
        for m, c in self._terms.items():
            rates, powers = m
            a = powers[k]
            if a:
                lowered = list(powers)
                lowered[k] = a - 1
                _add_term(out, _new(ExpMonomial, (rates, tuple(lowered))), c * a)
            rate = rates[k]
            if rate:
                _add_term(out, m, c * rate)
        return _poly(self.nvars, out)

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
        if not 1 <= len(indices) <= 3:
            raise ValueError("the engine supports 1 to 3 variables")
        kept = [-1 - i for i in reversed(indices)]  # positions in the reversed tuples
        zeros = _ZEROS[len(kept)]
        out: dict[ExpMonomial, Fraction] = {}
        for (rates, powers), c in self._terms.items():
            rates = tuple(rates[k] for k in kept) if any(rates) else zeros
            out[_new(ExpMonomial, (rates, tuple(powers[k] for k in kept)))] = c
        return _poly(len(kept), out)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self, DEFAULT_NAMES[: self.nvars])

    def __repr__(self) -> str:
        return f"ExpPoly({self!s})"


def format_linform(rates: Sequence[Scalar], names: Sequence[str]) -> str:
    """Render a Q-linear form, e.g. '2*x+y-3/2*z'; compact, no spaces.  An
    int rate is written as the equal Fraction would be."""
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
    """Magnitude text of one term plus its sign; `tail` appends a basis symbol.
    The magnitude is written first, from the numerator and denominator, as
    str(abs(coeff)) spells it, with no Fraction arithmetic, and left out
    when it is 1 and anything follows.  Powers and rates are read from the
    stored (rates, powers) tuple, reversed, with no Fraction made of a rate."""
    num, den = coeff.numerator, coeff.denominator
    mag = -num if num < 0 else num
    parts = [f"{mag}/{den}"] if den != 1 else [] if mag == 1 else [str(mag)]
    rates, powers = mono
    for name, a in zip(names, powers[::-1]):
        if a == 1:
            parts.append(name)
        elif a > 1:
            parts.append(f"{name}^{a}")
    if any(rates):
        parts.append(f"exp({format_linform(rates[::-1], names)})")
    if tail:
        parts.append(tail)
    return num < 0, "*".join(parts) or "1"


def join_terms(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, text) pairs from term_text as 'a + b - c'; '0' if none."""
    out = ""
    for negative, text in terms:
        if not out:
            out = ("-" if negative else "") + text
        else:
            out += (" - " if negative else " + ") + text
    return out or "0"


def format_poly(p: ExpPoly, names: Sequence[str]) -> str:
    """Canonical text form; re-parses to an equal element."""
    return join_terms(term_text(coeff, mono, names) for mono, coeff in p.sorted_terms())
