"""Exact arithmetic in the coefficient ring Q[x,y,z] * exp(Q-linear forms).

An element is a finite Q-linear combination of terms

    c * x^a * y^b * z^e * exp(l1*x + l2*y + l3*z)

with natural-number powers and rational rates.  The ring is closed under
addition, multiplication, partial differentiation and (restricted)
substitution, and zero-testing is exact: an element is zero iff its term
map is empty.  Values are immutable after construction and safe to share.

A monomial computes its hash once, when it is constructed, so term maps keyed
by monomials never rehash their rational rates.  The public constructors
ExpMonomial(...) and ExpPoly(...) validate their input; values the ring builds
itself (sums, negatives, products, derivatives, restrictions) are canonical by
construction and skip that re-validation.  Products of term maps go through
one multiply-accumulate helper, mul_add, which VectorField.bracket shares.

`<` on ExpMonomial is the engine's one term order (see ExpMonomial.sort_key):
printed terms, echelon pivots and basis order all follow it, and keys such as
(component, monomial) compare natively because monomials do.

Contexts with one or two variables use shorter tuples; the ring code only
cares about tuple length.

The module holds no mutable state.  Products are never truncated and the ring
sets no degree limit of its own: close() bounds the total degree of every
field that enters a closure (its cap_degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .errors import ContextMismatch, SubstitutionOutsideRing

Q = Fraction
Scalar = Union[int, Fraction]


@dataclass(frozen=True, eq=False)
class ExpMonomial:
    """One term shape: powers per variable plus exponential rates per variable.

    Two monomials are equal iff powers and rates are componentwise equal;
    `<` is the global total order of sort_key (lexicographic on reversed
    rates, then reversed powers) and the canonical term order everywhere in
    the engine.  has_exp and the hash are fixed at construction; equality
    tests the hashes first.
    """

    __slots__ = ("powers", "rates", "has_exp", "_hash")

    powers: tuple[int, ...]
    rates: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.powers) != len(self.rates):
            raise ValueError("powers and rates must have the same length")
        if any(p < 0 for p in self.powers):
            raise ValueError("powers must be natural numbers")
        _seal(self, self.powers, self.rates, any(self.rates))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ExpMonomial):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.powers == other.powers
            and self.has_exp == other.has_exp
            and (not self.has_exp or self.rates == other.rates)
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "ExpMonomial") -> bool:
        if not isinstance(other, ExpMonomial):
            return NotImplemented
        if not (self.has_exp or other.has_exp):  # equal (zero) rates
            return self.powers[::-1] < other.powers[::-1]
        return self.sort_key() < other.sort_key()

    def __reduce__(self):
        return ExpMonomial, (self.powers, self.rates)

    @property
    def nvars(self) -> int:
        return len(self.powers)

    @property
    def degree(self) -> int:
        return sum(self.powers)

    @property
    def is_constant(self) -> bool:
        return not any(self.powers) and not self.has_exp

    def sort_key(self):
        # later variables are more significant: 1 < x < x^2 < y < x*y < y^2 ...
        return (tuple(reversed(self.rates)), tuple(reversed(self.powers)))


_new = object.__new__
_set = object.__setattr__


def _seal(m: ExpMonomial, powers: tuple, rates: tuple, has_exp: bool) -> ExpMonomial:
    # a monomial without an exponential factor hashes its powers alone, so the
    # ring never hashes the zero rates it multiplies polynomials with
    _set(m, "powers", powers)
    _set(m, "rates", rates)
    _set(m, "has_exp", has_exp)
    _set(m, "_hash", hash((powers, rates)) if has_exp else hash(powers))
    return m


def _monomial(powers: tuple, rates: tuple, has_exp: bool) -> ExpMonomial:
    """A monomial the ring built itself: natural powers, has_exp == any(rates)."""
    return _seal(_new(ExpMonomial), powers, rates, has_exp)


def _poly(nvars: int, terms: dict) -> "ExpPoly":
    """Wrap a term map the ring built itself: nonzero Fraction coefficients
    on monomials over nvars variables.  The map is owned by the result."""
    p = _new(ExpPoly)
    p.nvars = nvars
    p._terms = terms
    return p


def mul_add(out: dict, a: "ExpPoly", b: "ExpPoly", sign: int = 1) -> None:
    """out += sign * a * b on a term map, dropping exact zeros; sign is 1 or -1.

    Rates are added only when both factors carry an exponential factor."""
    if not b._terms:
        return
    get = out.get
    b_terms = b._terms.items()
    for m1, c1 in a._terms.items():
        if sign < 0:
            c1 = -c1
        p1, r1, e1 = m1.powers, m1.rates, m1.has_exp
        for m2, c2 in b_terms:
            powers = tuple(map(add, p1, m2.powers))
            if not m2.has_exp:
                mono = _monomial(powers, r1, e1)
            elif not e1:
                mono = _monomial(powers, m2.rates, True)
            else:
                rates = tuple(map(add, r1, m2.rates))
                mono = _monomial(powers, rates, any(rates))
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
        self._check(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            _add_term(out, mono, coeff)
        return _poly(self.nvars, out)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __neg__(self) -> "ExpPoly":
        return _poly(self.nvars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "ExpPoly | Scalar") -> "ExpPoly":
        if isinstance(other, (int, Fraction)):
            s = Q(other)
            if not s:
                return ExpPoly.zero(self.nvars)
            return _poly(self.nvars, {m: c * s for m, c in self._terms.items()})
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
        out: dict[ExpMonomial, Fraction] = {}
        for m, c in self._terms.items():
            a = m.powers[index]
            if a:
                powers = list(m.powers)
                powers[index] = a - 1
                _add_term(out, _monomial(tuple(powers), m.rates, m.has_exp), c * a)
            rate = m.rates[index]
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
        out: dict[ExpMonomial, Fraction] = {}
        for m, c in self._terms.items():
            mono = _monomial(
                tuple(m.powers[i] for i in indices),
                tuple(m.rates[i] for i in indices),
                m.has_exp,
            )
            out[mono] = c
        return _poly(len(indices), out)

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
