"""Shared helpers: seeded random generators and independent oracles.

The oracles here deliberately avoid the engine's own code paths: the naive
polynomial oracle works on raw term lists, and the dense rank oracle is a
fresh Gaussian elimination, so cross-checks stay two-route.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from vflie import DEFAULT_CONTEXT, ExpPoly, VariableContext, VectorField
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
