"""Reference arithmetic for the benchmark's correctness checks.

Nothing here calls vflie's ring arithmetic or vflie.linalg.  Fields are read
through their public term maps, brackets are recomputed on plain term
dictionaries, and spans are decided by a fresh Gaussian elimination over
Fractions (modelled on ``oracle_rank`` in tests/conftest.py, but on sparse
rows so that dimension-88 bases stay cheap).  A wrong engine answer therefore
cannot hide behind an oracle built from the same code.
"""

from __future__ import annotations

from fractions import Fraction

# a ring element: (powers, rates) -> nonzero coefficient
Poly = dict
# a field or a coordinate vector: hashable, orderable key -> nonzero coefficient
Vector = dict


def field_terms(field) -> list[Poly]:
    """One term dictionary per component of a vflie VectorField."""
    return [
        {(m.powers, m.rates): c for m, c in comp.term_map().items()}
        for comp in field.comps
    ]


def field_vector(comps: list[Poly]) -> Vector:
    """Flatten component term dictionaries to keys (component, powers, rates)."""
    return {(i, powers, rates): c for i, comp in enumerate(comps) for (powers, rates), c in comp.items()}


def _accumulate(out: dict, key, coeff) -> None:
    total = out.get(key, 0) + coeff
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (pa, ra), ca in a.items():
        for (pb, rb), cb in b.items():
            key = (
                tuple(x + y for x, y in zip(pa, pb)),
                tuple(x + y for x, y in zip(ra, rb)),
            )
            _accumulate(out, key, ca * cb)
    return out


def poly_diff(a: Poly, index: int) -> Poly:
    """d/dx_index of c * x^p * exp(r.x) is c*p_i*x^(p - e_i)*exp(r.x) + c*r_i*x^p*exp(r.x)."""
    out: Poly = {}
    for (powers, rates), c in a.items():
        if powers[index]:
            lowered = list(powers)
            lowered[index] -= 1
            _accumulate(out, (tuple(lowered), rates), c * powers[index])
        if rates[index]:
            _accumulate(out, (powers, rates), c * rates[index])
    return out


def bracket(v: list[Poly], w: list[Poly]) -> list[Poly]:
    """[v, w]_i = sum_j v_j * d_j w_i - w_j * d_j v_i."""
    n = len(v)
    out = []
    for i in range(n):
        acc: Poly = {}
        for j in range(n):
            for key, c in poly_mul(v[j], poly_diff(w[i], j)).items():
                _accumulate(acc, key, c)
            for key, c in poly_mul(w[j], poly_diff(v[i], j)).items():
                _accumulate(acc, key, -c)
        out.append(acc)
    return out


class Span:
    """Row-echelon form of a growing set of vectors over Q.

    Each stored row is scaled to 1 at its pivot, its smallest key, and every
    other key of the row is larger; reducing a vector by the row of its
    smallest key therefore strictly raises that key, so reduction ends.
    """

    def __init__(self, vectors=()) -> None:
        self.rows: dict = {}
        for vec in vectors:
            self.insert(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vector) -> Vector:
        v = {k: Fraction(c) for k, c in vec.items() if c}
        while v:
            done = True
            for key in sorted(v):
                row = self.rows.get(key)
                if row is not None:
                    scale = v[key]
                    for k, c in row.items():
                        _accumulate(v, k, -scale * c)
                    done = False
                    break
            if done:
                return v
        return v

    def insert(self, vec: Vector) -> bool:
        """Add vec; return whether it was independent of the rows so far."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        scale = v[pivot]
        self.rows[pivot] = {k: c / scale for k, c in v.items()}
        return True

    def contains(self, vec: Vector) -> bool:
        return not self.reduce(vec)


def lower_central_dims(dim: int, structure) -> list[int]:
    """Dimensions of g, [g, g], [g, [g, g]], ... from structure constants.

    ``structure`` yields (i, j, k, c) with i < j, meaning that the
    e_k-coefficient of [e_i, e_j] is c.  Stops at 0 or when a term repeats
    its predecessor's dimension (the series has stabilised above 0).
    """
    ad: list[dict] = [dict() for _ in range(dim)]  # ad[i][j] = [e_i, e_j]
    for i, j, k, c in structure:
        c = Fraction(c)
        ad[i].setdefault(j, {})[k] = c
        ad[j].setdefault(i, {})[k] = -c
    dims = [dim]
    current = [{i: Fraction(1)} for i in range(dim)]
    while dims[-1] > 0:
        nxt = Span()
        for i in range(dim):
            for v in current:
                image: Vector = {}
                for j, coeff in v.items():
                    for k, c in ad[i].get(j, {}).items():
                        _accumulate(image, k, coeff * c)
                if image:
                    nxt.insert(image)
        if nxt.rank == dims[-1]:
            break
        dims.append(nxt.rank)
        current = list(nxt.rows.values())
    return dims


def falls_strictly_to_zero(dims: list[int]) -> bool:
    return dims[-1] == 0 and all(a > b for a, b in zip(dims, dims[1:]))
