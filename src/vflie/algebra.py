"""Bracket closure and structural analysis of finite-dimensional Lie algebras
of vector fields.

close() generates the smallest bracket-closed subspace containing a finite
set of fields.  The resulting LieAlgebra holds the canonical reduced
row-echelon basis of that span (ordered by pivot key, hence independent of
generator order) together with the exact structure-constant tensor, and all
queries (center, series, projections, adjoints, quotients) are exact and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence, Union

from .errors import (
    ClosureCapExceeded,
    ContextMismatch,
    InternalInvariantViolation,
    NotAnIdeal,
    NotInSpan,
    ProjectionHypothesisViolated,
)
from .fields import VariableContext, VectorField
from .linalg import (
    ZERO,
    EchelonBasis,
    Q,
    SparseVector,
    coordinatize,
    echelon_of,
    generic_rank,
    null_space,
    to_dense,
    to_sparse,
    uncoordinatize,
)

DEFAULT_CAP_DIM = 64
DEFAULT_CAP_ROUNDS = 32
DEFAULT_CAP_DEGREE = 64

IdealLike = Union[Sequence[int], Sequence[VectorField], Sequence[Sequence[Fraction]]]
Tensor = dict[tuple[int, int], dict[int, Fraction]]  # (i, j), i < j -> nonzero coords of [e_i, e_j]


def center_of_tensor(
    tensor: Mapping[tuple[int, int], Mapping[int, Fraction]], dim: int
) -> list[list[Fraction]]:
    """Center of the algebra with structure constants `tensor`, as the
    canonical null space of the stacked adjoint maps.

    `tensor` maps (a, b) with a < b to the coordinates of [e_a, e_b].  Column
    a of the stacked maps is ad(e_a) keyed by (b, c), so the center is every
    x with sum_a x_a c(a, b, c) = 0 for all b and c.
    """
    columns: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(dim)]
    for (a, b), comps in tensor.items():
        for c, coeff in comps.items():
            columns[a][b, c] = coeff
            columns[b][a, c] = -coeff
    return null_space(columns)


def close(
    generators: Sequence[VectorField],
    *,
    cap_dim: int = DEFAULT_CAP_DIM,
    cap_rounds: int = DEFAULT_CAP_ROUNDS,
    cap_degree: int = DEFAULT_CAP_DEGREE,
) -> "LieAlgebra":
    """Bracket closure of a generating set, with its structure tensor.

    Worklist over unordered basis pairs, processed in deterministic rounds;
    rows dirtied by echelon reduction are re-paired, so on termination the
    last bracket of every pair was taken on the final basis, and `nonzero`
    holds the pairs whose bracket is nonzero: only those are bracketed again
    to build the tensor.  Raises ClosureCapExceeded when the dimension
    passes cap_dim, the worklist is open after cap_rounds rounds, or a field
    entering the span has total degree above cap_degree.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    if cap_dim <= 0 or cap_rounds <= 0 or cap_degree <= 0:
        raise ValueError("caps must be positive")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatch("generators belong to different contexts")

    echelon = EchelonBasis()
    fields: list[VectorField] = []
    pending: set[tuple[int, int]] = set()
    nonzero: set[tuple[int, int]] = set()
    batch: list[tuple[int, int]] = []  # rest of the current round, last pair first
    rounds = 0

    def cap_error(cap: str, limit: int, detail: str = "") -> ClosureCapExceeded:
        left = len(pending.union(batch))
        return ClosureCapExceeded(cap, limit, len(echelon), rounds, left, detail)

    def add(field: VectorField) -> None:
        degree = max(c.degree for c in field.comps)
        if degree > cap_degree:
            raise cap_error("cap_degree", cap_degree, f" by a field of degree {degree}")
        result = echelon.insert(coordinatize(field))
        if not result.independent:
            return
        new = len(echelon) - 1
        fields.append(uncoordinatize(echelon.rows[-1], ctx))
        pending.update((k, new) for k in range(new))
        for d in result.dirtied:
            fields[d] = uncoordinatize(echelon.rows[d], ctx)
            pending.update((min(d, k), max(d, k)) for k in range(len(echelon)) if k != d)
        if len(echelon) > cap_dim:
            raise cap_error("cap_dim", cap_dim)

    for g in gens:
        add(g)

    while pending:
        if rounds == cap_rounds:
            raise cap_error("cap_rounds", cap_rounds)
        rounds += 1
        batch = sorted(pending, reverse=True)
        pending.clear()
        while batch:
            i, j = batch.pop()
            w = fields[i].bracket(fields[j])
            if w.is_zero:
                nonzero.discard((i, j))
            else:
                nonzero.add((i, j))
                add(w)

    order = echelon.order()
    position = {row: p for p, row in enumerate(order)}
    basis = tuple(fields[i] for i in order)
    structure: Tensor = {}
    for a, b in sorted(tuple(sorted((position[i], position[j]))) for i, j in nonzero):
        try:
            coeffs = echelon.express(coordinatize(basis[a].bracket(basis[b])))
        except NotInSpan:
            raise InternalInvariantViolation(
                "bracket of basis elements escapes the span; closure is broken"
            ) from None
        structure[(a, b)] = {p: coeffs[row] for p, row in enumerate(order) if coeffs[row]}
    return LieAlgebra(ctx, basis, structure)


@dataclass(frozen=True)
class SeriesReport:
    """Dimensions of one descending series until stabilization."""

    kind: str  # "lower-central" | "derived"
    dims: tuple[int, ...]
    terminated_at_zero: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dims": list(self.dims),
            "terminated_at_zero": self.terminated_at_zero,
        }


@dataclass(frozen=True)
class Projection:
    """Component-dropping homomorphism with its image algebra and kernel."""

    source: "LieAlgebra"
    kept: tuple[int, ...]
    image: "LieAlgebra"
    kernel_basis: tuple[VectorField, ...]
    kernel_coeffs: tuple[tuple[Fraction, ...], ...]

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_basis)

    def to_dict(self) -> dict:
        return {
            "kept": [self.source.ctx.names[i] for i in self.kept],
            "dim": self.source.dim,
            "image": {
                "variables": list(self.image.ctx.names),
                "basis": [str(b) for b in self.image.basis],
                "dim": self.image.dim,
            },
            "kernel": [str(k) for k in self.kernel_basis],
            "kernel_dim": self.kernel_dim,
        }


@dataclass(frozen=True)
class QuotientStructure:
    """Structure constants of L/ideal on representatives e_r, r in rep_indices."""

    rep_indices: tuple[int, ...]
    tensor: dict  # (a, b) with a < b -> {c: Fraction}, indices into rep_indices

    @property
    def dim(self) -> int:
        return len(self.rep_indices)

    def to_dict(self) -> dict:
        entries = []
        for (a, b), comps in sorted(self.tensor.items()):
            for c, coeff in sorted(comps.items()):
                entries.append([a, b, c, str(coeff)])
        return {"rep_indices": list(self.rep_indices), "structure": entries}


class LieAlgebra:
    """Closed algebra: canonical echelon basis plus exact structure tensor.

    close() builds both.  The constructor checks that the basis is reduced
    echelon and takes `structure` as given, with no zero bracket in it.
    """

    def __init__(self, ctx: VariableContext, basis: Sequence[VectorField], structure: Tensor):
        self.ctx = ctx
        self.basis = tuple(basis)
        self._echelon = EchelonBasis()
        for b in self.basis:
            result = self._echelon.insert(coordinatize(b))
            if not result.independent or result.dirtied:
                raise InternalInvariantViolation("basis is not reduced echelon")
        self.structure = structure
        # ad tables: self._ad[i][j] is [e_i, e_j] in basis coordinates
        self._ad: list[dict[int, SparseVector]] = [{} for _ in range(self.dim)]
        for (i, j), comps in self.structure.items():
            self._ad[i][j] = comps
            self._ad[j][i] = {k: -c for k, c in comps.items()}
        self._center_coeffs: list[list[Fraction]] | None = None
        self._series: dict[str, SeriesReport] = {}

    # -- basics --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def c(self, i: int, j: int, k: int) -> Fraction:
        """Structure constant: coefficient of e_k in [e_i, e_j]."""
        return self._ad[i].get(j, {}).get(k, ZERO)

    def _bracket(self, u: Mapping[int, Fraction], w: Mapping[int, Fraction]) -> SparseVector:
        """[u, w] for sparse basis coordinates, summed over the ad tables."""
        out: SparseVector = {}
        for i, a in u.items():
            ad_i = self._ad[i]
            for j, b in w.items():
                col = ad_i.get(j)
                if col:
                    ab = a * b
                    for k, c in col.items():
                        out[k] = out.get(k, ZERO) + ab * c
        return {k: c for k, c in out.items() if c}

    def bracket_coeffs(
        self, u: Sequence[Fraction], w: Sequence[Fraction]
    ) -> list[Fraction]:
        """[u, w] in basis coordinates, computed on the structure tensor.

        Dense form of _bracket; no engine code calls it, and it remains for
        the tests and the benchmark tracer.
        """
        return to_dense(self._bracket(to_sparse(u), to_sparse(w)), self.dim)

    def element(self, coeffs: Sequence[Fraction]) -> VectorField:
        out = self.ctx.field([self.ctx.zero_poly()] * self.ctx.nvars)
        for c, b in zip(coeffs, self.basis):
            if c:
                out = out + b * Q(c)
        return out

    def express(self, field: VectorField) -> list[Fraction]:
        """Coordinates of a field over the basis; raises NotInSpan otherwise."""
        if field.ctx != self.ctx:
            raise ContextMismatch("field belongs to a different context")
        return self._echelon.express(coordinatize(field))

    def contains(self, field: VectorField) -> bool:
        if field.ctx != self.ctx:
            raise ContextMismatch("field belongs to a different context")
        return self._echelon.contains(coordinatize(field))

    def _coeffs_of(self, v: Union[VectorField, Sequence[Fraction]]) -> list[Fraction]:
        if isinstance(v, VectorField):
            return self.express(v)
        coeffs = [Q(c) for c in v]
        if len(coeffs) != self.dim:
            raise ValueError("coefficient vector has the wrong length")
        return coeffs

    # -- center ---------------------------------------------------------------

    def center_coeffs(self) -> list[list[Fraction]]:
        """Null space of the stacked adjoint maps, in basis coordinates."""
        if self._center_coeffs is None:
            self._center_coeffs = center_of_tensor(self.structure, self.dim)
        return self._center_coeffs

    def center(self) -> list[VectorField]:
        return [self.element(v) for v in self.center_coeffs()]

    # -- series and flags -------------------------------------------------------

    def series(self, kind: str) -> SeriesReport:
        """Lower-central (g, [g,g^k]) or derived (g^(k), [g^(k),g^(k)]) dims, cached."""
        if kind not in ("lower-central", "derived"):
            raise ValueError("kind must be 'lower-central' or 'derived'")
        if kind not in self._series:
            self._series[kind] = self._compute_series(kind)
        return self._series[kind]

    def _compute_series(self, kind: str) -> SeriesReport:
        units = [{i: Q(1)} for i in range(self.dim)]
        dims = [self.dim]
        current = units
        terminated = self.dim == 0
        while dims[-1] > 0:
            if kind == "lower-central":
                pairs = ((u, w) for u in units for w in current)
            else:
                pairs = combinations(current, 2)
            nxt = echelon_of(self._bracket(u, w) for u, w in pairs)
            if len(nxt) == dims[-1]:
                break  # stabilized above zero
            dims.append(len(nxt))
            current = nxt.rows
            if not nxt:
                terminated = True
        return SeriesReport(kind, tuple(dims), terminated)

    def is_abelian(self) -> bool:
        return not self.structure

    def is_nilpotent(self) -> bool:
        return self.series("lower-central").terminated_at_zero

    def is_solvable(self) -> bool:
        return self.series("derived").terminated_at_zero

    # -- projection ---------------------------------------------------------------

    def project(self, kept: Sequence[Union[int, str]]) -> Projection:
        """Drop the complementary components; verifies the block hypothesis.

        Requires every component of every basis element to depend only on the
        kept variables (this is what makes the dropped part an abelian ideal
        and the kept part a homomorphic image).
        """
        indices = sorted(
            self.ctx.index(k) if isinstance(k, str) else int(k) for k in kept
        )
        if not indices or len(set(indices)) != len(indices):
            raise ValueError("kept variables must be a nonempty distinct subset")
        if not all(0 <= i < self.ctx.nvars for i in indices):
            raise ValueError("kept variable index out of range")
        if len(indices) == self.ctx.nvars:
            raise ValueError("at least one variable must be dropped")
        for b in self.basis:
            for ci, comp in enumerate(b.comps):
                if not comp.depends_only_on(indices):
                    raise ProjectionHypothesisViolated(
                        f"component {self.ctx.names[ci]} of basis element '{b}' "
                        "depends on a dropped variable"
                    )
        sub_ctx = VariableContext(tuple(self.ctx.names[i] for i in indices))
        images = []
        for b in self.basis:
            comps = tuple(b.comps[i].restrict(indices) for i in indices)
            f = VectorField(sub_ctx, comps)
            if not f.is_zero:
                images.append(f)
        if images:
            # the image of a closed algebra has at most its dimension and degree
            degree = max(c.degree for b in self.basis for c in b.comps)
            image = close(images, cap_dim=self.dim, cap_degree=max(degree, 1))
        else:
            image = LieAlgebra(sub_ctx, (), {})
        # kernel: combinations of basis elements with vanishing kept components
        zero = self.ctx.zero_poly()
        kernel_coeffs = null_space([
            coordinatize(self.ctx.field([c if i in indices else zero for i, c in enumerate(b.comps)]))
            for b in self.basis
        ])
        kernel_fields = tuple(self.element(v) for v in kernel_coeffs)
        if image.dim + len(kernel_fields) != self.dim:
            raise InternalInvariantViolation("projection dimension identity failed")
        return Projection(
            self,
            tuple(indices),
            image,
            kernel_fields,
            tuple(tuple(v) for v in kernel_coeffs),
        )

    # -- ideals and quotients --------------------------------------------------------

    def ideal_subspace(self, ideal: IdealLike) -> EchelonBasis:
        """Span of an ideal given as basis indices, fields, or coefficient
        vectors, as an integer-key echelon basis (not yet verified)."""
        items = list(ideal)
        if not items:
            raise ValueError("ideal must be nonempty")
        vecs: list[SparseVector] = []
        for item in items:
            if isinstance(item, VectorField):
                vecs.append(to_sparse(self.express(item)))
            elif isinstance(item, int):
                if not 0 <= item < self.dim:
                    raise ValueError(f"basis index {item} out of range")
                vecs.append({item: Q(1)})
            else:
                vecs.append(to_sparse(self._coeffs_of(item)))
        return echelon_of(vecs)

    def verify_ideal(self, ideal: IdealLike) -> EchelonBasis:
        """Span of the ideal; raises NotAnIdeal unless [L, ideal] lies in it."""
        span = self.ideal_subspace(ideal)
        for i in range(self.dim):
            for w in span.rows:
                if not span.contains(self._bracket({i: Q(1)}, w)):
                    raise NotAnIdeal(
                        f"[{self.basis[i]}, ideal] is not contained in the ideal"
                    )
        return span

    def quotient_structure(self, ideal: IdealLike) -> QuotientStructure:
        """Structure constants of L/ideal on the complementary basis lines."""
        return self._quotient_by(self.verify_ideal(ideal))

    def _quotient_by(self, span: EchelonBasis) -> QuotientStructure:
        """quotient_structure for an ideal already verified as `span`."""
        pivots = set(span.pivots)
        reps = tuple(i for i in range(self.dim) if i not in pivots)
        position = {rep: c for c, rep in enumerate(reps)}
        tensor: Tensor = {}
        for a, b in combinations(range(len(reps)), 2):
            reduced, _ = span.reduce(self._bracket({reps[a]: Q(1)}, {reps[b]: Q(1)}))
            if reduced:
                tensor[(a, b)] = {position[k]: c for k, c in sorted(reduced.items())}
        return QuotientStructure(reps, tensor)

    # -- reporting -----------------------------------------------------------------

    def report(self) -> dict:
        """JSON-ready structural report with a stable key order.

        A nilpotent algebra is solvable, so the derived series is computed
        only when the lower-central series stops above zero.
        """
        center_fields = self.center()
        nilpotent = self.is_nilpotent()
        entries = []
        for (i, j), comps in sorted(self.structure.items()):
            for k, coeff in sorted(comps.items()):
                entries.append([i, j, k, str(coeff)])
        return {
            "variables": list(self.ctx.names),
            "basis": [str(b) for b in self.basis],
            "dim": self.dim,
            "structure": entries,
            "nilpotent": nilpotent,
            "solvable": nilpotent or self.is_solvable(),
            "abelian": self.is_abelian(),
            "center": [str(v) for v in center_fields],
            "generic_rank": generic_rank(self.basis),
            "center_rank": generic_rank(center_fields),
        }
