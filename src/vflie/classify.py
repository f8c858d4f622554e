"""Decision procedures on closed nilpotent algebras.

classify() sorts a nilpotent algebra by the generic rank and dimension of its
center: abelian algebras by rank; nonabelian ones into the center-rank-2
case, the center-rank-1 / dim >= 2 case, or the center-dimension-1 case whose
subcase (a-d) is read off the component-dropping projection when the given
coordinates admit it.  jordan_chains() decomposes an ad-nilpotent operator on
an invariant subspace into its kernel-filtration chains, split_check()
decides split extensions over abelian ideals by an exact linear system (with
an infeasibility certificate when no complement exists), and match_template()
tests a basis against the constructive normal-form shapes in the given
coordinates, never attempting a coordinate change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence, Union

from .algebra import IdealLike, LieAlgebra, center_of_tensor
from .errors import (
    ContextMismatch,
    IdealNotAbelian,
    InternalInvariantViolation,
    NotInvariant,
    NotNilpotent,
    NotNilpotentOperator,
    ProjectionHypothesisViolated,
)
from .fields import VectorField
from .linalg import (
    ZERO,
    EchelonBasis,
    Q,
    SparseVector,
    _axpy,
    echelon_of,
    generic_rank,
    null_space,
    to_dense,
    to_sparse,
)
from .ring import ExpPoly

CASE_CENTER_RANK2 = "CenterRank2"
CASE_CENTER_RANK1_DIMGE2 = "CenterRank1DimGE2"
CASE_CENTER_DIM1 = "CenterDim1"
SUBCASE_UNDETERMINED = "undetermined-in-these-coordinates"

TEMPLATES = (
    "abelian-rank1",
    "abelian-rank2",
    "abelian-rank3",
    "center-rank2",
    "heisenberg",
    "single-chain",
    "nonabelian-projection",
    "abelian-projection",
)


# ---------------------------------------------------------------------------
# classification report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    dim: int
    abelian: bool
    abelian_rank: int | None
    case: str | None
    subcase: str | None
    center_dim: int
    center_rank: int
    evidence: dict

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "abelian": self.abelian,
            "abelian_rank": self.abelian_rank,
            "case": self.case,
            "subcase": self.subcase,
            "center_dim": self.center_dim,
            "center_rank": self.center_rank,
            "evidence": self.evidence,
        }


def _constant_axis(v: VectorField) -> int | None:
    """Index i when v = c * d/dx_i with constant c != 0, else None."""
    axis = None
    for i, comp in enumerate(v.comps):
        if comp.is_zero:
            continue
        if not comp.is_constant:
            return None
        if axis is not None:
            return None
        axis = i
    return axis


def classify(algebra: LieAlgebra) -> ClassificationReport:
    """Sort a closed nilpotent algebra by (generic rank, dimension) of its center."""
    if algebra.ctx.nvars != 3:
        raise ContextMismatch("classification is defined for 3-variable contexts")
    if not algebra.is_nilpotent():
        raise NotNilpotent("classification requires a nilpotent algebra")

    if algebra.is_abelian():
        rank = generic_rank(algebra.basis)
        matched = [name for name in ("abelian-rank1", "abelian-rank2", "abelian-rank3")
                   if match_template(algebra, name).matched]
        return ClassificationReport(
            dim=algebra.dim,
            abelian=True,
            abelian_rank=rank,
            case=None,
            subcase=None,
            center_dim=algebra.dim,
            center_rank=rank,
            evidence={"templates_matched": matched},
        )

    center_fields = algebra.center()
    dz = len(center_fields)
    rz = generic_rank(center_fields)
    evidence: dict = {
        "center": [str(v) for v in center_fields],
        "center_dim": dz,
        "center_rank": rz,
    }
    if rz >= 3:
        raise InternalInvariantViolation(
            "nonabelian nilpotent algebra with center of rank 3: impossible"
        )
    if rz == 2:
        return ClassificationReport(
            algebra.dim, False, None, CASE_CENTER_RANK2, None, dz, rz, evidence
        )
    if dz >= 2:
        return ClassificationReport(
            algebra.dim, False, None, CASE_CENTER_RANK1_DIMGE2, None, dz, rz, evidence
        )

    # center is one-dimensional: read the subcase off the projection that
    # drops the center direction, when the given coordinates allow it
    subcase = SUBCASE_UNDETERMINED
    axis = _constant_axis(center_fields[0])
    if axis is None:
        evidence["undetermined_reason"] = (
            "center is not a constant multiple of a coordinate field in these coordinates"
        )
    else:
        evidence["center_axis"] = algebra.ctx.names[axis]
        kept = [i for i in range(3) if i != axis]
        try:
            proj = algebra.project(kept)
        except ProjectionHypothesisViolated as exc:
            evidence["undetermined_reason"] = str(exc)
        else:
            image = proj.image
            if image.dim == 0:
                raise InternalInvariantViolation(
                    "nonabelian algebra with trivial projection image"
                )
            image_rank = generic_rank(image.basis)
            evidence["image_dim"] = image.dim
            evidence["image_rank"] = image_rank
            evidence["image_abelian"] = image.is_abelian()
            evidence["kernel_dim"] = proj.kernel_dim
            if image_rank == 1:
                # trivial kernel <=> no kernel element of positive degree in
                # the translation direction (kernel elements free of it are central)
                subcase = "a" if proj.kernel_dim == 1 else "b"
            elif not image.is_abelian():
                subcase = "c"
            else:
                subcase = "d"
    return ClassificationReport(
        algebra.dim, False, None, CASE_CENTER_DIM1, subcase, dz, rz, evidence
    )


# ---------------------------------------------------------------------------
# Jordan chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JordanDecomposition:
    """Chains [v, Nv, N^2 v, ...] of N = ad(operator) on an invariant subspace.

    Chain elements jointly form a basis of the subspace; the number of chains
    equals the kernel dimension of the restricted operator; each chain ends
    in a kernel element (its terminal vector).
    """

    operator: VectorField
    ideal_basis: tuple[VectorField, ...]
    chains: tuple[tuple[VectorField, ...], ...]

    @property
    def generators(self) -> tuple[VectorField, ...]:
        return tuple(chain[0] for chain in self.chains)

    @property
    def terminals(self) -> tuple[VectorField, ...]:
        return tuple(chain[-1] for chain in self.chains)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(chain) for chain in self.chains)

    def aligned_heads(self) -> list[tuple[ExpPoly, ...]] | None:
        """Coefficients of each chain head along the terminal directions.

        Defined when all terminals are constant fields, linearly independent,
        and the heads lie in the terminals' pointwise span; returns, per
        chain, one coefficient function per terminal.  Returns None when the
        decomposition does not apply.
        """
        terms = self.terminals
        n = terms[0].ctx.nvars
        # row j is terminal j's constant components, tagged with unknown n + j:
        # reducing a vector over components leaves minus its terminal
        # coordinates on the tags, and nothing below n when it is in the span
        tagged = []
        for j, t in enumerate(terms):
            if not all(c.is_constant for c in t.comps):
                return None
            tagged.append({**to_sparse([c.constant_coefficient() for c in t.comps]), n + j: Q(1)})
        span = echelon_of(tagged)
        if any(pivot >= n for pivot in span.pivots):
            return None  # dependent terminals
        result = []
        for chain in self.chains:
            head = chain[0].comps
            coeffs: list[dict] = [dict() for _ in terms]
            for mono in {m for comp in head for m in comp.term_map()}:
                residual, _ = span.reduce(to_sparse([c.term_map().get(mono, ZERO) for c in head]))
                if any(k < n for k in residual):
                    return None
                for k, c in residual.items():
                    coeffs[k - n][mono] = -c
            result.append(tuple(ExpPoly(n, c) for c in coeffs))
        return result

    def to_dict(self) -> dict:
        return {
            "operator": str(self.operator),
            "ideal": [str(w) for w in self.ideal_basis],
            "chains": [[str(v) for v in chain] for chain in self.chains],
            "chain_lengths": list(self.lengths),
            "kernel_dim": len(self.chains),
        }


def _combination(vectors: Sequence[Mapping[int, Fraction]], coeffs: Mapping[int, Fraction]) -> SparseVector:
    """sum_s coeffs[s] * vectors[s] over sparse integer-key vectors."""
    out: SparseVector = {}
    for s, c in coeffs.items():
        _axpy(out, vectors[s], c)
    return out


def _kernel(columns: Sequence[Mapping[int, Fraction]]) -> list[SparseVector]:
    """Canonical null space of the matrix with these sparse columns."""
    rows: dict[int, SparseVector] = {}
    for s, col in enumerate(columns):
        for t, c in col.items():
            rows.setdefault(t, {})[s] = c
    return [to_sparse(v) for v in null_space(rows.values(), len(columns))]


def jordan_chains(
    algebra: LieAlgebra,
    operator: Union[VectorField, Sequence[Fraction]],
    ideal: IdealLike,
) -> JordanDecomposition:
    """Kernel-filtration chains of ad(operator) restricted to an invariant subspace.

    Deterministic: candidate heads are drawn from the canonical null-space
    bases of the operator powers in decreasing chain length.
    """
    op_coeffs = algebra._coeffs_of(operator)
    op_field = operator if isinstance(operator, VectorField) else algebra.element(op_coeffs)
    op = to_sparse(op_coeffs)
    span = algebra.ideal_subspace(ideal)
    order = span.order()
    position = {row: t for t, row in enumerate(order)}
    rows = [span.rows[i] for i in order]
    m = len(rows)

    # columns of the restricted operator N over the subspace basis
    n_cols: list[SparseVector] = []
    for row in rows:
        residual, coeffs = span.reduce(algebra._bracket(op, row))
        if residual:
            raise NotInvariant("subspace is not invariant under the operator")
        n_cols.append({position[i]: c for i, c in coeffs.items()})

    powers = [n_cols]  # columns of N, N^2, ...; grows until N^p = 0
    while any(powers[-1]):
        if len(powers) > m:
            raise NotNilpotentOperator(
                "adjoint operator is not nilpotent on the subspace"
            )
        powers.append([_combination(n_cols, col) for col in powers[-1]])
    p = len(powers)  # nilpotency index; p = 1 for the zero operator
    null_spaces: dict[int, list[SparseVector]] = {0: []}
    for j in range(1, p + 1):
        null_spaces[j] = _kernel(powers[j - 1])

    chains_vec: list[list[SparseVector]] = []
    for j in range(p, 0, -1):
        # kernel of N^(j-1) plus the carried images at height j
        taken = echelon_of(null_spaces[j - 1])
        for chain in chains_vec:
            taken.insert(chain[len(chain) - j])
        for w in null_spaces[j]:
            if taken.insert(w).independent:
                chain = [w]
                for _ in range(j - 1):
                    chain.append(_combination(n_cols, chain[-1]))
                chains_vec.append(chain)
    if sum(len(c) for c in chains_vec) != m:
        raise InternalInvariantViolation("chain lengths do not sum to the subspace dimension")
    if len(chains_vec) != len(null_spaces[1]):
        raise InternalInvariantViolation("chain count differs from operator kernel dimension")

    def to_field(vec: Mapping[int, Fraction]) -> VectorField:
        return algebra.element(to_dense(vec, algebra.dim))

    ideal_fields = tuple(to_field(r) for r in rows)
    chains = tuple(
        tuple(to_field(_combination(rows, v)) for v in chain) for chain in chains_vec
    )
    return JordanDecomposition(op_field, ideal_fields, chains)


# ---------------------------------------------------------------------------
# one-dimensional ideals of the central quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneDimIdealFamily:
    """Lines in the center of L/Z(L); each line's preimage is a 1-dim-over-center ideal.

    For a nilpotent algebra every one-dimensional ideal of the quotient is a
    central line there (the adjoint action on it is nilpotent, hence zero).
    """

    degenerate: bool
    center_dim: int
    parameter_dim: int
    lifts: tuple[VectorField, ...]

    def to_dict(self) -> dict:
        return {
            "degenerate": self.degenerate,
            "center_dim": self.center_dim,
            "parameter_dim": self.parameter_dim,
            "quotient_center_lifts": [str(v) for v in self.lifts],
            "preimage_dim": None if self.degenerate else self.center_dim + 1,
        }


def one_dim_ideals_mod_center(algebra: LieAlgebra) -> OneDimIdealFamily:
    if algebra.is_abelian():
        return OneDimIdealFamily(True, algebra.dim, algebra.dim, tuple(algebra.basis))
    if not algebra.is_nilpotent():
        raise NotNilpotent("one-dimensional-ideal analysis requires nilpotency")
    center = algebra.center_coeffs()
    quotient = algebra.quotient_structure(center)
    qcenter = center_of_tensor(quotient.tensor, quotient.dim)
    lifts = []
    for vec in qcenter:
        coeffs = [Q(0)] * algebra.dim
        for a, c in enumerate(vec):
            coeffs[quotient.rep_indices[a]] = c
        lifts.append(algebra.element(coeffs))
    return OneDimIdealFamily(False, len(center), len(qcenter), tuple(lifts))


# ---------------------------------------------------------------------------
# split extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintRow:
    pair: tuple[int, int]  # basis indices of the two lifted elements
    coordinate: int  # basis index whose coefficient this row equates
    coeffs: dict  # unknown index -> Fraction
    const: Fraction

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "coordinate": self.coordinate,
            "coeffs": {str(u): str(c) for u, c in sorted(self.coeffs.items())},
            "const": str(self.const),
        }


@dataclass(frozen=True)
class SplitCertificate:
    """Exact infeasible linear system for complement lifts, with the
    contradiction located."""

    unknowns: tuple[dict, ...]  # per unknown: lift basis index + ideal element
    rows: tuple[ConstraintRow, ...]
    conflicts: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "unknowns": list(self.unknowns),
            "rows": [r.to_dict() for r in self.rows],
            "conflicts": list(self.conflicts),
        }


@dataclass(frozen=True)
class SplitVerdict:
    split: bool
    complement: tuple[VectorField, ...] | None
    certificate: SplitCertificate | None

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "complement": None if self.complement is None else [str(v) for v in self.complement],
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
        }


def split_check(algebra: LieAlgebra, ideal: IdealLike) -> SplitVerdict:
    """Decide whether the extension of L/ideal by an abelian ideal splits.

    A complement must have a basis a_i = e_i + k_i with e_i spanning a fixed
    complement of the ideal and k_i unknown in the ideal; closing under
    brackets with the quotient structure constants is a linear condition
    because the ideal is abelian.  Returns a verified complement or the
    infeasible system with the contradictory rows identified.
    """
    span = algebra.verify_ideal(ideal)
    rows = span.rows_sorted()
    for u, w in combinations(rows, 2):
        if algebra._bracket(u, w):
            raise IdealNotAbelian(
                "split check requires an abelian ideal (linear lift system)"
            )
    quotient = algebra._quotient_by(span)
    reps = quotient.rep_indices
    q, m = len(reps), len(rows)
    units = [{rep: Q(1)} for rep in reps]
    bracket_lift_ideal = [[algebra._bracket(unit, row) for row in rows] for unit in units]

    ideal_names = [str(algebra.element(to_dense(row, algebra.dim))) for row in rows]
    unknowns = tuple(
        {"lift": reps[a], "ideal_index": t, "ideal_element": ideal_names[t]}
        for a in range(q)
        for t in range(m)
    )

    def u_index(a: int, t: int) -> int:
        return a * m + t

    raw_rows: list[ConstraintRow] = []
    for a, b in combinations(range(q), 2):
        mu = quotient.tensor.get((a, b), {})
        const = algebra._bracket(units[a], units[b])
        for c, coeff in mu.items():
            _axpy(const, units[c], -coeff)
        # per unknown, its coefficient in each coordinate of the closure condition
        coeff_vecs: dict[int, SparseVector] = {}
        for t in range(m):
            _axpy(coeff_vecs.setdefault(u_index(b, t), {}), bracket_lift_ideal[a][t], Q(1))
            _axpy(coeff_vecs.setdefault(u_index(a, t), {}), bracket_lift_ideal[b][t], Q(-1))
            for c, coeff in mu.items():
                _axpy(coeff_vecs.setdefault(u_index(c, t), {}), rows[t], -coeff)
        for k in sorted(set(const).union(*coeff_vecs.values())):
            coeffs = {u: vec[k] for u, vec in coeff_vecs.items() if k in vec}
            raw_rows.append(ConstraintRow((reps[a], reps[b]), k, coeffs, const.get(k, ZERO)))

    # one echelon of the augmented rows [coeffs | -const]: a pivot in the
    # constant column means the system is inconsistent
    nunk = q * m
    system = echelon_of({**row.coeffs, nunk: -row.const} for row in raw_rows)
    solution = {pivot: row.get(nunk, ZERO) for row, pivot in zip(system.rows, system.pivots)}
    if nunk not in solution and all(
        sum(c * solution.get(u, ZERO) for u, c in row.coeffs.items()) == -row.const
        for row in raw_rows
    ):
        complement = []
        for a in range(q):
            lift = _combination(rows, {t: solution.get(u_index(a, t), ZERO) for t in range(m)})
            _axpy(lift, units[a], Q(1))
            complement.append(algebra.element(to_dense(lift, algebra.dim)))
        _verify_complement(algebra, complement, span)
        return SplitVerdict(True, tuple(complement), None)

    conflicts: list[dict] = []
    singles: dict[int, list[tuple[int, Fraction]]] = {}
    for r, row in enumerate(raw_rows):
        if not row.coeffs and row.const:
            conflicts.append({"kind": "constant-row", "row_indices": [r]})
        elif len(row.coeffs) == 1:
            (u, c), = row.coeffs.items()
            singles.setdefault(u, []).append((r, -row.const / c))
    for u, entries in sorted(singles.items()):
        values = {v for _, v in entries}
        if len(values) > 1:
            conflicts.append(
                {
                    "kind": "singleton-pair",
                    "unknown": u,
                    "row_indices": [r for r, _ in entries],
                    "values": [str(v) for _, v in entries],
                }
            )
    if not conflicts:
        conflicts.append({"kind": "elimination", "detail": "system is inconsistent under exact elimination"})
    certificate = SplitCertificate(unknowns, tuple(raw_rows), tuple(conflicts))
    return SplitVerdict(False, None, certificate)


def _verify_complement(
    algebra: LieAlgebra, complement: list[VectorField], ideal: EchelonBasis
) -> None:
    coords = [to_sparse(algebra.express(v)) for v in complement]
    span = echelon_of(coords)
    if len(span) != len(complement):
        raise InternalInvariantViolation("complement is not independent")
    if len(echelon_of(span.rows + ideal.rows)) != algebra.dim:
        raise InternalInvariantViolation("complement + ideal do not span the algebra")
    for u, w in combinations(coords, 2):
        if not span.contains(algebra._bracket(u, w)):
            raise InternalInvariantViolation("complement is not a subalgebra")


# ---------------------------------------------------------------------------
# normal-form templates (checked in the given coordinates only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TemplateMatch:
    template: str
    matched: bool
    details: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "template": self.template,
            "matched": self.matched,
            "details": list(self.details),
        }


def match_template(algebra: LieAlgebra, template: str) -> TemplateMatch:
    """Shape test of the basis against one constructive normal form.

    A negative match is a result, not an error; no coordinate change is
    attempted.  Variable roles follow context order: the first variable
    plays x, the second y, the third z.
    """
    if template not in TEMPLATES:
        raise ValueError(f"unknown template {template!r}; one of {', '.join(TEMPLATES)}")
    details: list[str] = []
    if algebra.ctx.nvars != 3:
        return TemplateMatch(template, False, ("template requires a 3-variable context",))
    names = algebra.ctx.names

    def contains_partial(i: int) -> bool:
        if algebra.contains(algebra.ctx.partial(i)):
            return True
        details.append(f"D{names[i]} is not in the algebra")
        return False

    def component_zero(b: VectorField, i: int) -> bool:
        if b.comps[i].is_zero:
            return True
        details.append(f"'{b}' has a nonzero D{names[i]} component")
        return False

    def component_depends_only_on(b: VectorField, i: int, allowed: tuple[int, ...]) -> bool:
        if b.comps[i].depends_only_on(allowed):
            return True
        allowed_names = ", ".join(names[a] for a in allowed)
        details.append(
            f"D{names[i]} component of '{b}' depends on more than {{{allowed_names}}}"
        )
        return False

    def component_polynomial(b: VectorField, i: int) -> bool:
        if b.comps[i].is_polynomial:
            return True
        details.append(f"D{names[i]} component of '{b}' carries an exponential factor")
        return False

    def component_constant(b: VectorField, i: int) -> bool:
        if b.comps[i].is_constant:
            return True
        details.append(f"D{names[i]} component of '{b}' is not constant")
        return False

    def require(cond: bool, message: str) -> bool:
        if not cond:
            details.append(message)
        return cond

    ok = True
    if template == "abelian-rank3":
        ok &= require(algebra.is_abelian(), "algebra is not abelian")
        ok &= require(algebra.dim == 3, f"dimension is {algebra.dim}, not 3")
        for b in algebra.basis:
            for i in range(3):
                ok &= component_constant(b, i)
    elif template == "abelian-rank2":
        ok &= require(algebra.is_abelian(), "algebra is not abelian")
        ok &= contains_partial(0) and contains_partial(1)
        for b in algebra.basis:
            ok &= component_zero(b, 2)
            ok &= component_depends_only_on(b, 0, (2,))
            ok &= component_depends_only_on(b, 1, (2,))
    elif template == "abelian-rank1":
        ok &= require(algebra.is_abelian(), "algebra is not abelian")
        ok &= contains_partial(0)
        for b in algebra.basis:
            ok &= component_zero(b, 1)
            ok &= component_zero(b, 2)
            ok &= component_depends_only_on(b, 0, (1, 2))
    elif template == "center-rank2":
        ok &= contains_partial(2)
        for b in algebra.basis:
            for i in (0, 1):
                ok &= component_depends_only_on(b, i, (2,))
                ok &= component_polynomial(b, i)
            ok &= component_constant(b, 2)
    elif template == "heisenberg":
        ok &= require(algebra.dim == 3, f"dimension is {algebra.dim}, not 3")
        ok &= require(not algebra.is_abelian(), "algebra is abelian")
        ok &= contains_partial(0) and contains_partial(2)
        for b in algebra.basis:
            ok &= component_zero(b, 1)
            ok &= component_depends_only_on(b, 0, (1,))
            comp = b.comps[2]
            if not (comp.is_polynomial and comp.depends_only_on((0,)) and comp.degree_in(0) <= 1):
                details.append(
                    f"D{names[2]} component of '{b}' is not affine in {names[0]} "
                    "with constant coefficients"
                )
                ok = False
    elif template == "single-chain":
        ok &= contains_partial(0)
        for b in algebra.basis:
            ok &= component_constant(b, 0)
            ok &= component_zero(b, 1)
            ok &= component_depends_only_on(b, 2, (0, 1))
            ok &= component_polynomial(b, 2)
    elif template == "nonabelian-projection":
        ok &= contains_partial(0)
        ok &= require(
            any(not b.comps[1].is_zero for b in algebra.basis),
            f"no element has a D{names[1]} component",
        )
        for b in algebra.basis:
            ok &= component_depends_only_on(b, 0, (1,))
            ok &= component_polynomial(b, 0)
            ok &= component_constant(b, 1)
            ok &= component_depends_only_on(b, 2, (0, 1))
            ok &= component_polynomial(b, 2)
    elif template == "abelian-projection":
        ok &= contains_partial(0)
        ok &= require(
            any(not b.comps[1].is_zero for b in algebra.basis),
            f"no element has a D{names[1]} component",
        )
        for b in algebra.basis:
            ok &= component_constant(b, 0)
            ok &= component_constant(b, 1)
            ok &= component_depends_only_on(b, 2, (0, 1))
            ok &= component_polynomial(b, 2)
    return TemplateMatch(template, bool(ok), tuple(details))
