"""Decision procedures on closed nilpotent algebras.

classify() sorts a nilpotent algebra by the generic rank and dimension of its
center: abelian algebras by rank; nonabelian ones into the center-rank-2 case,
the center-rank-1 / dim >= 2 case, or the center-dimension-1 case.  There,
with Z spanning the center, K = {X in L : X ^ Z = 0} is one exact null space
(every monomial coefficient of every 2x2 minor of X and Z vanishes) and r is
the generic rank of L; the subcase is a (r = 2, dim K = 1), b (r = 2,
dim K > 1), c (r = 3, [g, g] not in K) or d (r = 3, [g, g] in K).  In flow-box
coordinates Z = d/dz, where L/K is the image of the projection that drops z,
of rank r - 1 and abelian exactly when [g, g] lies in K; no chart is computed,
so every input gets its subcase in whatever coordinates it is given.
jordan_chains() decomposes an ad-nilpotent operator on an invariant subspace
into its kernel-filtration chains, split_check() decides split extensions over
abelian ideals by an exact linear system (with an infeasibility certificate
when no complement exists), and match_template() checks a basis against the
constructive normal forms, held as one table of algebra checks and component
rules, in the given coordinates only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterator, Sequence, Union

from .algebra import IdealLike, LieAlgebra
from .errors import (
    ContextMismatch,
    IdealNotAbelian,
    InternalInvariantViolation,
    NotInvariant,
    NotNilpotent,
    NotNilpotentOperator,
)
from .fields import VectorField
from .linalg import (
    ForwardEchelon,
    Q,
    SparseVector,
    _combination,
    _integral,
    echelon_of,
    forward_echelon,
    generic_rank,
    null_space,
)
from .ring import _axpy, mul_add

CASE_CENTER_RANK2 = "CenterRank2"
CASE_CENTER_RANK1_DIMGE2 = "CenterRank1DimGE2"
CASE_CENTER_DIM1 = "CenterDim1"


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


def _parallel_columns(basis: Sequence[VectorField], z: VectorField) -> list[dict]:
    """Per basis field X, the coefficients of its three 2x2 minors with z,
    X_p z_q - X_q z_p for p < q, keyed (p, q, monomial): one column of the
    linear map X -> X ^ z, whose null space is the parallel kernel K."""
    negated = [-comp for comp in z.comps]
    columns = []
    for x in basis:
        col = {}
        for p, q in combinations(range(3), 2):
            minor: dict = {}
            mul_add(minor, x.comps[p], z.comps[q])
            mul_add(minor, x.comps[q], negated[p])
            for mono, c in minor.items():
                col[p, q, mono] = c
        columns.append(col)
    return columns


def classify(algebra: LieAlgebra) -> ClassificationReport:
    """Sort a closed nilpotent algebra by (generic rank, dimension) of its center."""
    if algebra.ctx.nvars != 3:
        raise ContextMismatch("classification is defined for 3-variable contexts")
    if not algebra.is_nilpotent():
        raise NotNilpotent("classification requires a nilpotent algebra")

    if algebra.is_abelian():
        rank = generic_rank(algebra.basis)
        matched = [name for name in ("abelian-rank1", "abelian-rank2", "abelian-rank3")
                   if next(_failures(algebra, name), None) is None]
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

    # center <Z>: K, the elements pointwise parallel to Z, is the kernel of
    # the projection along Z, and L/K its image, of rank r - 1, abelian
    # exactly when [g, g] lies in K
    z = center_fields[0]
    moved = [i for i, comp in enumerate(z.comps) if comp]
    if len(moved) == 1 and z.comps[moved[0]].is_constant:
        evidence["center_axis"] = algebra.ctx.names[moved[0]]
    columns = _parallel_columns(algebra.basis, z)
    kernel_dim = len(null_space(columns))
    rank = generic_rank(algebra.basis)
    if rank < 2:
        raise InternalInvariantViolation("nonabelian algebra of generic rank below 2")
    # a vector lies in K = ker(X -> X ^ Z) exactly when its minors vanish
    abelian_image = not any(_combination(columns, row) for row in algebra._square.rows.values())
    evidence.update(image_dim=algebra.dim - kernel_dim, image_rank=rank - 1,
                    image_abelian=abelian_image, kernel_dim=kernel_dim)
    if rank == 2:
        subcase = "a" if kernel_dim == 1 else "b"
    else:
        subcase = "d" if abelian_image else "c"
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
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(chain) for chain in self.chains)

    def to_dict(self) -> dict:
        return {
            "operator": str(self.operator),
            "ideal": [str(w) for w in self.ideal_basis],
            "chains": [[str(v) for v in chain] for chain in self.chains],
            "chain_lengths": list(self.lengths),
            "kernel_dim": len(self.chains),
        }


def jordan_chains(
    algebra: LieAlgebra,
    operator: Union[VectorField, Sequence[Fraction]],
    ideal: IdealLike,
) -> JordanDecomposition:
    """Kernel-filtration chains of ad(operator) restricted to an invariant subspace.

    Deterministic: candidate heads are drawn from the canonical null-space
    bases of the operator powers in decreasing chain length.  N's column
    for the unit row p / h of the subspace is the integer bracket (vec, L)
    of s * op with its primitive row p, read off the one _ad_image of s * op
    as [op, p] = -sum_i p_i [e_i, op]: [op, p / h] = vec / (L * s * h).
    One reduction of vec (_residual) tests invariance and hands back t
    times its coordinates, so each entry is one Fraction over L * s * h * t.

    Heights j run from p down.  A kernel vector w of N^j starts a chain
    exactly when its terminal N^(j-1) w is independent of the terminals of
    the chains taken so far, which one forward echelon holds for every
    height.  That is the textbook test, w outside ker N^(j-1) + C with C
    spanned by those chains' elements at height j:
      - w lies in ker N^(j-1) + C exactly when N^(j-1) w lies in N^(j-1) C;
      - N^(j-1) sends each chain's element at height j to its terminal.
    """
    op = algebra._coeffs_of(operator)
    op_field = operator if isinstance(operator, VectorField) else algebra._field(op)
    op, op_scale = _integral(op)
    span = algebra.ideal_subspace(ideal)
    order = span.order()
    position = {row: t for t, row in enumerate(order)}
    m = len(order)

    # columns of the restricted operator N over the subspace basis
    images, ad_scale = algebra._ad_image(op)
    n_cols: list[SparseVector] = []
    for r in order:
        row = span.primitive_row(r)
        vec = _combination(images, {i: -c for i, c in row.items() if i in images})
        values: dict[int, int] = {}
        residual, t = span._residual(vec, values)
        if residual:
            raise NotInvariant("subspace is not invariant under the operator")
        scale = ad_scale * op_scale * row[span.pivots[r]] * t
        n_cols.append({position[i]: Fraction(c, scale) for i, c in values.items()})

    powers = [n_cols]  # columns of N, N^2, ...; grows until N^p = 0
    while any(powers[-1]):
        if len(powers) > m:
            raise NotNilpotentOperator(
                "adjoint operator is not nilpotent on the subspace"
            )
        powers.append([_combination(n_cols, col) for col in powers[-1]])
    p = len(powers)  # nilpotency index; p = 1 for the zero operator

    chains_vec: list[list[SparseVector]] = []
    terminals = ForwardEchelon()
    for j in range(p, 0, -1):
        kernel = null_space(powers[j - 1])
        for w in kernel:
            terminal = _combination(powers[j - 2], w) if j > 1 else w
            if terminals.add(_integral(terminal)[0]):
                chain = [w]
                for _ in range(j - 1):
                    chain.append(_combination(n_cols, chain[-1]))
                chains_vec.append(chain)
    if sum(len(c) for c in chains_vec) != m:
        raise InternalInvariantViolation("chain lengths do not sum to the subspace dimension")
    if len(chains_vec) != len(kernel):  # the kernel of N itself, from j = 1
        raise InternalInvariantViolation("chain count differs from operator kernel dimension")

    rows = [span.row(r) for r in order]
    ideal_fields = tuple(map(algebra._field, rows))
    chains = tuple(
        tuple(algebra._field(_combination(rows, v)) for v in chain) for chain in chains_vec
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
    center = algebra._center
    quotient = algebra._quotient_by(echelon_of(center))
    qcenter = quotient._center
    reps = quotient.rep_indices
    lifts = tuple(algebra._field({reps[a]: c for a, c in vec.items()}) for vec in qcenter)
    return OneDimIdealFamily(False, len(center), len(qcenter), lifts)


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

    The system is integral and reads the ideal images of the ideal test
    (LieAlgebra._verified_ideal), as the abelian test does: unknown (a, t)
    is the coefficient of the primitive row p_t = h_t * r_t in lift a, and
    each rep pair's rows have one scale S.  Row and column scaling keep
    the pivot set, so the lifts are those of the unit-row system.  A
    certificate prints the coefficient c of (a, t) as c / (S * h_t) and a
    constant as const / S.
    """
    span, images = algebra._verified_ideal(ideal)
    order = span.order()
    rows = [span.primitive_row(r) for r in order]
    # [p_s, p_t] = sum_i p_s[i] * [e_i, p_t], each [e_i, p_t] an ideal image
    for s, t in combinations(range(len(rows)), 2):
        image = images[t][0]
        if _combination(image, {i: c for i, c in rows[s].items() if i in image}):
            raise IdealNotAbelian(
                "split check requires an abelian ideal (linear lift system)"
            )
    quotient = algebra._quotient_by(span)
    reps = quotient.rep_indices
    q, m = len(reps), len(rows)
    image_scale = 1
    for _, scale in images:
        image_scale = lcm(image_scale, scale)

    def u_index(a: int, t: int) -> int:
        return a * m + t

    # per closure condition: (pair, coordinate, unknown -> coefficient, constant, S)
    conditions: list[tuple] = []
    for a, b in combinations(range(q), 2):
        s0, entries = algebra._tensor.get((reps[a], reps[b]), (1, ()))
        sq, mu = quotient._tensor.get((a, b), (1, ()))
        scale = lcm(s0, sq, image_scale)
        const = {k: scale // s0 * c for k, c in entries}
        for c, coeff in mu:
            _axpy(const, {reps[c]: 1}, -(scale // sq) * coeff)
        # per unknown, its coefficient in each coordinate of the closure condition
        coeff_vecs: dict[int, dict[int, int]] = {}
        for t, (image, t_scale) in enumerate(images):
            factor = scale // t_scale
            _axpy(coeff_vecs.setdefault(u_index(b, t), {}), image.get(reps[a], {}), factor)
            _axpy(coeff_vecs.setdefault(u_index(a, t), {}), image.get(reps[b], {}), -factor)
            for c, coeff in mu:
                _axpy(coeff_vecs.setdefault(u_index(c, t), {}), rows[t], -(scale // sq) * coeff)
        for k in sorted(set(const).union(*coeff_vecs.values())):
            coeffs = {u: vec[k] for u, vec in coeff_vecs.items() if k in vec}
            conditions.append(((reps[a], reps[b]), k, coeffs, const.get(k, 0), scale))

    # one echelon of the augmented rows [coeffs | -const]: a pivot in the
    # constant column means the system is inconsistent
    nunk = q * m
    system = echelon_of({**coeffs, nunk: -const} for _, _, coeffs, const, _ in conditions)
    if nunk not in system.pivots:
        solution = {}
        for r, pivot in enumerate(system.pivots):
            row = system.primitive_row(r)
            solution[pivot] = Fraction(row.get(nunk, 0), row[pivot])
        lifts = []
        for a in range(q):
            shares = {t: x for t in range(m) if (x := solution.get(u_index(a, t)))}
            lift = _combination(rows, shares)
            _axpy(lift, {reps[a]: Q(1)}, 1)
            lifts.append(lift)
        _verify_complement(algebra, lifts, rows)
        return SplitVerdict(True, tuple(map(algebra._field, lifts)), None)

    heads = [row[span.pivots[r]] for row, r in zip(rows, order)]
    raw_rows = [
        ConstraintRow(
            pair,
            k,
            {u: Fraction(c, scale * heads[u % m]) for u, c in coeffs.items()},
            Fraction(const, scale),
        )
        for pair, k, coeffs, const, scale in conditions
    ]
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
    # only a non-split verdict names the ideal's elements, in its unknowns
    ideal_names = [str(algebra._field(span.row(r))) for r in order]
    unknowns = tuple(
        {"lift": reps[a], "ideal_index": t, "ideal_element": ideal_names[t]}
        for a in range(q)
        for t in range(m)
    )
    certificate = SplitCertificate(unknowns, tuple(raw_rows), tuple(conflicts))
    return SplitVerdict(False, None, certificate)


def _verify_complement(
    algebra: LieAlgebra, lifts: list[SparseVector], ideal_rows: list[dict[int, int]]
) -> None:
    """The lifts, in basis coordinates, are independent, span L with the
    ideal, and are closed under brackets: the integer brackets of their
    echelon's primitive rows (LieAlgebra._pair_brackets) lie in its span.
    The spanning test needs only a rank, the length of a forward echelon of
    those rows and the ideal's."""
    span = echelon_of(lifts)
    if len(span) != len(lifts):
        raise InternalInvariantViolation("complement is not independent")
    rows = [span.primitive_row(i) for i in range(len(span))]
    if len(forward_echelon([*rows, *ideal_rows])) != algebra.dim:
        raise InternalInvariantViolation("complement + ideal do not span the algebra")
    for vec in algebra._pair_brackets(rows):
        if not span.contains(vec):
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


# The constructive normal forms, one entry per template: the checks on the
# whole algebra, then the rules on every basis element's components, each
# in the order its failures are reported.  Indices are context positions:
# 0 plays x, 1 plays y, 2 plays z.
#   algebra: ("abelian",), ("nonabelian",), ("dim", n), ("has", i) -- some
#            element has a D_i component -- and ("partials", i, ...) -- these
#            coordinate fields lie in the algebra; the first missing one
#            is reported
#   element: (rule, i, *variables) on component i: "zero", "constant",
#            "polynomial", "only" (depends on the given variables alone)
#            and "affine" (polynomial of degree <= 1 in them alone)
_NORMAL_FORMS = {
    "abelian-rank1": (
        [("abelian",), ("partials", 0)],
        [("zero", 1), ("zero", 2), ("only", 0, 1, 2)],
    ),
    "abelian-rank2": (
        [("abelian",), ("partials", 0, 1)],
        [("zero", 2), ("only", 0, 2), ("only", 1, 2)],
    ),
    "abelian-rank3": (
        [("abelian",), ("dim", 3)],
        [("constant", 0), ("constant", 1), ("constant", 2)],
    ),
    "center-rank2": (
        [("partials", 2)],
        [("only", 0, 2), ("polynomial", 0), ("only", 1, 2), ("polynomial", 1), ("constant", 2)],
    ),
    "heisenberg": (
        [("dim", 3), ("nonabelian",), ("partials", 0, 2)],
        [("zero", 1), ("only", 0, 1), ("affine", 2, 0)],
    ),
    "single-chain": (
        [("partials", 0)],
        [("constant", 0), ("zero", 1), ("only", 2, 0, 1), ("polynomial", 2)],
    ),
    "nonabelian-projection": (
        [("partials", 0), ("has", 1)],
        [("only", 0, 1), ("polynomial", 0), ("constant", 1), ("only", 2, 0, 1), ("polynomial", 2)],
    ),
    "abelian-projection": (
        [("partials", 0), ("has", 1)],
        [("constant", 0), ("constant", 1), ("only", 2, 0, 1), ("polynomial", 2)],
    ),
}
TEMPLATES = tuple(_NORMAL_FORMS)

# each algebra check returns its failure text, or None when it holds
_ALGEBRA_CHECKS = {
    "abelian": lambda L: None if L.is_abelian() else "algebra is not abelian",
    "nonabelian": lambda L: "algebra is abelian" if L.is_abelian() else None,
    "dim": lambda L, n: None if L.dim == n else f"dimension is {L.dim}, not {n}",
    "has": lambda L, i: (
        None if any(not b.comps[i].is_zero for b in L.basis)
        else f"no element has a D{L.ctx.names[i]} component"
    ),
    "partials": lambda L, *axes: next(
        (f"D{L.ctx.names[i]} is not in the algebra" for i in axes if not L.contains(L.ctx.partial(i))),
        None,
    ),
}

# rule -> (test of a component against the rule's variables, failure text)
_COMPONENT_RULES = {
    "zero": (lambda p, vs: p.is_zero, "'{b}' has a nonzero D{c} component"),
    "constant": (lambda p, vs: p.is_constant, "D{c} component of '{b}' is not constant"),
    "polynomial": (
        lambda p, vs: p.is_polynomial, "D{c} component of '{b}' carries an exponential factor"
    ),
    "only": (
        lambda p, vs: p.depends_only_on(vs), "D{c} component of '{b}' depends on more than {{{vs}}}"
    ),
    "affine": (
        lambda p, vs: p.is_polynomial and p.depends_only_on(vs) and p.degree <= 1,
        "D{c} component of '{b}' is not affine in {vs} with constant coefficients",
    ),
}


def match_template(algebra: LieAlgebra, template: str) -> TemplateMatch:
    """Shape test of the basis against one constructive normal form.

    A negative match is a result, not an error; no coordinate change is
    attempted.  Variable roles follow context order: the first variable
    plays x, the second y, the third z.
    """
    if template not in _NORMAL_FORMS:
        raise ValueError(f"unknown template {template!r}; one of {', '.join(TEMPLATES)}")
    if algebra.ctx.nvars != 3:
        return TemplateMatch(template, False, ("template requires a 3-variable context",))
    details = tuple(_failures(algebra, template))
    return TemplateMatch(template, not details, details)


def _failures(algebra: LieAlgebra, template: str) -> Iterator[str]:
    """The failure texts of a known template on a 3-variable algebra, in
    report order: the failing algebra checks, then per basis element the
    rules it breaks.  A text is formatted only when it is reached, so a
    caller that asks only whether the template matches stops at the
    first."""
    names = algebra.ctx.names
    checks, rules = _NORMAL_FORMS[template]
    for kind, *args in checks:
        text = _ALGEBRA_CHECKS[kind](algebra, *args)
        if text:
            yield text
    for b in algebra.basis:
        for rule, i, *vs in rules:
            holds, text = _COMPONENT_RULES[rule]
            if not holds(b.comps[i], vs):
                yield text.format(b=b, c=names[i], vs=", ".join(names[v] for v in vs))
