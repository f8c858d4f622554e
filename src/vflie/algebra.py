"""Bracket closure and structural analysis of finite-dimensional Lie algebras
of vector fields.

close() generates the smallest bracket-closed subspace containing a finite
set of fields, one generator layer (bracket depth) per round, over one
column table (linalg.Columns) of int column ids per closure.  A LieAlgebra
is built from the echelon of such a span, which close() and project() hand
over: it reads the canonical reduced row-echelon basis (ordered by pivot
key, hence independent of generator order) and brackets it into the exact
structure-constant tensor, kept in integers until read.  Both bracket the
echelon's primitive integer rows on their column ids (Columns.bracket), so
no bracket builds a field, and neither brackets a pair whose support masks
prove it commuting.
All queries (center, series, projections, adjoints, quotients) are exact
and deterministic.  The lower-central series and the center of a nilpotent
algebra are read from the brackets of a few unit vectors spanning a
complement of [g, g], which generate g; ideal checks, split lifts, Jordan
chains and the series of any other algebra walk only the nonzero structure
constants (StructureConstants._ad_image, _bracket), so a pair whose
bracket is structurally zero is never visited.  Every center, that of a
central quotient (QuotientStructure) included, is the algebra's own
_center: common_kernel over the ad table and a generating set.

There is one ad table, built from the tensor on first read (_int_ad):
ad(e_v) as integer rows over one denominator D_v.  One
bracket in basis coordinates reads it: _ad_image(w) gives each nonzero
[e_i, w] as an integer vector over one scale L (the value is vector / L),
and _bracket(u, w) sums u_i times those images (_pair_brackets takes each
row's images once for all its pairs); the certificate's layers
take [e_v, w] from e_v's own rows alone.  So what reads only spans ([g, g],
the certificate's layers, the centers, ideal and complement checks, the
series) does no Fraction arithmetic, and [g, g], the series and the
certificate do no back-substitution either: they read only pivots, lengths
and spanning rows, which forward elimination (linalg.ForwardEchelon)
gives; [g, g] takes the tensor's own integer rows.  A Fraction is made only
where a field is built or a constant is read: a basis field takes one
Fraction(c, head) per entry of its primitive integer row, the Fraction
unit rows are built on the first read of a combination of basis elements,
and c() reads `structure`, the tensor's Fraction form, built on first read.
The structure text of report() and QuotientStructure.to_dict() is written
from the integers (_structure_text).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Union

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
    Columns,
    EchelonBasis,
    ForwardEchelon,
    Operand,
    Q,
    SparseVector,
    _axpy,
    _combination,
    _gcd,
    _integral,
    _lcm,
    echelon_of,
    forward_echelon,
    generic_rank,
    null_space,
    to_dense,
    to_sparse,
)

DEFAULT_CAP_DIM = 64
DEFAULT_CAP_ROUNDS = 32
DEFAULT_CAP_DEGREE = 64

IdealLike = Union[Sequence[int], Sequence[VectorField], Sequence[Sequence[Fraction]]]
Tensor = dict[tuple[int, int], dict[int, Fraction]]  # (i, j), i < j -> nonzero coords of [e_i, e_j]
# as Tensor: (s, [(k, s * c)]), s > 0 and k ascending
IntTensor = dict[tuple[int, int], tuple[int, list[tuple[int, int]]]]
IntTable = dict[int, dict[int, int]]  # j -> nonzero integer coords of D_v * [e_v, e_j]
IntVector = dict[int, int]  # sparse integer basis coordinates


def _fraction_tensor(tensor: IntTensor) -> Tensor:
    """The Fraction form of an integer tensor."""
    return {ab: {k: Fraction(c, s) for k, c in entries} for ab, (s, entries) in tensor.items()}


def common_kernel(ad: Sequence[IntTable], acting: Iterable[int]) -> list[SparseVector]:
    """Canonical null-space basis, sparse, of the stacked maps ad(e_v), v in
    acting, given as integer tables (_int_ad): the center when the
    e_v generate the algebra, since a centralizer is a subalgebra.  Scaling
    the rows of ad(e_v) by D_v > 0 leaves the null space unchanged, and
    null_space gives the canonical basis of the subspace, so the answer
    does not depend on the generating set: the kernel vector with 1 at a
    free column and support on the pivot columns before it is unique, so
    null_space reads it off the column's forward elimination, with no
    transpose and no back-substitution."""
    # column a, row (v, c): D_v times the coefficient of e_c in [e_v, e_a]
    columns: list[dict[tuple[int, int], int]] = [{} for _ in range(len(ad))]
    for v in acting:
        for a, comps in ad[v].items():
            for c, coeff in comps.items():
                columns[a][v, c] = coeff
    return null_space(columns)


def _structure_text(tensor: IntTensor) -> list[list]:
    """The nonzero structure constants as sorted [a, b, k, text] lists, for
    an integer tensor: each entry c over the pair's scale s > 0 is divided
    by their gcd and written as n or n/d, which is str(Fraction(c, s)), so
    no Fraction is built."""
    out = []
    for (a, b), (s, entries) in sorted(tensor.items()):
        for k, c in entries:
            g = _gcd(c, s)
            out.append([a, b, k, str(c // g) if g == s else f"{c // g}/{s // g}"])
    return out


def _can_fail_to_commute(s: tuple[int, int], t: tuple[int, int]) -> bool:
    """False when the support masks s and t (Operand.masks) prove the
    bracket zero: neither field moves a variable that the other's
    coefficients read, so every term X_j * d Y_i/d var j of [X, Y] has
    X_j = 0 or d Y_i/d var j = 0, and likewise with X and Y swapped."""
    return bool(s[0] & t[1] or t[0] & s[1])


def close(
    generators: Sequence[VectorField],
    *,
    cap_dim: int = DEFAULT_CAP_DIM,
    cap_rounds: int = DEFAULT_CAP_ROUNDS,
    cap_degree: int = DEFAULT_CAP_DEGREE,
) -> "LieAlgebra":
    """Bracket closure of a generating set, as a LieAlgebra.

    One round per generator layer.  S is the echelon rows once the generators
    are in (same span, same algebra).  Layer 1 brackets S[a], S[b] for a < b;
    layer k > 1 brackets each s in S with each frontier field, the rows layer
    k - 1 added, read at its end; a layer that adds nothing ends it.
    Why the span V is the generated algebra: frontier rows are zero at all
    older pivots, so S and the frontiers span V, and [S, t] lies in V for
    each frontier field t.  So V is ad(S)-invariant and contains S, hence
    every left-normed bracket [s1, [s2, ..., s_k]], and those span the
    algebra (de Graaf, Lie Algebras: Theory and Algorithms, 2000).  The
    reduced echelon of a span is unique, so the basis is canonical.
    Each layer's brackets go into the echelon's open layer (`_extend`),
    settled once at its end, before any row is read; the settled rows are
    those that inserting each bracket into a fully reduced echelon would
    leave (see EchelonBasis), so the operands, the pair order, the degree
    cap and every cap report do not depend on the layering.  The operands
    are the echelon's primitive integer rows (Columns.operand), positive
    multiples of the unit rows, so as [a*u, b*v] = a*b*[u, v] the layers see
    the same rows, degrees and independence.  A pair whose support masks
    prove it commuting is skipped; any other is bracketed on column ids
    (Columns.bracket) and goes into the echelon as that vector, never as a
    field, so every elimination step hashes int column ids while the
    pivots stay the least (component, monomial) keys.  The echelon goes to
    LieAlgebra, which brackets the final rows into the tensor.
    A cap that is not an int (a bool neither) is a TypeError.  A
    ClosureCapExceeded is raised past cap_dim, past cap_rounds layers, or by
    a field of degree above cap_degree; its `round` is the layer and
    `pending` the pairs of that layer not yet visited, where a pair that the
    support test skips counts as visited.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    for name, cap in (("cap_dim", cap_dim), ("cap_rounds", cap_rounds), ("cap_degree", cap_degree)):
        if type(cap) is not int:  # a bool is an int too
            raise TypeError(f"{name} {cap!r} is not an int")
    if cap_dim <= 0 or cap_rounds <= 0 or cap_degree <= 0:
        raise ValueError("caps must be positive")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatch("generators belong to different contexts")

    columns = Columns(ctx.nvars)
    echelon = EchelonBasis(columns)
    rounds = pending = 0

    def cap_error(cap: str, limit: int, detail: str = "") -> ClosureCapExceeded:
        return ClosureCapExceeded(cap, limit, len(echelon), rounds, pending, detail)

    def add(vec: dict[int, Fraction]) -> None:
        degree = columns.degree(vec)
        if degree > cap_degree:
            raise cap_error("cap_degree", cap_degree, f" by a field of degree {degree}")
        if echelon._extend(vec) and len(echelon) > cap_dim:
            raise cap_error("cap_dim", cap_dim)

    def operands_from(start: int) -> list[Operand]:
        echelon._settle()
        return [columns.operand(echelon.primitive_row(i)) for i in range(start, len(echelon))]

    for g in gens:
        add(columns.vector(comp.term_map() for comp in g.comps))
    S = operands_from(0)
    pairs = list(combinations(S, 2))
    while pairs:
        pending = len(pairs)
        if rounds == cap_rounds:
            raise cap_error("cap_rounds", cap_rounds)
        rounds += 1
        start = len(echelon)
        for s, t in pairs:
            pending -= 1
            if _can_fail_to_commute(s.masks, t.masks) and (vec := columns.bracket(s, t)):
                add(vec)
        frontier = operands_from(start)
        pairs = [(s, t) for s in S for t in frontier]
    return LieAlgebra(ctx, echelon)


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


class StructureConstants:
    """A Lie algebra given by its structure constants alone: dim and the
    exact tensor in integers (_tensor), and every query that reads only
    them.  `structure`, their Fraction form, is built on first read, and
    queries walk only the nonzero entries, through the one ad table.

    What it computes once, it keeps: `structure` and the ad table (each on
    first read), both series, [g, g], the nilpotency certificate and the
    center's coefficients.
    """

    def __init__(self, dim: int, tensor: IntTensor):
        self.dim = dim
        self._tensor = tensor
        self._series: dict[str, SeriesReport] = {}

    # -- basics --------------------------------------------------------------

    @cached_property
    def structure(self) -> Tensor:
        """(a, b), a < b -> {k: c(a, b, k)} in ascending order, built on first read."""
        return _fraction_tensor(self._tensor)

    @cached_property
    def _int_ad(self) -> tuple[list[IntTable], list[int]]:
        """(tables, D), built on first read: for each basis index v, ad(e_v)
        as integer rows over one positive denominator D[v], the lcm of the
        denominators of its structure constants, so that tables[v][j][k] /
        D[v] is the coefficient of e_k in [e_v, e_j]: the algebra's one ad
        table.  A pair's c / s have lcm denominator d = s / gcd(s, c...)."""
        dens = [1] * self.dim
        reduced = []
        for (i, j), (s, entries) in self._tensor.items():
            g = s
            for _, c in entries:
                g = g if g == 1 else _gcd(c, g)
            reduced.append((i, j, s // g, g, entries))
            if s != g:
                dens[i], dens[j] = _lcm(dens[i], s // g), _lcm(dens[j], s // g)
        tables: list[IntTable] = [{} for _ in range(self.dim)]
        for i, j, d, g, entries in reduced:
            di, dj = dens[i] // d, dens[j] // d
            tables[i][j] = {k: di * (c // g) for k, c in entries}
            tables[j][i] = {k: -dj * (c // g) for k, c in entries}
        return tables, dens

    def c(self, i: int, j: int, k: int) -> Fraction:
        """Structure constant: coefficient of e_k in [e_i, e_j], read from
        the tensor.  TypeError for an index that is not an int, or is a bool
        (1.0 or True would read e_1), ValueError for one outside range(dim)."""
        for index in (i, j, k):
            if type(index) is not int:
                raise TypeError(f"basis index {index!r} is not an int")
            if not 0 <= index < self.dim:
                raise ValueError(f"basis index {index} out of range")
        if i < j:
            return self.structure.get((i, j), {}).get(k, ZERO)
        return -self.structure.get((j, i), {}).get(k, ZERO)

    def _bracket(self, u: Mapping[int, int], w: Mapping[int, int]) -> tuple[IntVector, int]:
        """(vec, L) with [u, w] == vec / L for integer basis coordinates u
        and w: vec sums u_i * images[i] over w's _ad_image, of scale L."""
        images, scale = self._ad_image(w)
        return _combination(images, {i: a for i, a in u.items() if i in images}), scale

    def _ad_image(self, w: Mapping[int, int]) -> tuple[dict[int, IntVector], int]:
        """(images, L) with [e_i, w] == images[i] / L for every i whose
        bracket with w is nonzero, for integer basis coordinates w.

        [e_i, w] = -sum_j w_j / D_j * (D_j [e_j, e_i]) with L the lcm of the
        D_j, j in supp(w), so only the ad tables of those j are walked;
        terms that cancel leave no entry.
        """
        tables, dens = self._int_ad
        scale = 1
        for j in w:
            scale = _lcm(scale, dens[j])
        images: dict[int, IntVector] = {}
        for j, b in w.items():
            factor = -b * (scale // dens[j])
            for i, col in tables[j].items():
                _axpy(images.setdefault(i, {}), col, factor)
        return {i: out for i, out in images.items() if out}, scale

    def _pair_brackets(self, rows: Sequence[Mapping[int, int]]) -> Iterable[IntVector]:
        """[u, w] for every pair of rows, u before w, each as an integer
        vector of its line (scale dropped): each w's _ad_image is taken once
        and combined with every earlier row, as _bracket would per pair."""
        for j, w in enumerate(rows):
            images = self._ad_image(w)[0]
            for u in rows[:j]:
                yield _combination(images, {i: a for i, a in u.items() if i in images})

    # -- center ---------------------------------------------------------------

    @cached_property
    def _center(self) -> tuple[SparseVector, ...]:
        certificate = self._nilpotency_certificate
        acting = range(self.dim) if certificate is None else certificate[0]
        return tuple(common_kernel(self._int_ad[0], acting))

    # -- series and flags -------------------------------------------------------

    def series(self, kind: str) -> SeriesReport:
        """Lower-central (g, [g,g^k]) or derived (g^(k), [g^(k),g^(k)]) dims, cached.

        The lower-central series of a nilpotent algebra comes from its
        certificate (_nilpotency_certificate): V generates g, and its chain
        W_1 = span(V), W_{k+1} = [V, W_k] ends at W_K = 0.  By the Jacobi
        identity, [[a, b], w] = [a, [b, w]] - [b, [a, w]], so by induction on
        bracket length every element of g maps h_k = W_k + ... + W_K into
        h_{k+1}; hence g^k lies in h_k, and h_k, spanned by brackets of k or
        more elements, lies in g^k.  So g^k = h_k, g^K = 0, and the dims are
        those of the h_k.  Any other algebra, every non-nilpotent one
        included, walks the ad images (_ad_image) of the integer rows
        that span each term.  The derived series starts from [g, g], the
        echelon the certificate shares, and brackets each later term's row
        pairs (_pair_brackets, one _ad_image per row).  A term's dim is its
        forward echelon's length, the rank of its span; the rows walked or
        bracketed next are the primitive rows of its reduced echelon
        (echelon_of), which have fewer and smaller entries than the forward
        rows.
        """
        if kind not in ("lower-central", "derived"):
            raise ValueError("kind must be 'lower-central' or 'derived'")
        if kind not in self._series:
            self._series[kind] = self._compute_series(kind)
        return self._series[kind]

    def _compute_series(self, kind: str) -> SeriesReport:
        if kind == "lower-central" and self._nilpotency_certificate is not None:
            return SeriesReport(kind, self._nilpotency_certificate[1], True)
        dims = [self.dim]
        current: list[Mapping[int, int]] = [{i: 1} for i in range(self.dim)]
        terminated = self.dim == 0
        while dims[-1] > 0:
            if kind == "lower-central":
                nxt = forward_echelon(v for w in current for v in self._ad_image(w)[0].values())
            elif len(dims) == 1:
                nxt = self._square
            else:
                nxt = forward_echelon(self._pair_brackets(current))
            if len(nxt) == dims[-1]:
                break  # stabilized above zero
            dims.append(len(nxt))
            # the back-substituted rows are sparser and smaller to bracket
            reduced = echelon_of(nxt.rows.values())
            current = [reduced.primitive_row(i) for i in range(len(reduced))]
            if not nxt:
                terminated = True
        return SeriesReport(kind, tuple(dims), terminated)

    @cached_property
    def _square(self) -> ForwardEchelon:
        """[g, g] as the forward echelon of the nonzero brackets [e_i, e_j],
        i < j, each as the tensor's own integer row s * [e_i, e_j], s > 0,
        which spans the same line.  Its readers need only pivots, length and
        spanning rows, and an echelon with distinct least-key pivots has the
        reduced echelon's pivot set, so no row is back-substituted.  Shared
        and read-only."""
        return forward_echelon(dict(entries) for _, entries in self._tensor.values())

    def _layers(self, gens: Sequence[int]) -> list[list[dict[int, int]]] | None:
        """The nonzero layers W_1 = span{e_v : v in gens}, W_{k+1} =
        span{[e_v, w] : v in gens, w a row of W_k}, each as the rows of its
        own forward echelon (W_1 as the unit vectors), whose pivots and
        length are those of the reduced echelon of the same span; None when
        W_{dim+1} is still nonzero, which no nilpotent algebra allows.  The
        rows are integer: each nonzero [e_v, w] is taken as
        sum_j w_j * D_v [e_v, e_j], summed from w's entries against e_v's
        own ad rows, which spans the same line, for v in gens alone.  A
        central e_v (empty ad table) has no bracket, and when every e_v is
        central none is taken."""
        tables = self._int_ad[0]
        acting = [tables[v] for v in gens if tables[v]]
        layers: list[list[dict[int, int]]] = []
        layer: list[dict[int, int]] = [{v: 1} for v in gens]
        while layer:
            if len(layers) == self.dim:
                return None
            layers.append(layer)
            span = ForwardEchelon()
            for w in layer:
                for table in acting:
                    image: IntVector = {}
                    for j, b in w.items():
                        if j in table:
                            _axpy(image, table[j], b)
                    if image:
                        span.add(image)
            layer = list(span.rows.values())
        return layers

    @cached_property
    def _nilpotency_certificate(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(V, lower-central dims), or None when this route proves nothing.

        V is the indices off the pivots of [g, g], so span(V) + [g, g] = g.
        The certificate holds when V's chain (_layers) ends within dim + 1
        layers and W_1 + ... + W_K is all of g, so that V generates g; then
        g is nilpotent (see series).  W_2, W_3, ... are brackets, inside
        [g, g], which meets span(V) = W_1 in 0: so the sum is g exactly when
        h_2 = W_2 + ... + W_K is all of [g, g], and dim h_1 = dim.  The
        other dims are the length of one forward echelon after W_{K-1}, ...,
        W_2 went in, in reverse, and a final 0; that length is the rank of
        the span, as a forward echelon has the reduced echelon's pivots, so
        no row is back-substituted.  None when V is empty, the chain
        has not ended or the sum is short, as for every non-nilpotent
        algebra.  Only V and the dims are kept.
        """
        pivots = self._square.rows
        gens = tuple(i for i in range(self.dim) if i not in pivots)
        layers = self._layers(gens) if gens else None
        if layers is None:
            return None
        total = ForwardEchelon()
        dims = [0]
        for layer in reversed(layers[1:]):
            for row in layer:
                total.add(row)
            dims.append(len(total))
        if len(total) != len(self._square):
            return None
        return gens, (self.dim, *reversed(dims))

    def is_abelian(self) -> bool:
        return not self._tensor

    def is_nilpotent(self) -> bool:
        return self.series("lower-central").terminated_at_zero

    def is_solvable(self) -> bool:
        return self.series("derived").terminated_at_zero

    # -- quotients ------------------------------------------------------------------

    def _quotient_by(self, span: EchelonBasis) -> QuotientStructure:
        """L/span on the complementary basis lines, `span` an ideal already verified."""
        pivots = set(span.pivots)
        reps = tuple(i for i in range(self.dim) if i not in pivots)
        position = {rep: c for c, rep in enumerate(reps)}
        tensor: IntTensor = {}
        for (i, j), (s, entries) in self._tensor.items():
            if i in position and j in position:
                residual, scale = span._residual(dict(entries))
                if residual:
                    reduced = sorted((position[k], c) for k, c in residual.items())
                    tensor[(position[i], position[j])] = (s * scale, reduced)
        return QuotientStructure(reps, tensor)


class QuotientStructure(StructureConstants):
    """The structure constants of L/ideal, a full algebra that may be
    quotiented again, on representatives e_r, r in rep_indices, whose
    positions index its tensor.  to_dict() writes the structure text from
    the integers."""

    def __init__(self, rep_indices: tuple[int, ...], tensor: IntTensor):
        super().__init__(len(rep_indices), tensor)
        self.rep_indices = rep_indices

    def to_dict(self) -> dict:
        return {
            "rep_indices": list(self.rep_indices),
            "structure": _structure_text(self._tensor),
        }


class LieAlgebra(StructureConstants):
    """Closed algebra: canonical echelon basis over its structure constants.

    Built from the echelon of a bracket-closed span over a column table
    (linalg.Columns), which it keeps as its one record of the span; every
    field it makes (basis, _field) and every field it reads into
    coordinates (express, contains, by Columns.find) goes through that
    table.  Any other echelon is a TypeError.  A query field with a
    monomial the table lacks is outside the span, and a query makes no
    column.  The basis is the unit rows in pivot order, pivot order being
    (component, monomial) key order, each field built from its primitive
    integer row h_a*e_a over its head h_a, one Fraction per entry, with no
    unit row read.  The tensor brackets those rows on their column ids
    (Columns.bracket) for the pairs a < b whose support classes
    (Operand.masks, at most 64) the support test cannot prove commuting, in
    ascending (a, b) order.  One reduction of each bracket
    (EchelonBasis._residual) checks that it lies in the span and hands back
    its value t*c, scaled to integers by t, at each pivot it hits (c being
    its coordinate on that unit row, by full reduction); the constants
    c / (h_a*h_b) are kept in integers, as [h_a*e_a, h_b*e_b] =
    h_a*h_b*[e_a, e_b], and report() writes the structure text from them.
    A bracket outside the span raises InternalInvariantViolation at
    construction, and the half table close() filled is emptied once the
    tensor is built.

    Basis coordinates are sparse (index -> nonzero Fraction) throughout;
    only the public methods take or return dense lists, validated once where
    they enter (_checked), and _field is the one map back to fields.

    Beside what its base keeps, it keeps its unit rows in basis order (on
    first read), the center's fields, and per kept set the parts of a
    projection (its image algebra, kernel fields and kernel coefficients),
    never the Projection itself.  None of these refers back to the algebra,
    so an algebra makes no reference cycle and is freed by reference
    counting alone, not left to the cyclic collector.
    """

    # bench/tracing.py wraps `series` in this class's own namespace; the
    # base class's methods call self.series, so they reach the wrapper
    series = StructureConstants.series

    def __init__(self, ctx: VariableContext, echelon: EchelonBasis):
        columns = echelon.columns
        if columns is None:
            raise TypeError("a LieAlgebra is built from an echelon over a column table")
        self.ctx = ctx
        self._echelon = echelon
        self._order = echelon.order()
        position = {row: k for k, row in enumerate(self._order)}
        rows = [columns.operand(echelon.primitive_row(i)) for i in self._order]
        heads = [row.vec[echelon.pivots[i]] for row, i in zip(rows, self._order)]
        self.basis = tuple(
            columns.field({k: Fraction(c, head) for k, c in row.vec.items()}, ctx)
            for row, head in zip(rows, heads)
        )
        members: dict[tuple[int, int], list[int]] = {}
        for a, row in enumerate(rows):
            members.setdefault(row.masks, []).append(a)
        # per support class, the rows of every class it may not commute with
        partners = {
            s: sorted(b for t, bs in members.items() if _can_fail_to_commute(s, t) for b in bs)
            for s in members
        }
        tensor: IntTensor = {}
        for a, u in enumerate(rows):
            later = partners[u.masks]
            for b in later[bisect_right(later, a):]:
                vec = columns.bracket(u, rows[b])
                if not vec:
                    continue
                # t * vec is integral, also over a fractional rate, and
                # values[i] is its value at row i's pivot
                values: dict[int, int] = {}
                residual, t = echelon._residual(vec, values)
                if residual:
                    raise InternalInvariantViolation(
                        "bracket of basis elements escapes the span; closure is broken"
                    )
                entries = sorted((position[i], c) for i, c in values.items())
                tensor[(a, b)] = (heads[a] * heads[b] * t, entries)
        columns.release()
        super().__init__(len(self.basis), tensor)
        # sorted kept indices -> (image, kernel fields, kernel coefficients)
        self._projections: dict[tuple[int, ...], tuple] = {}

    # -- basics --------------------------------------------------------------

    def bracket_coeffs(
        self, u: Sequence[Fraction], w: Sequence[Fraction]
    ) -> list[Fraction]:
        """[u, w] in basis coordinates, computed on the structure tensor.

        Dense form of _bracket on u and w scaled to integers, divided by
        the scales once; no engine code calls it, and it remains for the
        tests and the benchmark tracer.
        """
        (u, su), (w, sw) = _integral(self._checked(u)), _integral(self._checked(w))
        vec, scale = self._bracket(u, w)
        scale *= su * sw
        return [Fraction(vec.get(k, 0), scale) for k in range(self.dim)]

    def element(self, coeffs: Sequence[Fraction]) -> VectorField:
        """sum_k coeffs[k] * basis[k] for a sequence of one int or Fraction
        per basis element, validated into sparse coordinates (_checked) and
        mapped by _field."""
        return self._field(self._checked(coeffs))

    def _field(self, coeffs: Mapping[int, Fraction]) -> VectorField:
        """sum_k coeffs[k] * basis[k] for sparse basis coordinates.

        A vector with one entry c, at k, is basis[k] itself when c == 1 and
        basis[k] * c otherwise, so no coordinates are summed; any other
        vector is summed over the unit rows.
        """
        if len(coeffs) == 1:
            (k, c), = coeffs.items()
            return self.basis[k] if c == 1 else self.basis[k] * c
        return self._echelon.columns.field(_combination(self._rows, coeffs), self.ctx)

    @cached_property
    def _rows(self) -> list[SparseVector]:
        """The unit rows in basis order, as Fractions, built on first read."""
        return [self._echelon.row(i) for i in self._order]

    def express(self, field: VectorField) -> list[Fraction]:
        """Coordinates of a field over the basis; raises NotInSpan otherwise."""
        if field.ctx != self.ctx:
            raise ContextMismatch("field belongs to a different context")
        vec = self._echelon.columns.find(field)
        if vec is None:
            raise NotInSpan("vector is outside the span of the basis")
        # the echelon's rows are in insertion order, the basis in pivot order
        coeffs = self._echelon.express(vec)
        return [coeffs[row] for row in self._order]

    def contains(self, field: VectorField) -> bool:
        if field.ctx != self.ctx:
            raise ContextMismatch("field belongs to a different context")
        vec = self._echelon.columns.find(field)
        return vec is not None and self._echelon.contains(vec)

    def _coeffs_of(self, v: Union[VectorField, Sequence[Fraction]]) -> SparseVector:
        return to_sparse(self.express(v)) if isinstance(v, VectorField) else self._checked(v)

    def _checked(self, coeffs: Sequence[Fraction]) -> SparseVector:
        """coeffs as sparse coordinates: TypeError unless a sequence of ints
        and Fractions (a float, or a dict, is not), then ValueError unless
        one per basis element."""
        if not isinstance(coeffs, Sequence):
            raise TypeError(f"coefficient vector {coeffs!r} is not a sequence")
        vec = to_sparse(coeffs)
        if len(coeffs) != self.dim:
            raise ValueError("coefficient vector has the wrong length")
        return vec

    # -- center ---------------------------------------------------------------

    def center_coeffs(self) -> list[list[Fraction]]:
        """Canonical basis of the center in basis coordinates: common_kernel
        of the e_v, v in V, when the nilpotency certificate holds (they
        generate g), else of the whole basis; the route does not change the
        answer.  Computed once, sparse; each call returns new dense lists."""
        return [to_dense(v, self.dim) for v in self._center]

    def center(self) -> list[VectorField]:
        """The center as fields, _field of each center vector.

        Computed once per algebra; each call returns a new list of the same
        fields, so a caller may change the list it gets.
        """
        return list(self._center_fields)

    @cached_property
    def _center_fields(self) -> tuple[VectorField, ...]:
        return tuple(map(self._field, self._center))

    # -- projection ---------------------------------------------------------------

    def project(self, kept: Sequence[Union[int, str]]) -> Projection:
        """Drop the complementary components; verifies the block hypothesis.

        Requires every component of every basis element to depend only on the
        kept variables (this is what makes the dropped part an abelian ideal
        and the kept part a homomorphic image).  The kept variables may be
        names or int indices (else TypeError, as for a bool), in any order.
        The image algebra, the kernel fields and the kernel coefficients are
        computed once per sorted kept set, and each call returns a new
        Projection around them; a ProjectionHypothesisViolated is not kept,
        so it is raised again on every call.
        """
        if bad := [k for k in kept if type(k) not in (str, int)]:
            raise TypeError(f"kept variable {bad[0]!r} is not a name or an index")
        indices = tuple(sorted(self.ctx.index(k) if isinstance(k, str) else k for k in kept))
        if not indices or len(set(indices)) != len(indices):
            raise ValueError("kept variables must be a nonempty distinct subset")
        if not all(0 <= i < self.ctx.nvars for i in indices):
            raise ValueError("kept variable index out of range")
        if len(indices) == self.ctx.nvars:
            raise ValueError("at least one variable must be dropped")
        parts = self._projections.get(indices)
        if parts is None:
            parts = self._projections[indices] = self._projection_parts(indices)
        return Projection(self, indices, *parts)

    def _projection_parts(
        self, indices: tuple[int, ...]
    ) -> tuple["LieAlgebra", tuple[VectorField, ...], tuple[tuple[Fraction, ...], ...]]:
        """(image, kernel fields, kernel coefficients) of project(indices):
        what project() keeps, none of it referring back to this algebra."""
        for b in self.basis:
            for ci, comp in enumerate(b.comps):
                if not comp.depends_only_on(indices):
                    raise ProjectionHypothesisViolated(
                        f"component {self.ctx.names[ci]} of basis element '{b}' "
                        "depends on a dropped variable"
                    )
        sub_ctx = VariableContext(tuple(self.ctx.names[i] for i in indices))
        columns = Columns(sub_ctx.nvars)
        images = [
            columns.vector(b.comps[i].restrict(indices).term_map() for i in indices)
            for b in self.basis
        ]
        echelon = EchelonBasis(columns)
        for vec in images:
            echelon.insert(vec)
        # no closure: under the block hypothesis dropping components is a homomorphism
        image = LieAlgebra(sub_ctx, echelon)
        kernel = null_space(images)
        if image.dim + len(kernel) != self.dim:
            raise InternalInvariantViolation("projection dimension identity failed")
        kernel_fields = tuple(map(self._field, kernel))
        return image, kernel_fields, tuple(tuple(to_dense(v, self.dim)) for v in kernel)

    # -- ideals and quotients --------------------------------------------------------

    def ideal_subspace(self, ideal: IdealLike) -> EchelonBasis:
        """Span of an ideal given as basis indices, fields, or coefficient
        vectors (any other item, a bool included, is a TypeError), as an
        integer-key echelon basis (not yet verified)."""
        items = list(ideal)
        if not items:
            raise ValueError("ideal must be nonempty")
        vecs: list[SparseVector] = []
        for item in items:
            if type(item) is int:
                if not 0 <= item < self.dim:
                    raise ValueError(f"basis index {item} out of range")
                vecs.append({item: Q(1)})
            elif isinstance(item, (VectorField, Sequence)):
                vecs.append(self._coeffs_of(item))
            else:
                raise TypeError(
                    f"ideal item {item!r} is not a basis index, a field or a coefficient vector"
                )
        return echelon_of(vecs)

    def verify_ideal(self, ideal: IdealLike) -> EchelonBasis:
        """Span of the ideal; raises NotAnIdeal unless [L, ideal] lies in it."""
        return self._verified_ideal(ideal)[0]

    def _verified_ideal(
        self, ideal: IdealLike
    ) -> tuple[EchelonBasis, list[tuple[dict[int, IntVector], int]]]:
        """verify_ideal's span and, per row in pivot order, the _ad_image of
        its primitive row: the images that decide the test, kept for
        split_check.  The integer images span the same lines as the exact
        ones, so span membership reads them as they are."""
        span = self.ideal_subspace(ideal)
        images = [self._ad_image(span.primitive_row(r)) for r in span.order()]
        outside = [i for image, _ in images for i, v in image.items() if not span.contains(v)]
        if outside:
            raise NotAnIdeal(f"[{self.basis[min(outside)]}, ideal] is not contained in the ideal")
        return span, images

    def quotient_structure(self, ideal: IdealLike) -> QuotientStructure:
        """Structure constants of L/ideal on the complementary basis lines."""
        return self._quotient_by(self.verify_ideal(ideal))

    # -- reporting -----------------------------------------------------------------

    def report(self) -> dict:
        """JSON-ready structural report with a stable key order.

        A nilpotent algebra is solvable, so the derived series is computed
        only when the lower-central series stops above zero.
        """
        center_fields = self.center()
        nilpotent = self.is_nilpotent()
        return {
            "variables": list(self.ctx.names),
            "basis": [str(b) for b in self.basis],
            "dim": self.dim,
            "structure": _structure_text(self._tensor),
            "nilpotent": nilpotent,
            "solvable": nilpotent or self.is_solvable(),
            "abelian": self.is_abelian(),
            "center": [str(v) for v in center_fields],
            "generic_rank": generic_rank(self.basis),
            "center_rank": generic_rank(center_fields),
        }
