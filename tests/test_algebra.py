"""Closure, structure tensors, center, series, projections, quotients."""

from __future__ import annotations

from itertools import combinations

import pytest

import vflie.algebra
from vflie import (
    ClosureCapExceeded,
    ContextMismatch,
    CoordinateChange,
    DEFAULT_CONTEXT,
    LieAlgebra,
    NotAnIdeal,
    NotInSpan,
    ProjectionHypothesisViolated,
    RECIPES,
    build,
    close,
    generic_rank,
    random_spec,
    VariableContext,
)
from vflie.parser import parse_expression, parse_field

from conftest import (
    Q,
    naive_add,
    naive_canon,
    naive_diff,
    naive_field_coords,
    naive_mul,
    naive_of,
    oracle_member,
    oracle_rank,
    oracle_row_basis,
    rng,
)

ctx = DEFAULT_CONTEXT


def F(text: str):
    return parse_field(text, ctx)


def algebra(*texts: str, **kw) -> LieAlgebra:
    return close([F(t) for t in texts], **kw)


EX_SPLIT_FAIL = ("Dx", "y*Dx", "Dy + (x^2+y^2)*Dz", "(x+y)*Dz")  # closes to dim 8
EX_EXP = ("Dx", "y*Dx + x^2*exp(y)*Dz", "x*Dz")  # closes to dim 8
HEISENBERG = ("Dx", "y*Dx + x*Dz", "Dz")
TWO_CHAIN = ("Dz", "z*Dx", "z^2*Dx + z*Dy", "Dx", "Dy")  # closes to dim 5


def center_oracle(L: LieAlgebra) -> int:
    """Independent center dimension: null space of bracket constraints assembled
    from raw field brackets and a naive coordinatization."""
    brackets = []
    for j in range(L.dim):
        brackets.extend(L.basis[i].bracket(L.basis[j]) for i in range(L.dim))
    coords = naive_field_coords(list(L.basis) + brackets)
    width = len(coords[0])
    rows = []
    for col in range(width):
        for j in range(L.dim):
            rows.append([coords[L.dim + j * L.dim + i][col] for i in range(L.dim)])
    rows = [r for r in rows if any(r)]
    return L.dim - oracle_rank(rows) if rows else L.dim


def series_oracle(L: LieAlgebra, kind: str) -> list[int]:
    """Independent series dims: bracket vectors assembled from the structure
    constants L.c(i, j, k), each term's span taken by the dense oracle."""
    n = L.dim
    nonzero = []
    for i in range(n):
        for j in range(n):
            vec = [L.c(i, j, k) for k in range(n)]
            if any(vec):
                nonzero.append((i, j, vec))

    def bracket(u, w):
        out = [Q(0)] * n
        for i, j, vec in nonzero:
            if u[i] and w[j]:
                out = [o + u[i] * w[j] * c for o, c in zip(out, vec)]
        return out

    units = [[Q(int(i == j)) for i in range(n)] for j in range(n)]
    current, dims = units, [n]
    while dims[-1]:
        left = units if kind == "lower-central" else current
        vecs = [v for u in left for w in current if any(v := bracket(u, w))]
        nxt = oracle_row_basis(vecs)
        if len(nxt) == dims[-1]:
            break
        dims.append(len(nxt))
        current = nxt
    return dims


# -- closure ------------------------------------------------------------------------


def test_abelian_translations():
    L = algebra("Dx", "Dy", "Dz")
    assert L.dim == 3 and L.is_abelian()
    assert not L.structure


def test_closure_polynomial_example_dim8():
    L = algebra(*EX_SPLIT_FAIL)
    assert L.dim == 8
    expected = ["Dx", "y*Dx", "Dy + (x^2+y^2)*Dz", "Dz", "x*Dz", "y*Dz", "x*y*Dz", "y^2*Dz"]
    for text in expected:
        assert L.contains(F(text))


def test_closure_exponential_example_dim8():
    L = algebra(*EX_EXP)
    assert L.dim == 8
    for text in (
        "Dx", "y*Dx + x^2*exp(y)*Dz", "x*Dz", "Dz",
        "y*Dz", "x*exp(y)*Dz", "exp(y)*Dz", "y*exp(y)*Dz",
    ):
        assert L.contains(F(text))


def test_closure_exponential_variant_is_smaller():
    # replacing x^2*exp(y) by exp(y) in the second generator changes the algebra
    L = algebra("Dx", "y*Dx + exp(y)*Dz", "x*Dz")
    assert L.dim == 5
    assert [str(b) for b in L.basis] == [
        "Dx", "y*Dx + exp(y)*Dz", "Dz", "x*Dz", "y*Dz",
    ]


def test_closure_cap_exceeded_for_unbounded_growth():
    # oracle: [x*Dx, x^k*Dx] = (k-1) x^k ... degrees grow without bound
    with pytest.raises(ClosureCapExceeded):
        algebra("Dx", "x*Dx", "x^3*Dx")


def test_closure_respects_small_dim_cap():
    with pytest.raises(ClosureCapExceeded):
        algebra(*EX_SPLIT_FAIL, cap_dim=5)


def test_dim_cap_message_names_the_cap_without_claiming_infinite_dimension():
    # finite: this draw closes at dim 88, above the default cap of 64
    gens = build(random_spec("center-rank1", 7, 6)).generators
    with pytest.raises(ClosureCapExceeded) as info:
        close(gens)
    exc = info.value
    message = str(exc)
    assert "cap_dim=64" in message and "dimension 65" in message
    assert "round" in message and "--cap-dim" in message
    assert "infinite" not in message
    assert (exc.cap, exc.limit, exc.dim) == ("cap_dim", 64, 65)
    assert exc.round >= 1 and f"round {exc.round}" in message
    assert exc.pending > 0 and f"{exc.pending} pairs pending" in message
    assert close(gens, cap_dim=200).dim == 88


def test_round_cap_reports_how_far_the_closure_got():
    with pytest.raises(ClosureCapExceeded) as info:
        algebra(*EX_SPLIT_FAIL, cap_rounds=1)  # closes to dim 8 in more rounds
    exc = info.value
    assert (exc.cap, exc.limit, exc.round) == ("cap_rounds", 1, 1)
    assert 4 <= exc.dim <= 8 and exc.pending > 0
    message = str(exc)
    assert "cap_rounds=1" in message and f"dimension {exc.dim}" in message
    assert "round 1" in message and "--cap-rounds" in message
    assert "infinite" not in message
    assert algebra(*EX_SPLIT_FAIL, cap_rounds=exc.round + 8).dim == 8


def test_cap_degree_is_a_closure_limit():
    # [Dx, x^5*Dy] = 5*x^4*Dy, ... down to Dy: dim 7, degree 5
    with pytest.raises(ClosureCapExceeded) as info:
        algebra("Dx", "x^5*Dy", cap_degree=4)
    exc = info.value
    assert (exc.cap, exc.limit, exc.dim, exc.round, exc.pending) == ("cap_degree", 4, 1, 0, 0)
    message = str(exc)
    assert "cap_degree=4" in message and "degree 5" in message
    assert "--degree-cap" in message and "infinite" not in message
    assert algebra("Dx", "x^5*Dy", cap_degree=5).dim == 7


def test_closure_deterministic_and_generator_order_independent():
    L1 = algebra(*EX_SPLIT_FAIL)
    L2 = algebra(*reversed(EX_SPLIT_FAIL))
    assert [str(b) for b in L1.basis] == [str(b) for b in L2.basis]
    assert L1.structure == L2.structure


def test_closure_idempotent():
    L = algebra(*EX_EXP)
    again = close(list(L.basis))
    assert [str(b) for b in again.basis] == [str(b) for b in L.basis]


def test_closure_agrees_with_naive_fixpoint_oracle():
    # independent oracle: recompute all pairwise brackets of the full current
    # list every round, membership-tested with the naive dense routine
    r = rng(20240545)
    for _ in range(10):
        gens = []
        for _ in range(r.randint(2, 3)):
            f = parse_field("0", ctx) + ctx.field(
                [
                    ctx.const(r.randint(-2, 2)) + ctx.var_poly(1) * r.randint(-2, 2),
                    ctx.zero_poly(),
                    ctx.const(r.randint(-2, 2)) + ctx.var_poly(0) * r.randint(-2, 2),
                ]
            )
            gens.append(f)
        if all(g.is_zero for g in gens):
            continue
        fields = [g for g in gens if not g.is_zero]
        kept = []
        for f in fields:
            coords = naive_field_coords(kept + [f])
            if not oracle_member(coords[:-1], coords[-1]):
                kept.append(f)
        while True:
            grown = False
            for i in range(len(kept)):
                for j in range(len(kept)):
                    w = kept[i].bracket(kept[j])
                    if w.is_zero:
                        continue
                    coords = naive_field_coords(kept + [w])
                    if not oracle_member(coords[:-1], coords[-1]):
                        kept.append(w)
                        grown = True
            if not grown:
                break
        L = close(gens)
        assert L.dim == len(kept)
        for f in kept:
            assert L.contains(f)


def test_structure_tensor_antisymmetry_and_jacobi():
    for texts in (EX_SPLIT_FAIL, EX_EXP, HEISENBERG, TWO_CHAIN):
        L = algebra(*texts)
        d = L.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    assert L.c(i, j, k) == -L.c(j, i, k)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    unit = lambda t: [Q(1) if s == t else Q(0) for s in range(d)]
                    jac = [Q(0)] * d
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = L.bracket_coeffs(unit(b), unit(c))
                        outer = L.bracket_coeffs(unit(a), inner)
                        jac = [x + y for x, y in zip(jac, outer)]
                    assert not any(jac)


@pytest.fixture(scope="module")
def oracle_corpus() -> list[LieAlgebra]:
    """Every recipe at degree bound 3 plus the dim-39 center-rank1 closure."""
    algebras = [close(build(random_spec(recipe, 0, 3)).generators) for recipe in RECIPES]
    large = close(build(random_spec("center-rank1", 10, 5)).generators)
    assert large.dim >= 30
    return algebras + [large]


def _terms(canon: dict) -> list:
    return [(powers, rates, coeff) for (powers, rates), coeff in canon.items()]


def naive_bracket(u, w) -> list[dict]:
    """[u, w] on raw term lists: component k is sum_i u_i d_i w_k - w_i d_i u_k."""
    n = len(u.comps)
    out = []
    for k in range(n):
        acc: dict = {}
        for i in range(n):
            plus = naive_mul(naive_of(u.comps[i]), _terms(naive_diff(naive_of(w.comps[k]), i)))
            minus = naive_mul(naive_of(w.comps[i]), _terms(naive_diff(naive_of(u.comps[k]), i)))
            acc = naive_add(_terms(acc), _terms(plus) + [(p, r, -c) for p, r, c in _terms(minus)])
        out.append(acc)
    return out


def test_structure_tensor_matches_naive_bracket_oracle(oracle_corpus):
    # close() builds the tensor and LieAlgebra takes it as given, so every
    # pair is checked here against brackets that share no code with the
    # engine: [b_i, b_j] = sum_k c(i, j, k) b_k term for term, and a pair is
    # stored exactly when its bracket is nonzero
    for L in oracle_corpus:
        n = L.ctx.nvars
        for i, j in combinations(range(L.dim), 2):
            coeffs = L.structure.get((i, j), {})
            combination = [
                naive_canon([(p, r, a * c) for k, a in coeffs.items()
                             for p, r, c in naive_of(L.basis[k].comps[comp])])
                for comp in range(n)
            ]
            got = naive_bracket(L.basis[i], L.basis[j])
            assert got == combination, (L.dim, i, j)
            assert ((i, j) in L.structure) == any(got), (L.dim, i, j)


def test_express_and_element_round_trip():
    L = algebra(*EX_EXP)
    r = rng(20240540)
    for _ in range(10):
        coeffs = [Q(r.randint(-3, 3), r.choice((1, 2))) for _ in range(L.dim)]
        assert L.express(L.element(coeffs)) == coeffs
    with pytest.raises(NotInSpan):
        L.express(F("x^5*Dz"))


def test_membership_checks_the_context():
    L = algebra(*HEISENBERG)
    other = parse_field("Da", VariableContext(("a", "b", "c")))
    assert L.contains(F("Dx")) and not L.contains(F("Dy"))
    with pytest.raises(ContextMismatch):
        L.contains(other)
    with pytest.raises(ContextMismatch):
        L.express(other)


# -- center -------------------------------------------------------------------------


def test_center_of_abelian_is_everything():
    L = algebra("Dx", "Dy", "Dz")
    assert len(L.center()) == 3


def test_center_of_polynomial_example():
    L = algebra(*EX_SPLIT_FAIL)
    c = L.center()
    assert [str(v) for v in c] == ["Dz"]
    assert center_oracle(L) == 1


def test_center_of_exponential_example():
    L = algebra(*EX_EXP)
    c = L.center()
    assert len(c) == 4
    assert center_oracle(L) == 4
    for v in c:
        assert v.comps[0].is_zero and v.comps[1].is_zero
        assert v.comps[2].depends_only_on((1,))  # all of the form g(y)Dz
    assert generic_rank(c) == 1


def test_center_matches_oracle_randomized():
    r = rng(20240541)
    from vflie import build, random_spec

    for recipe in ("center-rank2", "single-chain", "heisenberg"):
        for seed in range(3):
            L = close(build(random_spec(recipe, seed, 2)).generators)
            assert len(L.center()) == center_oracle(L)


# -- series -------------------------------------------------------------------------


def test_heisenberg_lower_central():
    L = algebra(*HEISENBERG)
    report = L.series("lower-central")
    assert report.dims == (3, 1, 0) and report.terminated_at_zero


def test_abelian_series():
    L = algebra("Dx", "Dy", "Dz")
    assert L.series("lower-central").dims == (3, 0)
    assert L.series("derived").dims == (3, 0)


def test_series_match_structure_constant_oracle(oracle_corpus):
    stalled = [algebra("Dx", "x*Dx"), algebra("Dx", "x*Dx", "x^2*Dx")]  # series stop above 0
    for L in oracle_corpus + stalled:
        for kind in ("lower-central", "derived"):
            report = L.series(kind)
            assert list(report.dims) == series_oracle(L, kind), (L.dim, kind)
            assert report.terminated_at_zero == (report.dims[-1] == 0)


def test_series_are_cached_per_algebra(monkeypatch):
    L = algebra(*EX_SPLIT_FAIL)
    real_echelon_of = vflie.algebra.echelon_of
    calls = []

    def counting_echelon_of(rows):
        calls.append(1)
        return real_echelon_of(rows)

    monkeypatch.setattr(vflie.algebra, "echelon_of", counting_echelon_of)
    for kind in ("lower-central", "derived"):
        before = len(calls)
        first = L.series(kind)
        computed = len(calls)
        assert computed > before
        assert L.series(kind) == first
        assert len(calls) == computed
    assert L.is_nilpotent() and L.is_solvable()
    assert len(calls) == computed


def test_report_takes_solvability_from_a_nilpotent_series(monkeypatch):
    real = vflie.algebra.LieAlgebra._compute_series
    kinds = []

    def counting(self, kind):
        kinds.append(kind)
        return real(self, kind)

    monkeypatch.setattr(vflie.algebra.LieAlgebra, "_compute_series", counting)
    report = algebra(*EX_SPLIT_FAIL).report()
    assert report["nilpotent"] and report["solvable"]
    assert kinds == ["lower-central"]
    assert algebra("Dx", "x*Dx").report()["solvable"] is True
    assert algebra("Dx", "x*Dx", "x^2*Dx").report()["solvable"] is False


def test_invariants_survive_a_coordinate_change():
    # the two changes of test_rank_invariant_under_pushforward in test_linalg
    E = lambda t: parse_expression(t, ctx)
    changes = [
        CoordinateChange(ctx, (E("x + y"), E("y"), E("z")), (E("x - y"), E("y"), E("z"))),
        CoordinateChange(
            ctx, (E("x"), E("y"), E("z + x^2*y")), (E("x"), E("y"), E("z - x^2*y"))
        ),
    ]

    def invariants(L: LieAlgebra) -> tuple:
        center = L.center()
        return (
            L.dim,
            L.series("lower-central").dims,
            len(center),
            generic_rank(L.basis),
            generic_rank(center),
        )

    for recipe in RECIPES:
        generators = build(random_spec(recipe, 0, 3)).generators
        expected = invariants(close(generators))
        for change in changes:
            pushed = close([g.pushforward(change) for g in generators])
            assert invariants(pushed) == expected, (recipe, change)


def test_polynomial_example_is_nilpotent():
    L = algebra(*EX_SPLIT_FAIL)
    assert L.series("lower-central").terminated_at_zero
    assert L.is_nilpotent() and L.is_solvable() and not L.is_abelian()


def test_affine_line_solvable_not_nilpotent():
    L = algebra("Dx", "x*Dx")
    assert L.is_solvable() and not L.is_nilpotent()
    assert L.series("lower-central").dims == (2, 1)


def test_sl2_like_not_solvable():
    L = algebra("Dx", "x*Dx", "x^2*Dx")
    assert L.dim == 3
    assert not L.is_nilpotent() and not L.is_solvable()


def test_single_field_nilpotent():
    assert algebra("y*Dx + x^2*exp(y)*Dz").is_nilpotent()


# -- projection ----------------------------------------------------------------------


def test_project_exponential_example():
    L = algebra(*EX_EXP)
    proj = L.project(["x", "y"])
    assert proj.image.dim == 2
    assert proj.kernel_dim == 6
    assert {str(b) for b in proj.image.basis} == {"Dx", "y*Dx"}
    assert L.dim == proj.image.dim + proj.kernel_dim


def test_project_abelian():
    L = algebra("Dx", "Dy", "Dz")
    proj = L.project(["x", "y"])
    assert proj.image.dim == 2 and proj.kernel_dim == 1


def test_project_kernel_is_abelian_ideal():
    for texts in (EX_SPLIT_FAIL, EX_EXP, TWO_CHAIN):
        L = algebra(*texts)
        kept = ["x", "y"] if texts is not TWO_CHAIN else ["z"]
        proj = L.project(kept)
        kernel = list(proj.kernel_coeffs)
        for s in range(len(kernel)):
            for t in range(len(kernel)):
                assert not any(L.bracket_coeffs(kernel[s], kernel[t]))
        span = [list(v) for v in kernel]
        for i in range(L.dim):
            unit = [Q(1) if t == i else Q(0) for t in range(L.dim)]
            for w in kernel:
                assert oracle_member(span, L.bracket_coeffs(unit, list(w)))


def test_project_hypothesis_violation():
    L = algebra("Dx", "z*Dx")  # x-component depends on dropped z
    with pytest.raises(ProjectionHypothesisViolated):
        L.project(["x", "y"])


def test_project_image_of_two_chain():
    L = algebra(*TWO_CHAIN)
    proj = L.project(["z"])
    assert proj.image.dim == 1 and proj.kernel_dim == 4


# -- adjoint -------------------------------------------------------------------------


def test_adjoint_of_central_element_is_zero():
    L = algebra(*HEISENBERG)
    mat = L.adjoint_matrix(F("Dz"))
    assert all(not any(row) for row in mat)


def test_adjoint_action_example():
    L = algebra("Dx", "Dy", "z*Dx", "Dz")
    mat = L.adjoint_matrix(F("Dz"))
    i_zdx = [str(b) for b in L.basis].index("z*Dx")
    i_dx = [str(b) for b in L.basis].index("Dx")
    assert mat[i_dx][i_zdx] == 1
    total = sum(1 for row in mat for v in row if v)
    assert total == 1


def test_adjoint_nilpotent_for_nilpotent_algebra():
    for texts in (EX_SPLIT_FAIL, EX_EXP, HEISENBERG, TWO_CHAIN):
        L = algebra(*texts)
        for i in range(L.dim):
            unit = [Q(1) if t == i else Q(0) for t in range(L.dim)]
            mat = L.adjoint_matrix(unit)
            power = mat
            for _ in range(L.dim):
                power = [
                    [
                        sum(power[r][k] * mat[k][c] for k in range(L.dim))
                        for c in range(L.dim)
                    ]
                    for r in range(L.dim)
                ]
            assert all(not any(row) for row in power)


# -- quotients -----------------------------------------------------------------------


def test_quotient_by_whole_algebra():
    L = algebra(*HEISENBERG)
    q = L.quotient_structure(list(range(L.dim)))
    assert q.dim == 0


def test_heisenberg_mod_center_is_abelian():
    L = algebra(*HEISENBERG)
    q = L.quotient_structure(L.center())
    assert q.dim == 2 and not q.tensor


def test_polynomial_example_quotient_pattern():
    # modding out the projection kernel leaves [e1, e2] = -e0
    L = algebra(*EX_SPLIT_FAIL)
    proj = L.project(["x", "y"])
    q = L.quotient_structure(list(proj.kernel_coeffs))
    assert q.dim == 3
    assert q.tensor == {(1, 2): {0: Q(-1)}}


def test_quotient_by_central_line_off_the_basis():
    # Dy + Dz is central, so its line is an ideal; modulo it [Dx, x*Dy] = Dy
    # is -Dz, which only reducing by the ideal's row reveals
    L = algebra("Dx", "x*Dy", "Dz")
    assert [str(b) for b in L.basis] == ["Dx", "Dy", "x*Dy", "Dz"]
    q = L.quotient_structure([F("Dy + Dz")])
    assert q.rep_indices == (0, 2, 3)
    assert q.tensor == {(0, 1): {2: Q(-1)}}
    ideal = [L.express(F("Dy + Dz"))]
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        unit = lambda r: [Q(int(t == q.rep_indices[r])) for t in range(L.dim)]
        lifted = L.bracket_coeffs(unit(a), unit(b))
        for c, coeff in q.tensor.get((a, b), {}).items():
            lifted[q.rep_indices[c]] -= coeff
        assert oracle_member(ideal, lifted)


def test_not_an_ideal_detected():
    L = algebra(*HEISENBERG)
    span_dx = [i for i, b in enumerate(L.basis) if str(b) == "Dx"]
    with pytest.raises(NotAnIdeal):
        L.quotient_structure(span_dx)


def test_report_schema():
    L = algebra(*HEISENBERG)
    report = L.report()
    assert list(report.keys()) == [
        "variables", "basis", "dim", "structure", "nilpotent",
        "solvable", "abelian", "center", "generic_rank", "center_rank",
    ]
    assert report["dim"] == 3 and report["nilpotent"] is True
    # the realization spans the x and z directions only
    assert report["generic_rank"] == 2 and report["center_rank"] == 1
    assert all(isinstance(entry[3], str) for entry in report["structure"])
