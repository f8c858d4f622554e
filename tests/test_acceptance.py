"""Acceptance gate: every criterion at its stated tolerance (exact unless noted).

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  Numbered tests run in order; criteria 8 and 9 re-verify every
algebra and projection produced by the earlier suites.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from vflie import (
    CoordinateChange,
    DEFAULT_CONTEXT,
    LieAlgebra,
    VariableContext,
    build,
    classify,
    close,
    generic_rank,
    jordan_chains,
    random_spec,
    split_check,
)
from vflie.parser import parse_expression, parse_field

from conftest import oracle_member, oracle_rank, rand_field, rng

Q = Fraction
ctx = DEFAULT_CONTEXT


def F(text: str):
    return parse_field(text, ctx)


def E(text: str):
    return parse_expression(text, ctx)


EX_POLY = ["Dx", "y*Dx", "Dy + (x^2+y^2)*Dz", "(x+y)*Dz"]
EX_POLY_BASIS = [
    "Dx", "y*Dx", "Dy + (x^2+y^2)*Dz", "Dz",
    "x*Dz", "y*Dz", "x*y*Dz", "y^2*Dz",
]
EX_EXP = ["Dx", "y*Dx + x^2*exp(y)*Dz", "x*Dz"]
EX_EXP_BASIS = [
    "Dx", "y*Dx + x^2*exp(y)*Dz", "x*Dz", "Dz",
    "y*Dz", "x*exp(y)*Dz", "exp(y)*Dz", "y*exp(y)*Dz",
]
HEISENBERG = ["Dx", "y*Dx + x*Dz", "Dz"]

# algebras and projections accumulated by criteria 1-7 for re-verification
CLOSED: list[LieAlgebra] = []
PROJECTIONS: list = []


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"\ncriterion {num:2d} [{description}]: FAIL", flush=True)
        raise
    print(f"\ncriterion {num:2d} [{description}]: PASS", flush=True)


def spans_equal(algebra: LieAlgebra, basis_texts: list[str]) -> bool:
    if algebra.dim != len(basis_texts):
        return False
    return all(algebra.contains(F(t)) for t in basis_texts)


def record_projection(proj) -> None:
    PROJECTIONS.append(proj)


def test_criterion_1_polynomial_example_reproduction():
    with criterion(1, "8-dim polynomial closure reproduction, < 1 s"):
        start = time.perf_counter()
        L = close([F(t) for t in EX_POLY])
        elapsed = time.perf_counter() - start
        assert L.dim == 8
        assert spans_equal(L, EX_POLY_BASIS)
        assert elapsed < 1.0, f"closure took {elapsed:.3f}s"
        CLOSED.append(L)


def test_criterion_2_polynomial_example_nonsplit_certificate():
    with criterion(2, "non-split certificate isolates one unknown at 2 and -2"):
        L = close([F(t) for t in EX_POLY])
        proj = L.project(["x", "y"])
        record_projection(proj)
        verdict = split_check(L, list(proj.kernel_coeffs))
        assert not verdict.split
        cert = verdict.certificate
        basis_str = [str(b) for b in L.basis]
        a_idx = basis_str.index("Dx")
        b_idx = basis_str.index("y*Dx")
        c_idx = basis_str.index("Dy + x^2*Dz")  # e3 reduced modulo y^2*Dz
        i_xdz = basis_str.index("x*Dz")
        i_xydz = basis_str.index("x*y*Dz")
        conflicts = [c for c in cert.conflicts if c["kind"] == "singleton-pair"]
        assert len(conflicts) == 1, "a single unknown is isolated"
        conflict = conflicts[0]
        implied = {}
        for r in conflict["row_indices"]:
            row = cert.rows[r]
            (unknown, coeff), = row.coeffs.items()
            assert unknown == conflict["unknown"]
            implied[(row.pair, row.coordinate)] = -row.const / coeff
        assert implied[((a_idx, c_idx), i_xdz)] == 2
        assert implied[((b_idx, c_idx), i_xydz)] == -2
        assert {Q(2), Q(-2)} <= set(implied.values())
        CLOSED.append(L)


def test_criterion_3_exponential_example_reproduction():
    with criterion(3, "8-dim exponential closure, projection, center, non-split"):
        L = close([F(t) for t in EX_EXP])
        assert L.dim == 8
        assert spans_equal(L, EX_EXP_BASIS)
        proj = L.project(["x", "y"])
        record_projection(proj)
        assert proj.image.dim == 2
        assert {str(b) for b in proj.image.basis} == {"Dx", "y*Dx"}
        assert proj.kernel_dim == 6
        center = L.center()
        assert len(center) == 4
        assert generic_rank(center) == 1
        for v in center:
            assert v.comps[0].is_zero and v.comps[1].is_zero
            assert v.comps[2].depends_only_on((1,))  # g(y)Dz form
        verdict = split_check(L, list(proj.kernel_coeffs))
        assert not verdict.split
        CLOSED.append(L)


def test_criterion_4_heisenberg_classification():
    with criterion(4, "Heisenberg: dim 3, series (3,1,0), case CenterDim1(a)"):
        L = close([F(t) for t in HEISENBERG])
        assert L.dim == 3
        assert L.series("lower-central").dims == (3, 1, 0)
        report = classify(L)
        assert report.case == "CenterDim1" and report.subcase == "a"
        CLOSED.append(L)


def test_criterion_5_two_chain_suite():
    with criterion(5, "100 two-chain builds: dim Z=2, rank Z=2, two chains, < 60 s"):
        start = time.perf_counter()
        for seed in range(100):
            result = build(random_spec("center-rank2", seed, 4))
            L = close(result.generators)
            assert L.is_nilpotent()
            center = L.center()
            assert len(center) == 2
            assert generic_rank(center) == 2
            proj = L.project(["z"])
            record_projection(proj)
            jd = jordan_chains(L, result.generators[0], list(proj.kernel_coeffs))
            assert len(jd.chains) == 2
            # chain count equals the kernel dimension of the restricted operator
            op = L.express(result.generators[0])
            images = [list(L.bracket_coeffs(op, list(w))) for w in proj.kernel_coeffs]
            images = [row for row in images if any(row)]
            rank = oracle_rank(images) if images else 0
            assert len(jd.chains) == proj.kernel_dim - rank
            # the terminal vectors are independent and span that kernel
            terminal_coeffs = [L.express(chain[-1]) for chain in jd.chains]
            assert oracle_rank([list(t) for t in terminal_coeffs]) == len(jd.chains)
            for t in terminal_coeffs:
                assert not any(L.bracket_coeffs(op, list(t)))
            CLOSED.append(L)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_6_single_chain_suite():
    with criterion(6, "100 single-chain builds: one chain, dim Z = 1"):
        for seed in range(100):
            result = build(random_spec("single-chain", seed, 4))
            L = close(result.generators)
            assert L.is_nilpotent()
            assert len(L.center()) == 1
            proj = L.project(["x", "y"])
            record_projection(proj)
            jd = jordan_chains(L, result.generators[0], list(proj.kernel_coeffs))
            assert len(jd.chains) == 1
            CLOSED.append(L)


def test_criterion_7_center_rank_bound():
    with criterion(7, "200 mixed nonabelian builds: center rank <= 2"):
        recipes = (
            "center-rank2",
            "center-rank1",
            "heisenberg",
            "single-chain",
            "nonabelian-projection",
            "abelian-projection",
        )
        for i in range(200):
            result = build(random_spec(recipes[i % len(recipes)], i, 3))
            L = close(result.generators)
            assert L.is_nilpotent() and not L.is_abelian()
            assert generic_rank(L.center()) <= 2
            # expected skeleton consistent with the computed classification
            report = classify(L)
            expected = result.expected
            assert report.case == expected["case"]
            if "subcase" in expected:
                assert report.subcase == expected["subcase"]
            if "center_dim" in expected:
                assert report.center_dim == expected["center_dim"]
            if "center_rank" in expected:
                assert report.center_rank == expected["center_rank"]
            CLOSED.append(L)


def test_criterion_8_projection_identity():
    with criterion(8, "projection identity, abelian kernel, kernel is an ideal"):
        assert PROJECTIONS, "earlier criteria populate the projection registry"
        for proj in PROJECTIONS:
            L = proj.source
            assert L.dim == proj.image.dim + proj.kernel_dim
            kernel = [list(v) for v in proj.kernel_coeffs]
            for s in range(len(kernel)):
                for t in range(s, len(kernel)):
                    assert not any(L.bracket_coeffs(kernel[s], kernel[t]))
            for i in range(L.dim):
                unit = [Q(1) if t == i else Q(0) for t in range(L.dim)]
                for w in kernel:
                    assert oracle_member(kernel, L.bracket_coeffs(unit, w))


def _tensor_jacobi_ok(L: LieAlgebra) -> bool:
    d = L.dim

    def ad(i: int, vec: list[Fraction]) -> list[Fraction]:
        unit = [Q(1) if t == i else Q(0) for t in range(d)]
        return L.bracket_coeffs(unit, vec)

    def unit_bracket(i: int, j: int) -> list[Fraction]:
        out = [Q(0)] * d
        for k, c in L.structure.get((min(i, j), max(i, j)), {}).items():
            out[k] = c if i < j else -c
        return out

    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                total = [Q(0)] * d
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = unit_bracket(b, c)
                    outer = ad(a, inner)
                    total = [x + y for x, y in zip(total, outer)]
                if any(total):
                    return False
    return True


def test_criterion_9_algebraic_invariants():
    with criterion(9, "tensor antisymmetry+Jacobi; 50 pushforward, 20 rank cases"):
        assert CLOSED, "earlier criteria populate the algebra registry"
        r = rng(20240601)
        for L in CLOSED:
            for (i, j) in L.structure:
                assert all(
                    L.c(j, i, k) == -c for k, c in L.structure[(i, j)].items()
                )
            u = [Q(r.randint(-2, 2)) for _ in range(L.dim)]
            w = [Q(r.randint(-2, 2)) for _ in range(L.dim)]
            forward = L.bracket_coeffs(u, w)
            backward = L.bracket_coeffs(w, u)
            assert forward == [-x for x in backward]
            assert _tensor_jacobi_ok(L)
        # field-level tensor faithfulness on the four example algebras
        for L in CLOSED[:4]:
            ech_coeffs = [L.express(b) for b in L.basis]
            for i in range(L.dim):
                for j in range(i + 1, L.dim):
                    direct = L.express(L.basis[i].bracket(L.basis[j]))
                    assert direct == L.bracket_coeffs(ech_coeffs[i], ech_coeffs[j])
        changes = [
            CoordinateChange(ctx, (E("x + y"), E("y"), E("z")), (E("x - y"), E("y"), E("z"))),
            CoordinateChange(ctx, (E("x"), E("y"), E("2*z + 3")), (E("x"), E("y"), E("1/2*z - 3/2"))),
            CoordinateChange(ctx, (E("x"), E("y"), E("z + x^2*y")), (E("x"), E("y"), E("z - x^2*y"))),
            CoordinateChange(ctx, (E("x"), E("y + x^3"), E("z")), (E("x"), E("y - x^3"), E("z"))),
            CoordinateChange(ctx, (E("x + 2*z"), E("y"), E("z")), (E("x - 2*z"), E("y"), E("z"))),
        ]
        for case in range(50):
            change = changes[case % len(changes)]
            v = rand_field(r, ctx, max_terms=2)
            w = rand_field(r, ctx, max_terms=2)
            lhs = v.bracket(w).pushforward(change)
            rhs = v.pushforward(change).bracket(w.pushforward(change))
            assert lhs == rhs
        for case in range(20):
            change = changes[case % len(changes)]
            fields = [rand_field(r, ctx, max_terms=2) for _ in range(3)]
            pushed = [f.pushforward(change) for f in fields]
            assert generic_rank(pushed) == generic_rank(fields)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "vflie", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_criterion_10_cli_determinism():
    with criterion(10, "byte-identical JSON reruns; emitted strings re-parse"):
        def gen_args(fields):
            out = []
            for f in fields:
                out += ["--gen", f]
            return out

        commands = [
            ["closure", *gen_args(EX_POLY)],
            ["split", *gen_args(EX_POLY), "--kept", "x,y"],
            ["closure", *gen_args(EX_EXP)],
            ["project", *gen_args(EX_EXP), "--kept", "x,y"],
            ["center", *gen_args(EX_EXP)],
            ["split", *gen_args(EX_EXP), "--kept", "x,y"],
            ["closure", *gen_args(HEISENBERG)],
            ["series", *gen_args(HEISENBERG)],
            ["classify", *gen_args(HEISENBERG)],
            ["rank", *gen_args(HEISENBERG)],
        ]
        for cmd in commands:
            first = run_cli(*cmd, "--format", "json")
            second = run_cli(*cmd, "--format", "json")
            assert first.returncode == 0, first.stderr
            assert first.stdout == second.stdout  # byte-identical
            report = json.loads(first.stdout)
            for key in ("basis", "center", "kernel"):
                for text in report.get(key, []):
                    assert str(parse_field(text, ctx)) == text
            image = report.get("image")
            if image:
                im_ctx = VariableContext(tuple(image["variables"]))
                for text in image["basis"]:
                    assert str(parse_field(text, im_ctx)) == text
