"""Classification, Jordan chains, one-dimensional ideals, split checks, templates."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from vflie import (
    RECIPES,
    CoordinateChange,
    DEFAULT_CONTEXT,
    IdealNotAbelian,
    NotAnIdeal,
    NotInvariant,
    NotNilpotent,
    NotNilpotentOperator,
    build,
    classify,
    close,
    jordan_chains,
    match_template,
    one_dim_ideals_mod_center,
    random_spec,
    split_check,
)
from vflie.classify import SUBCASE_UNDETERMINED
from vflie.parser import parse_expression, parse_field

from conftest import Q, naive_field_coords, oracle_member, oracle_rank

ctx = DEFAULT_CONTEXT


def F(text: str):
    return parse_field(text, ctx)


def E(text: str):
    return parse_expression(text, ctx)


def algebra(*texts: str):
    return close([F(t) for t in texts])


HEISENBERG = ("Dx", "y*Dx + x*Dz", "Dz")
EX_POLY = ("Dx", "y*Dx", "Dy + (x^2+y^2)*Dz", "(x+y)*Dz")
EX_EXP = ("Dx", "y*Dx + x^2*exp(y)*Dz", "x*Dz")
TWO_CHAIN = ("Dz", "z*Dx", "z^2*Dx + z*Dy", "Dx", "Dy")

GOLDEN = Path(__file__).parent / "data" / "classify_golden.json"
PROJECTION_RECIPES = ("nonabelian-projection", "abelian-projection")


@pytest.fixture(scope="module")
def recipe_corpus():
    """The recipe-mix draws: every recipe at seeds 0-12, degree bound 4 for
    the center-rank2 and single-chain suites and 3 otherwise, each with the
    Jordan or split input the acceptance gate gives it (or neither)."""
    out = []
    for recipe in RECIPES:
        bound = 4 if recipe in ("center-rank2", "single-chain") else 3
        for seed in range(13):
            result = build(random_spec(recipe, seed, bound))
            L = close(result.generators)
            jordan = result.expected.get("jordan")
            if jordan:
                proj = L.project(jordan["kept"])
                operator = result.generators[jordan["operator_generator"]]
                out.append((f"{recipe}/{seed}", L, operator, proj))
            elif recipe in PROJECTION_RECIPES:
                out.append((f"{recipe}/{seed}", L, None, L.project([0, 1])))
    return out


def classify_outputs(corpus) -> dict:
    """Jordan chains and aligned heads, or split verdicts, keyed by draw."""
    out = {}
    for name, L, operator, proj in corpus:
        ideal = list(proj.kernel_coeffs)
        if operator is None:
            out[f"{name}/split"] = split_check(L, ideal).to_dict()
            continue
        jd = jordan_chains(L, operator, ideal)
        heads = jd.aligned_heads()
        out[f"{name}/jordan"] = jd.to_dict()
        out[f"{name}/aligned_heads"] = None if heads is None else [
            [str(c) for c in head] for head in heads
        ]
    return out


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# -- classify ---------------------------------------------------------------------


def test_classify_heisenberg():
    report = classify(algebra(*HEISENBERG))
    assert report.case == "CenterDim1" and report.subcase == "a"
    assert report.center_dim == 1 and report.center_rank == 1


def test_classify_two_chain_center_rank2():
    report = classify(algebra(*TWO_CHAIN))
    assert report.case == "CenterRank2"
    assert report.center_dim == 2
    assert sorted(report.evidence["center"]) == ["Dx", "Dy"]


def test_classify_exponential_example():
    report = classify(algebra(*EX_EXP))
    assert report.case == "CenterRank1DimGE2"
    assert report.center_dim == 4 and report.center_rank == 1


def test_classify_polynomial_example_subcase_c():
    report = classify(algebra(*EX_POLY))
    assert report.case == "CenterDim1" and report.subcase == "c"


def test_classify_abelian_ranks():
    assert classify(algebra("Dx", "Dy", "Dz")).abelian_rank == 3
    assert classify(algebra("Dx", "Dy", "z*Dx + z^2*Dy")).abelian_rank == 2
    assert classify(algebra("Dx", "y*Dx", "(y+z^2)*Dx")).abelian_rank == 1


def test_classify_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        classify(algebra("Dx", "x*Dx"))


def test_classify_undetermined_in_skew_coordinates():
    # new x = x + z^2 drags the center off the coordinate axes: the case is
    # still CenterDim1 but the subcase cannot be read off these coordinates
    change = CoordinateChange(
        ctx, (E("x + z^2"), E("y"), E("z")), (E("x - z^2"), E("y"), E("z"))
    )
    gens = [F(t).pushforward(change) for t in HEISENBERG]
    report = classify(close(gens))
    assert report.case == "CenterDim1"
    assert report.subcase == SUBCASE_UNDETERMINED
    assert "undetermined_reason" in report.evidence


def test_classify_invariant_under_good_pushforward():
    shear = CoordinateChange(
        ctx, (E("x + y"), E("y"), E("z")), (E("x - y"), E("y"), E("z"))
    )
    for texts in (HEISENBERG, EX_POLY, TWO_CHAIN):
        base = classify(algebra(*texts))
        pushed = classify(close([F(t).pushforward(shear) for t in texts]))
        assert pushed.case == base.case
        if base.subcase is not None and pushed.subcase != SUBCASE_UNDETERMINED:
            assert pushed.subcase == base.subcase
        assert pushed.center_dim == base.center_dim
        assert pushed.center_rank == base.center_rank


def test_classify_evidence_recomputable():
    L = algebra(*EX_POLY)
    first = classify(L)
    second = classify(L)
    assert first == second


# -- jordan chains ------------------------------------------------------------------


def test_jordan_zero_operator_two_singleton_chains():
    L = algebra("Dz", "Dx", "Dy")
    ideal = [i for i, b in enumerate(L.basis) if str(b) in ("Dx", "Dy")]
    jd = jordan_chains(L, F("Dz"), ideal)
    assert jd.lengths == (1, 1)


def test_jordan_two_chain_example():
    L = algebra(*TWO_CHAIN)
    proj = L.project(["z"])
    jd = jordan_chains(L, F("Dz"), list(proj.kernel_coeffs))
    # the chains depend on the ideal's span, not on the order it is given in
    reordered = jordan_chains(L, F("Dz"), list(reversed(proj.kernel_coeffs)))
    assert reordered.to_dict() == jd.to_dict()
    assert sorted(jd.lengths, reverse=True) == [3, 1]
    heads = {str(h) for h in jd.generators}
    assert "z^2*Dx + z*Dy" in heads
    # operator walks each chain and terminates at zero
    for chain in jd.chains:
        for a, b in zip(chain, chain[1:]):
            assert F("Dz").bracket(a) == b
        assert F("Dz").bracket(chain[-1]).is_zero
    # terminal vectors span the kernel of the operator on the ideal
    assert sorted(str(t) for t in jd.terminals) == ["2*Dx", "Dy"]


def test_jordan_aligned_heads_degree_pattern():
    L = algebra(*TWO_CHAIN)
    proj = L.project(["z"])
    jd = jordan_chains(L, F("Dz"), list(proj.kernel_coeffs))
    aligned = jd.aligned_heads()
    assert aligned is not None
    by_len = sorted(zip(jd.lengths, aligned), reverse=True)
    (_, long_head), (_, short_head) = by_len
    own, other = long_head[0], long_head[1]
    assert own.degree > other.degree  # deg P > deg Q on its own terminal
    assert short_head[0].degree < short_head[1].degree


def test_jordan_polynomial_example_three_chains():
    L = algebra(*EX_POLY)
    proj = L.project(["x", "y"])
    jd = jordan_chains(L, F("Dx"), list(proj.kernel_coeffs))
    assert sorted(jd.lengths, reverse=True) == [2, 2, 1]
    assert len(jd.chains) == 3  # = dim ker, which is <Dz, y*Dz, y^2*Dz>


def test_jordan_chain_elements_form_basis_of_ideal():
    L = algebra(*EX_POLY)
    proj = L.project(["x", "y"])
    jd = jordan_chains(L, F("Dx"), list(proj.kernel_coeffs))
    vectors = [L.express(v) for chain in jd.chains for v in chain]
    span = []
    for v in vectors:
        assert not oracle_member(span, list(v))
        span.append(list(v))
    assert len(span) == proj.kernel_dim


def test_jordan_not_invariant():
    L = algebra(*HEISENBERG)
    ideal = [i for i, b in enumerate(L.basis) if str(b) == "y*Dx + x*Dz"]
    with pytest.raises(NotInvariant):
        jordan_chains(L, F("Dx"), ideal)


def test_jordan_not_nilpotent_operator():
    L = algebra("Dx", "x*Dx")
    idx = [i for i, b in enumerate(L.basis) if str(b) == "Dx"]
    with pytest.raises(NotNilpotentOperator):
        jordan_chains(L, F("x*Dx"), idx)


# -- one-dimensional ideals mod center -------------------------------------------------


def test_one_dim_ideals_heisenberg():
    family = one_dim_ideals_mod_center(algebra(*HEISENBERG))
    assert not family.degenerate
    assert family.center_dim == 1
    assert family.parameter_dim == 2  # abelian quotient: every line is an ideal


def test_one_dim_ideals_two_chain_shape():
    L = algebra(*TWO_CHAIN)
    family = one_dim_ideals_mod_center(L)
    assert family.parameter_dim == 1
    lift = family.lifts[0]
    # modulo the center <Dx, Dy>, the lift is z*(a*Dx + b*Dy) for constants a, b
    assert lift.comps[2].is_zero
    z_mono = next(iter(E("z").term_map()))
    alpha = lift.comps[0].term_map().get(z_mono, Q(0))
    beta = lift.comps[1].term_map().get(z_mono, Q(0))
    assert (alpha, beta) != (0, 0)
    residual = lift - F("z*Dx") * alpha - F("z*Dy") * beta
    assert all(c.is_constant for c in residual.comps)


def test_one_dim_ideals_abelian_degenerate():
    family = one_dim_ideals_mod_center(algebra("Dx", "Dy", "Dz"))
    assert family.degenerate


def test_one_dim_ideals_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        one_dim_ideals_mod_center(algebra("Dx", "x*Dx"))


# -- split checks -----------------------------------------------------------------------


def test_split_poly_example_certificate():
    L = algebra(*EX_POLY)
    proj = L.project(["x", "y"])
    verdict = split_check(L, list(proj.kernel_coeffs))
    assert not verdict.split
    cert = verdict.certificate
    conflict = next(c for c in cert.conflicts if c["kind"] == "singleton-pair")
    values = set(conflict["values"])
    assert {"2", "-2"} <= values
    # locate the two rows the contradiction comes from
    basis_str = [str(b) for b in L.basis]
    i_xdz, i_xydz = basis_str.index("x*Dz"), basis_str.index("x*y*Dz")
    rows = [cert.rows[r] for r in conflict["row_indices"]]
    implied = {}
    for row in rows:
        (u, c), = row.coeffs.items()
        implied[(row.pair, row.coordinate)] = -row.const / c
    lifts = sorted({p for pair in implied for p in pair[0] if isinstance(p, int)})
    a_idx, b_idx, c_idx = basis_str.index("Dx"), basis_str.index("y*Dx"), basis_str.index("Dy + x^2*Dz")
    assert implied[((a_idx, c_idx), i_xdz)] == 2
    assert implied[((b_idx, c_idx), i_xydz)] == -2


def test_split_exponential_example():
    L = algebra(*EX_EXP)
    proj = L.project(["x", "y"])
    verdict = split_check(L, list(proj.kernel_coeffs))
    assert not verdict.split


def test_split_certificate_reverified_by_independent_solver(recipe_corpus):
    # every verdict is re-checked by field brackets and the conftest
    # elimination alone: a complement is a subalgebra spanning L with the
    # ideal, and a certificate is an inconsistent system
    cases = [(L, proj) for _, L, operator, proj in recipe_corpus if operator is None]
    cases += [(L, L.project(["x", "y"])) for L in (algebra(*EX_POLY), algebra(*EX_EXP))]
    verdicts = {True: 0, False: 0}
    for L, proj in cases:
        verdict = split_check(L, list(proj.kernel_coeffs))
        verdicts[verdict.split] += 1
        if verdict.split:
            comp = list(verdict.complement)
            ideal = list(proj.kernel_basis)
            assert oracle_rank(naive_field_coords(comp + ideal)) == L.dim
            assert oracle_rank(naive_field_coords(comp)) == len(comp)
            for i in range(len(comp)):
                for j in range(i + 1, len(comp)):
                    coords = naive_field_coords(comp + [comp[i].bracket(comp[j])])
                    assert oracle_member(coords[:-1], coords[-1])
            continue
        cert = verdict.certificate
        nunk = len(cert.unknowns)
        matrix = []
        rhs = []
        for row in cert.rows:
            vec = [Fraction(0)] * nunk
            for u, c in row.coeffs.items():
                vec[u] = c
            matrix.append(vec)
            rhs.append(-row.const)
        # independent elimination: consistent iff rank(A) == rank([A|b])
        augmented = [m + [b] for m, b in zip(matrix, rhs)]
        assert oracle_rank(augmented) == oracle_rank(matrix) + 1
    assert verdicts[True] and verdicts[False] >= 3


def test_jordan_chains_against_field_bracket_oracle(recipe_corpus):
    cases = [(L, op, proj) for _, L, op, proj in recipe_corpus if op is not None]
    cases += [
        (algebra(*TWO_CHAIN), F("Dz"), algebra(*TWO_CHAIN).project(["z"])),
        (algebra(*EX_POLY), F("Dx"), algebra(*EX_POLY).project(["x", "y"])),
    ]
    for L, op, proj in cases:
        jd = jordan_chains(L, op, list(proj.kernel_coeffs))
        ideal = list(proj.kernel_basis)
        m = len(ideal)
        for chain in jd.chains:
            for a, b in zip(chain, chain[1:]):
                assert op.bracket(a) == b
            assert op.bracket(chain[-1]).is_zero
        elements = [v for chain in jd.chains for v in chain]
        assert len(elements) == m
        assert oracle_rank(naive_field_coords(elements)) == m
        assert oracle_rank(naive_field_coords(elements + ideal)) == m
        rank_n = oracle_rank(naive_field_coords([op.bracket(w) for w in ideal]))
        assert len(jd.chains) == m - rank_n


def test_jordan_and_split_outputs_match_golden_digests(recipe_corpus):
    # SHA-256 of each output recorded before the sparse rewrite of classify
    got = {name: digest(doc) for name, doc in classify_outputs(recipe_corpus).items()}
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_split_chain_case_has_complement():
    # one-chain realization: Dx acting on a chain of x-polynomials splits
    L = algebra("Dx", "(x^2 + y*x + 1)*Dz")
    proj = L.project(["x", "y"])
    verdict = split_check(L, list(proj.kernel_coeffs))
    assert verdict.split
    assert [str(v) for v in verdict.complement] == ["Dx"]


def test_split_abelian_always():
    L = algebra("Dx", "Dy", "Dz")
    ideal = [i for i, b in enumerate(L.basis) if str(b) in ("Dy", "Dz")]
    verdict = split_check(L, ideal)
    assert verdict.split


def test_split_lifted_complement():
    # complement exists but needs nonzero lift corrections
    L = algebra("Dx + y*Dz", "(x + y^2)*Dz")
    proj = L.project(["x", "y"])
    verdict = split_check(L, list(proj.kernel_coeffs))
    if verdict.split:
        comp = verdict.complement
        span = [L.express(v) for v in comp]
        for i in range(len(comp)):
            for j in range(i + 1, len(comp)):
                assert oracle_member(
                    [list(v) for v in span],
                    L.bracket_coeffs(span[i], span[j]),
                )


def test_split_rejects_non_ideal():
    L = algebra(*HEISENBERG)
    basis_str = [str(b) for b in L.basis]
    with pytest.raises(NotAnIdeal):
        split_check(L, [basis_str.index("y*Dx + x*Dz")])


def test_split_rejects_nonabelian_ideal():
    L = algebra(*HEISENBERG)
    with pytest.raises(IdealNotAbelian):
        split_check(L, list(range(L.dim)))


# -- templates ----------------------------------------------------------------------------


def test_template_translations():
    assert match_template(algebra("Dx", "Dy", "Dz"), "abelian-rank3").matched


def test_template_abelian_rank1():
    assert match_template(algebra("Dx", "y*Dx", "(y+z^2)*Dx"), "abelian-rank1").matched


def test_template_abelian_rank2():
    assert match_template(algebra("Dx", "Dy", "z*Dx + z^2*Dy"), "abelian-rank2").matched


def test_template_heisenberg():
    assert match_template(algebra(*HEISENBERG), "heisenberg").matched
    result = match_template(algebra(*EX_POLY), "heisenberg")
    assert not result.matched and result.details


def test_template_center_rank2():
    assert match_template(algebra(*TWO_CHAIN), "center-rank2").matched
    assert not match_template(algebra(*EX_POLY), "center-rank2").matched


def test_template_single_chain():
    L = algebra("Dx", "(x^2 + y*x + 1)*Dz")
    assert match_template(L, "single-chain").matched


def test_template_nonabelian_projection():
    assert match_template(algebra(*EX_POLY), "nonabelian-projection").matched


def test_template_abelian_projection():
    L = algebra("Dx", "Dy + x*Dz", "x^2*Dz", "y^2*Dz")
    assert match_template(L, "abelian-projection").matched


def test_template_negative_match_is_result_not_error():
    result = match_template(algebra(*HEISENBERG), "abelian-rank3")
    assert not result.matched
    assert result.details
