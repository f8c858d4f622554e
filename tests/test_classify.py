"""Classification, Jordan chains, one-dimensional ideals, split checks, templates."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import vflie
from vflie import (
    RECIPES,
    CoordinateChange,
    DEFAULT_CONTEXT,
    ExpPoly,
    IdealNotAbelian,
    LieAlgebra,
    NotAnIdeal,
    NotInvariant,
    NotNilpotent,
    NotNilpotentOperator,
    TEMPLATES,
    VariableContext,
    VflieError,
    build,
    classify,
    close,
    jordan_chains,
    match_template,
    one_dim_ideals_mod_center,
    random_spec,
    split_check,
)
from vflie.algebra import StructureConstants
from vflie.classify import _parallel_columns
from vflie.fields import Columns
from vflie.linalg import EchelonBasis, echelon_of, null_space, to_dense
from vflie.parser import parse_expression, parse_field

from conftest import (
    Q,
    as_terms,
    naive_add,
    naive_field_coords,
    naive_mul,
    naive_of,
    oracle_bracket,
    oracle_center,
    oracle_coords,
    oracle_member,
    oracle_quotient,
    oracle_rank,
    oracle_row_basis,
    oracle_series_terms,
)

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
EX_EXP_SMALL = ("Dx", "y*Dx + exp(y)*Dz", "x*Dz")
README_EXAMPLES = {
    "heisenberg": HEISENBERG,
    "polynomial": EX_POLY,
    "exponential": EX_EXP,
    "exponential-small": EX_EXP_SMALL,
    "two-chain": TWO_CHAIN,
}
# two probes for template rules that no draw above breaks
SHAPE_PROBES = {
    "exp-x-component": ("Dx", "Dy", "exp(z)*Dx"),
    "mixed-y-and-z": ("Dx", "Dy", "x*Dy", "z*Dz"),
}

GOLDEN = Path(__file__).parent / "data" / "classify_golden.json"
TEMPLATE_GOLDEN = Path(__file__).parent / "data" / "template_golden.json"
STRUCTURE_GOLDEN = Path(__file__).parent / "data" / "structure_golden.json"
PROJECTION_RECIPES = ("nonabelian-projection", "abelian-projection")


@pytest.fixture(scope="module")
def recipe_draws():
    """The recipe-mix draws: every recipe at seeds 0-12, degree bound 4 for
    the center-rank2 and single-chain suites and 3 otherwise, as
    (name, build result, closed algebra)."""
    out = []
    for recipe in RECIPES:
        bound = 4 if recipe in ("center-rank2", "single-chain") else 3
        for seed in range(13):
            result = build(random_spec(recipe, seed, bound))
            out.append((f"{recipe}/{seed}", result, close(result.generators)))
    return out


@pytest.fixture(scope="module")
def recipe_corpus(recipe_draws):
    """The recipe-mix draws that the acceptance gate gives a Jordan or a
    split input, each with that input."""
    out = []
    for name, result, L in recipe_draws:
        jordan = result.expected.get("jordan")
        if jordan:
            proj = L.project(jordan["kept"])
            operator = result.generators[jordan["operator_generator"]]
            out.append((name, L, operator, proj))
        elif name.split("/")[0] in PROJECTION_RECIPES:
            out.append((name, L, None, L.project([0, 1])))
    return out


# the fractional scales that the benchmark's generator draws use
SCALES = (Q(1, 2), Q(-3, 2))


@pytest.fixture(scope="module")
def denominator_ideals():
    """Ideals of recipe-mix draws whose ad tables have denominators D_v > 1,
    read off the dense oracles, as (algebra, ideal coefficient vectors,
    ideal fields): the heisenberg draws of seeds 7-12 (D_v of 2 and 3),
    each with its center and with its [g, g]; and the abelian terms g^k,
    k >= 2, of the lower central series and the basis lines that are
    ideals of three draws whose primitive ideal rows have pivot
    coefficients above 1 (center-rank1 seeds 6 and 11, D_v up to 4, and
    center-rank2 seed 4).  Among the lines, y^2*Dz of center-rank1 seed 11
    splits only with the lift correction x*Dz - 3/4*y^2*Dz."""
    out = []
    for seed in range(7, 13):
        L = close(build(random_spec("heisenberg", seed, 3)).generators)
        assert max(L._int_ad[1]) > 1
        bracket = oracle_bracket(L)
        units = [[Q(int(i == k)) for k in range(L.dim)] for i in range(L.dim)]
        square = [v for a, b in combinations(units, 2) if any(v := bracket(a, b))]
        for ideal in (oracle_center(L), square):
            out.append((L, ideal, [L.element(v) for v in ideal]))
    for recipe, seed, bound in ("center-rank1", 6, 3), ("center-rank1", 11, 3), ("center-rank2", 4, 4):
        L = close(build(random_spec(recipe, seed, bound)).generators)
        bracket = oracle_bracket(L)
        units = [[Q(int(i == k)) for k in range(L.dim)] for i in range(L.dim)]
        abelian = [t for t in oracle_series_terms(L, "lower-central")[1:]
                   if t and not any(any(bracket(u, w)) for u, w in combinations(t, 2))]
        lines = [[e] for e in units if all(oracle_member([e], bracket(f, e)) for f in units)]
        out += [(L, ideal, [L.element(v) for v in ideal]) for ideal in abelian + lines]
    return out


def rescaled(vectors: list, scale: Fraction) -> list[list[Fraction]]:
    return [[scale * c for c in v] for v in vectors]


def split_cases(recipe_corpus) -> list[tuple]:
    """(algebra, ideal coefficient vectors, ideal fields) of every split
    input the acceptance gate gives, and of the two README examples."""
    cases = [(L, proj) for _, L, operator, proj in recipe_corpus if operator is None]
    cases += [(L, L.project(["x", "y"])) for L in (algebra(*EX_POLY), algebra(*EX_EXP))]
    return [(L, list(proj.kernel_coeffs), list(proj.kernel_basis)) for L, proj in cases]


def aligned_heads(jd) -> list[tuple[ExpPoly, ...]] | None:
    """Coefficients of each chain head along the terminal directions, by
    the dense oracle: per chain, one coefficient function per terminal.

    Defined when all terminals are constant fields, linearly independent,
    and the heads lie in the terminals' pointwise span, else None.  The
    terminals are constant, so the head's vector at each monomial m is the
    combination of the terminals by the coefficients at m, and independent
    terminals make those unique.
    """
    terminals = [chain[-1] for chain in jd.chains]
    if not all(c.is_constant for t in terminals for c in t.comps):
        return None
    # row j is terminal j's constant components
    dense = [[sum(c.term_map().values(), Q(0)) for c in t.comps] for t in terminals]
    k = len(dense)
    if oracle_rank(dense) != k:
        return None  # dependent terminals
    result = []
    for chain in jd.chains:
        head = chain[0].comps
        coeffs = [ExpPoly.zero(len(head)) for _ in terminals]
        for mono in {m for comp in head for m in comp.term_map()}:
            # one equation per component: sum_j a_j * dense[j][i] == head_i[mono]
            system = [[row[i] for row in dense] + [comp.term_map().get(mono, Q(0))]
                      for i, comp in enumerate(head)]
            for row in oracle_row_basis(system):
                pivot = next(c for c, v in enumerate(row) if v)
                if pivot == k:
                    return None  # the head leaves the terminals' span
                coeffs[pivot] += ExpPoly.monomial(mono.powers, mono.rates, row[k] / row[pivot])
        result.append(tuple(coeffs))
    return result


def classify_outputs(corpus) -> dict:
    """Jordan chains and aligned heads, or split verdicts, keyed by draw."""
    out = {}
    for name, L, operator, proj in corpus:
        ideal = list(proj.kernel_coeffs)
        if operator is None:
            out[f"{name}/split"] = split_check(L, ideal).to_dict()
            continue
        jd = jordan_chains(L, operator, ideal)
        heads = aligned_heads(jd)
        out[f"{name}/jordan"] = jd.to_dict()
        out[f"{name}/aligned_heads"] = None if heads is None else [
            [str(c) for c in head] for head in heads
        ]
    return out


def template_outputs(draws) -> dict:
    """Every template match, and the classification, of the recipe draws,
    the README examples, the shape probes and one algebra in two variables,
    keyed by algebra."""
    algebras = [(name, L) for name, _, L in draws]
    algebras += [(f"readme/{name}", algebra(*texts)) for name, texts in README_EXAMPLES.items()]
    algebras += [(f"probe/{name}", algebra(*texts)) for name, texts in SHAPE_PROBES.items()]
    plane = VariableContext(("x", "y"))
    algebras.append(("plane", close([parse_field(t, plane) for t in ("Dx", "x*Dy")])))
    out = {}
    for name, L in algebras:
        for template in TEMPLATES:
            out[f"{name}/{template}"] = match_template(L, template).to_dict()
        try:
            out[f"{name}/classify"] = classify(L).to_dict()
        except VflieError as exc:
            out[f"{name}/classify"] = {"error": type(exc).__name__, "message": str(exc)}
    return out


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# the large-report workload's center-rank1 draws (recipe, seed, degree bound)
LARGE_REPORT = (("center-rank1", 5, 5), ("center-rank1", 9, 6), ("center-rank1", 10, 5))


def structure_outputs(draws) -> dict:
    """The center coefficients, both series and the nilpotency certificate
    of the recipe draws and the large-report algebras, keyed by algebra."""
    algebras = [(name, L) for name, _, L in draws]
    algebras += [(f"large/{s}/{bound}", close(build(random_spec(recipe, s, bound)).generators))
                 for recipe, s, bound in LARGE_REPORT]
    out = {}
    for name, L in algebras:
        out[name] = {
            "center": [[str(c) for c in v] for v in L.center_coeffs()],
            "series": [L.series(kind).to_dict() for kind in ("lower-central", "derived")],
            "certificate": L._nilpotency_certificate,
        }
    return out


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


def test_classify_subcase_in_skew_coordinates():
    # new x = x + z^2 drags the center off the coordinate axes; the subcase
    # is read off the parallel kernel, which no coordinate change moves
    change = CoordinateChange(
        ctx, (E("x + z^2"), E("y"), E("z")), (E("x - z^2"), E("y"), E("z"))
    )
    gens = [F(t).pushforward(change) for t in HEISENBERG]
    report = classify(close(gens))
    assert report.case == "CenterDim1" and report.subcase == "a"
    assert report.evidence["kernel_dim"] == 1
    assert report.evidence["image_rank"] == 1
    assert "center_axis" not in report.evidence


def test_classify_invariant_under_good_pushforward():
    shear = CoordinateChange(
        ctx, (E("x + y"), E("y"), E("z")), (E("x - y"), E("y"), E("z"))
    )
    for texts in (HEISENBERG, EX_POLY, TWO_CHAIN):
        base = classify(algebra(*texts))
        pushed = classify(close([F(t).pushforward(shear) for t in texts]))
        assert pushed.case == base.case
        assert pushed.subcase == base.subcase
        assert pushed.center_dim == base.center_dim
        assert pushed.center_rank == base.center_rank


# three polynomial maps with their inverses, as (forward, inverse) texts
POLYNOMIAL_MAPS = (
    (("x + z", "y", "z"), ("x - z", "y", "z")),
    (("x + z^2", "y + x", "z"), ("x - z^2", "y - x + z^2", "z")),
    (("x", "y + x^2", "z + x*y"), ("x", "y - x^2", "z - x*y + x^3")),
)


@pytest.fixture(scope="module")
def pushed_draws():
    """Every recipe at seeds 0-5, degree bound 3, as (name, algebra,
    classification), followed by its pushforwards under POLYNOMIAL_MAPS."""
    changes = [
        CoordinateChange(ctx, tuple(map(E, fwd)), tuple(map(E, inv))) for fwd, inv in POLYNOMIAL_MAPS
    ]
    out = []
    for recipe in RECIPES:
        for seed in range(6):
            gens = build(random_spec(recipe, seed, 3)).generators
            L = close(gens)
            out.append((f"{recipe}/{seed}", L, classify(L)))
            for m, change in enumerate(changes):
                P = close([g.pushforward(change) for g in gens])
                out.append((f"{recipe}/{seed}/map{m}", P, classify(P)))
    return out


def test_classify_invariant_under_polynomial_maps(pushed_draws):
    # the draw comes first, then its pushforwards
    per_draw = len(POLYNOMIAL_MAPS) + 1
    for k in range(0, len(pushed_draws), per_draw):
        name, _, base = pushed_draws[k]
        for pushed_name, _, pushed in pushed_draws[k + 1:k + per_draw]:
            assert (pushed.case, pushed.subcase) == (base.case, base.subcase), pushed_name


def test_classify_rank_facts(pushed_draws):
    for name, L, report in pushed_draws:
        if report.abelian:
            continue
        rank = vflie.generic_rank(L.basis)
        assert rank >= 2, name
        if report.case == "CenterRank2":
            assert rank == 3, name
        elif report.case == "CenterRank1DimGE2":
            assert rank == 2, name
        else:
            assert (report.subcase in ("a", "b")) == (rank == 2), name


def naive_minors(x, z) -> dict:
    """The 2x2 minors x_p z_q - x_q z_p on the naive term lists, keyed
    (p, q, powers, rates)."""
    out = {}
    for p, q in combinations(range(3), 2):
        plus = as_terms(naive_mul(naive_of(x.comps[p]), naive_of(z.comps[q])))
        minus = as_terms(naive_mul(naive_of(x.comps[q]), naive_of(z.comps[p])))
        diff = naive_add(plus, [(powers, rates, -c) for powers, rates, c in minus])
        out.update({(p, q, *key): c for key, c in diff.items()})
    return out


def test_parallel_kernel_fields_are_wedge_free(pushed_draws):
    # every K vector's field X has X ^ Z = 0 on the naive term lists, and
    # dim K is the nullity of the naive minors' coefficient matrix
    skew = 0
    for name, L, report in pushed_draws:
        if report.case != "CenterDim1":
            continue
        skew += "center_axis" not in report.evidence
        (z,) = L.center()
        kernel = null_space(_parallel_columns(L.basis, z))
        assert len(kernel) == report.evidence["kernel_dim"], name
        for vec in kernel:
            x = L.element([vec.get(i, Q(0)) for i in range(L.dim)])
            assert not naive_minors(x, z), name
        minors = [naive_minors(b, z) for b in L.basis]
        keys = sorted(set().union(*minors), key=repr)
        matrix = [[m.get(key, Q(0)) for m in minors] for key in keys]
        assert L.dim - oracle_rank(matrix) == len(kernel), name
    assert skew  # some centers lie off the coordinate axes


def test_classify_never_projects(monkeypatch, pushed_draws):
    def project(self, kept):
        raise AssertionError("classify called project")

    monkeypatch.setattr(LieAlgebra, "project", project)
    for name, L, report in pushed_draws:
        assert classify(L) == report, name


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
    assert sorted(str(chain[-1]) for chain in jd.chains) == ["2*Dx", "Dy"]


def test_float_coefficient_vectors_are_type_errors():
    # Fraction(0.1) would be 3602879701896397/36028797018963968: no float
    # becomes a basis coordinate, whether operator, ideal row or ideal
    L = algebra(*HEISENBERG)
    with pytest.raises(TypeError, match="coefficient 0.5 is not an int or Fraction"):
        jordan_chains(L, [0.5, 0, 0], [2])
    with pytest.raises(TypeError, match="is not an int or Fraction"):
        jordan_chains(L, F("Dx"), [[0, 0, 0.5]])
    with pytest.raises(TypeError, match="is not an int or Fraction"):
        split_check(L, [[0, 0, 0.5]])
    assert jordan_chains(L, [Q(1, 2), 0, 0], [2]).operator == F("1/2*Dx")


def test_a_float_ideal_index_is_a_type_error():
    # not "'float' object is not iterable": the error names the item
    L = algebra(*HEISENBERG)
    with pytest.raises(TypeError, match="ideal item 2.0 is not a basis index"):
        jordan_chains(L, F("Dx"), [2.0])
    with pytest.raises(TypeError, match="ideal item 2.0 is not a basis index"):
        split_check(L, [2.0])


def test_split_check_verifies_in_basis_coordinates(monkeypatch):
    # the acceptance gate's split checks (recipe-mix's projection draws):
    # the complement is checked in the coordinates solved for, so no field
    # is re-expressed through the column table (Columns.find)
    cases = []
    for recipe in ("nonabelian-projection", "abelian-projection"):
        for seed in range(13):
            L = close(build(random_spec(recipe, seed, 3)).generators)
            cases.append((L, list(L.project([0, 1]).kernel_coeffs)))
    calls = []
    real_express, real_find = vflie.LieAlgebra.express, Columns.find

    def counting_express(self, field):
        calls.append("express")
        return real_express(self, field)

    def counting_find(self, field):
        calls.append("find")
        return real_find(self, field)

    monkeypatch.setattr(vflie.LieAlgebra, "express", counting_express)
    monkeypatch.setattr(Columns, "find", counting_find)
    verdicts = [split_check(L, kernel) for L, kernel in cases]
    assert calls == []
    assert len(verdicts) == 26 and sum(v.split for v in verdicts) == 23
    monkeypatch.undo()
    for (L, kernel), verdict in zip(cases, verdicts):
        if verdict.split:
            # dense oracle: the complement is a subalgebra, and with the
            # kernel it spans L
            lifts = [L.express(v) for v in verdict.complement]
            assert oracle_rank(lifts + [list(k) for k in kernel]) == L.dim
            for a, u in enumerate(verdict.complement):
                for w in verdict.complement[a + 1:]:
                    assert oracle_member(lifts, L.express(u.bracket(w)))


def test_jordan_aligned_heads_degree_pattern():
    L = algebra(*TWO_CHAIN)
    proj = L.project(["z"])
    jd = jordan_chains(L, F("Dz"), list(proj.kernel_coeffs))
    aligned = aligned_heads(jd)
    assert aligned is not None
    by_len = sorted(zip(jd.lengths, aligned), reverse=True)
    (_, long_head), (_, short_head) = by_len
    own, other = long_head[0], long_head[1]
    assert own.degree > other.degree  # deg P > deg Q on its own terminal
    assert short_head[0].degree < short_head[1].degree


def test_jordan_aligned_heads_without_chains():
    # the zero ideal has no chains, so there is no head to align
    jd = jordan_chains(algebra(*HEISENBERG), [1, 0, 0], [[0, 0, 0]])
    assert jd.chains == ()
    assert aligned_heads(jd) == []


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


def test_jordan_invariance_is_tested_before_nilpotency():
    # sl(2) as <Dx, x*Dx, x^2*Dx>: ad(x*Dx) has eigenvalues -1, 0, 1, so it
    # is nilpotent on no nonzero invariant subspace.  A subspace that is not
    # invariant is reported as such, whatever the operator's powers do on it.
    L = algebra("Dx", "x^2*Dx")
    assert L.dim == 3
    with pytest.raises(NotInvariant):
        jordan_chains(L, F("x*Dx"), [F("Dx + x^2*Dx")])
    with pytest.raises(NotNilpotentOperator):
        jordan_chains(L, F("x*Dx"), range(L.dim))


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


def test_one_dim_ideal_lifts_match_the_oracles():
    """Modulo the center, the lifts span the center of L/Z(L), as the dense
    oracle_center and oracle_quotient give it: each lift brackets every
    basis element into Z(L), the lifts are independent modulo Z(L), and
    there are as many as the quotient's center has dimensions."""
    checked = 0
    for recipe in RECIPES:
        for seed in range(3):
            L = close(build(random_spec(recipe, seed, 2)).generators)
            if L.is_abelian():
                continue
            center = oracle_center(L)
            reps, tensor = oracle_quotient(L, center)
            q = len(reps)

            def mu(a: int, b: int, c: int) -> Fraction:
                if a > b:
                    return -mu(b, a, c)
                return tensor.get((a, b), {}).get(c, Q(0))

            constraints = [[mu(a, b, c) for a in range(q)] for b in range(q) for c in range(q)]
            family = one_dim_ideals_mod_center(L)
            assert family.center_dim == len(center)
            assert family.parameter_dim == len(family.lifts) == q - oracle_rank(constraints)
            lifts = [L.express(v) for v in family.lifts]
            assert oracle_rank(center + lifts) == len(center) + len(lifts)
            bracket = oracle_bracket(L)
            units = [[Q(int(i == j)) for i in range(L.dim)] for j in range(L.dim)]
            for lift in lifts:
                for unit in units:
                    assert oracle_member(center, bracket(lift, unit))
            checked += 1
    assert checked >= 15


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


def test_split_certificate_reverified_by_independent_solver(recipe_corpus, denominator_ideals):
    # every verdict is re-checked by field brackets and the conftest
    # elimination alone: a complement is a subalgebra spanning L with the
    # ideal, and a certificate is an inconsistent system; the ideals come
    # from the acceptance gate and from algebras with D_v > 1, and an ideal
    # given by rescaled vectors gets the same verdict
    cases = split_cases(recipe_corpus)
    for L, coeffs, _ in cases:
        verdict = split_check(L, coeffs).to_dict()
        assert all(split_check(L, rescaled(coeffs, s)).to_dict() == verdict for s in SCALES)
    verdicts = {True: 0, False: 0}
    for L, coeffs, ideal in cases + denominator_ideals:
        verdict = split_check(L, coeffs)
        verdicts[verdict.split] += 1
        if verdict.split:
            comp = list(verdict.complement)
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


def rebuild_lift_system(L, unknowns, kernel) -> list[tuple]:
    """The closure conditions on complement lifts l_a + sum_t k(a, t) w_t,
    rebuilt from field brackets and the conftest elimination alone, as
    (pair, coordinate, coeffs, const) rows in the certificate's order.

    The lifts l_a are the basis elements the unknowns name and the w_t their
    ideal elements, which must span `kernel` and, with the lifts, L;
    [l_a + .., l_b + ..] = sum_c mu(a, b, c) (l_c + ..) with mu the quotient
    structure constants, read off [l_a, l_b] over the lifts and the ideal."""
    m = len({u["ideal_index"] for u in unknowns})
    reps = [u["lift"] for u in unknowns[::m]]
    ideal = [parse_field(u["ideal_element"], L.ctx) for u in unknowns[:m]]
    assert unknowns == [
        {"lift": r, "ideal_index": t, "ideal_element": unknowns[t]["ideal_element"]}
        for r in reps
        for t in range(m)
    ]
    lifts = [L.basis[r] for r in reps]
    assert oracle_rank(naive_field_coords(ideal)) == m == len(kernel)
    assert oracle_rank(naive_field_coords(ideal + kernel)) == m
    assert oracle_rank(naive_field_coords(lifts + ideal)) == L.dim
    q = len(lifts)
    pairs = [(a, b) for a in range(q) for b in range(a + 1, q)]
    pair_brackets = [lifts[a].bracket(lifts[b]) for a, b in pairs]
    mus = oracle_coords(lifts + ideal, pair_brackets)
    coords = oracle_coords(
        list(L.basis), pair_brackets + ideal + [l.bracket(w) for l in lifts for w in ideal]
    )
    pair_coords = coords[: len(pairs)]
    ideal_coords = coords[len(pairs) : len(pairs) + m]
    lift_ideal = coords[len(pairs) + m :]  # [l_a, w_t] at a * m + t
    rows = []
    for (a, b), mu, bracket in zip(pairs, mus, pair_coords):
        const = list(bracket)
        for c in range(q):
            const[reps[c]] -= mu[c]
        # unknown k(c, t) is number c * m + t; (unknown, vector, scale) terms
        terms = [(b * m + t, lift_ideal[a * m + t], 1) for t in range(m)]
        terms += [(a * m + t, lift_ideal[b * m + t], -1) for t in range(m)]
        terms += [(c * m + t, ideal_coords[t], -mu[c]) for c in range(q) for t in range(m)]
        coeffs: dict[int, list] = {}
        for u, vec, scale in terms:
            acc = coeffs.setdefault(u, [Q(0)] * L.dim)
            for k, v in enumerate(vec):
                acc[k] += scale * v
        for k in range(L.dim):
            row = {u: vec[k] for u, vec in coeffs.items() if vec[k]}
            if row or const[k]:
                rows.append(((reps[a], reps[b]), k, row, const[k]))
    return rows


def test_split_certificate_rows_are_the_lift_closure_conditions(recipe_corpus, denominator_ideals):
    # a non-split verdict is sound: its rows are exactly the closure
    # conditions rebuilt from field brackets, for lifts complementary to the
    # ideal (a projection kernel, or a center or [g, g] where D_v > 1), and
    # the rebuilt system has no solution
    certificates = 0
    for L, coeffs, ideal in split_cases(recipe_corpus) + denominator_ideals:
        verdict = split_check(L, coeffs)
        if verdict.split:
            continue
        certificates += 1
        cert = verdict.certificate
        rows = rebuild_lift_system(L, list(cert.unknowns), ideal)
        assert rows == [(r.pair, r.coordinate, r.coeffs, r.const) for r in cert.rows]
        nunk = len(cert.unknowns)
        matrix = [[coeffs.get(u, Q(0)) for u in range(nunk)] for _, _, coeffs, _ in rows]
        augmented = [vec + [-const] for vec, (_, _, _, const) in zip(matrix, rows)]
        assert oracle_rank(augmented) == oracle_rank(matrix) + 1
    assert certificates >= 5


def test_jordan_chains_against_field_bracket_oracle(recipe_corpus, denominator_ideals):
    # the acceptance gate's inputs as they are and with the operator and the
    # kernel rescaled (the operator once as a field, once as coefficients),
    # then every basis element of the algebras with D_v > 1, rescaled, on
    # their center, their [g, g] and the whole algebra
    cases = [(L, op, proj) for _, L, op, proj in recipe_corpus if op is not None]
    cases += [
        (algebra(*TWO_CHAIN), F("Dz"), algebra(*TWO_CHAIN).project(["z"])),
        (algebra(*EX_POLY), F("Dx"), algebra(*EX_POLY).project(["x", "y"])),
    ]
    cases = [(L, op, list(proj.kernel_coeffs), list(proj.kernel_basis)) for L, op, proj in cases]
    (s1, s2), unscaled = SCALES, list(cases)
    for L, op, coeffs, ideal in unscaled:
        cases.append((L, op * s1, rescaled(coeffs, s1), ideal))
        cases.append((L, [s2 * c for c in L.express(op)], rescaled(coeffs, s2), ideal))
    algebras = {id(L): L for L, _, _ in denominator_ideals}.values()
    ideals = denominator_ideals + [
        (L, [[Q(int(i == k)) for k in range(L.dim)] for i in range(L.dim)], list(L.basis))
        for L in algebras
    ]
    cases += [(L, b * s, coeffs, ideal) for L, coeffs, ideal in ideals for b in L.basis for s in SCALES]
    for L, op, coeffs, ideal in cases:
        jd = jordan_chains(L, op, coeffs)
        op = jd.operator
        m = len(ideal)
        for chain in jd.chains:
            for a, b in zip(chain, chain[1:]):
                assert op.bracket(a) == b
            assert op.bracket(chain[-1]).is_zero
        elements = [v for chain in jd.chains for v in chain]
        assert len(elements) == m
        assert oracle_rank(naive_field_coords(elements)) == m
        assert oracle_rank(naive_field_coords(elements + ideal)) == m
        # the chain-length partition: rank(N^k) - rank(N^(k+1)) chains are
        # longer than k, the ranks those of repeated brackets of the ideal
        images, ranks = ideal, []
        for _ in range(max(jd.lengths) + 2):
            ranks.append(oracle_rank(naive_field_coords(images)))
            images = [op.bracket(w) for w in images]
        assert ranks[0] == m and ranks[-1] == 0
        for k in range(len(ranks) - 1):
            assert sum(n > k for n in jd.lengths) == ranks[k] - ranks[k + 1]


def test_jordan_chains_insert_only_the_ideal(monkeypatch, recipe_corpus):
    # the one span test among the heads is a ForwardEchelon of chain
    # terminals: the only EchelonBasis.insert calls are ideal_subspace's,
    # one per ideal item
    cases = [(L, op, list(proj.kernel_coeffs)) for _, L, op, proj in recipe_corpus if op is not None]
    cases.append((algebra(*TWO_CHAIN), F("Dz"), list(algebra(*TWO_CHAIN).project(["z"]).kernel_coeffs)))
    inserts = []
    real_insert = EchelonBasis.insert

    def counting_insert(self, vec):
        inserts.append(vec)
        return real_insert(self, vec)

    monkeypatch.setattr(EchelonBasis, "insert", counting_insert)
    for L, op, ideal in cases:
        inserts.clear()
        jordan_chains(L, op, ideal)
        assert inserts == [{i: c for i, c in enumerate(v) if c} for v in ideal]


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
    # <Dx + y*Dz, Dy, x*Dz> closes to dim 4; the projection to (x, y) has the
    # kernel <Dz, x*Dz>, and the complement Dx + y*Dz, Dy + x*Dz needs a lift
    # correction on its second element, which is not a basis element
    L = algebra("Dx + y*Dz", "Dy", "x*Dz")
    assert L.dim == 4
    proj = L.project(["x", "y"])
    verdict = split_check(L, list(proj.kernel_coeffs))
    assert verdict.split
    comp = list(verdict.complement)
    assert len(comp) == 2
    assert any(v not in L.basis for v in comp)
    kernel = [F("Dz"), F("x*Dz")]
    assert oracle_rank(naive_field_coords(comp + kernel)) == L.dim
    # without the correction, [Dx + y*Dz, Dy] = -Dz would leave the complement
    for i in range(len(comp)):
        for j in range(i + 1, len(comp)):
            rows = naive_field_coords(comp + [comp[i].bracket(comp[j])])
            assert oracle_member(rows[:-1], rows[-1])


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


def test_template_and_classify_outputs_match_golden_digests(recipe_draws):
    # SHA-256 of each output, details text included, recorded before the
    # normal forms became one table
    got = {name: digest(doc) for name, doc in template_outputs(recipe_draws).items()}
    assert got == json.loads(TEMPLATE_GOLDEN.read_text(encoding="utf-8"))


def test_center_series_and_certificate_match_golden_digests(recipe_draws):
    # SHA-256 of each output, recorded before span-only steps took forward
    # elimination and null_space eliminated columns
    got = {name: digest(doc) for name, doc in structure_outputs(recipe_draws).items()}
    assert got == json.loads(STRUCTURE_GOLDEN.read_text(encoding="utf-8"))


def test_tensor_only_algebra_matches_the_structure_golden(recipe_draws):
    # a StructureConstants built from L's integer tensor alone, with no
    # fields, gives L's center, both series and the certificate
    golden = json.loads(STRUCTURE_GOLDEN.read_text(encoding="utf-8"))
    algebras = [(name, L) for name, _, L in recipe_draws]
    algebras += [(f"large/{s}/{bound}", close(build(random_spec(recipe, s, bound)).generators))
                 for recipe, s, bound in LARGE_REPORT]
    assert {name for name, _ in algebras} == set(golden)
    for name, L in algebras:
        S = StructureConstants(L.dim, L._tensor)
        doc = {
            "center": [[str(c) for c in to_dense(v, S.dim)] for v in S._center],
            "series": [S.series(kind).to_dict() for kind in ("lower-central", "derived")],
            "certificate": S._nilpotency_certificate,
        }
        assert digest(doc) == golden[name], name


def quotient_chain_dims(L) -> list[int]:
    """dim Z_k of the upper central series as a chain of quotient centers:
    Q_0 = L, Q_{k+1} = Q_k / Z(Q_k) until a center is zero, and
    dim Z_k = dim L - dim Q_k."""
    dims, q = [0], L
    while q._center:
        q = q._quotient_by(echelon_of(q._center))
        dims.append(L.dim - q.dim)
    return dims


def oracle_upper_central_dims(L) -> list[int]:
    """dim Z_k from L.c alone, densely: x lies in Z_{k+1} when [x, e_b] lies
    in Z_k for every b, that is when sum_a x_a r(a, b) = 0 for every b,
    r(a, b) being [e_a, e_b] reduced by the reduced rows of Z_k; Z_{k+1} is
    the null space of those conditions, one vector per free column."""
    n = L.dim
    brackets = {(a, b): v for a in range(n) for b in range(n)
                if any(v := [L.c(a, b, k) for k in range(n)])}
    term: list[list[Fraction]] = []
    dims = [0]
    while True:
        pivots = [next(c for c, v in enumerate(row) if v) for row in term]
        reduced = {}
        for ab, v in brackets.items():
            for row, p in zip(term, pivots):
                factor = v[p] / row[p]
                v = [x - factor * y for x, y in zip(v, row)]
            reduced[ab] = v
        conditions = oracle_row_basis([[reduced.get((a, b), [0] * n)[k] for a in range(n)]
                                       for b in range(n) for k in range(n)])
        heads = [next(c for c, v in enumerate(row) if v) for row in conditions]
        kernel = []
        for free in (c for c in range(n) if c not in heads):
            vec = [Q(int(c == free)) for c in range(n)]
            for row, p in zip(conditions, heads):
                vec[p] = -row[free] / row[p]
            kernel.append(vec)
        if len(kernel) == dims[-1]:
            return dims
        dims.append(len(kernel))
        term = oracle_row_basis(kernel)


def test_upper_central_series_as_a_chain_of_quotient_centers():
    # a quotient is a full algebra: its own center, quotiented again
    readme = {EX_POLY: [0, 1, 2, 4, 6, 8], EX_EXP: [0, 4, 6, 8], HEISENBERG: [0, 1, 3]}
    draws = [(texts, algebra(*texts)) for texts in readme]
    draws += [((recipe, seed), close(build(random_spec(recipe, seed, 3)).generators))
              for recipe in RECIPES for seed in range(6)]
    for name, L in draws:
        dims = quotient_chain_dims(L)
        assert dims == oracle_upper_central_dims(L), name
        assert (dims[-1] == L.dim) == L.is_nilpotent(), name
        assert name not in readme or dims == readme[name]


def test_every_series_read_reaches_the_class_attribute_the_tracer_wraps(monkeypatch):
    # bench/tracing.py install() replaces vars(LieAlgebra)["series"]; a
    # base-class method that called StructureConstants.series directly
    # would hide the series from that layer
    calls = []
    series = vars(LieAlgebra)["series"]

    def counting(self, kind):
        calls.append(kind)
        return series(self, kind)

    monkeypatch.setattr(LieAlgebra, "series", counting)
    for read in (LieAlgebra.is_nilpotent, LieAlgebra.report, classify):
        calls.clear()
        read(algebra(*EX_POLY))
        assert calls, read


def test_template_negative_match_is_result_not_error():
    result = match_template(algebra(*HEISENBERG), "abelian-rank3")
    assert not result.matched
    assert result.details
