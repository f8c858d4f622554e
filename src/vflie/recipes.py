"""Constructive generators with known ground-truth classification.

Each recipe emits a generator set (never a basis: the closure is always
recomputed by the engine) together with an expected-classification skeleton
that is provable for the parameter family the recipe enforces.  Randomized
parameters are deterministic per (recipe, seed, degree_bound): coefficients
uniform in {-3..3}, polynomial degrees at most the bound.

Recipes over variables (x, y, z):

  abelian-rank3          Dx, Dy, Dz
  abelian-rank2          Dx, Dy, f_i(z)Dx + g_i(z)Dy
  abelian-rank1          Dx, f_i(y,z)Dx
  center-rank2           Dz, P(z)Dx + Q(z)Dy, R(z)Dx + S(z)Dy
                         with deg P > deg Q, deg R < deg S, deg P, deg S >= 1
  center-rank1           Dx, Dz, f_i(y)Dx + g_i(x,y)Dz, k_j(x,y)Dz
                         with some f_i nonconstant, some k_j of positive x-degree
  heisenberg             Dx, h(y)Dx + x Dz, Dz with h nonconstant
  single-chain           Dx + k0(x,y)Dz, (x^N + p_1(y)x^(N-1) + ... + p_N(y))Dz
  nonabelian-projection  y^i Dx + F_i(x,y)Dz (0<=i<=N), Dy + G_0(x,y)Dz, G_j(x,y)Dz
                         with N >= 1 and some G_j of positive x-degree
  abelian-projection     Dx, Dy + P_0(x,y)Dz, P_i(x,y)Dz; in the dim-Z=1 mode
                         the P_i include pure powers x^a and y^b, in the
                         rank-2-center mode all data depends on y only
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidSpec
from .fields import DEFAULT_CONTEXT, VariableContext, VectorField
from .ring import ExpPoly

RECIPES = (
    "abelian-rank1",
    "abelian-rank2",
    "abelian-rank3",
    "center-rank2",
    "center-rank1",
    "heisenberg",
    "single-chain",
    "nonabelian-projection",
    "abelian-projection",
)

Terms = list  # [[px, py, pz, coeff], ...] with int entries


@dataclass(frozen=True)
class RecipeSpec:
    recipe: str
    seed: int
    degree_bound: int
    params: dict

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class BuildResult:
    spec: RecipeSpec
    generators: tuple[VectorField, ...]
    expected: dict

    def to_dict(self) -> dict:
        return {
            **self.spec.to_dict(),
            "generators": [str(g) for g in self.generators],
            "expected": self.expected,
        }


# -- term-list plumbing ---------------------------------------------------------


def poly_from_terms(terms: Terms) -> ExpPoly:
    out = ExpPoly.zero(3)
    for px, py, pz, coeff in terms:
        out = out + ExpPoly.monomial((px, py, pz), (0, 0, 0), coeff)
    return out


def _terms_of(p: ExpPoly) -> Terms:
    # recipe data is integer-coefficient by construction; keep params JSON-ready
    return [[*m.powers, int(c)] for m, c in p.sorted_terms()]


def _rand_coeff(rng: random.Random) -> int:
    return rng.randint(-3, 3)


def _rand_nonzero(rng: random.Random) -> int:
    return rng.choice([-3, -2, -1, 1, 2, 3])


def _rand_terms(rng: random.Random, axes: Sequence[int], bound: int, *, max_terms: int = 3) -> Terms:
    terms: Terms = []
    for _ in range(rng.randint(1, max_terms)):
        total = rng.randint(0, bound)
        powers = [0, 0, 0]
        remaining = total
        for axis in axes[:-1]:
            powers[axis] = rng.randint(0, remaining)
            remaining -= powers[axis]
        powers[axes[-1]] = remaining
        coeff = _rand_coeff(rng)
        if coeff:
            terms.append([*powers, coeff])
    return _terms_of(poly_from_terms(terms))  # canonicalize merged duplicates


def _rand_terms_exact_degree(rng: random.Random, axis: int, degree: int) -> Terms:
    """Univariate with the given exact degree (leading coefficient nonzero)."""
    terms: Terms = []
    for d in range(degree):
        coeff = _rand_coeff(rng)
        if coeff:
            powers = [0, 0, 0]
            powers[axis] = d
            terms.append([*powers, coeff])
    powers = [0, 0, 0]
    powers[axis] = degree
    terms.append([*powers, _rand_nonzero(rng)])
    return terms


# -- randomized specs -------------------------------------------------------------


def random_spec(recipe: str, seed: int, degree_bound: int = 3) -> RecipeSpec:
    """Deterministic pseudo-random parameters for a recipe."""
    if recipe not in RECIPES:
        raise InvalidSpec(f"unknown recipe {recipe!r}; one of {', '.join(RECIPES)}")
    if degree_bound < 1:
        raise InvalidSpec("degree bound must be at least 1")
    rng = random.Random(f"{recipe}|{seed}|{degree_bound}")
    params: dict
    if recipe == "abelian-rank3":
        params = {}
    elif recipe == "abelian-rank2":
        params = {
            "pairs": [
                [_rand_terms(rng, (2,), degree_bound), _rand_terms(rng, (2,), degree_bound)]
                for _ in range(rng.randint(1, 2))
            ]
        }
    elif recipe == "abelian-rank1":
        params = {
            "fs": [_rand_terms(rng, (1, 2), degree_bound) for _ in range(rng.randint(1, 2))]
        }
    elif recipe == "center-rank2":
        deg_p = rng.randint(1, degree_bound)
        deg_s = rng.randint(1, degree_bound)
        params = {
            "p": _rand_terms_exact_degree(rng, 2, deg_p),
            "q": _rand_terms(rng, (2,), deg_p - 1) if deg_p > 1 and rng.random() < 0.8 else [],
            "r": _rand_terms(rng, (2,), deg_s - 1) if deg_s > 1 and rng.random() < 0.8 else [],
            "s": _rand_terms_exact_degree(rng, 2, deg_s),
        }
    elif recipe == "center-rank1":
        n_lifts = rng.randint(1, 2)
        fs = [_rand_terms_exact_degree(rng, 1, rng.randint(1, degree_bound))]
        fs += [_rand_terms(rng, (1,), degree_bound) for _ in range(n_lifts - 1)]
        gs = [_rand_terms(rng, (0, 1), degree_bound) for _ in range(n_lifts)]
        k_main = _rand_terms_exact_degree(rng, 0, rng.randint(1, degree_bound))
        ks = [k_main] + (
            [_rand_terms(rng, (0, 1), degree_bound)] if rng.random() < 0.5 else []
        )
        params = {"fs": fs, "gs": gs, "ks": ks}
    elif recipe == "heisenberg":
        params = {"h": _rand_terms_exact_degree(rng, 1, rng.randint(1, degree_bound))}
    elif recipe == "single-chain":
        n = rng.randint(1, degree_bound)
        params = {
            "n": n,
            "phis": [_rand_terms(rng, (1,), degree_bound) for _ in range(n)],
            "k0": _rand_terms(rng, (0, 1), degree_bound) if rng.random() < 0.5 else [],
        }
    elif recipe == "nonabelian-projection":
        n = rng.randint(1, 2)
        # small data keeps the derivative lattice (and the closure) desk-scale
        bound = min(degree_bound, 2)
        params = {
            "n": n,
            "fs": [_rand_terms(rng, (0, 1), bound, max_terms=2) for _ in range(n + 1)],
            "g0": _rand_terms(rng, (0, 1), bound, max_terms=2) if rng.random() < 0.7 else [],
            "gs": [_rand_terms_exact_degree(rng, 0, rng.randint(1, bound))]
            + ([_rand_terms(rng, (0, 1), bound, max_terms=2)] if rng.random() < 0.5 else []),
        }
    else:  # abelian-projection
        center_dim_one = bool(rng.getrandbits(1))
        if center_dim_one:
            ps = [
                _rand_terms_exact_degree(rng, 0, rng.randint(1, degree_bound))[-1:],
                _rand_terms_exact_degree(rng, 1, rng.randint(1, degree_bound))[-1:],
            ]
            if rng.random() < 0.5:
                ps.append(_rand_terms(rng, (0, 1), degree_bound))
            p0 = _rand_terms(rng, (0, 1), degree_bound)
        else:
            ps = [_rand_terms_exact_degree(rng, 1, rng.randint(1, degree_bound))]
            if rng.random() < 0.5:
                ps.append(_rand_terms(rng, (1,), degree_bound))
            p0 = _rand_terms(rng, (1,), degree_bound)
        params = {"center_dim_one": center_dim_one, "p0": p0, "ps": ps}
    return RecipeSpec(recipe, seed, degree_bound, params)


# -- builders ---------------------------------------------------------------------


def build(spec: RecipeSpec, ctx: VariableContext = DEFAULT_CONTEXT) -> BuildResult:
    """Realize a recipe: generator fields plus the provable expected skeleton."""
    if ctx.nvars != 3:
        raise InvalidSpec("recipes are defined over a 3-variable context")
    if spec.recipe not in RECIPES:
        raise InvalidSpec(f"unknown recipe {spec.recipe!r}")
    builder = _BUILDERS[spec.recipe]
    generators, expected = builder(spec.params, ctx)
    return BuildResult(spec, tuple(generators), expected)


def _field(ctx: VariableContext, comps: dict[int, ExpPoly]) -> VectorField:
    full = [ctx.zero_poly()] * 3
    for i, p in comps.items():
        full[i] = p
    return ctx.field(full)


def _build_abelian_rank3(params: dict, ctx: VariableContext):
    gens = [ctx.partial(0), ctx.partial(1), ctx.partial(2)]
    return gens, {"nilpotent": True, "abelian": True, "abelian_rank": 3}


def _build_abelian_rank2(params: dict, ctx: VariableContext):
    gens = [ctx.partial(0), ctx.partial(1)]
    for f_terms, g_terms in params["pairs"]:
        f, g = poly_from_terms(f_terms), poly_from_terms(g_terms)
        if not (f.depends_only_on((2,)) and g.depends_only_on((2,))):
            raise InvalidSpec("rank-2 abelian data must depend on the third variable only")
        gens.append(_field(ctx, {0: f, 1: g}))
    return gens, {"nilpotent": True, "abelian": True, "abelian_rank": 2}


def _build_abelian_rank1(params: dict, ctx: VariableContext):
    gens = [ctx.partial(0)]
    for terms in params["fs"]:
        f = poly_from_terms(terms)
        if not f.depends_only_on((1, 2)):
            raise InvalidSpec("rank-1 abelian data must not depend on the first variable")
        gens.append(_field(ctx, {0: f}))
    return gens, {"nilpotent": True, "abelian": True, "abelian_rank": 1}


def _build_center_rank2(params: dict, ctx: VariableContext):
    p, q = poly_from_terms(params["p"]), poly_from_terms(params["q"])
    r, s = poly_from_terms(params["r"]), poly_from_terms(params["s"])
    for name, poly in (("p", p), ("q", q), ("r", r), ("s", s)):
        if not poly.depends_only_on((2,)):
            raise InvalidSpec(f"chain datum {name} must be a polynomial in the third variable")
    if p.degree_in(2) < 1 or s.degree_in(2) < 1:
        raise InvalidSpec("chain heads must have degree at least 1")
    if q.degree_in(2) >= p.degree_in(2) or r.degree_in(2) >= s.degree_in(2):
        raise InvalidSpec("chain head degrees must satisfy deg p > deg q and deg r < deg s")
    gens = [ctx.partial(2), _field(ctx, {0: p, 1: q}), _field(ctx, {0: r, 1: s})]
    expected = {
        "nilpotent": True,
        "abelian": False,
        "case": "CenterRank2",
        "center_dim": 2,
        "center_rank": 2,
        "jordan": {"operator_generator": 0, "kept": [2], "chains": 2},
    }
    return gens, expected


def _build_center_rank1(params: dict, ctx: VariableContext):
    fs = [poly_from_terms(t) for t in params["fs"]]
    gs = [poly_from_terms(t) for t in params["gs"]]
    ks = [poly_from_terms(t) for t in params["ks"]]
    if len(fs) != len(gs):
        raise InvalidSpec("each image datum f needs one lift datum g")
    if not any(not f.is_constant for f in fs):
        raise InvalidSpec("at least one image datum must be nonconstant in y")
    if not any(k.degree_in(0) >= 1 for k in ks):
        raise InvalidSpec("at least one kernel datum must have positive degree in x")
    for f in fs:
        if not f.depends_only_on((1,)):
            raise InvalidSpec("image data must depend on y only")
    for g in gs + ks:
        if not (g.is_polynomial and g.depends_only_on((0, 1))):
            raise InvalidSpec("lift and kernel data must be polynomials in x, y")
    gens = [ctx.partial(0), ctx.partial(2)]
    gens += [_field(ctx, {0: f, 2: g}) for f, g in zip(fs, gs)]
    gens += [_field(ctx, {2: k}) for k in ks]
    expected = {
        "nilpotent": True,
        "abelian": False,
        "case": "CenterRank1DimGE2",
        "center_rank": 1,
        "center_dim_min": 2,
        "center_shape": {"component": 2, "depends_on": [1]},
    }
    return gens, expected


def _build_heisenberg(params: dict, ctx: VariableContext):
    h = poly_from_terms(params["h"])
    if not h.depends_only_on((1,)):
        raise InvalidSpec("the image datum h must depend on y only")
    if h.is_constant:
        raise InvalidSpec(
            "h must be nonconstant (a constant h realizes the single-chain case instead)"
        )
    x = ctx.var_poly(0)
    gens = [ctx.partial(0), _field(ctx, {0: h, 2: x}), ctx.partial(2)]
    expected = {
        "nilpotent": True,
        "abelian": False,
        "dim": 3,
        "case": "CenterDim1",
        "subcase": "a",
        "center_dim": 1,
        "center_rank": 1,
        "lower_central": [3, 1, 0],
    }
    return gens, expected


def _build_single_chain(params: dict, ctx: VariableContext):
    n = params["n"]
    if n < 1:
        raise InvalidSpec("chain degree must be at least 1")
    phis = [poly_from_terms(t) for t in params["phis"]]
    if len(phis) != n:
        raise InvalidSpec("exactly n lower-order coefficients are required")
    for phi in phis:
        if not phi.depends_only_on((1,)):
            raise InvalidSpec("chain coefficients must depend on y only")
    k0 = poly_from_terms(params.get("k0", []))
    if not (k0.is_polynomial and k0.depends_only_on((0, 1))):
        raise InvalidSpec("the lift datum must be a polynomial in x, y")
    x = ctx.var_poly(0)
    head = x**n
    for i, phi in enumerate(phis, start=1):
        head = head + phi * x ** (n - i)
    gens = [ctx.partial(0) + _field(ctx, {2: k0}), _field(ctx, {2: head})]
    expected = {
        "nilpotent": True,
        "abelian": False,
        "dim": n + 2,
        "case": "CenterDim1",
        "subcase": "b",
        "center_dim": 1,
        "center_rank": 1,
        "jordan": {"operator_generator": 0, "kept": [0, 1], "chains": 1},
    }
    return gens, expected


def _build_nonabelian_projection(params: dict, ctx: VariableContext):
    n = params["n"]
    if n < 1:
        raise InvalidSpec("the image must be nonabelian: n >= 1 is required")
    fs = [poly_from_terms(t) for t in params["fs"]]
    if len(fs) != n + 1:
        raise InvalidSpec("one lift datum per image generator is required")
    g0 = poly_from_terms(params.get("g0", []))
    gs = [poly_from_terms(t) for t in params["gs"]]
    if not gs or not any(g.degree_in(0) >= 1 for g in gs):
        raise InvalidSpec("at least one kernel datum must have positive degree in x")
    for p in fs + [g0] + gs:
        if not (p.is_polynomial and p.depends_only_on((0, 1))):
            raise InvalidSpec("all data must be polynomials in x, y")
    y = ctx.var_poly(1)
    gens = [_field(ctx, {0: y**i, 2: f}) for i, f in enumerate(fs)]
    gens.append(ctx.partial(1) + _field(ctx, {2: g0}))
    gens += [_field(ctx, {2: g}) for g in gs]
    expected = {
        "nilpotent": True,
        "abelian": False,
        "case": "CenterDim1",
        "subcase": "c",
        "center_dim": 1,
        "center_rank": 1,
    }
    return gens, expected


def _build_abelian_projection(params: dict, ctx: VariableContext):
    center_dim_one = params["center_dim_one"]
    p0 = poly_from_terms(params["p0"])
    ps = [poly_from_terms(t) for t in params["ps"]]
    for p in [p0] + ps:
        if not (p.is_polynomial and p.depends_only_on((0, 1))):
            raise InvalidSpec("all data must be polynomials in x, y")
    has_x = any(p.degree_in(0) >= 1 for p in [p0] + ps)
    has_y = any(p.degree_in(1) >= 1 for p in [p0] + ps)
    if center_dim_one:
        # the provable mode needs pure powers x^a and y^b among the kernel data
        def is_pure_power(p: ExpPoly, axis: int) -> bool:
            terms = p.sorted_terms()
            return (
                len(terms) == 1
                and terms[0][0].powers[axis] >= 1
                and terms[0][0].degree == terms[0][0].powers[axis]
            )

        if not any(is_pure_power(p, 0) for p in ps) or not any(
            is_pure_power(p, 1) for p in ps
        ):
            raise InvalidSpec(
                "the dim-Z=1 mode requires pure powers x^a and y^b among the kernel data"
            )
    else:
        if has_x:
            raise InvalidSpec("the rank-2-center mode requires y-only data")
        if not any(not p.is_constant for p in ps):
            raise InvalidSpec("the rank-2-center mode needs a nonconstant kernel datum")
    gens = [ctx.partial(0), ctx.partial(1) + _field(ctx, {2: p0})]
    gens += [_field(ctx, {2: p}) for p in ps]
    expected: dict = {
        "nilpotent": True,
        "abelian": False,
        "positive_degree_condition": has_x and has_y,
    }
    if center_dim_one:
        expected.update(
            case="CenterDim1", subcase="d", center_dim=1, center_rank=1
        )
    else:
        expected.update(case="CenterRank2", center_rank=2, center_dim=2)
    return gens, expected


_BUILDERS = {
    "abelian-rank3": _build_abelian_rank3,
    "abelian-rank2": _build_abelian_rank2,
    "abelian-rank1": _build_abelian_rank1,
    "center-rank2": _build_center_rank2,
    "center-rank1": _build_center_rank1,
    "heisenberg": _build_heisenberg,
    "single-chain": _build_single_chain,
    "nonabelian-projection": _build_nonabelian_projection,
    "abelian-projection": _build_abelian_projection,
}
