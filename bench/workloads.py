"""The benchmark's workloads: inputs from a seed, one operation, its canonical
output, and checks of that output that do not rely on the engine's answers.

Every workload is a fixed corpus visited in a seeded order.  The seed also
changes what the engine is given without changing what it must compute: each
recipe generator is rescaled by a nonzero rational, which leaves the closed
algebra, and so every checked property, unchanged.  Recipe generators are
also shuffled, but by an order fixed per input, because the cost of close()
depends on it.  For the CLI commands, whose closures take milliseconds, the
seed shuffles the order of the --gen arguments instead (the bracket command
excepted, as its sign depends on that order).  A fixed corpus keeps the work
of one run the same from seed to seed, which random draws of such uneven
cost (a few milliseconds to seconds per algebra) cannot do within a run of
seconds.

Each corpus has an odd number of inputs.  Every pass runs each input once, so
with an even count the median latency would fall in the gap between two
inputs' times and jump with small changes of either.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import vflie
import vflie.cli

from oracle import (
    Span,
    bracket,
    falls_strictly_to_zero,
    field_terms,
    field_vector,
    lower_central_dims,
)

SCALES = tuple(Fraction(n, d) for n, d in ((1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2), (3, 1), (-3, 2)))
PROJECTION_RECIPES = ("nonabelian-projection", "abelian-projection")


@dataclass
class Item:
    index: int  # position in the corpus; outputs are digested in this order
    payload: dict = field(default_factory=dict)


def _rng(*parts) -> random.Random:
    return random.Random("|".join(map(str, parts)))


def _perturb(generators, order_rng: random.Random, scale_rng: random.Random):
    """Shuffle and rescale generators; returns (fields, new position of each old one)."""
    order = list(range(len(generators)))
    order_rng.shuffle(order)
    fields = [generators[i] * scale_rng.choice(SCALES) for i in order]
    return fields, {old: new for new, old in enumerate(order)}


def _structure_entries(algebra):
    for (i, j), comps in algebra.structure.items():
        for k, c in comps.items():
            yield i, j, k, c


def skeleton_problems(expected: dict, facts: dict) -> list[str]:
    """Compare a recipe's provable expected skeleton with the facts an operation produced.

    Keys of `expected` without a matching fact (for example `case` where no
    classification ran) are skipped.
    """
    problems = []
    for key in ("nilpotent", "abelian", "abelian_rank", "case", "subcase",
                "center_dim", "center_rank", "dim", "lower_central"):
        if key in expected and key in facts and facts[key] != expected[key]:
            problems.append(f"{key}: expected {expected[key]!r}, got {facts[key]!r}")
    if "center_dim_min" in expected and facts["center_dim"] < expected["center_dim_min"]:
        problems.append(f"center_dim {facts['center_dim']} < {expected['center_dim_min']}")
    if "jordan" in expected and "chains" in facts and facts["chains"] != expected["jordan"]["chains"]:
        problems.append(f"chains: expected {expected['jordan']['chains']}, got {facts['chains']}")
    shape = expected.get("center_shape")
    if shape:
        names = ("x", "y", "z")
        banned = [n for i, n in enumerate(names) if i not in shape["depends_on"]]
        for text in facts["center"]:
            rest = text.replace("D" + names[shape["component"]], "").replace("exp", "")
            if "D" in rest or any(n in rest for n in banned):
                problems.append(f"center element {text!r} is not of the expected shape {shape}")
    return problems


def series_problems(dim: int, entries, engine_nilpotent: bool) -> tuple[list[str], list[int]]:
    """Recompute the lower-central series from the structure constants."""
    dims = lower_central_dims(dim, entries)
    problems = []
    if not falls_strictly_to_zero(dims):
        problems.append(f"lower-central dims {dims} do not fall strictly to 0")
    if engine_nilpotent != (dims[-1] == 0):
        problems.append(f"engine says nilpotent={engine_nilpotent}, series dims are {dims}")
    return problems, dims


# -- paper-cli ---------------------------------------------------------------------

EX_POLY = ["Dx", "y*Dx", "Dy + (x^2+y^2)*Dz", "(x+y)*Dz"]
EX_POLY_BASIS = {"Dx", "y*Dx", "Dy + x^2*Dz", "Dz", "x*Dz", "y*Dz", "x*y*Dz", "y^2*Dz"}
EX_EXP = ["Dx", "y*Dx + x^2*exp(y)*Dz", "x*Dz"]
EX_EXP_BASIS = {"Dx", "y*Dx + x^2*exp(y)*Dz", "x*Dz", "Dz", "y*Dz",
                "x*exp(y)*Dz", "exp(y)*Dz", "y*exp(y)*Dz"}
HEISENBERG = ["Dx", "y*Dx + x*Dz", "Dz"]
JORDAN_GENS = ["Dz", "z*Dx", "z^2*Dx + z*Dy", "Dx", "Dy"]


def _expect(**wanted):
    def check(report: dict) -> list[str]:
        return [f"{key}: expected {value!r}, got {report.get(key)!r}"
                for key, value in wanted.items() if report.get(key) != value]
    return check


def _basis_is(expected: set, **wanted):
    def check(report: dict) -> list[str]:
        problems = _expect(**wanted)(report)
        if set(report.get("basis", ())) != expected:
            problems.append(f"basis {report.get('basis')} is not {sorted(expected)}")
        return problems
    return check


def _nonsplit_with_two_values(report: dict) -> list[str]:
    """The paper's certificate: one lift unknown forced to both 2 and -2."""
    if report.get("split") is not False:
        return ["the polynomial example must not split"]
    cert = report["certificate"]
    for conflict in cert["conflicts"]:
        if conflict["kind"] != "singleton-pair":
            continue
        implied = set()
        for r in conflict["row_indices"]:
            row = cert["rows"][r]
            ((unknown, coeff),) = row["coeffs"].items()
            if unknown == str(conflict["unknown"]):
                implied.add(-Fraction(row["const"]) / Fraction(coeff))
        if {2, -2} <= implied:
            return []
    return ["no certificate pins one unknown to the values 2 and -2"]


def _projection_exp(report: dict) -> list[str]:
    problems = _expect(kernel_dim=6)(report)
    if set(report["image"]["basis"]) != {"Dx", "y*Dx"}:
        problems.append(f"image basis {report['image']['basis']} is not Dx, y*Dx")
    return problems


def _generated(report: dict) -> list[str]:
    problems = _expect(recipe="center-rank1", seed=5, degree_bound=3)(report)
    if report["expected"].get("case") != "CenterRank1DimGE2":
        problems.append("generate center-rank1 must expect CenterRank1DimGE2")
    return problems


# (command, generators, extra arguments, check of the parsed JSON); the values
# are the ones stated in the paper and README, or follow from them by hand:
# neither Heisenberg nor the exponential example has a Dy part, and both
# contain Dx and Dz (rank 2); the Heisenberg center is
# <Dz> (one dimension) and it is the `heisenberg` normal form; under ad(Dz)
# z^2*Dx + z*Dy -> 2*z*Dx + Dy -> 2*Dx -> 0 and Dy -> 0 give chains 3 and 1
PAPER_COMMANDS = (
    ("closure", EX_POLY, [], _basis_is(EX_POLY_BASIS, dim=8, center=["Dz"])),
    ("split", EX_POLY, ["--kept", "x,y"], _nonsplit_with_two_values),
    ("closure", EX_EXP, [], _basis_is(EX_EXP_BASIS, dim=8)),
    ("project", EX_EXP, ["--kept", "x,y"], _projection_exp),
    ("center", EX_EXP, [], _expect(dim=8, center_dim=4, center_rank=1)),
    ("split", EX_EXP, ["--kept", "x,y"], _expect(split=False)),
    ("closure", HEISENBERG, [], _expect(dim=3)),
    ("series", HEISENBERG, [], _expect(dims=[3, 1, 0], terminated_at_zero=True)),
    ("classify", HEISENBERG, [], _expect(case="CenterDim1", subcase="a")),
    ("rank", HEISENBERG, [], _expect(dim=3, generic_rank=2)),
    ("rank", EX_EXP, [], _expect(dim=8, generic_rank=2)),
    ("bracket", ["y*Dx + x^2*exp(y)*Dz", "x*Dz"], [], _expect(result="y*Dz")),
    ("jordan", JORDAN_GENS, ["--op", "Dz", "--kept", "z"], _expect(chain_lengths=[3, 1])),
    ("ideals", HEISENBERG, [], _expect(center_dim=1)),
    ("match", HEISENBERG, ["--template", "heisenberg"], _expect(matched=True)),
    ("generate", [], ["--recipe", "center-rank1", "--seed", "5", "--degree-bound", "3"], _generated),
    ("split", EX_POLY, ["--ideal", "3,4,5,6,7"], _expect(split=False)),
)


class PaperCli:
    """The CLI commands of the paper and README, run in-process."""

    name = "paper-cli"
    trace_passes = 10

    def generate(self, seed: int) -> list:
        return list(PAPER_COMMANDS)

    def prepare(self, generated: list, seed: int) -> list[Item]:
        rng = _rng(self.name, seed)
        items = []
        for index, (command, gens, extra, check) in enumerate(generated):
            gens = list(gens)
            if command != "bracket":  # a bracket's sign depends on its order
                rng.shuffle(gens)
            argv = [command]
            for g in gens:
                argv += ["--gen", g]
            items.append(Item(index, {"argv": argv + extra + ["--format", "json"], "check": check}))
        rng.shuffle(items)
        return items

    def execute(self, item: Item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = vflie.cli.main(item.payload["argv"])
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def canonical(self, item: Item, out) -> bytes:
        return out[1].encode()

    def output_bytes(self, out) -> int:
        return len(out[1].encode())

    def check(self, item: Item, out) -> list[str]:
        code, stdout, stderr = out
        if code != 0:
            return [f"exit code {code}: {stderr.strip()}"]
        return item.payload["check"](json.loads(stdout))


# -- recipe workloads ---------------------------------------------------------------


class _Recipes:
    """Shared by the workloads whose corpus is a list of recipe draws."""

    name = ""
    cap_dim = vflie.algebra.DEFAULT_CAP_DIM
    corpus: tuple = ()  # (recipe, recipe seed, degree bound)

    def generate(self, seed: int) -> list:
        return [vflie.build(vflie.random_spec(recipe, s, bound)) for recipe, s, bound in self.corpus]

    def prepare(self, generated: list, seed: int) -> list[Item]:
        rng = _rng(self.name, seed)
        items = []
        for index, result in enumerate(generated):
            gens, moved = _perturb(result.generators, _rng(self.name, "order", index), rng)
            payload = {"recipe": result.spec.recipe, "gens": gens, "expected": result.expected}
            jordan = result.expected.get("jordan")
            if jordan:
                payload["operator"] = gens[moved[jordan["operator_generator"]]]
            items.append(Item(index, payload))
        rng.shuffle(items)
        return items

    def output_bytes(self, out) -> int:
        return 0


class RecipeMix(_Recipes):
    """The call sequence of acceptance criteria 5-7 over all nine recipes."""

    name = "recipe-mix"
    trace_passes = 1
    # the gate's degree bounds: 4 for the center-rank2 and single-chain suites
    # (criteria 5 and 6), 3 for the mixed suite (criterion 7)
    corpus = tuple(
        (recipe, s, 4 if recipe in ("center-rank2", "single-chain") else 3)
        for recipe in vflie.RECIPES
        for s in range(13)
    )

    def execute(self, item: Item):
        p = item.payload
        algebra = vflie.close(p["gens"], cap_dim=self.cap_dim)
        nilpotent = algebra.is_nilpotent()
        center = algebra.center()
        center_rank = vflie.generic_rank(center)
        report = vflie.classify(algebra)
        extra = None
        jordan = p["expected"].get("jordan")
        if jordan:
            projection = algebra.project(jordan["kept"])
            extra = vflie.jordan_chains(algebra, p["operator"], list(projection.kernel_coeffs))
        elif p["recipe"] in PROJECTION_RECIPES:
            projection = algebra.project([0, 1])
            extra = vflie.split_check(algebra, list(projection.kernel_coeffs))
        return algebra, nilpotent, center, center_rank, report, extra

    def canonical(self, item: Item, out) -> bytes:
        algebra, nilpotent, center, center_rank, report, extra = out
        doc = {
            "basis": [str(b) for b in algebra.basis],
            "structure": sorted([i, j, k, str(c)] for i, j, k, c in _structure_entries(algebra)),
            "nilpotent": nilpotent,
            "center": [str(v) for v in center],
            "center_rank": center_rank,
            "classification": report.to_dict(),
            "extra": None if extra is None else extra.to_dict(),
        }
        return json.dumps(doc, sort_keys=True).encode()

    def check(self, item: Item, out) -> list[str]:
        algebra, nilpotent, center, center_rank, report, extra = out
        problems, dims = series_problems(algebra.dim, _structure_entries(algebra), nilpotent)
        facts = {
            "nilpotent": nilpotent,
            "abelian": report.abelian,
            "abelian_rank": report.abelian_rank,
            "case": report.case,
            "subcase": report.subcase,
            "center_dim": report.center_dim,
            "center_rank": report.center_rank,
            "dim": algebra.dim,
            "lower_central": dims,
            "center": [str(v) for v in center],
        }
        if item.payload["expected"].get("jordan"):
            facts["chains"] = len(extra.chains)
        return problems + skeleton_problems(item.payload["expected"], facts)


class LargeReport(_Recipes):
    """close() plus report() on center-rank1 algebras of dimension 33-39."""

    name = "large-report"
    trace_passes = 1
    cap_dim = 200
    corpus = (("center-rank1", 5, 5), ("center-rank1", 9, 6), ("center-rank1", 10, 5))

    def execute(self, item: Item):
        algebra = vflie.close(item.payload["gens"], cap_dim=self.cap_dim)
        return algebra.report()

    def canonical(self, item: Item, out) -> bytes:
        return json.dumps(out).encode()

    def check(self, item: Item, out) -> list[str]:
        entries = [(i, j, k, Fraction(c)) for i, j, k, c in out["structure"]]
        problems, dims = series_problems(out["dim"], entries, out["nilpotent"])
        if len(out["basis"]) != out["dim"]:
            problems.append("basis length differs from dim")
        facts = {
            "nilpotent": out["nilpotent"],
            "abelian": out["abelian"],
            "center_dim": len(out["center"]),
            "center_rank": out["center_rank"],
            "dim": out["dim"],
            "lower_central": dims,
            "center": out["center"],
        }
        return problems + skeleton_problems(item.payload["expected"], facts)


class LargeClosure(_Recipes):
    """close() alone on center-rank1 draws at degree bound 6, seed 7 being dimension 88."""

    name = "large-closure"
    trace_passes = 1
    cap_dim = 200
    # the degree-6 draws among seeds 0-59 that close to dimension 30 or more;
    # smaller closures mostly time per-call overhead, which paper-cli covers
    corpus = tuple(("center-rank1", s, 6) for s in (
        1, 5, 6, 7, 9, 20, 21, 22, 23, 28, 30, 32, 35, 38, 42, 45, 46, 48, 49, 50, 55, 56, 59))
    sampled_pairs = 3

    def execute(self, item: Item):
        algebra = vflie.close(item.payload["gens"], cap_dim=self.cap_dim)
        return algebra.dim, algebra.basis

    def canonical(self, item: Item, out) -> bytes:
        dim, basis = out
        return json.dumps({"dim": dim, "basis": [str(b) for b in basis]}).encode()

    def check(self, item: Item, out) -> list[str]:
        dim, basis = out
        basis_terms = [field_terms(b) for b in basis]
        span = Span(field_vector(t) for t in basis_terms)
        problems = []
        if span.rank != dim or len(basis) != dim:
            problems.append(f"basis of {len(basis)} fields has rank {span.rank}, dim says {dim}")
        for g in item.payload["gens"]:
            if not span.contains(field_vector(field_terms(g))):
                problems.append(f"generator {g} is outside the span")
        rng = _rng(self.name, "pairs", item.index)
        for _ in range(self.sampled_pairs if len(basis) > 1 else 0):
            i, j = rng.sample(range(len(basis)), 2)
            if not span.contains(field_vector(bracket(basis_terms[i], basis_terms[j]))):
                problems.append(f"[e{i}, e{j}] is outside the span")
        return problems


WORKLOADS = {w.name: w for w in (PaperCli(), RecipeMix(), LargeReport(), LargeClosure())}
