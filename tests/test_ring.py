"""Coefficient-ring arithmetic: spec examples, ring axioms, derivation laws."""

from __future__ import annotations

import ast
import copy
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

from vflie import ExpPoly, SubstitutionOutsideRing
from vflie.parser import parse_expression
from vflie.ring import ExpMonomial

from conftest import (
    Q,
    assert_poly_is,
    evaluate,
    naive_add,
    naive_diff,
    naive_mul,
    naive_of,
    rand_poly,
    rng,
)


def P(text: str):
    from vflie import DEFAULT_CONTEXT

    return parse_expression(text, DEFAULT_CONTEXT)


# -- addition -------------------------------------------------------------------


def test_add_additive_inverse():
    assert (P("x") + P("-x")).is_zero


def test_add_like_terms_merge():
    assert P("x^2*exp(y)") + P("x^2*exp(y)") == P("2*x^2*exp(y)")


def test_add_collects_across_degrees():
    # oracle: naive term-list addition
    a, b = P("z^2 + z"), P("2*z")
    assert_poly_is(a + b, naive_add(naive_of(a), naive_of(b)))
    assert a + b == P("z^2 + 3*z")


# -- multiplication ---------------------------------------------------------------


def test_mul_unit_coefficient():
    assert P("x") * P("exp(y)") == P("x*exp(y)")


def test_mul_rates_add():
    assert P("exp(y)") * P("exp(y)") == P("exp(2*y)")


def test_mul_expand_and_collect():
    a, b = P("x+y"), P("x-y")
    assert_poly_is(a * b, naive_mul(naive_of(a), naive_of(b)))
    assert a * b == P("x^2 - y^2")


# -- differentiation ---------------------------------------------------------------


def test_diff_power_rule():
    assert P("x^2*exp(y)").diff(0) == P("2*x*exp(y)")


def test_diff_exponential_rule():
    assert P("x^2*exp(y)").diff(1) == P("x^2*exp(y)")


def test_diff_product_rule_on_mixed_term():
    got = P("y*exp(y)").diff(1)
    assert got == P("exp(y) + y*exp(y)")
    # finite-difference sanity check at sample points
    h = 1e-6
    for point in [(0.0, 0.5, 0.0), (1.0, -0.25, 2.0)]:
        up = evaluate(P("y*exp(y)"), (point[0], point[1] + h, point[2]))
        dn = evaluate(P("y*exp(y)"), (point[0], point[1] - h, point[2]))
        assert abs(evaluate(got, point) - (up - dn) / (2 * h)) < 1e-5


# -- evaluation -------------------------------------------------------------------


def test_evaluate_exp_zero():
    assert evaluate(P("x^2*exp(y)"), (1, 0, 0)) == pytest.approx(1.0)


def test_evaluate_polynomial_point():
    assert evaluate(P("z^2 + 3*z"), (0, 0, 2)) == pytest.approx(10.0)


def test_evaluate_zero():
    assert evaluate(ExpPoly.zero(3), (5, -7, Q(1, 3))) == 0.0


# the names of math that take ints and return ints, so compute exactly
EXACT_MATH = {"gcd", "lcm"}


def float_sources(source: str) -> list[str]:
    """Where a module may compute in floating point, as "line: what": a call
    of float (by name or as an attribute), any import of math, and any name
    taken from math other than those of EXACT_MATH."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "float":
                found.append(f"{node.lineno}: float(")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "math":
            found += [f"{node.lineno}: from math import {alias.name}" for alias in node.names
                      if node.module != "math" or alias.name not in EXACT_MATH]
    return found


def test_float_sources_flags_every_inexact_import_and_call():
    assert float_sources("from math import gcd, lcm\nfrom math import gcd\ngcd(4, 6)") == []
    assert float_sources("import math") == ["1: import math"]
    assert float_sources("import os, math as m") == ["1: import math"]
    assert float_sources("def f():\n    import math.fsum") == ["2: import math.fsum"]
    assert float_sources("from math import sqrt") == ["1: from math import sqrt"]
    assert float_sources("from math import gcd, floor") == ["1: from math import floor"]
    assert float_sources("from math import gcd as g, lcm as m") == []
    assert float_sources("from math import *") == ["1: from math import *"]
    assert float_sources("x = float(y)") == ["1: float("]
    assert float_sources("def f(y):\n    return builtins.float(y) + 1") == ["2: float("]
    # only code counts: the word in a string or a comment computes nothing
    assert float_sources('"""a float(x) from math import sqrt"""  # float(x)') == []


def test_package_computes_no_floats():
    # exactness guard: floating point lives in the tests only
    src = Path(__file__).resolve().parent.parent / "src" / "vflie"
    offenders = [f"{p.name}:{where}" for p in sorted(src.glob("*.py"))
                 for where in float_sources(p.read_text(encoding="utf-8"))]
    assert offenders == []


def test_package_imports_only_what_it_uses():
    # no linter runs in the gate: every module-level import in src/vflie is
    # read somewhere in its module, or re-exported through __all__
    src = Path(__file__).resolve().parent.parent / "src" / "vflie"
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read and name not in exported]
    assert unused == []


# read only outside the package, by bench/tracing.py and the tests
UNREAD_IN_PACKAGE = {"rref_dense", "solve_dense"}
# methods that no code in src/vflie calls, each with the reason it stays
UNREAD_METHODS = {
    "LieAlgebra.bracket_coeffs": "a target of the benchmark tracer",
    "LieAlgebra.element": "public API",
    "LieAlgebra.center_coeffs": "public API",
    "LieAlgebra.quotient_structure": "public API",
    "VectorField.pushforward": "public API",
}


def test_package_defines_only_what_it_reads():
    # no linter runs in the gate: every module-level function and class in
    # src/vflie is read somewhere in src/vflie, or exported through __all__,
    # and every method but a dunder is read as an attribute (or a name)
    # somewhere in src/vflie; the allow-lists hold exactly the definitions
    # that are neither
    src = Path(__file__).resolve().parent.parent / "src" / "vflie"
    defined = []
    methods = []
    read = set()
    attributes = set()
    exported = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
            if isinstance(node, ast.ClassDef):
                methods += [
                    (f"{node.name}.{item.name}", item.name, f"{path.name}:{item.lineno}")
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
        read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        attributes |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unread = sorted((name, where) for name, where in defined if name not in read | exported)
    assert {name for name, _ in unread} == UNREAD_IN_PACKAGE, unread
    unread_methods = sorted(
        (qualified, where) for qualified, name, where in methods if name not in attributes | read
    )
    assert {name for name, _ in unread_methods} == set(UNREAD_METHODS), unread_methods


# the modules of src/vflie from the bottom layer up: a module-level import
# points down this order
LAYERS = ("errors", "ring", "fields", "linalg", "parser", "recipes", "algebra", "classify",
          "__init__", "cli", "__main__")
# (module, enclosing definition, imported module): empty, so no function
# imports a vflie module and every import is checked against the layers
CALL_TIME_IMPORTS: set[tuple[str, str, str]] = set()


def package_imports(node: ast.AST, scope: str = ""):
    """(scope, imported vflie module) for every import of a vflie module
    under node; scope is the dotted name of the enclosing class and
    function definitions, "" at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom) and (child.level or child.module.startswith("vflie")):
            name = child.module if child.level else child.module.partition(".")[2]
            yield scope, name or "__init__"
        elif isinstance(child, ast.Import):
            for alias in child.names:
                if alias.name.split(".")[0] == "vflie":
                    yield scope, alias.name.partition(".")[2] or "__init__"
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from package_imports(child, inner)


def test_package_imports_point_down_the_layers():
    # no linter runs in the gate: the import graph of src/vflie is layered,
    # so no module-level import cycle can form
    src = Path(__file__).resolve().parent.parent / "src" / "vflie"
    assert sorted(p.stem for p in src.glob("*.py")) == sorted(LAYERS)
    upward, call_time = [], set()
    for path in sorted(src.glob("*.py")):
        rank = LAYERS.index(path.stem)
        for scope, target in package_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if scope:
                call_time.add((path.stem, scope, target))
            elif LAYERS.index(target) >= rank:
                upward.append((path.name, target))
    assert upward == []
    assert call_time == CALL_TIME_IMPORTS


# -- substitution ------------------------------------------------------------------


def test_substitute_binomial_expansion():
    x_shift = {0: P("x + 1")}
    assert P("x^2").substitute(x_shift) == P("x^2 + 2*x + 1")


def test_substitute_affine_in_third_variable():
    assert P("z").substitute({2: P("2*z + 3")}) == P("2*z + 3")


def test_substitute_nonlinear_into_exponential_rejected():
    with pytest.raises(SubstitutionOutsideRing):
        P("exp(y)").substitute({1: P("y^2")})


def test_substitute_affine_constant_into_exponential_rejected():
    # exp(y+1) = e * exp(y) has an irrational coefficient
    with pytest.raises(SubstitutionOutsideRing):
        P("exp(y)").substitute({1: P("y + 1")})


def test_substitute_linear_into_exponential():
    assert P("exp(y)").substitute({1: P("2*y")}) == P("exp(2*y)")
    assert P("exp(x+y)").substitute({0: P("x - y")}) == P("exp(x)")


# -- algebraic laws on randomized canonical inputs -----------------------------------


def test_ring_axioms_randomized():
    r = rng(20240501)
    for _ in range(60):
        a = rand_poly(r, allow_exp=True)
        b = rand_poly(r, allow_exp=True)
        c = rand_poly(r, allow_exp=True)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_diff_is_a_derivation():
    r = rng(20240502)
    for _ in range(40):
        a = rand_poly(r, allow_exp=True)
        b = rand_poly(r, allow_exp=True)
        for i in range(3):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_mixed_partials_commute():
    r = rng(20240503)
    for _ in range(40):
        a = rand_poly(r, allow_exp=True, max_deg=3)
        for i in range(3):
            for j in range(3):
                assert a.diff(i).diff(j) == a.diff(j).diff(i)


def test_diff_matches_naive_oracle():
    r = rng(20240504)
    for _ in range(40):
        a = rand_poly(r, allow_exp=True)
        for i in range(3):
            assert_poly_is(a.diff(i), naive_diff(naive_of(a), i))


def test_canonicalization_idempotent():
    r = rng(20240505)
    for _ in range(40):
        a = rand_poly(r, allow_exp=True)
        rebuilt = ExpPoly(a.nvars, a.term_map())
        assert rebuilt == a
        assert rebuilt.term_map() == a.term_map()


def test_zero_decidable_exactly():
    a = P("x^2 - y^2")
    b = P("x+y") * P("x-y")
    assert (a - b).is_zero
    assert not (a - b + P("1/7")).is_zero


def test_monomial_fields_and_validation():
    m = ExpMonomial((1, 0, 2), (Fraction(0), Fraction(1, 2), Fraction(0)))
    assert m.powers == (1, 0, 2) and m.rates == (0, Fraction(1, 2), 0)
    assert all(type(r) is Fraction for r in m.rates)
    assert m == ExpMonomial((1, 0, 2), (0, Fraction(1, 2), 0))
    assert hash(m) == hash(ExpMonomial((1, 0, 2), (0, Fraction(1, 2), 0)))
    assert m != ExpMonomial((1, 0, 2), (0, 0, 0))
    with pytest.raises(ValueError):
        ExpMonomial((1, -1, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        ExpMonomial((1, 0), (0, 0, 0))
    for name in ("powers", "rates", "has_exp", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, (0, 0, 0))
    assert m.powers == (1, 0, 2)
    for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and hash(twin) == hash(m) and twin.has_exp


def test_monomial_equality_hash_and_order_are_tuples_own():
    # guard: the term order and the hashing of term maps stay in C
    for slot in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(ExpMonomial, slot) is getattr(tuple, slot), slot


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: ExpMonomial((0, 0, 0), (0.5, 0, 0)), "rate 0.5"),
        (lambda: ExpMonomial((1.0, 0, 0), (0, 0, 0)), "power 1.0"),
        (lambda: ExpPoly(3, {ExpMonomial((1, 0, 0), (0, 0, 0)): 0.5}), "coefficient 0.5"),
        (lambda: ExpPoly.const(3, 0.1), "coefficient 0.1"),
        (lambda: ExpPoly.monomial((0, 0, 0), (0, 0.25, 0)), "rate 0.25"),
        (lambda: ExpPoly.monomial((0, 2.0, 0), (0, 0, 0)), "power 2.0"),
        (lambda: ExpPoly.monomial((0, 0, 0), (0, 0, 0), 1.5), "coefficient 1.5"),
    ],
)
def test_ring_constructors_reject_floats_by_value(build, named):
    with pytest.raises(TypeError, match=re.escape(named)):
        build()


def test_a_float_scalar_factor_is_a_type_error():
    p = P("x + exp(y)")
    with pytest.raises(TypeError):
        p * 0.5
    with pytest.raises(TypeError):
        0.5 * p
    assert p * 2 == 2 * p == p * Q(2) == P("2*x + 2*exp(y)")


@pytest.mark.parametrize("scalar", [1, 0, Q(1, 2), 0.5])
def test_adding_a_scalar_is_a_type_error(scalar):
    # the ring has no implicit constants: P("1") is the element, 1 is not
    p = P("x + exp(y)")
    for expression in (lambda: p + scalar, lambda: scalar + p,
                       lambda: p - scalar, lambda: scalar - p):
        with pytest.raises(TypeError):
            expression()
    assert p + P("1") - P("1") == p


def test_a_term_key_that_is_not_a_monomial_is_a_type_error():
    with pytest.raises(TypeError, match=re.escape("term key (1, 2) is not an ExpMonomial")):
        ExpPoly(3, {(1, 2): 1})
    with pytest.raises(TypeError, match="is not an ExpMonomial"):
        ExpPoly(3, {((0, 0, 0), (1, 0, 0)): 1})  # the stored layout, but a plain tuple


def test_exponentials_that_cancel_leave_the_polynomial_monomial():
    for product, powers, rest in (
        (P("exp(x)") * P("exp(-x)"), (0, 0, 0), P("1")),
        (P("x*exp(y)") * P("exp(-y)"), (1, 0, 0), P("x")),
        (P("3*exp(1/2*x - z)") * P("y*exp(-1/2*x + z)"), (0, 1, 0), P("3*y")),
    ):
        (mono,) = product.term_map()
        plain = ExpMonomial(powers, (0, 0, 0))
        assert mono == plain and hash(mono) == hash(plain) and not mono.has_exp
        assert mono.rates == (0, 0, 0) and product.is_polynomial
        assert (product - rest).is_zero and product == rest
        assert (product + P("x")) == rest + P("x")
