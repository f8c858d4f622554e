"""The benchmark tracer patches vflie names by string; each must still exist.

bench/tracing.py is loaded by path and its TARGETS resolved, never
installed, so a renamed or deleted engine function fails here and not only
in a traced benchmark run.  Each after-hook also runs once on a real result
of its target, so a changed return shape fails here too.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("vflie_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for layer, module_name, attr, _span, _after in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), (layer, attr)
        else:
            assert callable(getattr(module, attr, None)), (layer, attr)


def hook_calls():
    """One real call per traced target that has an after-hook, keyed by
    (module, attribute): the arguments the wrapper would pass to the hook."""
    from vflie import DEFAULT_CONTEXT, EchelonBasis, LieAlgebra, close, coordinatize
    from vflie.parser import parse_expression, parse_field

    ctx = DEFAULT_CONTEXT
    p, q = parse_expression("x + y", ctx), parse_expression("x*exp(y)", ctx)
    u, v = parse_field("Dx", ctx), parse_field("y*Dx + x*Dz", ctx)
    L = close([u, v])
    matrix = [[1, 2], [2, 4]]
    return {
        ("vflie.ring", "ExpPoly.__mul__"): (p, q),
        ("vflie.ring", "ExpPoly.__rmul__"): (p, 3),
        ("vflie.fields", "VectorField.bracket"): (u, v),
        ("vflie.linalg", "EchelonBasis.insert"): (EchelonBasis(), coordinatize(u)),
        ("vflie.linalg", "rref_dense"): (matrix,),
        ("vflie.linalg", "null_space_dense"): (matrix, 2),
        ("vflie.linalg", "solve_dense"): (matrix, [1, 2]),
        ("vflie.linalg", "generic_rank"): ([u, v],),
        ("vflie.algebra", "close"): ([u, v],),
        ("vflie.algebra", "LieAlgebra.__init__"): (
            LieAlgebra.__new__(LieAlgebra), L.ctx, L._echelon),
        ("vflie.algebra", "LieAlgebra.series"): (L, "lower-central"),
    }


def test_every_after_hook_reads_its_targets_real_result():
    # the hooks read return shapes (InsertResult.dirtied, LieAlgebra.dim and
    # structure, ...), so each is run once on what its target really returns
    tracing = load_tracing()
    calls = hook_calls()
    hooked = [t for t in tracing.TARGETS if t[4] is not None]
    assert {(module_name, attr) for _, module_name, attr, _, _ in hooked} == set(calls)
    for layer, module_name, attr, _span, after in hooked:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            fn = vars(getattr(module, cls_name))[method]
        else:
            fn = getattr(module, attr)
        args = calls[module_name, attr]
        tracer = tracing.Tracer()
        after(tracer, None, args, fn(*args))
        assert tracer.calls[layer] == 1, (layer, attr)
        assert tracer.layer_metrics()
