"""The benchmark tracer patches vflie names by string; each must still exist.

bench/tracing.py is loaded by path and its TARGETS only resolved, never
installed, so a renamed or deleted engine function fails here and not only
in a traced benchmark run.
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
