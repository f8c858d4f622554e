"""Per-layer tracing by wrapping vflie's public functions from outside.

Layers are vflie's modules.  Each wrapped call pushes a frame; a call's self
time is its duration minus the time of the wrapped calls made inside it.
Layer-boundary calls are kept as spans (name, start, end, parent span,
operation id) in memory and written out at the end.  Hot leaf functions
(ring arithmetic, the field bracket, structure-tensor brackets, echelon
inserts and the dense eliminations) get aggregated counts and times only,
because a span per call would cost more than the call.

A function is patched under every name that refers to it in every loaded
vflie module, so ``vflie.algebra.rref_dense`` is traced as well as
``vflie.linalg.rref_dense``.  The engine's code is not modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op_id: int | None = None
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # extra per-layer counters
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # one [child seconds, layer name] per open call
        self._span_ids: list[int] = []
        self._series_seen: weakref.WeakSet = weakref.WeakSet()

    def wrap(self, name: str, fn, *, span: bool, after=None):
        """Return fn wrapped to record under `name`; after(tracer, frame_parent, args, result)."""
        perf = time.perf_counter
        stack = self._stack
        span_ids = self._span_ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            span_id = None
            if span:
                span_id = len(self.spans)
                self.spans.append(None)  # reserve the id; filled in on return
                span_ids.append(span_id)
            frame = [0.0, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span:
                    span_ids.pop()
                    parent_span = span_ids[-1] if span_ids else None
                    self.spans[span_id] = (span_id, name, start, end, parent_span, self.op_id)
            if after is None:
                self.calls[name] += 1
            else:
                after(self, parent, args, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as (value, unit, samples)."""
        c, s, n = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        rows = {
            "ring.mul.calls": (c["ring.mul"], "count"),
            "ring.mul.self_s": (s["ring.mul"], "s"),
            "ring.mul.terms_out": (n["ring.mul.terms_out"], "count"),
            "ring.diff.calls": (c["ring.diff"], "count"),
            "ring.diff.self_s": (s["ring.diff"], "s"),
            "ring.add.self_s": (s["ring.add"], "s"),
            "fields.bracket.calls": (c["fields.bracket"], "count"),
            "fields.bracket.self_s": (s["fields.bracket"], "s"),
            "fields.bracket.zero_ratio": (ratio(n["fields.bracket.zero"], c["fields.bracket"]), "ratio"),
            "linalg.echelon_insert.calls": (c["linalg.echelon_insert"], "count"),
            "linalg.echelon_insert.self_s": (s["linalg.echelon_insert"], "s"),
            "linalg.echelon_insert.independent_ratio": (
                ratio(n["linalg.echelon_insert.independent"], c["linalg.echelon_insert"]), "ratio"),
            "linalg.echelon_insert.dirtied": (n["linalg.echelon_insert.dirtied"], "count"),
            "linalg.echelon_express.calls": (c["linalg.echelon_express"], "count"),
            "linalg.echelon_express.self_s": (s["linalg.echelon_express"], "s"),
            "linalg.dense.calls": (c["linalg.dense"], "count"),
            "linalg.dense.self_s": (s["linalg.dense"], "s"),
            "linalg.dense.cells": (n["linalg.dense.cells"], "count"),
            "linalg.generic_rank.calls": (c["linalg.generic_rank"], "count"),
            "linalg.generic_rank.self_s": (s["linalg.generic_rank"], "s"),
            "linalg.generic_rank.fields_in": (n["linalg.generic_rank.fields_in"], "count"),
            "algebra.close.calls": (c["algebra.close"], "count"),
            "algebra.close.self_s": (s["algebra.close"], "s"),
            "algebra.close.dim_out": (n["algebra.close.dim_out"], "count"),
            "algebra.tensor_build.self_s": (s["algebra.tensor_build"], "s"),
            "algebra.tensor_build.nnz_ratio": (
                ratio(n["algebra.tensor_build.nnz"], n["algebra.tensor_build.pairs"]), "ratio"),
            "algebra.bracket_coeffs.calls": (c["algebra.bracket_coeffs"], "count"),
            "algebra.bracket_coeffs.self_s": (s["algebra.bracket_coeffs"], "s"),
            "algebra.series.calls": (c["algebra.series"], "count"),
            "algebra.series.self_s": (s["algebra.series"], "s"),
            "algebra.series.per_algebra": (
                ratio(c["algebra.series"], n["algebra.series.algebras"]), "ratio"),
            "algebra.center.self_s": (s["algebra.center"], "s"),
            "algebra.project.self_s": (s["algebra.project"], "s"),
            "algebra.quotient.self_s": (s["algebra.quotient"], "s"),
            "classify.classify.self_s": (s["classify.classify"], "s"),
            "classify.jordan.self_s": (s["classify.jordan"], "s"),
            "classify.split.self_s": (s["classify.split"], "s"),
            "classify.match.self_s": (s["classify.match"], "s"),
            "classify.ideals.self_s": (s["classify.ideals"], "s"),
            "parser.parse.calls": (c["parser.parse"], "count"),
            "parser.parse.self_s": (s["parser.parse"], "s"),
            "cli.main.self_s": (s["cli.main"], "s"),
            "cli.output_bytes": (n["cli.output_bytes"], "B"),
            "recipes.build.self_s": (s["recipes.build"], "s"),
        }
        # the sample count of a layer metric is the number of calls behind it
        def calls_behind(name):
            layer = name.rsplit(".", 1)[0]
            return c["cli.main" if layer == "cli" else layer]

        return {name: {"value": value, "unit": unit, "n": calls_behind(name), "note": ""}
                for name, (value, unit) in rows.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")


# -- what is wrapped -------------------------------------------------------------


def _count_mul(tracer, parent, args, result):
    tracer.calls["ring.mul"] += 1
    tracer.counts["ring.mul.terms_out"] += len(result)


def _count_bracket(tracer, parent, args, result):
    tracer.calls["fields.bracket"] += 1
    if result.is_zero:
        tracer.counts["fields.bracket.zero"] += 1


def _count_insert(tracer, parent, args, result):
    tracer.calls["linalg.echelon_insert"] += 1
    tracer.counts["linalg.echelon_insert.independent"] += result.independent
    tracer.counts["linalg.echelon_insert.dirtied"] += len(result.dirtied)


def _count_dense(tracer, parent, args, result):
    # rref_dense called from inside null_space_dense or solve_dense is the
    # same elimination, so only the outermost dense call counts
    if parent == "linalg.dense":
        return
    tracer.calls["linalg.dense"] += 1
    matrix = args[0]
    if matrix:
        tracer.counts["linalg.dense.cells"] += len(matrix) * len(matrix[0])


def _count_rank(tracer, parent, args, result):
    tracer.calls["linalg.generic_rank"] += 1
    tracer.counts["linalg.generic_rank.fields_in"] += len(args[0])


def _count_close(tracer, parent, args, result):
    tracer.calls["algebra.close"] += 1
    tracer.counts["algebra.close.dim_out"] += result.dim


def _count_tensor(tracer, parent, args, result):
    algebra = args[0]
    tracer.calls["algebra.tensor_build"] += 1
    tracer.counts["algebra.tensor_build.nnz"] += len(algebra.structure)
    tracer.counts["algebra.tensor_build.pairs"] += algebra.dim * (algebra.dim - 1) // 2


def _count_series(tracer, parent, args, result):
    tracer.calls["algebra.series"] += 1
    algebra = args[0]
    if algebra not in tracer._series_seen:
        tracer._series_seen.add(algebra)
        tracer.counts["algebra.series.algebras"] += 1


# (layer name, module, attribute, is a span, after-hook); "Class.method" patches
# the class attribute, every other entry every module-level alias
TARGETS = (
    ("ring.mul", "vflie.ring", "ExpPoly.__mul__", False, _count_mul),
    ("ring.mul", "vflie.ring", "ExpPoly.__rmul__", False, _count_mul),
    ("ring.diff", "vflie.ring", "ExpPoly.diff", False, None),
    ("ring.add", "vflie.ring", "ExpPoly.__add__", False, None),
    ("fields.bracket", "vflie.fields", "VectorField.bracket", False, _count_bracket),
    ("linalg.echelon_insert", "vflie.linalg", "EchelonBasis.insert", False, _count_insert),
    ("linalg.echelon_express", "vflie.linalg", "EchelonBasis.express", False, None),
    ("linalg.dense", "vflie.linalg", "rref_dense", False, _count_dense),
    ("linalg.dense", "vflie.linalg", "null_space_dense", False, _count_dense),
    ("linalg.dense", "vflie.linalg", "solve_dense", False, _count_dense),
    ("linalg.generic_rank", "vflie.linalg", "generic_rank", True, _count_rank),
    ("algebra.close", "vflie.algebra", "close", True, _count_close),
    ("algebra.tensor_build", "vflie.algebra", "LieAlgebra.__init__", True, _count_tensor),
    ("algebra.bracket_coeffs", "vflie.algebra", "LieAlgebra.bracket_coeffs", False, None),
    ("algebra.series", "vflie.algebra", "LieAlgebra.series", True, _count_series),
    ("algebra.center", "vflie.algebra", "LieAlgebra.center_coeffs", True, None),
    ("algebra.project", "vflie.algebra", "LieAlgebra.project", True, None),
    ("algebra.quotient", "vflie.algebra", "LieAlgebra.verify_ideal", True, None),
    ("algebra.quotient", "vflie.algebra", "LieAlgebra.quotient_structure", True, None),
    ("classify.classify", "vflie.classify", "classify", True, None),
    ("classify.jordan", "vflie.classify", "jordan_chains", True, None),
    ("classify.split", "vflie.classify", "split_check", True, None),
    ("classify.match", "vflie.classify", "match_template", True, None),
    ("classify.ideals", "vflie.classify", "one_dim_ideals_mod_center", True, None),
    ("parser.parse", "vflie.parser", "parse_field", True, None),
    ("parser.parse", "vflie.parser", "parse_expression", True, None),
    ("cli.main", "vflie.cli", "main", True, None),
    ("recipes.build", "vflie.recipes", "build", True, None),
)


def install(tracer: Tracer) -> None:
    """Patch every target in every loaded vflie module; import vflie.cli first."""
    import vflie.cli  # noqa: F401  (loads every module that re-exports a target)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "vflie" or name.startswith("vflie."))]
    for layer, module_name, attr, span, after in TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(layer, cls.__dict__[method], span=span, after=after))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(layer, original, span=span, after=after)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
