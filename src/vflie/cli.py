"""Command-line front end.

`main()` may be called repeatedly in one process.  The argument parser is
built on the first call and then reused, which is safe because it is a
constant: every default comes from a module constant, `parse_args` never
mutates the parser, and `--gen` copies its empty default before appending.
Reports go to stdout (text or JSON), structured errors to stderr.  Exit
codes: 0 success, 1 domain error, 2 usage or parse error.  All randomness
flows through --seed (default 0, never wall-clock), and JSON output is
byte-deterministic for fixed input and configuration.

JSON stdout is written by _write_json, and is byte-identical to
json.dumps(report, indent=2).  json has no C path for `indent` before
Python 3.13, so json.dumps would run its pure-Python encoder on every
report; the writer escapes strings with json's own C escaper
(encode_basestring_ascii) and joins the parts once.  The compact error
objects on stderr keep json.dumps, which encodes them in C.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .algebra import DEFAULT_CAP_DEGREE, DEFAULT_CAP_DIM, DEFAULT_CAP_ROUNDS, LieAlgebra, close
from .classify import (
    TEMPLATES,
    classify,
    jordan_chains,
    match_template,
    one_dim_ideals_mod_center,
    split_check,
)
from .errors import ParseError, VflieError
from .fields import VariableContext
from .linalg import generic_rank
from .parser import parse_field
from .recipes import RECIPES, build, random_spec


def _add_common(p: argparse.ArgumentParser, *, gens: bool = True, caps: bool = True) -> None:
    p.add_argument("--vars", default="x,y,z", help="comma-separated variable names (max 3)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    if caps:
        p.add_argument("--cap-dim", type=int, default=DEFAULT_CAP_DIM)
        p.add_argument("--cap-rounds", type=int, default=DEFAULT_CAP_ROUNDS)
        p.add_argument("--degree-cap", dest="cap_degree", type=int, default=DEFAULT_CAP_DEGREE)
    if gens:
        p.add_argument(
            "--gen", action="append", default=[], metavar="FIELD",
            help="generator vector field, e.g. 'y*Dx + x^2*exp(y)*Dz' (repeatable)",
        )
        p.add_argument(
            "--file", metavar="PATH",
            help="newline-separated generator file; '#' starts a comment",
        )


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vflie",
        description="Exact engine for finite-dimensional Lie algebras of vector fields (up to 3 variables)",
    )
    parser.add_argument("--version", action="version", version=f"vflie {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="Lie bracket of two fields")
    _add_common(p, caps=False)

    p = sub.add_parser("closure", help="bracket closure of the generators")
    _add_common(p)

    p = sub.add_parser("classify", help="classify the closed algebra by its center")
    _add_common(p)

    p = sub.add_parser("center", help="center of the closed algebra")
    _add_common(p)

    p = sub.add_parser("series", help="lower-central or derived series dimensions")
    _add_common(p)
    p.add_argument("--kind", choices=("lower-central", "derived"), default="lower-central")

    p = sub.add_parser("rank", help="generic rank of the closed algebra")
    _add_common(p)

    p = sub.add_parser("project", help="drop components; image and kernel")
    _add_common(p)
    p.add_argument("--kept", required=True, help="comma-separated kept variables, e.g. x,y")

    p = sub.add_parser("jordan", help="Jordan chains of ad(--op) on an invariant subspace")
    _add_common(p)
    p.add_argument("--op", required=True, help="operator element (vector-field expression)")
    p.add_argument("--ideal", help="comma-separated 0-based basis indices")
    p.add_argument("--kept", help="alternative: use kernel of the projection onto these variables")

    p = sub.add_parser("split", help="split-extension check over an abelian ideal")
    _add_common(p)
    p.add_argument("--ideal", help="comma-separated 0-based basis indices")
    p.add_argument("--kept", help="alternative: use kernel of the projection onto these variables")

    p = sub.add_parser("ideals", help="one-dimensional ideals of the central quotient")
    _add_common(p)

    p = sub.add_parser("match", help="match the closed algebra against a normal-form template")
    _add_common(p)
    p.add_argument("--template", required=True, choices=TEMPLATES)

    p = sub.add_parser("generate", help="emit recipe generators with expected classification")
    _add_common(p, gens=False, caps=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--recipe", required=True, choices=RECIPES)
    p.add_argument("--degree-bound", type=int, default=3)

    return parser


def _generators(args: argparse.Namespace, ctx: VariableContext) -> list:
    texts: list[str] = []
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.split("#", 1)[0].strip()
                if line:
                    texts.append(line)
    texts.extend(args.gen)
    if not texts:
        raise ParseError("no generators given (use --gen or --file)", 0)
    return [parse_field(t, ctx) for t in texts]


def _closure(args: argparse.Namespace, ctx: VariableContext) -> LieAlgebra:
    return close(
        _generators(args, ctx),
        cap_dim=args.cap_dim,
        cap_rounds=args.cap_rounds,
        cap_degree=args.cap_degree,
    )


def _ideal_argument(args: argparse.Namespace, algebra: LieAlgebra):
    if args.ideal and args.kept:
        raise ParseError("--ideal and --kept are mutually exclusive", 0)
    if args.ideal:
        return [int(i) for i in args.ideal.split(",")], {"ideal_indices": args.ideal}
    if args.kept:
        kept = [k.strip() for k in args.kept.split(",") if k.strip()]
        proj = algebra.project(kept)
        return list(proj.kernel_coeffs), {"ideal_kernel_of": kept}
    raise ParseError("one of --ideal or --kept is required", 0)


def _run(args: argparse.Namespace) -> dict:
    ctx = VariableContext(tuple(n.strip() for n in args.vars.split(",") if n.strip()))
    head = {"variables": list(ctx.names)}
    if args.command == "bracket":
        gens = _generators(args, ctx)
        if len(gens) != 2:
            raise ParseError("bracket needs exactly two --gen fields", 0)
        return {**head, "left": str(gens[0]), "right": str(gens[1]),
                "result": str(gens[0].bracket(gens[1]))}
    if args.command == "closure":
        return {**head, **_closure(args, ctx).report()}
    if args.command == "classify":
        return {**head, **classify(_closure(args, ctx)).to_dict()}
    if args.command == "center":
        algebra = _closure(args, ctx)
        center = algebra.center()
        return {**head, "dim": algebra.dim, "center": [str(v) for v in center],
                "center_dim": len(center), "center_rank": generic_rank(center)}
    if args.command == "series":
        return {**head, **_closure(args, ctx).series(args.kind).to_dict()}
    if args.command == "rank":
        algebra = _closure(args, ctx)
        return {**head, "dim": algebra.dim, "generic_rank": generic_rank(algebra.basis)}
    if args.command == "project":
        kept = [k.strip() for k in args.kept.split(",") if k.strip()]
        return {**head, **_closure(args, ctx).project(kept).to_dict()}
    if args.command == "jordan":
        algebra = _closure(args, ctx)
        ideal, described = _ideal_argument(args, algebra)
        operator = parse_field(args.op, ctx)
        return {**head, **described, **jordan_chains(algebra, operator, ideal).to_dict()}
    if args.command == "split":
        algebra = _closure(args, ctx)
        ideal, described = _ideal_argument(args, algebra)
        return {**head, **described, **split_check(algebra, ideal).to_dict()}
    if args.command == "ideals":
        return {**head, **one_dim_ideals_mod_center(_closure(args, ctx)).to_dict()}
    if args.command == "match":
        return {**head, **match_template(_closure(args, ctx), args.template).to_dict()}
    if args.command == "generate":
        spec = random_spec(args.recipe, args.seed, args.degree_bound)
        return build(spec, ctx).to_dict()
    raise AssertionError(f"unhandled command {args.command}")


def _render_text(report: dict, indent: str = "") -> str:
    lines: list[str] = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, list) and value:
            lines.append(f"{indent}{key}:")
            for v in value:
                if isinstance(v, dict):
                    lines.append(indent + "  -")
                    lines.append(_render_text(v, indent + "    "))
                else:
                    lines.append(f"{indent}  {v}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line)


_escape = json.encoder.encode_basestring_ascii


def _write_json(value, out: list[str], newline: str) -> None:
    """Append to out the parts of json.dumps(value, indent=2) for a report
    value: a dict with str keys, a list or tuple, a str, an int, a bool or
    None.  newline is a line break plus two spaces per enclosing level, so
    an empty container stays {} or [].  TypeError for any other type or
    key: no float or Fraction reaches a report."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(head + _escape(key) + ": ")
            _write_json(item, out, inner)
            head = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for item in value:
            out.append(head)
            _write_json(item, out, inner)
            head = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        report = _run(args)
    except VflieError as exc:
        sys.stderr.write(json.dumps(exc.to_dict()) + "\n")
        return 2 if isinstance(exc, ParseError) else 1
    except (ValueError, OSError) as exc:  # bad flag values: names, caps, indices, files
        sys.stderr.write(json.dumps({"error": "UsageError", "message": str(exc)}) + "\n")
        return 2
    if args.format == "json":
        out: list[str] = []
        _write_json(report, out, "\n")
        out.append("\n")
        sys.stdout.write("".join(out))
    else:
        sys.stdout.write(_render_text(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
