"""Command-line interface: reports, exit codes, determinism, round-trips."""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from vflie import DEFAULT_CONTEXT, LieAlgebra, close
from vflie.cli import build_arg_parser, main
from vflie.parser import MAX_DEPTH, parse_field

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

EX_POLY = ["Dx", "y*Dx", "Dy + (x^2+y^2)*Dz", "(x+y)*Dz"]
EX_EXP = ["Dx", "y*Dx + x^2*exp(y)*Dz", "x*Dz"]
HEISENBERG = ["Dx", "y*Dx + x*Dz", "Dz"]


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "vflie", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def gens(fields: list[str]) -> list[str]:
    out = []
    for f in fields:
        out += ["--gen", f]
    return out


def test_closure_json():
    proc = run_cli("closure", *gens(EX_POLY), "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["dim"] == 8
    assert report["nilpotent"] is True
    assert report["center"] == ["Dz"]


def test_closure_text_contains_same_numbers():
    text = run_cli("closure", *gens(EX_POLY)).stdout
    js = json.loads(run_cli("closure", *gens(EX_POLY), "--format", "json").stdout)
    assert f"dim: {js['dim']}" in text
    assert f"generic_rank: {js['generic_rank']}" in text
    for basis_line in js["basis"]:
        assert basis_line in text


def test_bracket_command():
    proc = run_cli(
        "bracket", "--gen", "y*Dx + x^2*exp(y)*Dz", "--gen", "x*Dz", "--format", "json"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "y*Dz"


def test_classify_command():
    proc = run_cli("classify", *gens(HEISENBERG), "--format", "json")
    report = json.loads(proc.stdout)
    assert report["case"] == "CenterDim1" and report["subcase"] == "a"


def test_series_command():
    proc = run_cli("series", *gens(HEISENBERG), "--kind", "lower-central", "--format", "json")
    assert json.loads(proc.stdout)["dims"] == [3, 1, 0]


def test_center_and_rank_commands():
    center = json.loads(run_cli("center", *gens(EX_EXP), "--format", "json").stdout)
    assert center["center_dim"] == 4 and center["center_rank"] == 1
    rank = json.loads(run_cli("rank", *gens(EX_EXP), "--format", "json").stdout)
    assert rank["generic_rank"] == 2


def test_center_command_builds_only_what_it_prints(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the center command needs no series and no full report")

    monkeypatch.setattr(LieAlgebra, "series", forbidden)
    monkeypatch.setattr(LieAlgebra, "report", forbidden)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["center", *gens(EX_EXP), "--format", "json"]) == 0
    report = json.loads(out.getvalue())
    assert list(report) == ["variables", "dim", "center", "center_dim", "center_rank"]
    assert report["dim"] == 8 and report["center_dim"] == 4 and report["center_rank"] == 1


def test_project_command():
    proc = run_cli("project", *gens(EX_EXP), "--kept", "x,y", "--format", "json")
    report = json.loads(proc.stdout)
    assert report["image"]["dim"] == 2 and report["kernel_dim"] == 6


def test_split_command_with_kept():
    proc = run_cli("split", *gens(EX_POLY), "--kept", "x,y", "--format", "json")
    report = json.loads(proc.stdout)
    assert report["split"] is False
    kinds = {c["kind"] for c in report["certificate"]["conflicts"]}
    assert "singleton-pair" in kinds


def test_split_command_with_indices():
    closure = json.loads(run_cli("closure", *gens(EX_POLY), "--format", "json").stdout)
    kernel_idx = [
        str(i)
        for i, b in enumerate(closure["basis"])
        if "Dx" not in b and "Dy" not in b
    ]
    proc = run_cli(
        "split", *gens(EX_POLY), "--ideal", ",".join(kernel_idx), "--format", "json"
    )
    assert json.loads(proc.stdout)["split"] is False


def test_jordan_command():
    proc = run_cli(
        "jordan", *gens(EX_POLY), "--op", "Dx", "--kept", "x,y", "--format", "json"
    )
    report = json.loads(proc.stdout)
    assert sorted(report["chain_lengths"], reverse=True) == [2, 2, 1]


def test_ideals_command():
    proc = run_cli("ideals", *gens(HEISENBERG), "--format", "json")
    report = json.loads(proc.stdout)
    assert report["parameter_dim"] == 2


def test_match_command():
    proc = run_cli("match", *gens(HEISENBERG), "--template", "heisenberg", "--format", "json")
    assert json.loads(proc.stdout)["matched"] is True


def test_generate_command():
    proc = run_cli("generate", "--recipe", "center-rank2", "--seed", "5", "--format", "json")
    report = json.loads(proc.stdout)
    assert report["recipe"] == "center-rank2" and report["seed"] == 5
    assert report["expected"]["case"] == "CenterRank2"
    closure = run_cli("closure", *gens(report["generators"]), "--format", "json")
    assert json.loads(closure.stdout)["nilpotent"] is True


def test_domain_error_exit_code_1():
    proc = run_cli("closure", "--gen", "Dx", "--gen", "x*Dx", "--gen", "x^3*Dx")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "ClosureCapExceeded"


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cap_degree_error_reports_progress_on_stderr():
    code, out, err = run_main(["closure", "--gen", "Dx", "--gen", "x^5*Dy", "--degree-cap", "4"])
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "ClosureCapExceeded"
    assert {k: report[k] for k in ("cap", "limit", "dim", "round", "pending")} == {
        "cap": "cap_degree", "limit": 4, "dim": 1, "round": 0, "pending": 0,
    }
    assert "cap_degree=4" in report["message"] and "--degree-cap" in report["message"]


def test_cap_degree_does_not_leak_into_later_library_calls():
    gens = ["Dx", "x^5*Dy"]
    assert run_main(["closure", "--gen", gens[0], "--gen", gens[1], "--degree-cap", "4"])[0] == 1
    assert close([parse_field(t, DEFAULT_CONTEXT) for t in gens]).dim == 7
    code, out, _ = run_main(["closure", "--gen", gens[0], "--gen", gens[1], "--format", "json"])
    assert code == 0 and json.loads(out)["dim"] == 7


def test_the_parser_is_built_once_per_process(monkeypatch):
    run_main(["bracket", *gens(["Dx", "x*Dy"])])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["closure", *gens(HEISENBERG)],
        ["series", *gens(HEISENBERG), "--kind", "derived", "--format", "json"],
        ["project", *gens(EX_EXP), "--kept", "x,y"],
        ["generate", "--recipe", "heisenberg", "--seed", "2"],
        ["closure", "--gen", "x*Dx", "--cap-dim", "0"],
    ):
        run_main(argv)
    assert built == []
    assert build_arg_parser() is build_arg_parser()


def _help_text(parse, argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return out.getvalue()


def test_the_cached_parser_is_not_mutated_by_the_calls_it_serves():
    argvs = [case["argv"] for case in json.loads(GOLDEN.read_text(encoding="utf-8"))]
    for argv in argvs:
        assert run_main(argv)[0] == 0
    for argv in argvs + [["closure", "--file", "gens.txt"], ["generate", "--recipe", "heisenberg"]]:
        fresh = build_arg_parser.__wrapped__()
        assert vars(build_arg_parser().parse_args(argv)) == vars(fresh.parse_args(argv)), argv
    for argv in (["closure", "--help"], ["--help"]):
        fresh = build_arg_parser.__wrapped__().parse_args
        assert _help_text(main, argv) == _help_text(fresh, argv), argv


@pytest.mark.parametrize("first, then, codes", [
    (["closure", *gens(["Dx", "x^5*Dy"]), "--degree-cap", "4"],
     ["closure", *gens(["Dx", "x^5*Dy"])], (1, 0)),
    (["closure", "--vars", "a,b,c", *gens(["Da", "a*Db"])],
     ["closure", *gens(["Dx", "x*Dy"])], (0, 0)),
    (["closure", *gens(HEISENBERG)], ["closure", *gens(["Dx", "x^2*Dy"])], (0, 0)),
], ids=["degree-cap", "vars", "gen"])
def test_calls_in_one_process_match_fresh_processes(first, then, codes):
    fresh = {}
    for argv in (first, then):
        proc = run_cli(*argv, "--format", "json")
        fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    for argv, code in [(first, codes[0]), (then, codes[1])] * 2:
        assert run_main([*argv, "--format", "json"]) == fresh[tuple(argv)], argv
        assert fresh[tuple(argv)][0] == code


def test_generate_uses_the_given_variables():
    code, out, _ = run_main(["generate", "--recipe", "heisenberg", "--vars", "a,b,c",
                             "--format", "json"])
    generators = json.loads(out)["generators"]
    assert code == 0 and generators[0] == "Da" and generators[-1] == "Dc"
    assert not any(name in g for g in generators for name in "xyz")
    code, out, err = run_main(["generate", "--recipe", "heisenberg", "--vars", "u,v"])
    assert code == 1 and out == "" and json.loads(err)["error"] == "InvalidSpec"


@pytest.mark.parametrize("argv", [
    ["closure", "--gen", "Dx", "--seed", "1"],  # only generate draws
    ["bracket", "--gen", "Dx", "--gen", "x*Dy", "--cap-dim", "5"],  # bracket never closes
])
def test_flags_are_only_on_commands_that_read_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_not_nilpotent_exit_code_1():
    proc = run_cli("classify", "--gen", "Dx", "--gen", "x*Dx")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "NotNilpotent"


def test_parse_error_exit_code_2():
    proc = run_cli("closure", "--gen", "x**2*Dz")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "ParseError" and err["position"] == 2


def test_cancelling_terms_without_basis_symbol_are_a_parse_error():
    code, out, err = run_main(["closure", "--gen", "Dx + 3 - 3"])
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "ParseError" and report["position"] == 5


def test_deep_nesting_is_a_parse_error_not_a_traceback():
    code, out, err = run_main(["closure", "--gen", "(" * 10_000 + "x" + ")" * 10_000 + "*Dx"])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    report = json.loads(err)
    assert report["error"] == "ParseError" and report["position"] == MAX_DEPTH


def test_non_ascii_digit_is_a_parse_error_with_position():
    code, out, err = run_main(["closure", "--gen", "2\u00b2*Dx"])
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "ParseError" and report["position"] == 1


def test_usage_error_exit_code_2():
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("closure").returncode == 2  # no generators


def test_unreadable_generator_file_is_a_usage_error(tmp_path):
    code, out, err = run_main(["closure", "--file", str(tmp_path / "missing.txt")])
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "UsageError" and "missing.txt" in report["message"]


def test_generator_file(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# polynomial example\nDx\ny*Dx\nDy + (x^2+y^2)*Dz\n(x+y)*Dz\n")
    proc = run_cli("closure", "--file", str(path), "--format", "json")
    assert json.loads(proc.stdout)["dim"] == 8


def test_custom_variables():
    proc = run_cli(
        "closure", "--vars", "u,v", "--gen", "Du", "--gen", "u*Dv", "--format", "json"
    )
    report = json.loads(proc.stdout)
    assert report["variables"] == ["u", "v"] and report["dim"] == 3


def test_json_byte_determinism():
    for args in (
        ["closure", *gens(EX_POLY)],
        ["split", *gens(EX_POLY), "--kept", "x,y"],
        ["classify", *gens(HEISENBERG)],
        ["project", *gens(EX_EXP), "--kept", "x,y"],
        ["generate", "--recipe", "single-chain", "--seed", "3"],
    ):
        first = run_cli(*args, "--format", "json").stdout
        second = run_cli(*args, "--format", "json").stdout
        assert first == second


def test_emitted_basis_strings_reparse():
    report = json.loads(run_cli("closure", *gens(EX_EXP), "--format", "json").stdout)
    for text in report["basis"] + report["center"]:
        assert str(parse_field(text, DEFAULT_CONTEXT)) == text


def test_json_output_matches_golden_transcript():
    # the criterion-10 commands plus the README's jordan, ideals, match and
    # split --ideal commands: criterion 10 compares reruns of one build, this
    # pins canonical bases, centers, kernels and certificates across changes
    for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(case["argv"]) == 0
        assert out.getvalue() == case["stdout"], case["argv"]


# stdlib only: the interpreter runs without site-packages, so no pytest
REPLAY = """
import io, json, sys
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
from vflie.cli import main
with open(sys.argv[2], encoding="utf-8") as f:
    cases = json.load(f)
for case in cases + cases[::-1]:  # twice in one process: the parser is reused
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(case["argv"])
    if code != 0 or out.getvalue() != case["stdout"]:
        sys.exit("differs from the golden transcript: %r" % (case["argv"],))
print(len(cases))
"""


def test_golden_transcript_is_identical_on_other_supported_pythons():
    # pyproject.toml claims requires-python >= 3.10; an interpreter that is
    # not installed, or whose launcher cannot start it, is skipped
    src = str(Path(__file__).resolve().parent.parent / "src")
    cases = len(json.loads(GOLDEN.read_text(encoding="utf-8")))
    ran = []
    for version in ("3.10", "3.12", "3.13"):
        exe = shutil.which(f"python{version}")
        if exe is None:
            continue
        probe = subprocess.run(
            [exe, "-E", "-S", "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode or probe.stdout.strip() != version:
            continue
        proc = subprocess.run(
            [exe, "-E", "-S", "-c", REPLAY, src, str(GOLDEN)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (version, proc.stderr)
        assert proc.stdout.strip() == str(cases), version
        ran.append(version)
    if not ran:
        pytest.skip("none of python3.10, python3.12, python3.13 can be started")
