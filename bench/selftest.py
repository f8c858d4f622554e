"""Self-test of the benchmark (not of vflie): python3 bench/selftest.py

Runs each workload briefly, untraced and traced, and checks that every metric
named in BENCHMARK.json is printed with its unit.  Then hands deliberately
wrong answers to the correctness checks and expects them to be rejected.
Asserts no time threshold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402  (imports vflie from src/)
from workloads import WORKLOADS, Item, series_problems, skeleton_problems  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


class MetricsPresent(unittest.TestCase):
    def check_run(self, workload: str, trace: int, wanted: list[dict]) -> None:
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--max-ops", "2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_workload_prints_every_metric(self) -> None:
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_run(w["name"], 0, SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_run(w["name"], 1, SPEC["per_layer"])

    def test_fails_without_the_program(self) -> None:
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "out")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("--workload", "paper-cli", "--seed", "0", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class ChecksRejectWrongAnswers(unittest.TestCase):
    def paper_item(self, command: str, *args: str) -> tuple:
        """The paper-cli item for `command` whose arguments include all of `args`."""
        cli = WORKLOADS["paper-cli"]
        for item in cli.prepare(cli.generate(0), 0):
            argv = item.payload["argv"]
            if argv[0] == command and all(a in argv for a in args):
                return cli, item
        raise AssertionError(command)

    def test_paper_bracket_value(self) -> None:
        cli, item = self.paper_item("bracket")
        good = cli.execute(item)
        self.assertEqual(cli.check(item, good), [])
        wrong = (0, json.dumps({**json.loads(good[1]), "result": "y*Dx"}), "")
        self.assertNotEqual(cli.check(item, wrong), [])

    def test_paper_certificate_values(self) -> None:
        cli, item = self.paper_item("split", "--kept", "Dy + (x^2+y^2)*Dz")
        good = cli.execute(item)
        self.assertEqual(cli.check(item, good), [])
        report = json.loads(good[1])
        for row in report["certificate"]["rows"]:
            if row["const"] == "2":
                row["const"] = "3"
        self.assertNotEqual(cli.check(item, (0, json.dumps(report), "")), [])

    def test_recipe_skeleton(self) -> None:
        expected = {"case": "CenterDim1", "subcase": "a", "center_dim": 1,
                    "center_shape": {"component": 2, "depends_on": [1]}}
        facts = {"case": "CenterDim1", "subcase": "a", "center_dim": 1, "center": ["y*Dz"]}
        self.assertEqual(skeleton_problems(expected, facts), [])
        self.assertNotEqual(skeleton_problems(expected, {**facts, "subcase": "b"}), [])
        self.assertNotEqual(skeleton_problems(expected, {**facts, "center": ["x*Dz"]}), [])

    def test_series_oracle(self) -> None:
        heisenberg = [(0, 1, 2, Fraction(1))]
        self.assertEqual(series_problems(3, heisenberg, True), ([], [3, 1, 0]))
        problems, dims = series_problems(2, [(0, 1, 1, Fraction(1))], True)  # [e0, e1] = e1
        self.assertEqual(dims, [2, 1])
        self.assertNotEqual(problems, [])

    def test_closure_membership(self) -> None:
        closure = WORKLOADS["large-closure"]
        item = closure.prepare(closure.generate(0), 0)[0]
        dim, basis = closure.execute(item)
        self.assertEqual(closure.check(item, (dim, basis)), [])
        # the first basis element has the smallest pivot, Dx, and Dx is a generator
        self.assertNotEqual(closure.check(item, (dim - 1, basis[1:])), [])
        self.assertNotEqual(closure.check(item, (dim + 1, basis)), [])

    def test_repeated_input_must_repeat_its_output(self) -> None:
        cli, item = self.paper_item("rank")
        seen: dict = {}
        good = cli.execute(item)
        self.assertEqual(worker.verify(cli, item, good, seen), [])
        self.assertEqual(worker.verify(cli, item, good, seen), [])
        changed = (0, good[1].replace("2", "3"), "")
        self.assertNotEqual(worker.verify(cli, item, changed, seen), [])


if __name__ == "__main__":
    unittest.main()
