"""vflie benchmark: end-to-end and per-layer metrics of four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S --trace 0|1

NAME is one of paper-cli, recipe-mix, large-report, large-closure (see
BENCHMARK.json for why each exists).  Each workload is a closed loop with one
client, run in fresh interpreters started from here; load comes from that one
process, without extra threads.

--trace 0 reports the end-to-end metrics from an untraced run: setup_s (median
over nine fresh interpreters of the time from start to the first operation),
ops_per_s, latency_p50_ms, latency_tail_ms (p90), all three over the inputs'
median times, and peak_rss_mb.  Every time is scaled to a host of fixed speed
by a reference task timed around it (see per_input), because a shared host's
speed can wander by half from minute to minute.  failed_ratio is printed
beside them; the last line carries it as `attempted` and `failed`.  --trace 1
runs the workload's fixed passes twice, untraced and traced, and reports the
per-layer metrics plus trace.overhead_ratio (untraced ops/s over traced ops/s);
its spans go to bench/out/.

Every operation's output is checked (see workloads.py); the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}, and
bench/out/<workload>-seed<N>-trace<T>.json keeps the details of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import reference_ms

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(BENCH, "out")
# one fixed percentile, so that two commits compare the same one
TAIL_PCT = 90
# every time is scaled to a host on which worker.reference_ms() reads this
REFERENCE_MS = 1.0
WORKLOADS = ("paper-cli", "recipe-mix", "large-report", "large-closure")
SETUP_PROBES = 9  # setup_s is their median
TIME_LIMIT_S = 170.0  # per workload: a one-workload command must end within 180 s


class WorkerFailed(RuntimeError):
    pass


def spawn(deadline: float, *args: str) -> tuple[dict, float]:
    """Run worker.py to completion; returns its JSON line and its start time."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"worker {' '.join(args)} ran past the time limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def metric(value: float, unit: str, n: int, note: str = "") -> dict:
    return {"value": value, "unit": unit, "n": n, "note": note}


def scaled(seconds: float, reference_ms: float) -> float:
    """A time as it would read on a host that runs the reference task in REFERENCE_MS."""
    return seconds * REFERENCE_MS / reference_ms


def per_input(measured: dict) -> list[float]:
    """Each input's median host-scaled time over the passes, in input order.

    On a shared host, other tenants can slow a process by up to half for
    seconds or minutes at a time, its CPU time as much as its wall time.  So
    every operation's time is scaled by the median time of a fixed reference
    task run just before, during and after it (worker.reference_ms and
    worker.HostSampler).  A slower program is slower against the same
    reference.
    """
    times: dict[int, list[float]] = {}
    for index, seconds, reference in zip(measured["indices"], measured["latencies"],
                                         measured["references"]):
        times.setdefault(index, []).append(scaled(seconds, reference))
    return [statistics.median(times[i]) for i in sorted(times)]


def end_to_end(measured: dict, setup: list[float]) -> dict:
    times = per_input(measured)
    tail = percentile(times, TAIL_PCT)
    beyond = sum(1 for x in times if x > tail)
    n = len(measured["latencies"])
    raw_rate = n / sum(measured["latencies"])
    inputs = f"{len(times)} inputs, each the median of {measured['passes']} passes"
    return {
        "setup_s": metric(statistics.median(setup), "s", len(setup),
                          f"median, range {min(setup):.3f}-{max(setup):.3f}"),
        "ops_per_s": metric(len(times) / sum(times), "1/s", n,
                            f"{inputs}; unscaled mean {raw_rate:.4g}"),
        "latency_p50_ms": metric(1000 * statistics.median(times), "ms", n, f"p50 of {inputs}"),
        "latency_tail_ms": metric(1000 * tail, "ms", n,
                                  f"p{TAIL_PCT} of {inputs}, {beyond} beyond"),
        "peak_rss_mb": metric(measured["peak_rss_mb"], "MB", 1, "ru_maxrss"),
        "failed_ratio": metric(measured["failed"] / n, "ratio", n, f"{measured['failed']}/{n}"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_ops: int | None, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    if max_ops is not None:
        common += ["--max-ops", str(max_ops)]
    if not trace:
        spawn(deadline, *common, "--mode", "setup")  # writes bytecode caches; not timed
        setup = []
        reference_before = reference_ms()
        for _ in range(SETUP_PROBES):
            probe, started = spawn(deadline, *common, "--mode", "setup")
            reference_after = reference_ms()
            # a start-up is too short to time the reference during it: this
            # process times it just before and after
            setup.append(scaled(probe["ready_at"] - started, (reference_before + reference_after) / 2))
            reference_before = reference_after
        measured, _ = spawn(deadline, *common, "--mode", "timed", "--seconds", str(seconds))
        return {
            "metrics": end_to_end(measured, setup),
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "problems": measured["problems"],
            "digest": measured["digest"],
            "inputs": measured["inputs"],
            "passes": measured["passes"],
            "correct": measured["failed"] == 0,
            "samples": {k: measured[k] for k in ("indices", "latencies", "references")},
        }
    spans = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
    plain, _ = spawn(deadline, *common, "--mode", "pass")
    traced, _ = spawn(deadline, *common, "--mode", "pass", "--trace", "--spans", spans)
    layers = traced["layers"]
    overhead = sum(traced["latencies"]) / sum(plain["latencies"])
    layers["trace.overhead_ratio"] = metric(overhead, "ratio", traced["attempted"],
                                            "untraced ops/s over traced ops/s")
    problems = plain["problems"] + traced["problems"]
    if plain["digest"] != traced["digest"]:
        problems.append("tracing changed the outputs (digests differ)")
    return {
        "metrics": layers,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": problems,
        "digest": traced["digest"],
        "inputs": traced["inputs"],
        "passes": traced["passes"],
        "correct": not problems,
    }


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def describe(name: str, result: dict) -> list[str]:
    lines = [f"# {name}: {result['attempted']} operations, {result['failed']} failed, "
             f"{result['inputs']} distinct inputs, {result['passes']} passes, "
             f"digest sha256:{result['digest']}"]
    for key, m in result["metrics"].items():
        note = f", {m['note']}" if m["note"] else ""
        lines.append(f"{name} {key} = {m['value']:.6g} {m['unit']} (n={m['n']}{note})")
    lines += [f"# problem: {p}" for p in result["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, help="stop after this many operations (self-test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vflie", "__init__.py")):
        sys.stderr.write(f"no vflie sources under {ROOT}/src; run from a checkout of the repository\n")
        return 2

    meta = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(f"# vflie benchmark: git {meta['git_sha']}, python {meta['python']}, "
          f"nproc {meta['nproc']}, load {' '.join(f'{x:.2f}' for x in meta['loadavg'])}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(OUT, exist_ok=True)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.max_ops, time.monotonic() + TIME_LIMIT_S)
            print("\n".join(describe(name, results[name])), flush=True)
    except WorkerFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "workloads": results}, handle, indent=1)
    reported = [] if args.trace else ["failed_ratio"]  # carried by attempted and failed
    metrics = {}
    for name, result in results.items():
        prefix = "" if args.workload != "all" else f"{name}."
        for key, m in result["metrics"].items():
            if key not in reported:
                metrics[prefix + key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
