"""Run one workload in this (fresh) interpreter and print one JSON line.

Started by run.py, once per measurement, so that every workload gets its own
process: the CLI's process-global degree cap cannot leak between workloads,
and set-up time and peak memory belong to one workload.  Modes:

  setup   import vflie, build the inputs, report when ready, exit
  timed   then run whole passes over the inputs until --seconds have
          passed (the closed loop of the end-to-end metrics), timing the
          host's speed around and during every operation (reference_ms)
  pass    then run the workload's fixed number of passes (traced runs and
          their untraced twin, so both do exactly the same operations)
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MAX_PROBLEMS = 5
SAMPLE_PERIOD_S = 0.1


def reference_ms() -> float:
    """The host's momentary speed: the fastest of three runs of a fixed task, in ms.

    The task does what vflie's inner loops do (Fraction arithmetic with growing
    integers, dicts keyed by exponent tuples) and shares no code with vflie.
    Collection is off while it runs, so that the heap an operation leaves
    behind cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        fastest = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            total = Fraction(0)
            for i in range(1, 300):
                total += Fraction(1, i)
            table = {}
            for i in range(2000):
                table[(i, i % 7)] = [i] * 3
            fastest = min(fastest, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return 1000 * fastest


def import_engine() -> None:
    """Import vflie from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import vflie

    if not os.path.abspath(vflie.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"vflie was imported from {vflie.__file__}, not from {SRC}")


class HostSampler:
    """Times the reference task every SAMPLE_PERIOD_S while an operation runs.

    An operation of seconds outlasts the host's quiet and busy spells, so the
    reference timed before and after it says little about the speed it ran
    at.  A timer signal interrupts it between two bytecodes to time the
    reference task; stop() returns the time so spent, to be taken off the
    operation's time.  Operations shorter than the period are not interrupted.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.taken: list[float] = []
        self.spent = 0.0
        if enabled:
            signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.taken.append(reference_ms())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.taken, self.spent = [], 0.0
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> float:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return self.spent


def verify(workload, item, out, seen: dict) -> list[str]:
    """Check an output on its first occurrence; later ones must repeat it byte for byte."""
    try:
        digest = hashlib.sha256(workload.canonical(item, out)).hexdigest()
        if item.index in seen:
            if seen[item.index] != digest:
                return [f"input {item.index}: output differs from its first run"]
            return []
        seen[item.index] = digest
        return [f"input {item.index}: {p}" for p in workload.check(item, out)]
    except Exception as exc:  # a malformed output must count as a failure, not end the run
        return [f"input {item.index}: check raised {exc!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "pass"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-ops", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import_engine()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if tracer:
        tracer.active = True
    generated = workload.generate(args.seed)
    if tracer:
        tracer.active = False
    items = workload.prepare(generated, args.seed)
    ready_at = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready_at": ready_at}))
        return 0

    perf = time.perf_counter
    latencies: list[float] = []
    indices: list[int] = []  # the input each latency belongs to
    references: list[float] = []  # median reference_ms() around and during each operation
    sampler = HostSampler(enabled=args.mode == "timed")
    problems: list[str] = []
    seen: dict[int, str] = {}
    failed = out_bytes = 0
    passes = 0
    loop_start = time.monotonic()
    reference_before = reference_ms()
    while True:
        for item in items:
            if args.max_ops is not None and len(latencies) >= args.max_ops:
                break
            if tracer:
                tracer.op_id = len(latencies)
                tracer.active = True
            sampler.start()
            start = perf()
            try:
                out = workload.execute(item)
                error = None
            except Exception as exc:  # a failed operation is counted, and the loop goes on
                out, error = None, exc
            elapsed = perf() - start - sampler.stop()
            if tracer:
                tracer.active = False
            reference_after = reference_ms()
            latencies.append(elapsed)
            indices.append(item.index)
            references.append(statistics.median([reference_before, *sampler.taken, reference_after]))
            reference_before = reference_after
            if error is None:
                found = verify(workload, item, out, seen)
                out_bytes += workload.output_bytes(out)
            else:
                found = [f"input {item.index}: raised {error!r}"]
            if found:
                failed += 1
                problems.extend(found[: MAX_PROBLEMS - len(problems)])
        passes += 1
        if args.max_ops is not None and len(latencies) >= args.max_ops:
            break
        if args.mode == "pass":
            if passes >= workload.trace_passes:
                break
        elif time.monotonic() - loop_start >= args.seconds:
            break

    digest = hashlib.sha256(
        "".join(f"{i}:{seen[i]}\n" for i in sorted(seen)).encode()
    ).hexdigest()
    result = {
        "ready_at": ready_at,
        "latencies": latencies,
        "indices": indices,
        "references": references,
        "attempted": len(latencies),
        "failed": failed,
        "problems": problems,
        "passes": passes,
        "inputs": len(seen),
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.counts["cli.output_bytes"] = out_bytes
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
