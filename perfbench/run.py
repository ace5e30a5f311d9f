"""Benchmark for toposample: the Monte Carlo trial loop and the grid planner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's public call is repeated with the same inputs until
``--seconds`` have passed (at least once), and every call is checked
against ``reference.json`` and the consistency checks in ``check.py``.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
  mean wall time per call over the whole run, paths (or plans)
  completed per second of timed calls, the median of five set-ups timed
  in fresh interpreters, and peak RSS of this process plus its largest
  pool child. The mean over the run, not the median of its calls, is
  reported because the host's speed drifts over seconds: a median of a
  few calls follows whichever speed state held most of them.
* ``--trace 1`` reports the per-layer metrics. It first times untraced
  calls with one worker (and, for a pooled workload, one call with its
  own worker count, for the parallel efficiency), then at least two
  traced calls with one worker. Their exact counts must agree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment. A full record, with the spans of the last
traced call, is written to ``perfbench/out/``. The exit code is 0 only
when every call passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy

import workloads
from check import load_reference, summary_errors
from tracing import REPEATABLE, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


class Calls:
    """Timed calls of one workload, each checked as it completes."""

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: list[float] = []  # every call, in order

    def _one(self, workers, tracer):
        if tracer is None:
            t0 = perf_counter()
            summary = self.workload.run(self.inputs, workers)
            return perf_counter() - t0, summary
        with tracer.installed():
            call = tracer.wrap("workload." + self.workload.name, self.workload.run)
            t0 = perf_counter()
            summary = call(self.inputs, workers)
            return perf_counter() - t0, summary

    def repeat(self, workers, seconds, min_calls, traced=False):
        """Call until ``seconds`` have passed and ``min_calls`` were made.

        Returns the wall time of each call and, when traced, its tracer.
        """
        times, tracers = [], []
        start = perf_counter()
        while len(times) < min_calls or perf_counter() - start < seconds:
            tracer = Tracer() if traced else None
            self.attempted += 1
            t0 = perf_counter()
            try:
                elapsed, summary = self._one(workers, tracer)
            except Exception as exc:  # a raising call is a failed call
                elapsed, errors = perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
            else:
                errors = summary_errors(summary, self.reference)
            if errors:
                self.failed += 1
                self.errors += errors
            times.append(elapsed)
            tracers.append(tracer)
        self.times += times
        return times, tracers


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return median(times)


def end_to_end(calls: Calls, seconds: float, seed: int) -> dict[str, float]:
    wl = calls.workload
    times, _ = calls.repeat(wl.workers, seconds, 1)
    rss = peak_rss_mb()  # read before the set-up probes add children
    return {
        "wall_s": sum(times) / len(times),
        "trials_per_s": wl.units * len(times) / sum(times),
        "setup_s": setup_seconds(wl.name, seed),
        "peak_rss_mb": rss,
    }


def per_layer(calls: Calls, seconds: float) -> tuple[dict[str, float], Tracer]:
    wl = calls.workload
    pooled = None
    if wl.workers > 1:
        pooled, _ = calls.repeat(wl.workers, 0.0, 1)
    serial, _ = calls.repeat(1, seconds / 2, 1)
    traced, tracers = calls.repeat(1, seconds / 2, 2, traced=True)
    per_call = [layer_metrics(t, wl.units) for t in tracers]
    for name in REPEATABLE:
        values = [m[name] for m in per_call]
        if len(set(values)) != 1:
            calls.failed = min(calls.failed + 1, calls.attempted)
            calls.errors.append(f"{name} differs between traced calls: {values}")
    metrics = {k: median(m[k] for m in per_call) for k in per_call[0]}
    metrics["harness.parallel_efficiency"] = (
        median(serial) / (wl.workers * median(pooled)) if pooled else 0.0
    )
    metrics["trace.overhead_frac"] = median(traced) / median(serial) - 1.0
    metrics["fail_frac"] = calls.failed / calls.attempted
    return metrics, tracers[-1]


def git_commit() -> str | None:
    """The checked-out commit, read from .git; None outside a git checkout."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(name: str, seed: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    calls = Calls(wl, wl.build(args.seed), load_reference(wl.name, args.seed))
    env = environment(wl.name, args.seed)
    record = {"env": env, "pinned_reference": calls.reference is not None}
    if args.trace:
        values, tracer = per_layer(calls, args.seconds)
        record["spans_of_last_traced_call"] = tracer.dump()
        listed = SPEC["per_layer"]
    else:
        values = end_to_end(calls, args.seconds, args.seed)
        listed = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": metrics,
    }
    record.update(result, errors=calls.errors, call_times_s=calls.times)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")
    for error in calls.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
