"""Spans around the calls into each layer of toposample, and the
per-layer metrics derived from them.

A :class:`Tracer` installs wrappers at the module attributes through
which the calling module looks a function up (``harness.oracle_beta0``,
``planner.density_profile``, ...) and at ``SamplePath.value``. Each
wrapped call appends one span: name, start, end, parent span and a size
(points evaluated, roots found, panels or bytes, depending on the
layer). Spans stay in memory; ``dump`` returns them for writing out at
the end of a run. The wrappers run in this process only, so traced calls
use one worker.
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from statistics import mean
from time import perf_counter

import numpy as np

from workloads import harness, planner
from toposample import fields, quadrature

SAMPLE = "fields.sample_path"
VALUE = "fields.value"
BASIS = "fields.basis_jets"
ORACLE = "topology.oracle_beta0"
CUBICAL = "topology.cubical_beta0"
BUILD_PLAN = "planner.build_plan"
CUM_WEIGHT = "planner.cumulative_weight"
PLACE_GRID = "planner.place_grid"
BISECT = "quadrature.bisect_increasing"
CUM_INTEGRAL = "quadrature.cumulative_integral"
SIMPSON = "quadrature.adaptive_simpson"
DENSITY = "density.density_profile"

# per-layer counts that must repeat exactly between two traced calls
REPEATABLE = (
    "topology.polish.calls",
    "topology.brackets",
    "fields.scan_eval.points",
    "planner.place_grid.queries",
    "quadrature.adaptive_simpson.calls",
    "quadrature.integrand_points",
    "quadrature.panels",
    "harness.oracle_calls_per_path",
)


def _points(tracer, args, out):
    return int(np.size(args[-1]))  # x is the last argument of every sized call


def _roots(tracer, args, out):
    tracer.counts["degenerate"] += bool(out.degenerate)
    return int(out.zeros.size)


def _basis_bytes(tracer, args, out):
    return sum(int(a.nbytes) for a in out)


def _panels(tracer, args, out):
    return int(out[1][0].size)


def _count_queries(tracer, g):
    def query(x):
        tracer.counts["queries"] += 1
        return g(x)

    return query


def _count_points(tracer, fn):
    def integrand(x):
        tracer.counts["integrand_points"] += int(np.size(x))
        return fn(x)

    return integrand


# (owner, attribute, span name, size of a call, wrapper of the first argument)
TARGETS = (
    (harness, "sample_path", SAMPLE, None, None),
    (harness, "oracle_beta0", ORACLE, _roots, None),
    (harness, "cubical_beta0", CUBICAL, None, None),
    (harness, "build_plan", BUILD_PLAN, None, None),
    (planner, "build_plan", BUILD_PLAN, None, None),
    (planner, "cumulative_weight", CUM_WEIGHT, None, None),
    (planner, "place_grid", PLACE_GRID, None, None),
    (planner, "bisect_increasing", BISECT, None, _count_queries),
    (planner, "cumulative_integral", CUM_INTEGRAL, None, None),
    (planner, "adaptive_simpson", SIMPSON, _panels, _count_points),
    (quadrature, "adaptive_simpson", SIMPSON, _panels, _count_points),
    (planner, "density_profile", DENSITY, _points, None),
    (fields.SamplePath, "value", VALUE, _points, None),
    (fields, "basis_jets", BASIS, _basis_bytes, None),
)


class Tracer:
    """In-memory spans of one traced call."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name, fn, size=None, first_arg=None):
        names, starts, ends, parents, sizes, stack = (
            self.names, self.starts, self.ends, self.parents, self.sizes, self._stack,
        )

        def wrapper(*args, **kwargs):
            if first_arg is not None:
                args = (first_arg(self, args[0]),) + args[1:]
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            sizes.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if size is not None:
                sizes[i] = size(self, args, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in TARGETS]
        try:
            for owner, attr, name, size, first_arg in TARGETS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), size, first_arg))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def dump(self) -> dict:
        """Spans as compact rows: [name index, start, end, parent, size]."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "names": table,
            "columns": ["name", "start_s", "end_s", "parent", "size"],
            "spans": [
                [index[n], round(s - t0, 9), round(e - t0, 9), p, z]
                for n, s, e, p, z in zip(
                    self.names, self.starts, self.ends, self.parents, self.sizes
                )
            ],
        }


def _mean_or_zero(values):
    return mean(values) if values else 0.0


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics of one traced call of ``units`` paths (or plans).

    Inside each oracle call the first ``SamplePath.value`` call is the
    scan and the later ones are root polishing. Times are totals per
    call of the workload unless the name says per point or per call of
    the layer; counts under topology are per oracle call.
    """
    names, parents, sizes = tracer.names, tracer.parents, tracer.sizes
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    by_name: dict[str, list[int]] = {}
    for i, n in enumerate(names):
        by_name.setdefault(n, []).append(i)

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in spans(name))

    scans, polish = [], []
    seen_oracles = set()
    for i in spans(VALUE):
        p = parents[i]
        if p >= 0 and names[p] == ORACLE:
            (polish if p in seen_oracles else scans).append(i)
            seen_oracles.add(p)
    scan_set = set(scans)
    scan_bytes = sum(sizes[i] for i in spans(BASIS) if parents[i] in scan_set)
    oracles = spans(ORACLE)
    n_oracle = len(oracles)
    per_oracle = (lambda v: v / n_oracle) if n_oracle else (lambda v: 0.0)
    density_points = sum(sizes[i] for i in spans(DENSITY))
    return {
        "fields.sample_path.us": 1e6 * _mean_or_zero([dur[i] for i in spans(SAMPLE)]),
        "fields.scan_eval.us": 1e6 * _mean_or_zero([dur[i] for i in scans]),
        "fields.scan_eval.points": _mean_or_zero([sizes[i] for i in scans]),
        "fields.scan_eval.bytes_computed": scan_bytes / len(scans) if scans else 0.0,
        "topology.polish.us": 1e6 * per_oracle(sum(dur[i] for i in polish)),
        "topology.polish.calls": per_oracle(len(polish)),
        "topology.polish.points": per_oracle(sum(sizes[i] for i in polish)),
        "topology.brackets": per_oracle(sum(sizes[i] for i in oracles)),
        "topology.degenerate_frac": per_oracle(tracer.counts["degenerate"]),
        "topology.oracle.self_us": 1e6 * per_oracle(
            total(ORACLE) - sum(dur[i] for i in scans + polish)
        ),
        "topology.cubical_beta0.us": 1e6 * _mean_or_zero([dur[i] for i in spans(CUBICAL)]),
        "harness.oracle_calls_per_path": n_oracle / units,
        "planner.place_grid.s": total(PLACE_GRID),
        "planner.place_grid.queries": tracer.counts["queries"],
        "planner.cumulative_weight.s": total(CUM_WEIGHT),
        "planner.build_plan.s": total(BUILD_PLAN),
        "quadrature.adaptive_simpson.calls": len(spans(SIMPSON)),
        "quadrature.integrand_points": tracer.counts["integrand_points"],
        "quadrature.panels": sum(
            sizes[i]
            for i in spans(SIMPSON)
            if parents[i] >= 0 and names[parents[i]] == CUM_INTEGRAL
        ),
        "density.density_profile.us_per_point": (
            1e6 * total(DENSITY) / density_points if density_points else 0.0
        ),
    }
