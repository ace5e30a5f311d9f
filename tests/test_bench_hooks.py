"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` wraps functions at the module attributes the
calling module looks them up by (``planner.place_grid``,
``harness.oracle_beta0``, ...). A source refactor that drops one of
those names would make every traced benchmark call fail, so this checks
them from the library side.
"""
import sys
from pathlib import Path

import numpy as np

import toposample as ts
from toposample.fields import sample_coefficients
from toposample.topology import scan_counts

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_every_tracer_target_is_an_attribute_of_its_owner():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_tracer_installs_and_restores_every_target():
    before = [owner.__dict__[attr] for owner, attr, *_ in tracing.TARGETS]
    with tracing.Tracer().installed() as tracer:
        ts.planner.build_plan(ts.chebyshev_model(5), ts.threshold_zero(), m=4)
    after = [owner.__dict__[attr] for owner, attr, *_ in tracing.TARGETS]
    assert all(a is b for a, b in zip(after, before))
    assert {tracing.BUILD_PLAN, tracing.PLACE_GRID, tracing.DENSITY} <= set(tracer.names)


QUADRATURE = ("quadrature.adaptive_simpson.calls", "quadrature.integrand_points", "quadrature.panels")


def test_traced_trial_pass_counts_are_repeatable():
    # two traced compare_strategies calls per case, as in the
    # compare_binom5 workload but small: each grid is graded once per
    # chunk, oracle_beta0 runs only on the paths whose scan signs leave
    # the counts unsettled, and every count the benchmark requires to
    # repeat is equal across the calls. At amplitude 1e-6 the periodic
    # paths often have a scan value below the oracle's 1e-9 tolerance.
    # Each of those traced calls starts from nothing kept (``ts.forget()``),
    # so both integrate; then a warm pair, in perfbench/run.py's order (an
    # untraced call first), reads both integrals back and repeats a zero
    # quadrature count.
    cases = (
        (ts.binomial_model(5), ts.threshold_cubic_shift(0.5), 7),
        (ts.periodic_model([0.0, 1e-6, 1e-6]), ts.threshold_zero(), 5),
    )
    trials, resolution = 8, 512

    def call():
        ts.harness.compare_strategies(
            model, threshold, m=m, trials=trials, seed=1, oracle_resolution=resolution
        )

    def traced():
        with tracing.Tracer().installed() as tracer:
            call()
        return tracing.layer_metrics(tracer, trials), tracer.names.count(tracing.CUBICAL)

    for model, threshold, m in cases:
        metrics, graded = [], []
        for _ in range(2):
            ts.forget()
            metric, grids = traced()
            metrics.append(metric)
            graded.append(grids)
        first, second = metrics
        assert all(first[k] > 0 for k in QUADRATURE)
        coeffs = sample_coefficients(model, 1, range(trials))
        flagged = int(np.count_nonzero(~scan_counts(model, threshold, coeffs, resolution)[3]))
        assert first["harness.oracle_calls_per_path"] == flagged / trials
        assert graded == [3, 3]
        if model.family == "periodic":
            # each fallback scans path.value at every scan point, where the tracer sees it
            assert flagged > 0 and first["topology.brackets"] > 0
            assert first["fields.scan_eval.points"] == resolution
        assert {k: first[k] for k in tracing.REPEATABLE} == {k: second[k] for k in tracing.REPEATABLE}
        call()
        warm = [traced()[0] for _ in range(2)]
        assert {k: warm[0][k] for k in tracing.REPEATABLE} == {k: warm[1][k] for k in tracing.REPEATABLE}
        assert [[w[k] for k in QUADRATURE] for w in warm] == [[0, 0, 0]] * 2
