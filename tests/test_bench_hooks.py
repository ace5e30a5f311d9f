"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` wraps functions at the module attributes the
calling module looks them up by (``planner.place_grid``,
``harness.oracle_beta0``, ...). A source refactor that drops one of
those names would make every traced benchmark call fail, so this checks
them from the library side.
"""
import sys
from pathlib import Path

import toposample as ts

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
