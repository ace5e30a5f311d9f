"""The benchmark's workloads and the result summaries they are checked on.

Every workload calls one public entry point of toposample and returns a
JSON-able summary of the result. The inputs come from ``--seed``; the
same seed gives the same inputs, so every call in one run repeats the
same work.

The sources are imported from ``src/`` of the checkout that holds this
directory, never from an installed copy.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "toposample" / "__init__.py").is_file():
    raise SystemExit("perfbench: no toposample sources under src/ of this checkout")
sys.path.insert(0, str(SRC))

import toposample as ts  # noqa: E402
from toposample import harness, planner  # noqa: E402
from toposample.config import ExperimentConfig  # noqa: E402

# paths per call; 512 is one harness chunk, 1024 is two, so a
# two-worker pool has one chunk per worker
MC_TRIALS = 512
COMPARE_TRIALS = 1024
ZERO_TRIALS = 4
PLAN_P = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    units: int  # paths per call (plans, for the planner workload)
    workers: int  # worker processes of an untraced call
    build: Callable[[int], object]  # seed -> inputs; this is the set-up
    run: Callable[[object, int], dict]  # (inputs, workers) -> summary
    seeded: bool = True  # False when the inputs do not depend on the seed


def plan_summary(plan, domain, p=None) -> dict:
    return {
        "domain": list(domain),
        "m": plan.m,
        "p": p,
        "total_weight": plan.total_weight,
        "grid": plan.grid.tolist(),
    }


def experiment_summary(result, domain, p=None) -> dict:
    return {
        "trials": result.trials,
        "valid": result.valid,
        "degenerate": result.degenerate,
        "matches_pos": result.matches_pos,
        "matches_neg": result.matches_neg,
        "matches_both": result.matches_both,
        "plan": plan_summary(result.plan, domain, p),
    }


def _mc_build(seed):
    return ExperimentConfig(
        model=ts.chebyshev_model(5),
        threshold=ts.threshold_zero(),
        strategy="topology",
        p=PLAN_P,
        trials=MC_TRIALS,
        seed=seed,
        oracle_resolution=4096,
        workers=1,
    )


def _mc_run(config, workers):
    result = harness.run_experiment(replace(config, workers=workers))
    return {"topology": experiment_summary(result, config.model.domain, PLAN_P)}


def _compare_build(seed):
    return (ts.binomial_model(5), ts.threshold_cubic_shift(0.5), seed)


def _compare_run(inputs, workers):
    model, threshold, seed = inputs
    results = harness.compare_strategies(
        model, threshold, m=7, trials=COMPARE_TRIALS, seed=seed, workers=workers
    )
    return {name: experiment_summary(r, model.domain) for name, r in results}


def _zeros_build(seed):
    return (ts.chebyshev_model(64), seed)


def _zeros_run(inputs, workers):
    model, seed = inputs
    r = harness.zero_count_experiment(model, trials=ZERO_TRIALS, seed=seed, workers=workers)
    return {
        "zeros": {
            "trials": r.trials,
            "valid": r.valid,
            "degenerate": r.degenerate,
            "total_zeros": round(r.mean_zeros * r.valid) if r.valid else 0,
        }
    }


def _plan_build(seed):
    # grid planning draws nothing at random, so the seed does not enter
    return (ts.chebyshev_model(64), ts.threshold_zero())


def _plan_run(inputs, workers):
    model, threshold = inputs
    plan = planner.build_plan(model, threshold, "topology", p=PLAN_P)
    return {"plan": plan_summary(plan, model.domain, PLAN_P)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_cheb5", MC_TRIALS, 1, _mc_build, _mc_run),
        Workload("compare_binom5", COMPARE_TRIALS, 2, _compare_build, _compare_run),
        Workload("zeros_cheb64", ZERO_TRIALS, 1, _zeros_build, _zeros_run),
        Workload("plan_cheb64", 1, 1, _plan_build, _plan_run, seeded=False),
    )
}
