"""Correctness checks on workload summaries.

Two kinds of check run on every timed call:

* consistency checks, which hold for any seed: counts add up, match
  counts stay within the valid trials, and a planned grid is strictly
  increasing with M + 1 points, pinned endpoints and, for a plan sized
  by a target probability, M = min_samples(K, p);
* a reference check against ``reference.json`` where it pins the seed:
  counts must reproduce exactly; a plan must reproduce M exactly, K to
  1e-10 relative, and each grid point to within 1e-10 K in F, stored as
  a per-point tolerance in x.

A summary maps a record name to a record: "plan" to a plan, "zeros" to
a zero-count result, and a grid strategy name to an experiment result.
"""
from __future__ import annotations

import json
from pathlib import Path

from workloads import planner

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
EXPERIMENT_KEYS = ("trials", "valid", "degenerate", "matches_pos", "matches_neg", "matches_both")
ZERO_KEYS = ("trials", "valid", "degenerate", "total_zeros")
K_RTOL = 1e-10
# a grid point may move by this share of K in F(x), the cumulative mass
F_TOL = 1e-10


def load_reference(workload: str, seed: int, path: Path = REFERENCE_PATH) -> dict | None:
    """The pinned record for (workload, seed), or None if the seed is not pinned.

    A workload whose inputs do not depend on the seed is pinned under "any".
    """
    table = json.loads(path.read_text())[workload]
    return table.get(str(seed), table.get("any"))


def plan_errors(plan: dict, where: str) -> list[str]:
    grid = plan["grid"]
    m = plan["m"]
    a, b = plan["domain"]
    errors = []
    if len(grid) != m + 1:
        errors.append(f"{where}: grid has {len(grid)} points for M={m}")
    if grid[0] != a or grid[-1] != b:
        errors.append(f"{where}: grid endpoints {grid[0]!r}, {grid[-1]!r} are not the domain {a!r}, {b!r}")
    if any(not y > x for x, y in zip(grid, grid[1:])):
        errors.append(f"{where}: grid is not strictly increasing")
    if plan["p"] is not None and m != planner.min_samples(plan["total_weight"], plan["p"]):
        errors.append(f"{where}: M={m} is not min_samples(K={plan['total_weight']!r}, p={plan['p']})")
    return errors


def consistency_errors(summary: dict) -> list[str]:
    """Checks that hold at any seed."""
    errors = []
    for name, rec in summary.items():
        if name == "plan":
            errors += plan_errors(rec, "plan")
            continue
        if rec["valid"] + rec["degenerate"] != rec["trials"]:
            errors.append(f"{name}: valid + degenerate != trials")
        if name == "zeros":
            if rec["total_zeros"] < 0:
                errors.append("zeros: negative zero count")
            continue
        for key in ("matches_pos", "matches_neg", "matches_both"):
            if not 0 <= rec[key] <= rec["valid"]:
                errors.append(f"{name}: {key}={rec[key]} outside [0, valid={rec['valid']}]")
        if rec["matches_both"] > min(rec["matches_pos"], rec["matches_neg"]):
            errors.append(f"{name}: matches_both exceeds a one-sided match count")
        errors += plan_errors(rec["plan"], f"{name} plan")
    return errors


def reference_errors(summary: dict, reference: dict) -> list[str]:
    """Differences from a pinned reference record."""
    errors = []
    if set(summary) != set(reference):
        return [f"records {sorted(summary)} differ from the reference {sorted(reference)}"]
    for name, ref in reference.items():
        rec = summary[name]
        if name != "plan":
            keys = ZERO_KEYS if name == "zeros" else EXPERIMENT_KEYS
            errors += [
                f"{name}: {k}={rec[k]} but the reference has {ref[k]}"
                for k in keys
                if rec[k] != ref[k]
            ]
            continue
        if rec["m"] != ref["m"]:
            errors.append(f"plan: M={rec['m']} but the reference has {ref['m']}")
            continue
        k_ref = ref["total_weight"]
        if not abs(rec["total_weight"] - k_ref) <= K_RTOL * abs(k_ref):
            errors.append(f"plan: K={rec['total_weight']!r} but the reference has {k_ref!r}")
        moved = [
            i
            for i, (x, x_ref, tol) in enumerate(zip(rec["grid"], ref["grid"], ref["x_tol"]))
            if not abs(x - x_ref) <= tol
        ]
        if moved:
            i = moved[0]
            errors.append(
                f"plan: {len(moved)} grid points moved beyond 1e-10 K in F, first x[{i}]="
                f"{rec['grid'][i]!r} vs {ref['grid'][i]!r}"
            )
    return errors


def summary_errors(summary: dict, reference: dict | None) -> list[str]:
    errors = consistency_errors(summary)
    if reference is not None:
        errors += reference_errors(summary, reference)
    return errors


def reference_record(summary: dict, density=None) -> dict:
    """The part of a summary that the reference pins.

    ``density`` is the sampling density C of the planned model; it turns
    the F tolerance into an x tolerance, F' = C^(1/3), and is needed only
    when the summary holds a plan.
    """
    record = {}
    for name, rec in summary.items():
        if name == "plan":
            k = rec["total_weight"]
            b_minus_a = rec["domain"][1] - rec["domain"][0]
            slopes = [max(float(c), 0.0) ** (1.0 / 3.0) for c in density(rec["grid"])]
            x_tol = [min(F_TOL * k / s, b_minus_a) if s > 0.0 else b_minus_a for s in slopes]
            record[name] = {
                "m": rec["m"],
                "total_weight": k,
                "grid": rec["grid"],
                "x_tol": x_tol,
            }
        else:
            keys = ZERO_KEYS if name == "zeros" else EXPERIMENT_KEYS
            record[name] = {k: rec[k] for k in keys}
    return record
