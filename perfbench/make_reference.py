"""Regenerate reference.json, the pinned results the benchmark checks.

Runs each workload once per pinned seed with the code under src/ and
stores the part of its summary that check.py compares. A workload whose
inputs do not depend on the seed is run once and stored under "any".
Regenerate only on a commit whose results are known good: later changes
must reproduce these numbers.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]
"""
from __future__ import annotations

import json
import sys

from check import REFERENCE_PATH, consistency_errors, reference_record
from workloads import WORKLOADS, planner

PINNED_SEEDS = range(16)


def main(names) -> int:
    table = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        entries = {}
        for seed in PINNED_SEEDS if wl.seeded else [0]:
            inputs = wl.build(seed)
            summary = wl.run(inputs, wl.workers)
            errors = consistency_errors(summary)
            if errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            density = planner.sampling_density_fn(*inputs) if "plan" in summary else None
            entries[str(seed) if wl.seeded else "any"] = reference_record(summary, density)
            print(f"{name} seed {seed} pinned", file=sys.stderr)
        table[name] = entries
    REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
