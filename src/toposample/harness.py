"""Experiment drivers, deterministic parallelism, and result output.

Correctness experiments draw many independent paths, take the
dense-scan reference count of each path once, grade every grid of the
run against it, and aggregate match frequencies. Reproducibility rules:

* trial t of a run with seed s uses the coefficient stream (s, t), so
  results do not depend on how trials are split across workers;
* work is chunked in fixed blocks and reduced in chunk order, making
  output files byte-identical for every worker count;
* CSV output uses comma separators, '.' decimals, 17 significant
  digits, a header row, and LF line endings; JSON mirrors the same
  numbers plus the resolved configuration.
"""
from __future__ import annotations

import io
import json
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .density import density_profile
from .errors import ConfigError
from .fields import (
    FieldModel,
    SamplePath,
    ThresholdFn,
    _kept,
    _philox_offsets,
    block_minus_threshold,
    fold_coefficients,
    magnitude_bounds,
    sample_coefficients,
    threshold_system,
    threshold_zero,
)
from .fields import sample_path  # noqa: F401  (perfbench/tracing.py wraps harness.sample_path)
from .planner import (
    STRATEGIES,
    SamplingPlan,
    _build_plans,
    build_plan,
    cumulative_weight,
    expected_zero_count,
)
from .topology import (
    _workspace,
    cubical_beta0,
    default_oracle_resolution,
    oracle_beta0,
    scan_counts,
)

_TRIAL_CHUNK = 512
# the plan's columns of a result table, which grid rows end with too
PLAN_COLUMNS = ("strategy", "m", "total_weight", "bound", "bound_vacuous")


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated outcome of a correctness experiment."""

    plan: SamplingPlan
    trials: int
    valid: int
    matches_pos: int
    matches_neg: int
    matches_both: int
    degenerate: int
    correctness: float
    stderr: float
    seed: int


def _chunk_counts(model, threshold, coeffs, resolution):
    """The oracle counts of each coefficient row, as four arrays.

    Returns beta0_pos, beta0_neg, zero_count and degenerate, each row's
    equal to those of ``oracle_beta0`` on its path. ``scan_counts``
    settles most rows from their scan signs; ``oracle_beta0`` runs on
    the rest, so its errors are raised as they would be for that path.
    Each such call evaluates its path's whole scan and frees it on
    return; the kept ``"scan"`` entry holds only the block scan's tables.
    """
    pos, neg, zero_count, settled = scan_counts(model, threshold, coeffs, resolution)
    degenerate = np.zeros(len(coeffs), dtype=bool)
    for j in np.flatnonzero(~settled):
        oracle = oracle_beta0(SamplePath(model, coeffs[j]), threshold, resolution)
        pos[j], neg[j] = oracle.beta0_pos, oracle.beta0_neg
        zero_count[j], degenerate[j] = oracle.zero_count, oracle.degenerate
    return pos, neg, zero_count, degenerate


def _grid_values(coeffs, system):
    """u - mu on one grid for every coefficient row, each with the per-path signs.

    ``system`` is the grid's ``threshold_system``. One matrix product of
    the rows (c, -1) with it gives the block; a row with a value its
    rounding slack cannot clear (within the slack of zero, or not finite)
    is recomputed as that path's own product
    ``c @ system[:-1] - system[-1]``, bit for bit
    ``path.value(grid) - threshold.value(grid)``. So every value's sign,
    zero included, is the per-path one, which is all ``cubical_beta0``
    reads.
    """
    values, slack = block_minus_threshold(
        fold_coefficients(coeffs), system, magnitude_bounds(system)
    )
    for j in np.flatnonzero(~(np.abs(values) > slack[:, None]).all(axis=1)):
        values[j] = coeffs[j] @ system[:-1] - system[-1]
    return values


def _trial_chunk(args):
    """Trials [start, stop): one reference count per path, every grid graded on it.

    The chunk's coefficients are drawn as one block and counted by
    ``_chunk_counts``. Each grid's threshold system is built once per
    chunk, its values for every path come from one matrix product
    (``_grid_values``), and they are graded in one
    ``cubical_beta0`` call. Only counts are read, so no root is polished.

    Returns the chunk's counts as one (1 + grids) x 3 int64 array: row 0
    holds the valid paths, their total zeros and their total squared
    zeros, and row 1 + g grid g's positive, negative and joint matches.
    """
    (model, threshold, grids, resolution, seed, start, stop) = args
    coeffs = sample_coefficients(model, seed, range(start, stop))
    pos, neg, zero_count, degenerate = _chunk_counts(model, threshold, coeffs, resolution)
    valid = ~degenerate
    zeros = zero_count[valid]
    counts = np.empty((1 + len(grids), 3), dtype=np.int64)
    counts[0] = zeros.size, zeros.sum(), (zeros * zeros).sum()
    for g, grid in enumerate(grids, 1):
        values = _grid_values(coeffs, threshold_system(model, threshold, grid))
        grid_pos, grid_neg = cubical_beta0(values)
        mp = valid & (grid_pos == pos)
        mn = valid & (grid_neg == neg)
        counts[g] = [np.count_nonzero(m) for m in (mp, mn, mp & mn)]
    return counts


def _run_chunked(tasks, workers):
    """``_trial_chunk`` over ``tasks``, results in task order regardless of pool.

    Raises ConfigError before any pool starts when the tasks cannot be
    sent to worker processes, as with a custom model built on lambdas.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [_trial_chunk(t) for t in tasks]
    try:
        pickle.dumps(tasks[0])
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ConfigError(
            f"the model cannot be sent to worker processes ({exc}); "
            "it needs workers=1"
        ) from None
    # a fork pool starts every worker at once, so never more than chunks
    return _pool_map(tasks, min(workers, len(tasks)), tasks[0][0].basis_table)


# the worker pool kept between pooled trial passes, as one
# ((processes, pid, basis_table), pool) entry. The process id keeps a
# process forked by the caller off its parent's pool; the custom basis
# table gives a model whose callables were defined after the pool forked
# a pool forked after them, whose workers can unpickle them. A pass holds
# the lock from its key check to its last result. forget() closes the pool
_pool_slot = [None]
_pool_lock = threading.RLock()


def _pool_map(tasks, processes, basis_table):
    """``_trial_chunk`` over ``tasks`` on the kept pool, results in task order.

    The first call starts the pool and later calls with the same key
    reuse it, so its workers stay warm. A pool that breaks is closed and
    the error raised, unless it was kept from an earlier call: a worker
    can die between calls, and the tasks then run once more on a new pool.
    """
    # the pool's modules (multiprocessing among them) load on the first pooled pass only
    from concurrent.futures import process

    key = (processes, os.getpid(), basis_table)
    with _pool_lock:
        while True:
            entry = _pool_slot[0]
            fresh = entry is None or entry[0] != key
            if fresh:
                _close_pool()
                _pool_slot[0] = (key, process.ProcessPoolExecutor(max_workers=processes))
            try:
                return list(_pool_slot[0][1].map(_trial_chunk, tasks))
            except process.BrokenProcessPool:
                _close_pool()
                if fresh:
                    raise


def _close_pool():
    """Shut the kept pool down and empty its slot.

    A pool inherited through fork belongs to the parent and is only dropped.
    """
    with _pool_lock:
        entry, _pool_slot[0] = _pool_slot[0], None
        if entry is not None and entry[0][1] == os.getpid():
            entry[1].shutdown()


def forget():
    """Empty all the state the process keeps between calls.

    That is every kind of ``fields._kept`` (the scan tables and the two
    planner integrals, each integral with its last grid), the worker
    pool, which is shut down, the calling thread's scan work buffers and
    the Philox offsets. Results do not change: the next call builds what
    it needs again, as a process's first call does. Another thread's
    buffers stay until that thread ends, and a call that runs meanwhile
    in another thread may keep its value again.
    """
    _kept.update(dict.fromkeys(_kept))
    _close_pool()
    _workspace.__init__()  # this thread's buffers, as a new thread starts with them
    _philox_offsets.cache_clear()


def _experiment_result(plan, trials, seed, valid, counts) -> ExperimentResult:
    pos, neg, both = counts
    correctness = both / valid if valid else float("nan")
    stderr = (
        math.sqrt(correctness * (1.0 - correctness) / valid) if valid else float("nan")
    )
    return ExperimentResult(
        plan=plan,
        trials=trials,
        valid=valid,
        matches_pos=pos,
        matches_neg=neg,
        matches_both=both,
        degenerate=trials - valid,
        correctness=correctness,
        stderr=stderr,
        seed=seed,
    )


def trial_pass(
    model: FieldModel,
    threshold: ThresholdFn,
    plans: list[SamplingPlan],
    trials: int,
    seed: int,
    oracle_resolution: int | None = None,
    workers: int = 1,
) -> tuple[list[ExperimentResult], tuple[int, int, int]]:
    """Grade every plan's grid against one dense-scan count per path.

    Trial t draws the path of stream (seed, t). Returns one result per
    plan, in order, and the zero-count sums (valid paths, total zeros,
    total squared zeros) over the nondegenerate paths; with no plans the
    pass only counts zeros.
    """
    if seed is None:
        raise ConfigError("a seed is required for experiments")
    resolution = oracle_resolution
    if resolution is None:
        resolution = default_oracle_resolution(model)
    common = (model, threshold, [plan.grid for plan in plans], resolution, seed)
    tasks = [
        common + (start, min(start + _TRIAL_CHUNK, trials))
        for start in range(0, trials, _TRIAL_CHUNK)
    ]
    # summed in chunk order; Python ints, which JSON serialises
    totals = np.zeros((1 + len(plans), 3), dtype=np.int64)
    for counts in _run_chunked(tasks, workers):
        totals += counts
    sums, *matches = totals.tolist()
    results = [
        _experiment_result(plan, trials, seed, sums[0], counts)
        for plan, counts in zip(plans, matches)
    ]
    return results, tuple(sums)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run a correctness experiment described by ``config``.

    Requires a seed. Degenerate trials (suspected double roots) are
    excluded from the match statistics but counted in the result.
    """
    plan = build_plan(
        config.model, config.threshold, config.strategy, m=config.m, p=config.p
    )
    (result,), _ = trial_pass(
        config.model,
        config.threshold,
        [plan],
        config.trials,
        config.seed,
        config.oracle_resolution,
        config.workers,
    )
    return result


def compare_strategies(
    model: FieldModel,
    threshold: ThresholdFn,
    m: int | None,
    trials: int,
    seed: int,
    oracle_resolution: int | None = None,
    workers: int = 1,
    p: float | None = None,
) -> list[tuple[str, ExperimentResult]]:
    """Run all strategies at equal cell count on identical paths.

    Exactly one of ``m`` (cell count) and ``p`` (target success
    probability, which picks the smallest sufficient count from the
    cube-root integral that also places the grids) must be given.
    """
    plans = _build_plans(model, threshold, STRATEGIES, m=m, p=p)
    results, _ = trial_pass(
        model, threshold, plans, trials, seed, oracle_resolution, workers
    )
    return list(zip(STRATEGIES, results))


@dataclass(frozen=True)
class ZeroCountResult:
    """Mean observed zero count against the first-moment prediction."""

    trials: int
    valid: int
    degenerate: int
    mean_zeros: float
    stderr: float
    expected: float
    rel_gap: float
    seed: int


def zero_count_experiment(
    model: FieldModel,
    trials: int,
    seed: int,
    oracle_resolution: int | None = None,
    workers: int = 1,
) -> ZeroCountResult:
    """Compare the Monte Carlo mean zero count with its exact integral."""
    expected = expected_zero_count(model)
    _, (n, total, total_sq) = trial_pass(
        model, threshold_zero(), [], trials, seed, oracle_resolution, workers
    )
    mean = total / n if n else float("nan")
    var = (total_sq / n - mean * mean) if n else float("nan")
    stderr = math.sqrt(max(var, 0.0) / n) if n else float("nan")
    return ZeroCountResult(
        trials=trials,
        valid=n,
        degenerate=trials - n,
        mean_zeros=mean,
        stderr=stderr,
        expected=expected,
        rel_gap=abs(mean - expected) / expected if expected else float("nan"),
        seed=seed,
    )


def profile_dump(
    model: FieldModel, threshold: ThresholdFn, grid_size: int
) -> tuple[list[str], list[list]]:
    """Density profile table for plotting: header and rows.

    Normalized columns divide the cube-rooted sampling density and the
    zero density by their integrals, so matching shapes plot on top of
    each other. Degenerate points carry NaN densities and a 0 flag; a
    density that overflows double precision raises NonFiniteDensityError.
    """
    if grid_size < 2:
        raise ValueError("profile needs at least two points")
    xs = np.linspace(model.a, model.b, grid_size)
    prof = density_profile(model, threshold, xs)
    total, _ = cumulative_weight(model, threshold)
    zero_total = expected_zero_count(model)
    cuberoot = np.cbrt(prof.density)
    norm_c = cuberoot / total if total and math.isfinite(total) else np.full_like(xs, np.nan)
    norm_d = (
        prof.zero_density / zero_total
        if zero_total and math.isfinite(zero_total)
        else np.full_like(xs, np.nan)
    )
    header = [
        "x",
        "density",
        "cuberoot_density",
        "threshold_factor",
        "zero_density",
        "norm_cuberoot_density",
        "norm_zero_density",
        "nondegenerate",
    ]
    rows = [
        [
            xs[i],
            prof.density[i],
            cuberoot[i],
            prof.threshold_factor[i],
            prof.zero_density[i],
            norm_c[i],
            norm_d[i],
            int(prof.nondegenerate[i]),
        ]
        for i in range(xs.size)
    ]
    return header, rows


def format_value(v) -> str:
    """CSV cell: 17 significant digits for floats, plain text otherwise."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(stream, header: list[str], rows: list[list], tail=()):
    """CSV of ``rows``, each followed by the cells of ``tail``, which are formatted once."""
    end = "".join("," + format_value(v) for v in tail) + "\n"
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(format_value(v) for v in row) + end)


def emit_table(header, rows, output, fmt, meta=None, tail=()):
    """Write a result table as CSV or JSON to a path or stdout.

    Every row ends with the cells of ``tail``, converted once per table
    rather than once per row. A path that cannot be opened or written is
    a ConfigError.
    """
    if fmt == "json":
        payload = {"version": __version__, "meta": meta or {}, "columns": header}
        cells = [[_json_cell(v) for v in row] for row in rows]
        chunks = _json_chunks(payload, cells, [_json_cell(v) for v in tail])
    else:
        buf = io.StringIO()
        write_csv(buf, header, rows, tail)
        chunks = [buf.getvalue()]
    if output is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {output}: {exc.strerror}") from None


# table rows as the indented document nests them, by json's C encoder,
# which json takes only without an indent: the item separator carries the
# newline and indent of a row's cells; each call encodes a block of rows,
# so no text of the whole table is ever formed
_ROWS_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))
_JSON_ROWS_PER_CALL = 4096


def _json_chunks(payload, rows, tail):
    """``json.dumps(document, indent=2, sort_keys=True) + "\\n"`` as a list of strings.

    The document is ``payload`` with ``rows``, each row followed by the
    cells of ``tail``. With an indent, ``json`` encodes in pure Python,
    value by value; the rows are encoded instead by its C encoder, whose
    item separator puts each cell on its own line at a row cell's indent.
    A row is a list of scalar cells (``_json_cell``, as in the CSV), and
    JSON text holds no raw newline inside a string, so "]", the separator
    and "[" meet only between two rows: there the encoded ``tail`` and the
    indented break between rows go in. A table with an empty row is
    encoded in pure Python. The other values are small and encoded as
    before, their lines indented one level more.
    """
    document = {**payload, "rows": rows}
    chunks = []
    for i, key in enumerate(sorted(document)):
        chunks.append(("{\n  " if i == 0 else ",\n  ") + json.dumps(key) + ": ")
        if key == "rows" and rows and all(rows):
            end = ",\n      " + _ROWS_ENCODER.encode(tail)[1:-1] if tail else ""
            between = end + "\n    ],\n    [\n      "
            chunks.append("[\n    [\n      ")
            for lo in range(0, len(rows), _JSON_ROWS_PER_CALL):
                text = _ROWS_ENCODER.encode(rows[lo : lo + _JSON_ROWS_PER_CALL])
                chunks += [between] * (lo > 0) + [text[2:-2].replace("],\n      [", between)]
            chunks.append(end + "\n    ]\n  ]")
        else:
            value = [row + tail for row in rows] if key == "rows" else document[key]
            chunks.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
    chunks.append("\n}\n")
    return chunks


def _json_cell(v):
    """A table cell as a JSON value: numpy scalars as Python ones, NaN as null."""
    # plain Python cells, most of a long table, skip the isinstance chain
    if type(v) is float:
        return None if v != v else v
    if type(v) is int or type(v) is str:
        return v
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return None if math.isnan(v) else float(v)
    return v


def experiment_table(result: ExperimentResult) -> tuple[list[str], list[list]]:
    """One row: the plan's ``PLAN_COLUMNS``, then the other fields of ``result`` in field order."""
    names = [field.name for field in dataclass_fields(result) if field.name != "plan"]
    row = [getattr(result.plan, name) for name in PLAN_COLUMNS]
    return [*PLAN_COLUMNS, *names], [row + [getattr(result, name) for name in names]]


def zero_count_table(result: ZeroCountResult) -> tuple[list[str], list[list]]:
    """One row of ``result``'s fields in field order, ``expected`` headed ``expected_zeros``."""
    names = [field.name for field in dataclass_fields(result)]
    header = ["expected_zeros" if name == "expected" else name for name in names]
    return header, [[getattr(result, name) for name in names]]
