"""Experiment driver, strategy comparison, zero counting, table output."""
import io
import json
import math
import multiprocessing
import os
import signal
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from multiprocessing import connection
from multiprocessing.connection import wait

import numpy as np
import pytest

import toposample as ts
from toposample import fields, harness, planner, quadrature, topology
from toposample.config import ExperimentConfig
from toposample.errors import ConfigError
from toposample.harness import (
    emit_table,
    experiment_table,
    format_value,
    profile_dump,
    write_csv,
    zero_count_table,
)
from toposample.planner import SamplingPlan, expected_zero_count
from toposample.quadrature import adaptive_simpson
from toposample.topology import verify_match


def _config(model, **kw):
    kw.setdefault("threshold", ts.threshold_zero())
    return ExperimentConfig(model=model, **kw)


def test_run_experiment_requires_seed(cheb5):
    with pytest.raises(ConfigError):
        ts.run_experiment(_config(cheb5, m=4, trials=10))


def test_run_experiment_counts_consistent(cheb5):
    config = _config(cheb5, m=8, trials=300, seed=11, oracle_resolution=1024)
    result = ts.run_experiment(config)
    assert result.trials == 300
    assert result.valid == 300 - result.degenerate
    assert result.matches_both <= min(result.matches_pos, result.matches_neg)
    assert result.correctness == pytest.approx(result.matches_both / result.valid)
    want_se = math.sqrt(result.correctness * (1.0 - result.correctness) / result.valid)
    assert result.stderr == pytest.approx(want_se, rel=1e-12)
    # the guided plan at m = 8 performs at least as well as its bound here
    assert result.correctness >= result.plan.bound - 3.0 * result.stderr


def test_run_experiment_deterministic_across_workers(cheb5):
    config1 = _config(cheb5, m=6, trials=600, seed=3, oracle_resolution=1024, workers=1)
    config2 = _config(cheb5, m=6, trials=600, seed=3, oracle_resolution=1024, workers=2)
    one = ts.run_experiment(config1)
    two = ts.run_experiment(config2)
    assert (one.matches_pos, one.matches_neg, one.matches_both, one.degenerate) == (
        two.matches_pos,
        two.matches_neg,
        two.matches_both,
        two.degenerate,
    )


def test_null_model_match_rate_is_arcsine_exact(sinusoid, thr):
    # one frequency: the path is a pure phase-shifted wave, the truth is
    # always two components against one, and a 3-point grid matches it
    # exactly when the middle point lands on the opposite sign. For the
    runs = 2000
    grid = np.array([0.0, 0.3, 1.0])
    plan = SamplingPlan(
        grid=grid,
        m=2,
        strategy="topology",
        total_weight=float("nan"),
        bound=float("nan"),
        bound_vacuous=True,
    )
    hits = 0
    valid = 0
    for trial in range(runs):
        path = ts.sample_path(sinusoid, seed=123, stream=trial)
        report = verify_match(path, thr, plan, resolution=512)
        if report.degenerate:
            continue
        valid += 1
        hits += bool(report.match)
    # phase uniformity makes the match probability exactly 0.6 for a
    # middle point at 0.3 of the period
    rate = hits / valid
    se = math.sqrt(0.6 * 0.4 / valid)
    assert abs(rate - 0.6) < 4.0 * se


def test_seeded_confidence_intervals_cover_pooled_rate(cheb5, thr):
    # 2-sigma intervals from independent seeds should cover the pooled
    # estimate most of the time; 17 of 20 leaves slack below the
    # binomial tail at 95% coverage
    per_seed = 250
    results = []
    for seed in range(20):
        config = _config(cheb5, m=8, trials=per_seed, seed=seed, oracle_resolution=1024)
        results.append(ts.run_experiment(config))
    pooled = sum(r.matches_both for r in results) / sum(r.valid for r in results)
    covered = sum(
        1
        for r in results
        if abs(r.correctness - pooled) <= 2.0 * max(r.stderr, 1e-9)
    )
    assert covered >= 17


def test_compare_strategies_rows(binom5, thr):
    rows = ts.compare_strategies(binom5, thr, m=7, trials=400, seed=21, oracle_resolution=1024)
    assert [name for name, _ in rows] == ["topology", "uniform", "density"]
    by_name = dict(rows)
    for name, result in rows:
        assert result.plan.strategy == name
        assert result.trials == 400
    # identical paths: degenerate counts agree across strategies
    degs = {r.degenerate for _, r in rows}
    assert len(degs) == 1
    # guided grids should not trail the uniform grid by much on this model
    topo, unif = by_name["topology"], by_name["uniform"]
    joint_se = math.hypot(topo.stderr, unif.stderr)
    assert topo.correctness >= unif.correctness - 4.0 * joint_se


def test_compare_strategies_scans_each_path_once(thr, monkeypatch):
    # each path is scanned once, by one block product on the scan's coarse
    # points (every _SCAN_CELL-th point and the last), and oracle_beta0
    # runs only on the paths the scan cannot settle; at amplitude 1e-6 a
    # scan value near a root often falls below the 1e-9 tolerance
    model = ts.periodic_model([0.0, 1e-6, 1e-6])
    trials, seed, resolution = 40, 8, 512
    scanned, flagged, oracle_paths = {}, [], []
    block_values = topology.block_minus_threshold
    counts, oracle = harness.scan_counts, harness.oracle_beta0

    def recording_values(lhs, system, *args, **kwargs):
        for c in lhs[:, :-1]:
            scanned[c.tobytes()] = scanned.get(c.tobytes(), 0) + system.shape[1]
        return block_values(lhs, system, *args, **kwargs)

    def recording_counts(*args):
        out = counts(*args)
        flagged.extend(~out[3])
        return out

    def recording_oracle(path, *args):
        oracle_paths.append(path.coeffs.tobytes())
        return oracle(path, *args)

    monkeypatch.setattr(topology, "block_minus_threshold", recording_values)
    monkeypatch.setattr(harness, "scan_counts", recording_counts)
    monkeypatch.setattr(harness, "oracle_beta0", recording_oracle)
    ts.compare_strategies(model, thr, m=5, trials=trials, seed=seed, oracle_resolution=resolution)
    drawn = [ts.sample_path(model, seed, stream=t).coeffs.tobytes() for t in range(trials)]
    assert list(scanned) == drawn
    assert set(scanned.values()) == {len(range(0, resolution - 1, topology._SCAN_CELL)) + 1}
    assert 0 < sum(flagged) < trials
    assert oracle_paths == [c for c, f in zip(drawn, flagged) if f]


@pytest.mark.parametrize("workers", [1, 2])
def test_compare_rows_equal_single_strategy_runs(binom5, workers):
    threshold = ts.threshold_cubic_shift(0.5)
    rows = ts.compare_strategies(
        binom5, threshold, m=7, trials=600, seed=13, oracle_resolution=1024, workers=workers
    )
    for name, row in rows:
        config = _config(
            binom5,
            threshold=threshold,
            strategy=name,
            m=7,
            trials=600,
            seed=13,
            oracle_resolution=1024,
            workers=workers,
        )
        single = ts.run_experiment(config)
        assert np.array_equal(row.plan.grid, single.plan.grid)
        assert replace(row, plan=None) == replace(single, plan=None)


def _count_forks(monkeypatch, limit):
    """A list that gains one entry for each worker process the pool builds;
    building more than ``limit`` fails before that worker starts."""
    fork = type(multiprocessing.get_context("fork"))
    built = []

    class CountedProcess(fork.Process):
        def __init__(self, *args, **kwargs):
            built.append(1)
            assert len(built) <= limit, f"more than {limit} worker processes were started"
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fork, "Process", CountedProcess)
    return built


def test_unpicklable_custom_model_needs_one_worker(monkeypatch):
    table = (
        (lambda x: np.ones_like(x), np.zeros_like, np.zeros_like),
        (lambda x: x, np.ones_like, np.zeros_like),
    )
    model = ts.custom_model(table, (-1.0, 1.0))
    built = _count_forks(monkeypatch, 0)
    with pytest.raises(ConfigError, match="workers=1"):
        harness.trial_pass(model, ts.threshold_zero(), [], 1100, 1, 256, workers=2)
    assert built == []


def test_pool_never_exceeds_the_chunk_count(monkeypatch, cheb5, thr):
    built = _count_forks(monkeypatch, 3)
    for workers, trials, want in ((500, 1024, 2), (2, 1536, 2), (3, 1100, 3)):
        ts.forget()
        built.clear()
        harness.trial_pass(cheb5, thr, [], trials, 1, 16, workers=workers)
        assert len(built) == want == len(multiprocessing.active_children())


def _worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def _zeros(model, workers):
    # 1100 trials make three chunks, one for each of up to three workers
    result = ts.zero_count_experiment(
        model, trials=1100, seed=4, oracle_resolution=512, workers=workers
    )
    return repr(result)


def test_pooled_calls_reuse_their_workers(binom5):
    serial = _zeros(binom5, 1)
    assert _worker_pids() == []
    runs, pids = [], []
    for _ in range(2):
        runs.append(_zeros(binom5, 2))
        pids.append(_worker_pids())
    assert runs == [serial, serial]
    assert len(pids[0]) == 2 and pids[1] == pids[0]


def test_killed_worker_is_replaced_by_a_new_pool(binom5):
    first = _zeros(binom5, 2)
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    assert wait([victim.sentinel], timeout=30)
    assert _zeros(binom5, 2) == first
    pids = _worker_pids()
    assert len(pids) == 2 and victim.pid not in pids


def test_threads_share_the_kept_pool(binom5):
    # three threads alternate two worker counts, so a pass can find the
    # other count's pool in the slot and must replace it, not race it
    want = _zeros(binom5, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            with ThreadPoolExecutor(max_workers=3) as threads:
                runs = [threads.submit(_zeros, binom5, w) for w in (2, 3, 2, 3, 2, 3)]
                assert [run.result(timeout=120) for run in runs] == [want] * 6
            assert len(_worker_pids()) in (2, 3)
    finally:
        sys.setswitchinterval(interval)


def test_a_raising_chunk_raises_the_one_worker_error_and_prints_nothing(binom5, monkeypatch, capfd):
    # patched before the pool forks, so the workers run the patched chunk;
    # the second and third of three chunks raise, and the pooled pass
    # raises the second's error, as a one-worker run does
    chunk = harness._trial_chunk

    def failing(args):
        if args[5] > 0:
            raise ValueError(f"chunk from trial {args[5]} failed")
        return chunk(args)

    monkeypatch.setattr(harness, "_trial_chunk", failing)
    with pytest.raises(ValueError) as serial:
        _zeros(binom5, 1)
    with pytest.raises(ValueError) as pooled:
        _zeros(binom5, 2)
    assert (type(pooled.value), str(pooled.value)) == (type(serial.value), str(serial.value))
    assert str(serial.value) == "chunk from trial 512 failed"
    assert _worker_pids() == []
    assert "Traceback" not in capfd.readouterr().err
    monkeypatch.undo()
    assert _zeros(binom5, 2) == _zeros(binom5, 1)


def test_an_interrupted_pass_closes_its_pool(binom5, monkeypatch):
    # an interrupt while chunks are in flight closes the pool, so the next
    # pass starts a new one and reads no result of the interrupted one
    want = _zeros(binom5, 1)
    real = connection.wait
    interrupts = [KeyboardInterrupt]

    def interrupted(*args, **kwargs):
        if interrupts:
            raise interrupts.pop()
        return real(*args, **kwargs)

    monkeypatch.setattr(connection, "wait", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _zeros(binom5, 2)
    assert harness._pool_slot[0] is None and _worker_pids() == []
    assert _zeros(binom5, 2) == want


def test_forget_stops_every_worker_cleanly(binom5):
    _zeros(binom5, 3)
    workers = multiprocessing.active_children()
    assert len(workers) == 3
    ts.forget()
    assert [p.exitcode for p in workers] == [0, 0, 0]


_LATE_BASIS = """
import numpy as np

def one(x):
    return np.ones_like(x)

def zero(x):
    return np.zeros_like(x)

def ident(x):
    return 1.0 * x

def cube(x):
    return x * x * x

def cube_d1(x):
    return 3.0 * x * x

def cube_d2(x):
    return 6.0 * x

TABLE = ((one, zero, zero), (ident, one, zero), (cube, cube_d1, cube_d2))
"""


def test_custom_basis_defined_after_the_pool_started(binom5, monkeypatch):
    # workers forked before the module existed cannot unpickle its
    # functions: the custom model needs a pool forked after it, and the
    # pool it replaces is shut down, not broken
    _zeros(binom5, 2)
    old_workers = multiprocessing.active_children()
    module = types.ModuleType("toposample_late_basis")
    exec(_LATE_BASIS, module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    model = ts.custom_model(module.TABLE, (-1.0, 1.0))
    assert _zeros(model, 2) == _zeros(model, 1)
    assert [p.exitcode for p in old_workers] == [0, 0]


def _csv_bytes(compare, zeros=None):
    buf = io.StringIO()
    header, _ = experiment_table(compare[0][1])
    write_csv(buf, header, [experiment_table(result)[1][0] for _, result in compare])
    if zeros is not None:
        write_csv(buf, *zero_count_table(zeros))
    return buf.getvalue().encode()


def _nothing_kept():
    # every kind, the pool, and this thread's scan buffers and generator
    return (
        set(fields._kept.values()) == {None}
        and multiprocessing.active_children() == []
        and all(buffer.size == 0 for buffer in fields._local.buffers)
        and fields._local.draw is None
    )


def test_a_pool_forked_after_a_draw_gives_the_serial_bytes(binom5):
    # the workers fork with the parent thread's kept generator, which
    # every stream re-keys, so their draws are those of a serial run
    threshold = ts.threshold_cubic_shift(0.5)
    ts.sample_path(binom5, seed=9, stream=5)
    assert fields._local.draw is not None
    pooled = ts.compare_strategies(binom5, threshold, m=7, trials=1100, seed=3, workers=2)
    assert len(multiprocessing.active_children()) == 2
    ts.forget()
    serial = ts.compare_strategies(binom5, threshold, m=7, trials=1100, seed=3, workers=1)
    assert _csv_bytes(pooled) == _csv_bytes(serial)


def test_forget_empties_the_kept_state_and_the_next_calls_rebuild(binom5, monkeypatch):
    # warm pooled compare and zeros calls keep a scan, two integrals and a
    # pool; forget() empties them all, and the next calls build the scan
    # tables and both integrals again, to the warm calls' results and bytes
    built = []

    def counted(name, fn):
        return lambda *args: built.append(name) or fn(*args)

    monkeypatch.setattr(topology, "_chord_tables", counted("tables", topology._chord_tables))
    monkeypatch.setattr(planner, "cumulative_integral", counted("integral", planner.cumulative_integral))
    threshold = ts.threshold_cubic_shift(0.5)

    def calls():
        compare = ts.compare_strategies(binom5, threshold, m=7, trials=1100, seed=3, workers=2)
        zeros = ts.zero_count_experiment(binom5, trials=64, seed=3)
        return compare, zeros, [result.plan.grid.tobytes() for _, result in compare]

    calls()
    cold = sorted(built)
    assert cold == ["integral", "integral", "tables"]
    warm = calls()
    assert sorted(built) == cold and len(multiprocessing.active_children()) == 2
    ts.forget()
    assert _nothing_kept()
    built.clear()
    again = calls()
    assert sorted(built) == cold
    assert _csv_bytes(*again[:2]) == _csv_bytes(*warm[:2]) and again[2] == warm[2]


def test_forget_with_nothing_kept_does_nothing():
    # the fixture has forgotten everything; two more calls change nothing
    assert _nothing_kept()
    for _ in range(2):
        ts.forget()
        assert _nothing_kept()


def _count_planner_work(monkeypatch):
    """A list that records "integral" for each quadrature run and the
    density function's name for each density call the planner makes."""
    seen = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for owner in (planner, quadrature):
        monkeypatch.setattr(owner, "adaptive_simpson", counting("integral", adaptive_simpson))
    for name in ("density_profile", "zero_density"):
        monkeypatch.setattr(planner, name, counting(name, getattr(planner, name)))
    return seen


def _plan_bits(rows):
    return [(name, r.plan.grid.tobytes(), r.plan.total_weight.hex()) for name, r in rows]


def test_compare_integrates_each_density_once(binom5, monkeypatch):
    # one cube-root integral serves all three plans, and one zero-density
    # integral serves the density grid and the default scan resolution;
    # both are kept, so a second call evaluates no density at all
    seen = _count_planner_work(monkeypatch)
    threshold = ts.threshold_cubic_shift(0.5)
    first = ts.compare_strategies(binom5, threshold, m=7, trials=2, seed=1)
    assert seen.count("integral") == 2
    assert {"density_profile", "zero_density"} <= set(seen)
    seen.clear()
    second = ts.compare_strategies(binom5, threshold, m=7, trials=2, seed=1)
    assert seen == []
    assert _plan_bits(second) == _plan_bits(first)


def test_density_experiment_integrates_the_zero_density_once(cheb5, monkeypatch):
    # the density grid and the default scan resolution share one integral
    seen = _count_planner_work(monkeypatch)
    ts.run_experiment(_config(cheb5, strategy="density", m=8, trials=2, seed=1))
    assert seen.count("integral") == 2  # the cube-root mass and the zero mass


def test_compare_strategies_periodic_grids_coincide(mode5, thr):
    # stationary density: the equal-mass grid IS the uniform grid
    rows = dict(ts.compare_strategies(mode5, thr, m=5, trials=50, seed=2, oracle_resolution=1024))
    assert rows["topology"].plan.grid == pytest.approx(
        rows["uniform"].plan.grid, abs=1e-9
    )


def test_zero_count_sinusoid_exact(sinusoid):
    result = ts.zero_count_experiment(sinusoid, trials=200, seed=17, oracle_resolution=512)
    assert result.valid == 200 - result.degenerate
    # a single-frequency path crosses zero exactly twice per period, and
    # the rate prediction integrates to exactly two as well
    assert result.mean_zeros == 2.0
    assert result.expected == pytest.approx(2.0, rel=1e-9)


def test_zero_count_matches_prediction(binom5):
    result = ts.zero_count_experiment(binom5, trials=2000, seed=29, oracle_resolution=2048)
    want = math.sqrt(5.0) * 2.0 * math.atan(3.0) / math.pi
    assert result.expected == pytest.approx(want, rel=1e-9)
    assert abs(result.mean_zeros - result.expected) <= 3.0 * result.stderr
    assert result.rel_gap == pytest.approx(
        (result.mean_zeros - result.expected) / result.expected, rel=1e-12
    )


def test_zero_count_integrates_the_zero_density_once(cheb5, monkeypatch):
    # the expected count and the default scan resolution share one
    # integral, which is kept: a second call evaluates no density
    seen = _count_planner_work(monkeypatch)
    result = ts.zero_count_experiment(cheb5, trials=2, seed=1)
    assert seen.count("integral") == 1 and "zero_density" in seen
    seen.clear()
    again = ts.zero_count_experiment(cheb5, trials=2, seed=1)
    assert seen == []
    assert again.expected.hex() == result.expected.hex() == expected_zero_count(cheb5).hex()


def test_zero_count_deterministic_across_workers(binom5):
    one = ts.zero_count_experiment(binom5, trials=600, seed=4, oracle_resolution=1024, workers=1)
    two = ts.zero_count_experiment(binom5, trials=600, seed=4, oracle_resolution=1024, workers=2)
    assert one.mean_zeros == two.mean_zeros
    assert one.degenerate == two.degenerate


def test_profile_dump_columns(cheb5, thr):
    header, rows = profile_dump(cheb5, thr, 33)
    assert header == [
        "x",
        "density",
        "cuberoot_density",
        "threshold_factor",
        "zero_density",
        "norm_cuberoot_density",
        "norm_zero_density",
        "nondegenerate",
    ]
    assert len(rows) == 33
    xs = [row[0] for row in rows]
    assert xs == pytest.approx(np.linspace(-1.0, 1.0, 33), abs=1e-12)
    for row in rows:
        assert row[2] == pytest.approx(row[1] ** (1.0 / 3.0), rel=1e-12)


def test_format_value():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(3) == "3"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(float("nan")) == "nan"
    assert format_value("topology") == "topology"


def test_write_csv_layout():
    buf = io.StringIO()
    write_csv(buf, ["a", "b"], [[1, 2.5], [True, float("nan")]])
    assert buf.getvalue() == "a,b\n1,2.5\n1,nan\n"


def test_emit_table_json_structure(tmp_path):
    out = tmp_path / "table.json"
    emit_table(
        ["x", "y"],
        [[1.0, float("nan")]],
        str(out),
        "json",
        meta={"command": "demo"},
    )
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"version", "meta", "columns", "rows"}
    assert doc["columns"] == ["x", "y"]
    assert doc["rows"] == [[1.0, None]]
    assert doc["meta"]["command"] == "demo"


# (rows, tail) tables whose JSON must be json.dumps(..., indent=2)'s bytes
JSON_TABLES = {
    "mixed cells": (
        [
            [0, 1.5, float("nan"), None, True, np.bool_(False), np.int64(7), np.float64(-0.0)],
            [1, float("inf"), 1e-300, "a, b", 'say "hi"', "],\n      [", "ünïcødé ✓", "tab\there"],
        ],
        (),
    ),
    "empty table": ([], ("tail", 1.0)),
    "tail": ([[i, i / 7.0] for i in range(11)], ("topology", 7, float("nan"), False, "x, y")),
    "empty rows": ([[], [1.0], []], (2,)),
    "one cell": ([["only"]], ()),
}


@pytest.mark.parametrize("table", sorted(JSON_TABLES))
@pytest.mark.parametrize("rows_per_call", [4096, 3])
def test_emit_table_json_is_the_indented_dump(table, rows_per_call, tmp_path, monkeypatch):
    # the rows are encoded a block at a time by json's C encoder, yet the
    # file holds exactly the bytes of the pure-Python indented dump, with
    # numpy scalars as Python ones, NaN as null and the tail after every row
    rows, tail = JSON_TABLES[table]
    monkeypatch.setattr(harness, "_JSON_ROWS_PER_CALL", rows_per_call)
    header = [f"c{i}" for i in range(len(rows[0]) + len(tail))] if rows and rows[0] else ["c"]
    meta = {"command": "demo", "config": {"model": {"family": "chebyshev, ü"}}}
    out = tmp_path / "table.json"
    emit_table(header, rows, str(out), "json", meta=meta, tail=tail)
    cells = [[harness._json_cell(v) for v in list(row) + list(tail)] for row in rows]
    payload = {"version": ts.__version__, "meta": meta, "columns": header, "rows": cells}
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert out.read_bytes() == want.encode("utf-8")


def test_experiment_and_zero_tables(cheb5, binom5):
    config = _config(cheb5, m=4, trials=30, seed=1, oracle_resolution=512)
    result = ts.run_experiment(config)
    header, rows = experiment_table(result)
    assert len(rows) == 1 and len(rows[0]) == len(header)
    zc = ts.zero_count_experiment(binom5, trials=30, seed=1, oracle_resolution=512)
    zheader, zrows = zero_count_table(zc)
    assert len(zrows) == 1 and len(zrows[0]) == len(zheader)
