"""Component counting on grids and against the dense oracle."""
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import toposample as ts
from toposample import topology
from toposample.fields import SamplePath, _kept, basis_values, threshold_system
from toposample.topology import (
    admissibility_failure_bound,
    cubical_beta0,
    default_oracle_resolution,
    double_crossover,
    oracle_beta0,
    verify_match,
)

from reference import exact_roots


def _cheb_path(model, weights):
    coeffs = np.zeros(model.n_terms)
    for k, w in weights.items():
        coeffs[k] = w
    return SamplePath(model, coeffs)


def test_cubical_beta0_hand_cases():
    assert cubical_beta0(np.array([1.0, 2.0, 3.0])) == (1, 0)
    assert cubical_beta0(np.array([-1.0, -1.0])) == (0, 1)
    assert cubical_beta0(np.array([1.0, -1.0, 1.0])) == (2, 1)
    assert cubical_beta0(np.array([-2.0, 1.0, -3.0, 4.0])) == (2, 2)
    # zeros belong to both closed excursion sets
    assert cubical_beta0(np.array([0.0])) == (1, 1)
    assert cubical_beta0(np.array([1.0, 0.0, -1.0])) == (1, 1)
    assert cubical_beta0(np.array([1.0, 0.0, 1.0])) == (1, 1)


def test_cubical_beta0_validation():
    with pytest.raises(ValueError):
        cubical_beta0(np.array([]))
    # a vector or rows of one; nothing deeper, and no empty rows
    for shape in ((2, 2, 2), (2, 0), ()):
        with pytest.raises(ValueError):
            cubical_beta0(np.zeros(shape))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            cubical_beta0(np.array([1.0, bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            cubical_beta0(np.array([[1.0, 2.0, 1.0], [1.0, bad, 1.0]]))


def test_cubical_beta0_rows_are_the_vector_counts():
    rng = np.random.default_rng(8)
    # signs with exact zeros mixed in, over several grid lengths
    for width in (1, 2, 7, 33):
        values = rng.integers(-1, 2, size=(200, width)) * rng.random((200, width))
        pos, neg = cubical_beta0(values)
        assert pos.shape == neg.shape == (200,)
        assert [(int(p), int(n)) for p, n in zip(pos, neg)] == [cubical_beta0(v) for v in values]
    assert cubical_beta0(np.zeros((0, 4)))[0].shape == (0,)
    one = cubical_beta0(np.array([1.0, -1.0, 1.0]))
    assert one == (2, 1) and all(type(c) is int for c in one)


def test_double_crossover_truth_table():
    assert double_crossover(1.0, -1.0, 1.0)
    assert double_crossover(-1.0, 1.0, -1.0)
    assert not double_crossover(1.0, 1.0, 1.0)
    assert not double_crossover(1.0, -1.0, -1.0)
    assert not double_crossover(-1.0, -1.0, 1.0)
    # elementwise on arrays, each row as its scalar call
    rows = np.array([[1.0, -1.0, 1.0], [0.0, 0.0, 0.0], [1.0, -1.0, -1.0], [-2.0, 0.5, -0.1]])
    assert double_crossover(*rows.T).tolist() == [double_crossover(*r) for r in rows]


def test_oracle_counts_linear_path(cheb5, thr):
    path = _cheb_path(cheb5, {1: 1.0})  # u(x) = x
    count = oracle_beta0(path, thr, 1024)
    assert (count.beta0_pos, count.beta0_neg) == (1, 1)
    assert count.zeros == pytest.approx([0.0], abs=1e-10)
    assert not count.degenerate


def test_oracle_counts_two_zeros(cheb5, thr):
    path = _cheb_path(cheb5, {2: 1.0})  # u(x) = 2x^2 - 1
    count = oracle_beta0(path, thr, 2048)
    assert (count.beta0_pos, count.beta0_neg) == (2, 1)
    root = 0.5 ** 0.5
    assert count.zeros == pytest.approx([-root, root], abs=1e-10)
    assert not count.degenerate


def test_oracle_flags_tangential_zero(cheb5, thr):
    # u(x) = x^2 grazes zero; an odd resolution lands a scan point on it
    path = _cheb_path(cheb5, {0: 0.5, 2: 0.5})
    count = oracle_beta0(path, thr, 2049)
    assert count.degenerate
    assert count.zeros == pytest.approx([0.0], abs=1e-12)
    # {u >= 0} is the whole interval and {u <= 0} the single point 0
    assert (count.beta0_pos, count.beta0_neg) == (1, 1)


@pytest.mark.parametrize("slope, root", [(1.0, -1.0), (-1.0, 1.0)], ids=["at a", "at b"])
def test_oracle_counts_a_zero_at_an_end_like_any_grid(cheb5, thr, slope, root):
    # u = 1 + x vanishes at a, u = 1 - x at b: {u <= 0} is that one point
    path = _cheb_path(cheb5, {0: 1.0, 1: slope})
    count = oracle_beta0(path, thr, 1024)
    assert (count.beta0_pos, count.beta0_neg) == (1, 1)
    assert np.array_equal(count.zeros, [root])
    assert not count.degenerate
    for m in (1, 4, 7):
        plan = ts.build_plan(cheb5, thr, "uniform", m=m)
        assert verify_match(path, thr, plan, resolution=1024).match


def test_oracle_resolution_floor(cheb5, thr):
    path = _cheb_path(cheb5, {1: 1.0})
    with pytest.raises(ValueError):
        oracle_beta0(path, thr, 2)


def test_oracle_sinusoid_period(sinusoid, thr):
    # every nonzero path of a single frequency crosses zero exactly twice
    for seed in range(5):
        path = ts.sample_path(sinusoid, seed=seed)
        count = oracle_beta0(path, thr, 2048)
        assert count.zeros.size == 2


def test_default_oracle_resolution(cheb5, binom5):
    # 4096 per expected zero, with at least one block
    assert default_oracle_resolution(cheb5) == 4096 * 3
    assert default_oracle_resolution(binom5) == 4096 * 2


def test_admissibility_failure_bound():
    assert admissibility_failure_bound(2.0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert admissibility_failure_bound(0.0, 1.0) == 0.0


def test_verify_match_fine_grid(cheb5, thr):
    path = _cheb_path(cheb5, {2: 1.0})
    plan = ts.build_plan(cheb5, thr, "uniform", m=8)
    report = verify_match(path, thr, plan, resolution=4096)
    assert (report.beta0_true_pos, report.beta0_true_neg) == (2, 1)
    assert (report.beta0_grid_pos, report.beta0_grid_neg) == (2, 1)
    assert report.match_pos and report.match_neg and report.match
    assert report.zeros.size == 2
    assert not report.degenerate


def test_verify_match_coarse_grid_misses(cheb5, thr):
    path = _cheb_path(cheb5, {2: 1.0})
    plan = ts.build_plan(cheb5, thr, "uniform", m=1)
    report = verify_match(path, thr, plan, resolution=4096)
    # endpoints are both positive; the dip is invisible at m = 1
    assert (report.beta0_grid_pos, report.beta0_grid_neg) == (1, 0)
    assert not report.match


EXACT_CASES = {
    "chebyshev_zero": (ts.chebyshev_model(5), ts.threshold_zero()),
    "chebyshev_constant": (ts.chebyshev_model(5), ts.threshold_constant(0.3)),
    "chebyshev_cubic_shift": (ts.chebyshev_model(5), ts.threshold_cubic_shift(0.5)),
    "binomial_zero": (ts.binomial_model(5), ts.threshold_zero()),
    "binomial_cubic_shift": (ts.binomial_model(5), ts.threshold_cubic_shift(0.5)),
    "unit_polynomial": (ts.unit_model(5), ts.threshold_polynomial([0.1, -0.2, 0.05])),
}


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_oracle_zeros_match_exact_polynomial_roots(case):
    # the root polish must keep each zero inside the scan bracket it came
    # from and land on the exact roots of u - mu, the real eigenvalues of
    # its colleague or companion matrix; a path is skipped where the scan
    # cannot resolve its roots: two within 4 scan steps of each other or
    # of an end, or a complex root within 4 steps of the real axis
    model, threshold = EXACT_CASES[case]
    resolution = 4096
    a, b = model.domain
    xs = np.linspace(a, b, resolution)
    near = 4.0 * (b - a) / (resolution - 1)
    checked = 0
    for stream in range(300):
        path = ts.sample_path(model, seed=2718, stream=stream)
        roots = exact_roots(model, threshold, path.coeffs)
        roots = roots[(roots.real > a - near) & (roots.real < b + near)]
        real = roots.imag == 0.0
        exact = np.sort(roots[real].real)
        if np.any(np.abs(roots[~real].imag) < near) or np.any(np.diff([a, *exact, b]) < near):
            continue
        count = oracle_beta0(path, threshold, resolution)
        fs = path.value(xs) - threshold.value(xs)
        bracket = np.flatnonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0.0)
        assert count.zeros.size == bracket.size
        assert np.all(xs[bracket] <= count.zeros)
        assert np.all(count.zeros <= xs[bracket + 1])
        assert count.zeros == pytest.approx(exact, rel=0.0, abs=1e-11)
        checked += exact.size
    assert checked >= 400


def _recorded_scans(monkeypatch):
    # the values each oracle call counts its components from: its scan
    scans = []

    def recording(values):
        scans.append(values)
        return cubical_beta0(values)

    monkeypatch.setattr(topology, "cubical_beta0", recording)
    return scans


@pytest.mark.parametrize(
    "family", ["chebyshev", "binomial_cubic_shift", "cosine_constant", "periodic"]
)
def test_oracle_equals_uncached_reference_scan(family, cheb5, binom5, cosine5, mode5, monkeypatch):
    model, threshold = {
        "chebyshev": (cheb5, ts.threshold_zero()),
        "binomial_cubic_shift": (binom5, ts.threshold_cubic_shift(0.5)),
        "cosine_constant": (cosine5, ts.threshold_constant(0.3)),
        "periodic": (mode5, ts.threshold_zero()),
    }[family]
    a, b = model.domain
    resolution = 4096
    ref_xs = np.linspace(a, b, resolution)
    scans = _recorded_scans(monkeypatch)
    for stream in range(300):
        path = ts.sample_path(model, seed=4242, stream=stream)
        count = oracle_beta0(path, threshold, resolution)
        # the scan is that of path.value and polyval, bit for bit, and the
        # counts are that scan's
        ref = path.value(ref_xs) - np.polynomial.polynomial.polyval(ref_xs, threshold.coeffs)
        assert scans[-1].tobytes() == ref.tobytes()
        signs = np.sign(ref)
        changes = np.count_nonzero(signs[:-1] * signs[1:] < 0.0)
        assert (count.beta0_pos, count.beta0_neg) == cubical_beta0(ref)
        assert count.zero_count == changes + np.count_nonzero(ref == 0.0)


def _coarse_ends(resolution):
    # the scan points that end the cells of _cell_systems
    return list(range(0, resolution - 1, topology._SCAN_CELL)) + [resolution - 1]


def _assert_scan_is_the_oracle(model, threshold, coeffs, resolution):
    # every row scan_counts settles has the oracle's counts, and the kept
    # scan holds the tables of this scan's threshold system, which is returned
    pos, neg, zero_count, settled = topology.scan_counts(model, threshold, coeffs, resolution)
    assert settled.any()
    for j in np.flatnonzero(settled):
        count = oracle_beta0(SamplePath(model, coeffs[j]), threshold, resolution)
        assert (pos[j], neg[j], zero_count[j]) == (count.beta0_pos, count.beta0_neg, count.zero_count)
        assert not count.degenerate
    points, bounds, coarse, _ = _kept["scan"][1]
    xs = np.linspace(*model.domain, resolution)
    system = threshold_system(model, threshold, xs)
    assert points.tobytes() == xs.tobytes()
    assert np.array_equal(bounds, np.abs(system).max(axis=1))  # zero row: -0.0
    assert coarse.tobytes() == np.ascontiguousarray(system[:, _coarse_ends(resolution)]).tobytes()
    return system


def test_scan_basis_is_never_stale(cheb5):
    # two models with equally many terms, so stale rows would go unnoticed
    # by the shapes; two resolutions, interleaved so that the model alone
    # changes at some steps
    unit5 = ts.unit_model(5)
    keys = [(model, resolution) for resolution in (513, 1024) for model in (cheb5, unit5)]
    order = [keys[i % len(keys)] for i in range(0, 5 * len(keys), 3)]
    threshold = ts.threshold_zero()
    for stream, (model, resolution) in enumerate(order):
        coeffs = ts.fields.sample_coefficients(model, 99, range(4 * stream, 4 * stream + 4))
        _assert_scan_is_the_oracle(model, threshold, coeffs, resolution)


def _spy_scan_builders(monkeypatch):
    # what the kept scan holds at every table build (each test starts
    # with it empty), and the number of points of every system evaluation
    builds, points = [], []
    chord_tables, system = topology._chord_tables, topology.threshold_system

    def recording(*args):
        builds.append(_kept["scan"])
        return chord_tables(*args)

    monkeypatch.setattr(topology, "_chord_tables", recording)
    monkeypatch.setattr(
        topology,
        "threshold_system",
        lambda m, t, x, out=None: points.append(len(x)) or system(m, t, x, out),
    )
    return builds, points


def _assert_read_only(*arrays):
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_scan_basis_slot_holds_one_read_only_entry(cheb5, binom5, thr, monkeypatch):
    # the tables of the one scan entry: one build per change of basis,
    # each into an emptied entry, kept across paths and published whole;
    # the oracle leaves the entry alone
    builds, _ = _spy_scan_builders(monkeypatch)
    entries = []
    for model, stream in ((cheb5, 0), (cheb5, 1), (binom5, 0), (binom5, 1), (cheb5, 2)):
        coeffs = ts.fields.sample_coefficients(model, 5, [stream])
        topology.scan_counts(model, thr, coeffs, 640)
        entries.append(_kept["scan"])
    assert builds == [None] * 3
    assert [a is b for a, b in zip(entries, entries[1:])] == [True, False, True, False]
    key, tables = _kept["scan"]
    assert len(tables) == 4
    points, bounds, coarse, rho = tables
    xs = np.linspace(*cheb5.domain, 640)
    domain = tuple(v.hex() for v in cheb5.domain)
    assert key == (("chebyshev", 6, domain, None, None), thr.coeffs.tobytes(), 640)
    system = threshold_system(cheb5, thr, xs)
    assert points.tobytes() == xs.tobytes()
    assert np.array_equal(bounds, np.abs(system).max(axis=1))  # zero row: -0.0
    # 639 steps make nine full cells of 64 and a last one of 63
    ends = _coarse_ends(640)
    assert coarse.tobytes() == np.ascontiguousarray(system[:, ends]).tobytes()
    assert rho.shape == (cheb5.n_terms + 1, len(ends) - 1) and np.all(rho > 0.0)
    oracle_beta0(ts.sample_path(cheb5, seed=5, stream=3), thr, 640)
    assert _kept["scan"] is entries[-1]
    _assert_read_only(points, bounds, coarse, rho)


def test_scan_threshold_slot_holds_one_read_only_entry(cheb5, binom5, monkeypatch):
    # the threshold row of the one scan entry: one build per change of
    # threshold, kept across paths and across equal thresholds
    builds, _ = _spy_scan_builders(monkeypatch)
    cubic, line = ts.threshold_cubic_shift(0.5), ts.threshold_polynomial([0.1, 0.3])
    runs = [(cheb5, cubic, 0), (cheb5, cubic, 1), (binom5, cubic, 0), (binom5, line, 0)]
    runs += [(binom5, line, 1), (binom5, ts.threshold_polynomial([0.1, 0.3]), 2)]
    runs += [(binom5, ts.threshold_constant(0.3), 3)]
    entries = []
    for model, threshold, stream in runs:
        topology.scan_counts(model, threshold, ts.fields.sample_coefficients(model, 5, [stream]), 640)
        entries.append(_kept["scan"])
    assert builds == [None] * 4
    assert [a is b for a, b in zip(entries, entries[1:])] == [True, False, False, True, True, False]
    ends = _coarse_ends(640)
    line_key, line_tables = entries[-2]
    assert line_key[1] == line.coeffs.tobytes()
    line_coarse = line_tables[2]
    assert line_coarse[-1].tobytes() == line.value(np.linspace(*binom5.domain, 640)[ends]).tobytes()
    # a degree-0 threshold rides in the product as its own row too
    key, (_, bounds, coarse, rho) = _kept["scan"]
    assert key[1] == ts.threshold_constant(0.3).coeffs.tobytes()
    assert bounds[-1] == 0.3
    # a constant row lies on its bent chords: only the rounding cover is left
    assert np.all(coarse[-1] == 0.3) and np.all(rho[-1] < 1e-14)
    _assert_read_only(coarse[-1], bounds, coarse, rho)


def _custom_table():
    return ((np.ones_like, np.zeros_like, np.zeros_like), (np.sin, np.cos, np.sin))


@pytest.mark.parametrize(
    "same, build",
    [
        (True, lambda: ts.chebyshev_model(5)),
        (True, lambda: pickle.loads(pickle.dumps(ts.chebyshev_model(5)))),
        (False, lambda: ts.chebyshev_model(6)),
        (False, lambda: ts.unit_model(5)),  # six terms too, another family
        (True, lambda: ts.periodic_model([0.0, 2.0, 0.5])),
        (False, lambda: ts.periodic_model([0.0, 1.0, 1.0], period=2.0)),
        (True, lambda: ts.custom_model(_custom_table(), (0.0, 1.0), variances=[3.0, 0.5])),
        (False, lambda: ts.custom_model(_custom_table(), (0.0, 2.0))),
        (False, lambda: ts.custom_model(_custom_table(), (-0.0, 1.0))),
    ],
)
def test_equal_bases_share_one_scan_basis(same, build, monkeypatch):
    # the scan is keyed on what fixes the system's values, not on the
    # model object or its variances, so a kept worker that unpickles a new
    # model for every task builds the tables once; another basis is always
    # rebuilt
    first = {
        "chebyshev": ts.chebyshev_model(5),
        "unit": ts.chebyshev_model(5),
        "periodic": ts.periodic_model([0.0, 1.0, 1.0]),
        "custom": ts.custom_model(_custom_table(), (0.0, 1.0)),
    }[build().family]
    builds, _ = _spy_scan_builders(monkeypatch)
    threshold = ts.threshold_zero()
    topology.scan_counts(first, threshold, ts.fields.sample_coefficients(first, 3, range(4)), 513)
    other = build()
    assert other is not first
    coeffs = ts.fields.sample_coefficients(other, 3, range(4, 8))
    _assert_scan_is_the_oracle(other, threshold, coeffs, 513)
    assert len(builds) == (1 if same else 2)


def test_unpickled_tasks_share_one_scan_system(binom5, monkeypatch):
    # a kept pool worker unpickles a new (model, threshold) pair for every
    # task; equal pairs share the scan tables, so they are built once
    builds, _ = _spy_scan_builders(monkeypatch)
    task = pickle.dumps((binom5, ts.threshold_cubic_shift(0.5)))
    coeffs = ts.fields.sample_coefficients(binom5, 4, range(20))
    counts = []
    for _ in range(2):
        model, threshold = pickle.loads(task)
        counts.append(topology.scan_counts(model, threshold, coeffs, 1024))
    assert len(builds) == 1
    for a, b in zip(*counts):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "threshold",
    [ts.threshold_cubic_shift(0.5), ts.threshold_constant(0.3), ts.threshold_zero()],
    ids=["cubic_shift", "constant", "zero"],
)
def test_scan_system_folds_every_threshold_once(binom5, threshold, monkeypatch):
    # the tables of the basis rows plus the threshold's values, built once
    # per basis, threshold and resolution and kept; a constant or zero
    # threshold rides in the product as one more row too
    builds, _ = _spy_scan_builders(monkeypatch)
    coeffs = ts.fields.sample_coefficients(binom5, 4, range(3))
    system = _assert_scan_is_the_oracle(binom5, threshold, coeffs, 640)
    xs = np.linspace(*binom5.domain, 640)
    assert system.tobytes() == np.vstack([basis_values(binom5, xs), threshold.value(xs)]).tobytes()
    topology.scan_counts(binom5, threshold, coeffs, 640)
    oracle_beta0(SamplePath(binom5, coeffs[1]), threshold, 640)
    assert len(builds) == 1


def test_scan_system_is_built_without_a_basis_copy():
    # the system is the only large array alive while it is built: a
    # stacked copy of a separately built basis would double the peak
    model, threshold = ts.chebyshev_model(64), ts.threshold_cubic_shift(0.5)
    xs = np.linspace(*model.domain, 16384)
    tracemalloc.start()
    try:
        system = threshold_system(model, threshold, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * system.nbytes


def test_oracle_callers_build_no_chord_table(binom5, monkeypatch):
    # verify_match and the per-path oracle, which the trial engine runs on
    # the rows its scan cannot settle, evaluate their own scan: they build
    # no table and no threshold system, and a scan after them reads back
    # the tables kept before them
    builds, points = _spy_scan_builders(monkeypatch)
    threshold = ts.threshold_cubic_shift(0.5)
    plan = ts.build_plan(binom5, threshold, "uniform", m=7)

    def call_the_oracle():
        verify_match(ts.sample_path(binom5, 3, 0), threshold, plan, resolution=2048)
        oracle_beta0(ts.sample_path(binom5, 3, 1), threshold, 2048)

    coeffs = ts.fields.sample_coefficients(binom5, 3, range(2))
    call_the_oracle()
    assert builds == [] and points == []
    topology.scan_counts(binom5, threshold, coeffs, 2048)
    evaluated = len(points)
    call_the_oracle()
    assert builds == [None] and len(points) == evaluated
    topology.scan_counts(binom5, threshold, coeffs, 2048)
    assert builds == [None]


def test_scan_counts_never_builds_the_full_system(monkeypatch):
    # the scan builds its tables once, from blocks, and evaluates the
    # system only at the points of cells it computes; at no call is it
    # asked for every scan point
    builds, points = _spy_scan_builders(monkeypatch)
    model, threshold, resolution = ts.chebyshev_model(12), ts.threshold_zero(), 65536
    coeffs = ts.fields.sample_coefficients(model, 5, range(64))
    for _ in range(2):
        topology.scan_counts(model, threshold, coeffs, resolution)
    assert builds == [None]
    assert points and max(points) * (model.n_terms + 1) <= topology._SCAN_BLOCK_VALUES
    assert len(_kept["scan"][1]) == 4  # the points and three tables


def test_chebyshev64_scan_holds_no_full_system():
    # four Chebyshev-64 paths at the default 151,552 scan points, from
    # nothing kept: the full system would be 66 x 151,552 doubles, 76 MiB;
    # the points and tables are 3.7 MB and each evaluated block 512 KiB
    model, threshold = ts.chebyshev_model(64), ts.threshold_zero()
    resolution = default_oracle_resolution(model)
    assert resolution == 151552
    coeffs = ts.fields.sample_coefficients(model, 3100, range(4))
    tracemalloc.start()
    try:
        settled = topology.scan_counts(model, threshold, coeffs, resolution)[3]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert settled.all()
    assert peak < 16e6


def test_chebyshev64_fallbacks_keep_no_full_system():
    # the trial engine on four Chebyshev-64 rows at 151,552 scan points,
    # two of them scaled far below the oracle's tolerance so that they fall
    # back to it, from nothing kept: each fallback's 79 MB scan is freed
    # on return, and the kept scan holds the 3.7 MB of tables alone
    model, threshold = ts.chebyshev_model(64), ts.threshold_zero()
    resolution = default_oracle_resolution(model)
    coeffs = ts.fields.sample_coefficients(model, 3100, range(4))
    coeffs[1:3] *= 1e-12
    tracemalloc.start()
    try:
        ts.harness._chunk_counts(model, threshold, coeffs, resolution)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 16e6
    assert len(_kept["scan"][1]) == 4  # the points and three tables
    settled = topology.scan_counts(model, threshold, coeffs, resolution)[3]
    assert settled.tolist() == [True, False, False, True]


def test_scan_rejects_a_basis_that_is_not_pointwise():
    # a basis measured from the first point of whatever array it is given
    # gives the column two table blocks share two sets of bits
    zero = (np.zeros_like, np.zeros_like, np.zeros_like)
    shifted = (lambda x: x - x[0], np.ones_like, np.zeros_like)
    model = ts.custom_model([(np.ones_like, *zero[1:]), shifted], (0.0, 1.0))
    coeffs = ts.fields.sample_coefficients(model, 5, range(4))
    with pytest.raises(ValueError, match="not pointwise"):
        topology.scan_counts(model, ts.threshold_zero(), coeffs, 65536)
    pointwise = ts.custom_model([(np.ones_like, *zero[1:]), (lambda x: x, *shifted[1:])], (0.0, 1.0))
    assert topology.scan_counts(pointwise, ts.threshold_zero(), coeffs, 65536)[3].all()


def test_scan_rejects_a_basis_whose_bits_depend_on_array_position():
    # every cell end inside the scan is evaluated twice, as one cell's
    # right end and the next cell's left end, at neighbouring array
    # positions, so a term added at odd positions alone shows even when the
    # whole table is one batch
    square = (lambda x: x * x + (np.arange(x.size) % 2) * 1e-13, lambda x: 2.0 * x, np.ones_like)
    table = [(np.ones_like, np.zeros_like, np.zeros_like), (lambda x: x, np.ones_like, np.zeros_like), square]
    model = ts.custom_model(table, (0.0, 1.0))
    coeffs = ts.fields.sample_coefficients(model, 5, range(4))
    with pytest.raises(ValueError, match="not pointwise"):
        topology.scan_counts(model, ts.threshold_zero(), coeffs, 1000)


def test_scan_basis_is_not_built_at_import():
    code = "from toposample import fields; assert set(fields._kept.values()) == {None}"
    # the child imports the same package as this process, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(ts.__file__).resolve().parent.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


COUNT_FAMILIES = {
    "chebyshev": (ts.chebyshev_model(5), ts.threshold_zero()),
    "binomial_cubic_shift": (ts.binomial_model(5), ts.threshold_cubic_shift(0.5)),
    "cosine_constant": (ts.cosine_model(5), ts.threshold_constant(0.3)),
    "periodic": (ts.periodic_model([0.0] + [5.0 ** -0.5] * 5), ts.threshold_zero()),
}


@pytest.mark.parametrize("family", list(COUNT_FAMILIES))
def test_zero_count_is_the_polished_zero_count(family):
    # counting from the scan needs no root: the polish returns one root
    # per sign-change bracket, so the count equals the polished size
    model, threshold = COUNT_FAMILIES[family]
    counted = 0
    for stream in range(2000):
        count = oracle_beta0(ts.sample_path(model, seed=1618, stream=stream), threshold, 2048)
        before = (count.beta0_pos, count.beta0_neg, count.zero_count, count.degenerate)
        zeros = count.zeros
        assert count.zero_count == zeros.size
        assert (count.beta0_pos, count.beta0_neg, count.zero_count, count.degenerate) == before
        assert count.zeros is zeros  # polished once
        counted += count.zero_count
    assert counted > 2000


@pytest.mark.parametrize(
    "weights, resolution, zero",
    [({0: 1.0, 1: 1.0}, 1024, -1.0), ({0: 1.0, 1: -1.0}, 1024, 1.0), ({1: 1.0}, 1025, 0.0)],
    ids=["at a", "at b", "inside"],
)
def test_zero_count_includes_exact_scan_zeros(cheb5, thr, weights, resolution, zero):
    # u = 1 + x, 1 - x and x have a scan point on their only zero
    path = _cheb_path(cheb5, weights)
    assert np.any(np.linspace(-1.0, 1.0, resolution) == zero)
    count = oracle_beta0(path, thr, resolution)
    assert (count.beta0_pos, count.beta0_neg, count.zero_count) == (1, 1, 1)
    assert np.array_equal(count.zeros, [zero])


def test_zeros_are_polished_only_when_read(cheb5, thr, monkeypatch):
    polished = []
    original = topology._polish_roots

    def recording(*args):
        polished.append(args)
        return original(*args)

    monkeypatch.setattr(topology, "_polish_roots", recording)
    count = oracle_beta0(_cheb_path(cheb5, {2: 1.0}), thr, 2048)
    assert polished == [] and count.zero_count == 2
    root = 0.5 ** 0.5
    assert count.zeros == pytest.approx([-root, root], abs=1e-10)
    assert count.zeros == pytest.approx([-root, root], abs=1e-10)
    assert len(polished) == 1


def test_trial_pass_never_polishes(binom5, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a trial polished a root")

    monkeypatch.setattr(topology, "_polish_roots", forbidden)
    threshold = ts.threshold_cubic_shift(0.5)
    plans = [ts.build_plan(binom5, threshold, s, m=7) for s in ts.planner.STRATEGIES]
    assert len(plans) == 3
    results, (valid, total, _) = ts.harness.trial_pass(
        binom5, threshold, plans, trials=200, seed=3, oracle_resolution=1024
    )
    assert all(r.valid == valid for r in results) and total > valid
    zc = ts.zero_count_experiment(binom5, trials=200, seed=3, oracle_resolution=1024)
    assert zc.valid > 0 and zc.mean_zeros > 0.0


def test_scan_threshold_is_never_stale(cheb5):
    # two models with equally many terms, four thresholds (two of them
    # apart only in the sign of a zero, which the threshold row keeps) and
    # two resolutions, interleaved so that the threshold alone changes at
    # some steps and a stale entry would keep its shape
    unit5 = ts.unit_model(5)
    thresholds = (
        ts.threshold_polynomial([0.2, 0.5]),
        ts.threshold_cubic_shift(0.1),
        ts.threshold_zero(),
        ts.threshold_constant(-0.0),
    )
    keys = [(m, t, r) for r in (513, 1024) for m in (cheb5, unit5) for t in thresholds]
    order = [keys[i % len(keys)] for i in range(0, 5 * len(keys), 3)]
    assert set(order) == set(keys)
    for stream, (model, threshold, resolution) in enumerate(order):
        coeffs = ts.fields.sample_coefficients(model, 77, range(4 * stream, 4 * stream + 4))
        _assert_scan_is_the_oracle(model, threshold, coeffs, resolution)


def test_chunk_grading_is_path_value_minus_threshold(binom5, monkeypatch):
    # every grid of a compare run is graded once per chunk, on a block
    # whose signs (> 0, < 0 and == 0) are those of path.value -
    # threshold.value
    threshold, seed, trials = ts.threshold_cubic_shift(0.5), 13, 600
    graded, grids = [], []
    chunk = ts.harness._trial_chunk

    def recording_chunk(args):
        grids.append(args[2])
        return chunk(args)

    def recording_beta0(values):
        graded.append(np.array(values))
        return cubical_beta0(values)

    monkeypatch.setattr(ts.harness, "_trial_chunk", recording_chunk)
    monkeypatch.setattr(ts.harness, "cubical_beta0", recording_beta0)
    ts.compare_strategies(binom5, threshold, m=7, trials=trials, seed=seed, oracle_resolution=512)
    assert len(grids) == 2 and grids[0] is grids[1]  # two chunks: 512 and 88 paths
    assert len(graded) == 3 * len(grids)
    starts = [0, 0, 0, 512, 512, 512]
    for grid, start, block in zip(grids[0] * 2, starts, graded):
        assert block.shape == (512 if start == 0 else 88, grid.size)
        for j, values in enumerate(block):
            path = ts.sample_path(binom5, seed, stream=start + j)
            want = path.value(grid) - threshold.value(grid)
            assert np.array_equal(np.sign(values), np.sign(want))
