"""The block trial engine against the per-path oracle.

``harness._chunk_counts`` counts a block of paths from the signs of their
scans and runs ``oracle_beta0`` only on the rows those signs cannot
settle. Every count, and every error, must be the per-path oracle's.
"""
import json
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toposample as ts
from toposample import harness, topology
from toposample.cli import main as cli_main
from toposample.fields import (
    SamplePath,
    block_minus_threshold,
    fold_coefficients,
    magnitude_bounds,
    sample_coefficients,
    threshold_system,
)
from toposample.topology import _DEGENERATE_TOL, oracle_beta0, scan_counts

_SINE = (np.sin, np.cos, lambda x: -np.sin(x))
MODELS = {
    "chebyshev": ts.chebyshev_model(5),
    "cosine": ts.cosine_model(5),
    "periodic": ts.periodic_model([0.0] + [5.0 ** -0.5] * 5),
    "binomial": ts.binomial_model(5),
    "unit": ts.unit_model(5),
    "custom": ts.custom_model(
        ((np.ones_like, np.zeros_like, np.zeros_like), (lambda x: x, np.ones_like, np.zeros_like), _SINE),
        (-2.0, 2.0),
    ),
}
THRESHOLDS = {
    "zero": ts.threshold_zero(),
    "constant": ts.threshold_constant(0.3),
    "polynomial": ts.threshold_polynomial([0.1, -0.2, 0.05]),
    "cubic_shift": ts.threshold_cubic_shift(0.5),
}
# 3 points is the smallest scan (one cell, clamped after two steps); 65
# points make one whole cell of 64 steps, 129 two, 66 end in a cell of
# one step, and 9000 in a cell of 39
RESOLUTIONS = (3, 4, 65, 66, 129, 1000, 4096, 9000)


def _oracle_counts(model, threshold, coeffs, resolution):
    counts = [oracle_beta0(SamplePath(model, c), threshold, resolution) for c in coeffs]
    return [(o.beta0_pos, o.beta0_neg, o.zero_count, o.degenerate) for o in counts]


def _block_counts(model, threshold, coeffs, resolution):
    pos, neg, zero_count, degenerate = harness._chunk_counts(model, threshold, coeffs, resolution)
    return [(int(p), int(n), int(z), bool(d)) for p, n, z, d in zip(pos, neg, zero_count, degenerate)]


def _scan_system(model, threshold, resolution):
    # the threshold system on every point of the oracle's scan
    return threshold_system(model, threshold, np.linspace(*model.domain, resolution))


def _system_and_bounds(model, threshold, resolution):
    # the full system and the row bounds the scan's slack reads
    bounds = topology._scan_tables(model, threshold, resolution)[1]
    return _scan_system(model, threshold, resolution), bounds


def _zero_at_scan_point(model, threshold, row, resolution, index):
    # shift the constant basis term until u - mu is exactly 0 at one scan
    # point; every model here has a constant first basis function
    system = _scan_system(model, threshold, resolution)
    row = row.copy()
    for _ in range(4):
        value = (row @ system[:-1] - system[-1])[index]
        if value == 0.0:
            break
        row[0] -= value
    return row


def _forced(kind, model, threshold, row, resolution, index):
    if kind == "tiny":
        return row * 1e-12
    if kind == "zeros":
        return np.zeros_like(row)
    return _zero_at_scan_point(model, threshold, row, resolution, index % resolution)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(MODELS)),
    kind=st.sampled_from(sorted(THRESHOLDS)),
    resolution=st.sampled_from(RESOLUTIONS),
    seed=st.integers(0, 2**64 - 1),
    paths=st.integers(1, 24),
    forced=st.lists(
        st.tuples(st.sampled_from(["tiny", "zeros", "scan_zero"]), st.integers(0, 10**6)),
        max_size=4,
    ),
)
def test_block_counts_equal_the_per_path_oracle(family, kind, resolution, seed, paths, forced):
    model, threshold = MODELS[family], THRESHOLDS[kind]
    coeffs = sample_coefficients(model, seed, range(paths))
    for forced_kind, index in forced:
        j = index % paths
        coeffs[j] = _forced(forced_kind, model, threshold, coeffs[j], resolution, index)
    want = _oracle_counts(model, threshold, coeffs, resolution)
    assert _block_counts(model, threshold, coeffs, resolution) == want


def _line(weights, resolution):
    # a path of the unit family (monomials on [-3, 3]), with 0 a scan point
    assert np.linspace(-3.0, 3.0, resolution)[resolution // 2] == 0.0
    coeffs = np.zeros(6)
    coeffs[: len(weights)] = weights
    return coeffs


# (path, counts the oracle gives it) for rows the scan signs cannot settle
FALLBACKS = {
    "exact zero at a scan point": (_line([0.0, 1.0], 1025), (1, 1, 1, False)),
    "touching root": (_line([0.0, 0.0, 1.0], 1025), (1, 1, 1, True)),
    "tiny minimum": (_line([1e-12, 0.0, 1.0], 1025), (1, 0, 0, True)),
}


@pytest.mark.parametrize("case", list(FALLBACKS))
def test_forced_fallback_runs_the_oracle_on_that_row_only(case, monkeypatch):
    model, threshold, resolution = ts.unit_model(5), ts.threshold_zero(), 1025
    row, counts = FALLBACKS[case]
    coeffs = sample_coefficients(model, 3, range(12))
    coeffs[5] = row
    assert np.flatnonzero(~scan_counts(model, threshold, coeffs, resolution)[3]).tolist() == [5]
    oracle_rows = []
    oracle = harness.oracle_beta0

    def recording(path, *args):
        oracle_rows.append(path.coeffs.tobytes())
        return oracle(path, *args)

    monkeypatch.setattr(harness, "oracle_beta0", recording)
    got = _block_counts(model, threshold, coeffs, resolution)
    assert oracle_rows == [row.tobytes()]
    assert got[5] == counts
    assert got == _oracle_counts(model, threshold, coeffs, resolution)


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308], ids=["nan", "inf", "overflowing"])
def test_non_finite_scan_raises_the_oracle_error(bad):
    model, threshold, resolution = ts.binomial_model(5), ts.threshold_cubic_shift(0.5), 1000
    coeffs = sample_coefficients(model, 4, range(10))
    coeffs[6, 5] = bad  # x^5 times 1e308 overflows near the ends
    with pytest.raises(ValueError) as per_path:
        oracle_beta0(SamplePath(model, coeffs[6]), threshold, resolution)
    with pytest.raises(ValueError) as block:
        harness._chunk_counts(model, threshold, coeffs, resolution)
    assert str(block.value) == str(per_path.value) == "grid values must be finite"


def test_resolution_floor_is_the_oracle_one(cheb5, thr):
    coeffs = sample_coefficients(cheb5, 1, range(3))
    with pytest.raises(ValueError, match="at least three points"):
        scan_counts(cheb5, thr, coeffs, 2)


def _cells(resolution):
    # (first, last) scan point of each cell of the coarse-to-fine scan
    s = topology._SCAN_CELL
    return [(lo, min(lo + s, resolution - 1)) for lo in range(0, resolution - 1, s)]


def _subcells(resolution):
    # (first, last) scan point of each sub-cell, sub-cell q of cell i at
    # index i (s / s') + q; sub-cells past the last point read it alone
    sub, end = topology._SCAN_SUBCELL, resolution - 1
    return [
        (min(at, end), min(at + sub, end))
        for lo, _ in _cells(resolution)
        for at in range(lo, lo + topology._SCAN_CELL, sub)
    ]


@pytest.mark.parametrize("family", sorted(MODELS))
def test_scan_rows_are_path_value_minus_threshold(family, monkeypatch):
    # each path is scanned once: one block product of its row (c, -1) with
    # the coarse columns of the scan system, so the threshold rides in the
    # product as one more row, then products of the same row with the
    # system evaluated at the points of the sub-cells the chord bound does
    # not certify, never more than _SCAN_BLOCK_VALUES system values at a
    # time, for the tables as for the sub-cells; a settled
    # row has the signs of path.value - threshold.value at every point
    # computed (no zero among them), keeps one sign across every sub-cell
    # left uncomputed (that of its coarse values, across a whole cell left
    # uncomputed), has no per-path value below the oracle's tolerance, and
    # its counts are the oracle's
    model, threshold, resolution = MODELS[family], THRESHOLDS["cubic_shift"], 9000
    coeffs = sample_coefficients(model, 9, range(20))
    want = _oracle_counts(model, threshold, coeffs, resolution)
    xs = np.linspace(*model.domain, resolution)
    cells, subcells = _cells(resolution), _subcells(resolution)
    per_cell = topology._SCAN_CELL // topology._SCAN_SUBCELL
    ends = [lo for lo, _ in cells] + [resolution - 1]
    block, cell_values = topology.block_minus_threshold, topology._cell_values
    coarse, refined, evaluated = [], [], []

    def recording_block(lhs, system, *args, **kwargs):
        values, slack = block(lhs, system, *args, **kwargs)
        coarse.append((lhs.copy(), system.shape, values.copy()))
        return values, slack

    def recording_system(model, threshold, x, out=None):
        evaluated.append(x.size)
        return threshold_system(model, threshold, x, out)

    def recording_cells(lhs, model, threshold, points, rows, which, width):
        assert width == topology._SCAN_SUBCELL
        done = 0
        for j, values in cell_values(lhs, model, threshold, points, rows, which, width):
            assert len(j) * (model.n_terms + 1) * values.shape[1] <= topology._SCAN_BLOCK_VALUES
            for row, sub, v in zip(lhs[j], which[done : done + len(j)], values):
                refined.append((row[:-1].tobytes(), int(sub), v.copy()))
            done += len(j)
            yield j, values

    monkeypatch.setattr(topology, "block_minus_threshold", recording_block)
    monkeypatch.setattr(topology, "_cell_values", recording_cells)
    monkeypatch.setattr(topology, "threshold_system", recording_system)
    pos, neg, zero_count, settled = scan_counts(model, threshold, coeffs, resolution)
    assert evaluated and max(evaluated) * (model.n_terms + 1) <= topology._SCAN_BLOCK_VALUES
    scans = {}
    for lhs, shape, values in coarse:
        assert shape == (model.n_terms + 1, len(ends)) and np.all(lhs[:, -1] == -1.0)
        assert values.size <= topology._SCAN_BLOCK_VALUES
        for row, v in zip(lhs[:, :-1], values):
            scans[row.tobytes()] = v
    assert list(scans) == [c.tobytes() for c in coeffs]
    computed = {}
    for row, sub, v in refined:
        computed.setdefault(row, {})[sub] = v
    for j, c in enumerate(coeffs):
        per_path = SamplePath(model, c).value(xs) - threshold.value(xs)
        if not settled[j]:
            continue
        scan = scans[c.tobytes()]
        assert np.array_equal(np.sign(scan), np.sign(per_path[ends])) and np.all(scan != 0.0)
        mine = computed.get(c.tobytes(), {})
        for k, (lo, hi) in enumerate(subcells):
            sub = per_path[lo : hi + 1]
            v = mine.get(k)
            if v is None:  # certified: one sign
                assert np.all(np.sign(sub) == np.sign(sub[0]))
                if not any(i // per_cell == k // per_cell for i in mine):
                    assert np.sign(sub[0]) == np.sign(scan[k // per_cell])
                continue
            inside = v[: sub.size]  # a short last sub-cell repeats the final point
            assert np.array_equal(np.sign(inside), np.sign(sub)) and np.all(inside != 0.0)
            assert np.all(v[sub.size :] == inside[-1])
        assert np.abs(per_path).min() >= _DEGENERATE_TOL
        assert (pos[j], neg[j], zero_count[j], False) == want[j]
    assert np.count_nonzero(settled) >= 15
    # the sub-cells computed in full hold under a tenth of the scan's values
    assert 0 < len(refined) * (topology._SCAN_SUBCELL + 1) <= 0.1 * resolution * len(coeffs)


@pytest.mark.parametrize(
    "model, threshold, resolution",
    [
        (ts.binomial_model(5), ts.threshold_cubic_shift(0.5), 8192),
        (ts.chebyshev_model(5), ts.threshold_zero(), 4096),
    ],
    ids=["binomial", "chebyshev"],
)
def test_scan_computes_a_tenth_of_the_values(model, threshold, resolution, monkeypatch):
    # over 2048 paths, the values computed per path (cell ends, plus the
    # whole sub-cells the chord bound leaves open) stay under a tenth of
    # the scan, and the scan settles as many rows as a full-resolution
    # scan whose every block value is checked against the settle rule
    coeffs = sample_coefficients(model, 2024, range(2048))
    cell_values, computed = topology._cell_values, []

    def counting(*args):
        for j, values in cell_values(*args):
            computed.append(values.size)
            yield j, values

    monkeypatch.setattr(topology, "_cell_values", counting)
    settled = np.concatenate(
        [scan_counts(model, threshold, coeffs[lo : lo + 512], resolution)[3] for lo in range(0, 2048, 512)]
    )
    ends = len(_cells(resolution)) + 1
    assert (ends * len(coeffs) + sum(computed)) / len(coeffs) <= 0.1 * resolution
    system, bounds = _system_and_bounds(model, threshold, resolution)
    full = []
    for lo in range(0, 2048, 32):
        values, slack = block_minus_threshold(fold_coefficients(coeffs[lo : lo + 32]), system, bounds)
        full.append(np.abs(values).min(axis=1) >= _DEGENERATE_TOL + slack)
    assert np.count_nonzero(settled) >= np.count_nonzero(np.concatenate(full))


# the benchmark's two scans: four Chebyshev-64 paths at 151,552 points,
# and one 512-path binomial-5 chunk at its default 8,192 points
WORKLOAD_SCANS = {
    "chebyshev64": (ts.chebyshev_model(64), ts.threshold_zero(), 4, 151552),
    "binomial5": (ts.binomial_model(5), ts.threshold_cubic_shift(0.5), 512, 8192),
}


@pytest.mark.parametrize("case", sorted(WORKLOAD_SCANS))
def test_threads_scanning_at_once_get_their_serial_counts(case):
    # the scan's batch buffers belong to a thread: three threads scanning
    # their own paths at once, switching as often as the interpreter
    # lets them, each read back the counts of a serial scan
    model, threshold, paths, resolution = WORKLOAD_SCANS[case]
    coeffs = [sample_coefficients(model, seed, range(paths)) for seed in range(3)]
    want = [[a.tobytes() for a in scan_counts(model, threshold, c, resolution)] for c in coeffs]
    start, got = threading.Barrier(len(coeffs)), [[] for _ in coeffs]

    def scan(i):
        start.wait()
        for _ in range(8):
            got[i].append([a.tobytes() for a in scan_counts(model, threshold, coeffs[i], resolution)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=scan, args=(i,)) for i in range(len(coeffs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[counts] * 8 for counts in want]


@pytest.mark.parametrize("case, limit_kib", [("chebyshev64", 256), ("binomial5", 512)])
def test_a_warm_scan_allocates_no_batch_sized_array(case, limit_kib):
    # once its thread's buffers have served one scan, a scan of the same
    # shape writes every batch-sized temporary (a system batch of up to
    # 512 KiB, the gathered cells, the block products) into them, so what
    # it allocates peaks well under one batch (numpy reports its data
    # buffers to tracemalloc)
    model, threshold, paths, resolution = WORKLOAD_SCANS[case]
    coeffs = sample_coefficients(model, 24, range(paths))
    want = [a.tobytes() for a in scan_counts(model, threshold, coeffs, resolution)]
    tracemalloc.start()
    try:
        got = [a.tobytes() for a in scan_counts(model, threshold, coeffs, resolution)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < limit_kib * 1024


def _edge_resolutions(s, sub):
    # for cells of s steps and sub-cells of sub: a short first cell, one
    # exact cell, a last cell of one step, a last cell of one whole
    # sub-cell and of one step more, two cells and a last one of one step,
    # and longer scans ending in a short cell or on a cell end, none below
    # the scan's floor
    edges = (s - 1, s, s + 1, s + 2, s + sub + 1, s + sub + 2, 2 * s + 1, 2 * s + 2, 1000, 4097)
    return sorted({max(3, r) for r in edges})


def _crossing_after(model, threshold, row, resolution, index):
    # shift the constant basis term so that u - mu changes sign halfway
    # between scan points index and index + 1
    system = _scan_system(model, threshold, resolution)
    row = row.copy()
    for _ in range(4):
        f = row @ system[:-1] - system[-1]
        row[0] -= 0.5 * (f[index] + f[index + 1])
    return row


def _on_the_edge(kind, model, threshold, row, resolution, where):
    # the cell or sub-cell pushed on: "sub ..." pushes pick a sub-cell
    # that has at least one step inside the scan
    if kind.startswith("sub "):
        spans = [(lo, hi) for lo, hi in _subcells(resolution) if lo < hi]
    else:
        spans = _cells(resolution)
    lo, hi = spans[where % len(spans)]
    if kind.endswith("first step"):  # a sign change between its first two points
        return _crossing_after(model, threshold, row, resolution, lo)
    if kind.endswith("last step"):  # and between its last two
        return _crossing_after(model, threshold, row, resolution, hi - 1)
    if kind == "sub zero":  # an exact zero at a sub-cell end
        return _zero_at_scan_point(model, threshold, row, resolution, hi if where % 2 else lo)
    # an exact zero at a coarse point: a cell's first point, or the last point
    index = resolution - 1 if where % 2 else lo
    return _zero_at_scan_point(model, threshold, row, resolution, index)


# (s, s') pairs; each id names s, and s' too where it is not min(s, 8)
WIDTHS = [
    pytest.param(2, 2, id="2"),
    pytest.param(8, 8, id="8"),
    pytest.param(32, 8, id="32"),
    pytest.param(64, 8, id="64"),
    pytest.param(64, 1, id="64-sub1"),
]
PUSHES = ["first step", "last step", "coarse zero", "sub first step", "sub last step", "sub zero"]


@pytest.mark.parametrize("cell, subcell", WIDTHS)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(MODELS)),
    kind=st.sampled_from(sorted(THRESHOLDS)),
    edge=st.integers(0, 9),
    seed=st.integers(0, 2**64 - 1),
    paths=st.integers(1, 12),
    pushed=st.lists(st.tuples(st.sampled_from(PUSHES), st.integers(0, 10**6)), max_size=4),
    offset=st.sampled_from((0.0, 1.0, -1.0)),
)
def test_certified_cells_hold_at_their_edges(cell, subcell, family, kind, edge, seed, paths, pushed, offset):
    # rows pushed onto the certificate's edge (a sign change at a cell's
    # or a sub-cell's first or last step, an exact zero at a coarse point
    # or a sub-cell end), scans whose last cell is short, one step or one
    # sub-cell long, and coarse values off by a whole slack d in either
    # direction, beyond what a block product may be: every row's counts
    # are the per-path oracle's, and so are those of every settled row of
    # the scan itself, at every cell width s and sub-cell width s'
    model, threshold = MODELS[family], THRESHOLDS[kind]
    resolutions = _edge_resolutions(cell, subcell)
    resolution = resolutions[edge % len(resolutions)]

    def off_by_offset(*args, **kwargs):
        values, slack = block_minus_threshold(*args, **kwargs)
        values += offset * slack[:, None]
        return values, slack

    # the kept scan's key does not hold s, so each width starts from nothing kept
    ts.forget()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology, "_SCAN_CELL", cell)
        patch.setattr(topology, "_SCAN_SUBCELL", subcell)
        coeffs = sample_coefficients(model, seed, range(paths))
        for push, where in pushed:
            j = where % paths
            coeffs[j] = _on_the_edge(push, model, threshold, coeffs[j], resolution, where // paths)
        want = _oracle_counts(model, threshold, coeffs, resolution)
        patch.setattr(topology, "block_minus_threshold", off_by_offset)
        pos, neg, zero_count, settled = scan_counts(model, threshold, coeffs, resolution)
        block = _block_counts(model, threshold, coeffs, resolution)
    assert block == want
    for j in np.flatnonzero(settled):
        assert (pos[j], neg[j], zero_count[j], False) == want[j]


def _exact_chord(left, right, w):
    return Fraction(left) + Fraction(w) * (Fraction(right) - Fraction(left))


@pytest.mark.parametrize("cell, subcell", WIDTHS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    ends=st.tuples(
        *[st.floats(1e-9, 1e9) | st.floats(0.5, 2.0) for _ in range(2)],
        *[st.booleans() for _ in range(2)],
    ),
    at=st.integers(0, 64),
    scale=st.sampled_from((1.0, 1.0 - 2.0**-52, 0.5, 0.0)),
)
def test_certified_subcells_clear_their_bound_in_exact_arithmetic(cell, subcell, ends, at, scale):
    # the sub-cell certificate in exact rational arithmetic: where the
    # float chord certifies a sub-cell, the chord through the cell's end
    # values has one sign at both of the sub-cell's ends and clears the
    # bound there, so (being linear) all along it. The bound is set to
    # the float chord's size at one sub-cell end, where dropping the
    # rounding margin would certify a chord the exact one falls short of
    left, right, flip_left, flip_right = ends
    left, right = (-left if flip_left else left), (-right if flip_right else right)
    per_cell = cell // subcell
    w = np.arange(per_cell + 1) * (subcell / cell)
    chord = left + w * (right - left)
    need = scale * abs(chord[at % (per_cell + 1)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology, "_SCAN_CELL", cell)
        patch.setattr(topology, "_SCAN_SUBCELL", subcell)
        open_ = topology._open_subcells(np.array([left]), np.array([right]), np.array([need]))[0]
    assert open_.shape == (per_cell,)
    for q in np.flatnonzero(~open_):
        exact = [_exact_chord(left, right, w[q]), _exact_chord(left, right, w[q + 1])]
        assert exact[0] * exact[1] > 0
        assert min(abs(e) for e in exact) >= Fraction(need)


def _min_near(model, threshold, row, resolution, where):
    # shift the constant basis term until the smallest |u - mu| of the
    # per-path scan sits at 1e-9 + where d / 2, d the rounding slack of
    # the shifted row, keeping that point's sign; the argmin and the slack
    # are found again after every shift, since a shift can move the
    # minimum to another scan point and changes the row's slack
    system, bounds = _system_and_bounds(model, threshold, resolution)
    row = row.copy()
    for _ in range(6):
        f = row @ system[:-1] - system[-1]
        i = int(np.argmin(np.abs(f)))
        sign = 1.0 if f[i] >= 0.0 else -1.0
        _, slack = block_minus_threshold(fold_coefficients(row[None]), system, bounds)
        row[0] -= f[i] - sign * (_DEGENERATE_TOL + 0.5 * where * slack[0])
    return row


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(MODELS)),
    kind=st.sampled_from(sorted(THRESHOLDS)),
    resolution=st.sampled_from(RESOLUTIONS),
    seed=st.integers(0, 2**64 - 1),
    paths=st.integers(1, 12),
    shifted=st.lists(st.tuples(st.integers(0, 10**6), st.floats(-1.0, 1.0)), min_size=1, max_size=4),
    offset=st.sampled_from((0.0, 0.5, -0.5)),
)
# a shift that shrinks the row's values also shrinks its slack, so a
# target aimed with the slack of the unshifted row lands outside it
@example(
    family="custom", kind="constant", resolution=3, seed=91461765, paths=1,
    shifted=[(0, 0.78)], offset=0.0,
)
def test_rows_near_the_tolerance_fall_back(family, kind, resolution, seed, paths, shifted, offset):
    # rows whose smallest |u - mu| lands within the rounding slack d of the
    # oracle's tolerance: one below it always falls back to the oracle, a
    # settled one never has a per-path value below it, and every count is
    # the per-path oracle's, also with the block values off by half their
    # slack in either direction, as a block product may be
    model, threshold = MODELS[family], THRESHOLDS[kind]
    coeffs = sample_coefficients(model, seed, range(paths))
    for index, where in shifted:
        j = index % paths
        coeffs[j] = _min_near(model, threshold, coeffs[j], resolution, where)
    landed = {index % paths for index, _ in shifted}

    def off_by_offset(*args, **kwargs):
        values, slack = block_minus_threshold(*args, **kwargs)
        values += offset * slack[:, None]
        return values, slack

    topology.block_minus_threshold = off_by_offset
    try:
        settled = scan_counts(model, threshold, coeffs, resolution)[3]
        block = _block_counts(model, threshold, coeffs, resolution)
    finally:
        topology.block_minus_threshold = block_minus_threshold
    system, bounds = _system_and_bounds(model, threshold, resolution)
    _, slack = block_minus_threshold(fold_coefficients(coeffs), system, bounds)
    for j, c in enumerate(coeffs):
        smallest = np.abs(c @ system[:-1] - system[-1]).min()
        if j in landed:
            assert _DEGENERATE_TOL - slack[j] <= smallest <= _DEGENERATE_TOL + slack[j]
        if smallest < _DEGENERATE_TOL:
            assert not settled[j]
    assert block == _oracle_counts(model, threshold, coeffs, resolution)


@pytest.mark.parametrize("shift", [0.0, 0.5, -0.5])
def test_grid_values_recompute_rows_the_slack_cannot_clear(shift, monkeypatch):
    # u - mu = x has an exact zero at the grid point 0, and u - mu =
    # x + 1e-20 the value 1e-20 there, far inside its slack: those rows are
    # the per-path products, bit for bit, and every other row is the block
    # product, also when the block is off by half its slack (as a block
    # product may be), which would otherwise move the zero off 0
    model, threshold = ts.unit_model(5), ts.threshold_cubic_shift(0.0)
    grid = np.array([-3.0, -1.0, 0.0, 2.0, 3.0])
    coeffs = sample_coefficients(model, 3, range(8))
    coeffs[2] = _line([0.0, 2.0, 0.0, -1.0], 1025)  # u - mu = x
    coeffs[5] = _line([1e-20, 2.0, 0.0, -1.0], 1025)
    system = threshold_system(model, threshold, grid)
    exact = block_minus_threshold

    def off_by_shift(*args, **kwargs):
        values, slack = exact(*args, **kwargs)
        return values + shift * slack[:, None], slack

    monkeypatch.setattr(harness, "block_minus_threshold", off_by_shift)
    block, slack = off_by_shift(fold_coefficients(coeffs), system, magnitude_bounds(system))
    got = harness._grid_values(coeffs, system)
    for j, c in enumerate(coeffs):
        per_path = SamplePath(model, c).value(grid) - threshold.value(grid)
        assert np.array_equal(np.sign(got[j]), np.sign(per_path))
        recomputed = j in (2, 5)
        assert got[j].tobytes() == (per_path if recomputed else block[j]).tobytes()
        assert recomputed == bool(np.any(np.abs(block[j]) <= slack[j]))
    assert got[2, 2] == 0.0 and got[5, 2] == 1e-20


@pytest.mark.parametrize("command", ["compare", "zeros"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_with_fallbacks_is_identical_across_workers(command, fmt, tmp_path, monkeypatch):
    # amplitude 1e-8 leaves most paths to the oracle and some degenerate;
    # 1100 trials make three chunks over two workers
    argv = [command, "--family", "periodic", "--amplitudes", "1e-8,1e-8,1e-8"]
    argv += ["--trials", "1100", "--seed", "7", "--oracle-resolution", "1024", "--format", fmt]
    if command == "compare":
        argv += ["--m", "6"]
    oracle_calls = []
    oracle = harness.oracle_beta0

    def counting(*args):
        oracle_calls.append(1)
        return oracle(*args)

    monkeypatch.setattr(harness, "oracle_beta0", counting)
    out = tmp_path / f"{command}.{fmt}"
    blobs = []
    for workers in ("1", "2"):
        assert cli_main(argv + ["--workers", workers, "--output", str(out)]) == 0
        # JSON echoes the worker count; every other byte must agree
        blobs.append(out.read_bytes().replace(f'"workers": "{workers}"'.encode(), b'"workers": "N"'))
    assert blobs[0] == blobs[1]
    # the one-worker run, in this process, had fallbacks and degenerate paths
    assert 0 < len(oracle_calls) < 1100
    assert all(count > 0 for count in _column(blobs[0].decode(), fmt, "degenerate"))


def _column(text, fmt, name):
    if fmt == "json":
        doc = json.loads(text)
        return [row[doc["columns"].index(name)] for row in doc["rows"]]
    header, *rows = (line.split(",") for line in text.strip().split("\n"))
    return [int(row[header.index(name)]) for row in rows]
