"""The block trial engine against the per-path oracle.

``harness._chunk_counts`` counts a block of paths from the signs of their
scans and runs ``oracle_beta0`` only on the rows those signs cannot
settle. Every count, and every error, must be the per-path oracle's.
"""
import json

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
# 3 points is the smallest scan (one cell of two steps); 65 points make one
# cell of 64 steps, and 9000 end in a short cell of 39
RESOLUTIONS = (3, 4, 65, 1000, 4096, 9000)


def _oracle_counts(model, threshold, coeffs, resolution):
    counts = [oracle_beta0(SamplePath(model, c), threshold, resolution) for c in coeffs]
    return [(o.beta0_pos, o.beta0_neg, o.zero_count, o.degenerate) for o in counts]


def _block_counts(model, threshold, coeffs, resolution):
    pos, neg, zero_count, degenerate = harness._chunk_counts(model, threshold, coeffs, resolution)
    return [(int(p), int(n), int(z), bool(d)) for p, n, z, d in zip(pos, neg, zero_count, degenerate)]


def _system_and_bounds(model, threshold, resolution):
    # the oracle's full system and the row bounds the scan's slack reads
    bounds = topology._scan_tables(model, threshold, resolution)[1]
    return topology._scan_system(model, threshold, resolution), bounds


def _zero_at_scan_point(model, threshold, row, resolution, index):
    # shift the constant basis term until u - mu is exactly 0 at one scan
    # point; every model here has a constant first basis function
    system = topology._scan_system(model, threshold, resolution)
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


@pytest.mark.parametrize("family", sorted(MODELS))
def test_scan_rows_are_path_value_minus_threshold(family, monkeypatch):
    # each path is scanned once: one block product of its row (c, -1) with
    # the coarse columns of the scan system, so the threshold rides in the
    # product as one more row, then products of the same row with the
    # system evaluated at the points of the cells the chord bound does not
    # certify, never more than _SCAN_BLOCK_VALUES system values at a time,
    # for the tables as for the cells; a settled
    # row has the signs of path.value - threshold.value at every point
    # computed (no zero among them), keeps one sign across every cell left
    # uncomputed, has no per-path value below the oracle's tolerance, and
    # its counts are the oracle's
    model, threshold, resolution = MODELS[family], THRESHOLDS["cubic_shift"], 9000
    coeffs = sample_coefficients(model, 9, range(20))
    want = _oracle_counts(model, threshold, coeffs, resolution)
    xs = np.linspace(*model.domain, resolution)
    cells = _cells(resolution)
    ends = [lo for lo, _ in cells] + [resolution - 1]
    block, cell_values = topology.block_minus_threshold, topology._cell_values
    coarse, refined, evaluated = [], [], []

    def recording_block(lhs, system, *args, **kwargs):
        values, slack = block(lhs, system, *args, **kwargs)
        coarse.append((lhs.copy(), system.shape, values.copy()))
        return values, slack

    def recording_system(model, threshold, x):
        evaluated.append(x.size)
        return threshold_system(model, threshold, x)

    def recording_cells(lhs, model, threshold, points, rows, which):
        done = 0
        for j, values in cell_values(lhs, model, threshold, points, rows, which):
            assert len(j) * (model.n_terms + 1) * values.shape[1] <= topology._SCAN_BLOCK_VALUES
            for row, cell, v in zip(lhs[j], which[done : done + len(j)], values):
                refined.append((row[:-1].tobytes(), int(cell), v.copy()))
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
    for row, cell, v in refined:
        computed.setdefault(row, {})[cell] = v
    for j, c in enumerate(coeffs):
        per_path = SamplePath(model, c).value(xs) - threshold.value(xs)
        if not settled[j]:
            continue
        scan = scans[c.tobytes()]
        assert np.array_equal(np.sign(scan), np.sign(per_path[ends])) and np.all(scan != 0.0)
        for i, (lo, hi) in enumerate(cells):
            cell = per_path[lo : hi + 1]
            v = computed.get(c.tobytes(), {}).get(i)
            if v is None:  # certified: one sign, that of both ends
                assert np.all(np.sign(cell) == np.sign(scan[i]))
                continue
            inside = v[v.size - cell.size :]  # a short last cell ends its window
            assert np.array_equal(np.sign(inside), np.sign(cell)) and np.all(inside != 0.0)
            assert np.all(v[: v.size - cell.size] == inside[0])
        assert np.abs(per_path).min() >= _DEGENERATE_TOL
        assert (pos[j], neg[j], zero_count[j], False) == want[j]
    assert np.count_nonzero(settled) >= 15
    # the cells computed in full hold under a tenth of the scan's values
    assert 0 < len(refined) * (topology._SCAN_CELL + 1) <= 0.1 * resolution * len(coeffs)


@pytest.mark.parametrize(
    "model, threshold, resolution",
    [
        (ts.binomial_model(5), ts.threshold_cubic_shift(0.5), 8192),
        (ts.chebyshev_model(5), ts.threshold_zero(), 4096),
    ],
    ids=["binomial", "chebyshev"],
)
def test_scan_computes_a_tenth_of_the_values(model, threshold, resolution, monkeypatch):
    # over 2048 paths, the values computed per path (cell ends, plus whole
    # cells the chord bound leaves open) stay under a tenth of the scan,
    # and the scan settles as many rows as a full-resolution scan whose
    # every block value is checked against the settle rule
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


_CELL = topology._SCAN_CELL
# a short first cell, one exact cell, a last cell of one step, two cells
# and a last one of one step, and longer scans ending in a short cell or
# on a cell end
EDGE_RESOLUTIONS = (_CELL - 1, _CELL, _CELL + 1, _CELL + 2, 2 * _CELL + 1, 2 * _CELL + 2, 1000, 4097)


def _crossing_after(model, threshold, row, resolution, index):
    # shift the constant basis term so that u - mu changes sign halfway
    # between scan points index and index + 1
    system = topology._scan_system(model, threshold, resolution)
    row = row.copy()
    for _ in range(4):
        f = row @ system[:-1] - system[-1]
        row[0] -= 0.5 * (f[index] + f[index + 1])
    return row


def _on_the_edge(kind, model, threshold, row, resolution, where):
    cells = _cells(resolution)
    lo, hi = cells[where % len(cells)]
    if kind == "first step":  # a sign change between a cell's first two points
        return _crossing_after(model, threshold, row, resolution, lo)
    if kind == "last step":  # and between its last two
        return _crossing_after(model, threshold, row, resolution, hi - 1)
    # an exact zero at a coarse point: a cell's first point, or the last point
    index = resolution - 1 if where % 2 else lo
    return _zero_at_scan_point(model, threshold, row, resolution, index)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(MODELS)),
    kind=st.sampled_from(sorted(THRESHOLDS)),
    resolution=st.sampled_from(EDGE_RESOLUTIONS),
    seed=st.integers(0, 2**64 - 1),
    paths=st.integers(1, 12),
    pushed=st.lists(
        st.tuples(st.sampled_from(["first step", "last step", "coarse zero"]), st.integers(0, 10**6)),
        max_size=4,
    ),
    offset=st.sampled_from((0.0, 1.0, -1.0)),
)
def test_certified_cells_hold_at_their_edges(family, kind, resolution, seed, paths, pushed, offset):
    # rows pushed onto the certificate's edge (a sign change at a cell's
    # first or last step, an exact zero at a coarse point), scans whose
    # last cell is short or one step long, and coarse values off by a
    # whole slack d in either direction, beyond what a block product may
    # be: every row's counts are the per-path oracle's, and so are those
    # of every settled row of the scan itself
    model, threshold = MODELS[family], THRESHOLDS[kind]
    coeffs = sample_coefficients(model, seed, range(paths))
    for push, where in pushed:
        j = where % paths
        coeffs[j] = _on_the_edge(push, model, threshold, coeffs[j], resolution, where // paths)
    want = _oracle_counts(model, threshold, coeffs, resolution)

    def off_by_offset(*args, **kwargs):
        values, slack = block_minus_threshold(*args, **kwargs)
        values += offset * slack[:, None]
        return values, slack

    topology.block_minus_threshold = off_by_offset
    try:
        pos, neg, zero_count, settled = scan_counts(model, threshold, coeffs, resolution)
        block = _block_counts(model, threshold, coeffs, resolution)
    finally:
        topology.block_minus_threshold = block_minus_threshold
    assert block == want
    for j in np.flatnonzero(settled):
        assert (pos[j], neg[j], zero_count[j], False) == want[j]


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
