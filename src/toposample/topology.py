"""Connected-component counts of sign sets, exact and grid-based.

For a path u and threshold mu, the sets {u - mu >= 0} and
{u - mu <= 0} partition the interval up to their shared zeros. The
functions here count their connected components two ways: from the signs
of a dense scan (the reference answer, whose roots are polished only when
read) and from sign data on a finite grid, where each flagged grid point
contributes the cell to its right and the last point a degenerate cell.
Comparing the two is the whole game: a well-placed grid reproduces the
true counts with high probability. A cell can lose a component only
when the path crosses the threshold twice inside it: ``double_crossover``
flags the there-and-back sign pattern of three samples, and
``admissibility_failure_bound`` gives the leading-order probability of a
double crossover in a cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (
    _UNIT_ROUNDOFF,
    SamplePath,
    ThresholdFn,
    _kept,
    _local,
    basis_key,
    block_minus_threshold,
    blocked_product,
    fold_coefficients,
    kept_value,
    magnitude_bounds,
    threshold_system,
)
from .planner import SamplingPlan, expected_zero_count

# scan minima below this absolute size with no sign change nearby are
# treated as possible double roots
_DEGENERATE_TOL = 1e-9
_ROOT_XTOL = 1e-12
_SCAN_POINTS_PER_ZERO = 4096
# scan_counts settles a row from its values at every _SCAN_CELL-th scan
# point (a power of two, so every chord weight (m - l) / s is exact) and
# splits each cell the coarse pass cannot certify into sub-cells of
# _SCAN_SUBCELL steps (a power of two dividing s, so every sub-cell weight
# q s' / s is exact too), certified from the same bound at their ends; it
# computes in full only the open sub-cells. It takes rows in blocks of at
# most _SCAN_BLOCK_VALUES coarse values, and every cell or sub-cell is read
# through _cell_systems in batches of at most that many system values. The
# widths are the fastest measured on the benchmark's two scans; the counts
# of cells, sub-cells and points they leave open are in BENCH_31.json
_SCAN_CELL = 64
_SCAN_SUBCELL = 4
_SCAN_BLOCK_VALUES = 1 << 16
# the residual table's underflow cover, the smallest normal double, so
# that no table entry is subnormal
_SMALLEST_NORMAL = 2.0 ** -1022


def _buffer(slot, shape):
    """This thread's float buffer ``slot`` (0, 1 or 2), as a C-contiguous array of ``shape``.

    Every batch-sized temporary of the block scan is written into one of
    the three, kept per thread in ``fields._local``, so a warm scan maps
    no fresh pages. A scan's two passes never
    overlap, so they share the three: the coarse pass (``_coarse_pass``)
    holds a block's coarse values, certification bounds and bends in
    them, the cell pass (``_cell_pass``) first the open cells' bent chords
    (``_open_subcells``), then a system batch and its points
    (``_cell_systems``, as the table build does) and the sub-cells' values
    (``_cell_values``). A buffer grows to the largest shape asked of it
    and never shrinks; the array is valid until the next request for the
    same slot in the same thread.
    """
    size = math.prod(shape)
    flat = _local.buffers[slot]
    if flat.size < size:
        flat = _local.buffers[slot] = np.empty(size)
    return flat[:size].reshape(shape)


def cubical_beta0(values, starts=None):
    """Component counts of the grid approximations from point values.

    ``values`` holds u - mu at the grid points and must be finite (a NaN
    or an infinity raises ValueError). A value >= 0 flags the
    cell for the nonnegative set, <= 0 for the nonpositive set; an exact
    zero flags both. Each maximal run of flagged points is one component
    (the final point's degenerate cell included), so the count is the
    number of runs. A vector gives a pair of ints; a 2-D array is read
    as one grid per row and gives a pair of integer arrays.

    Given ``starts``, the first positions of several grids laid side by
    side along the last axis (0 first, strictly increasing), each grid's
    runs are counted on it alone, and each count gains a leading axis,
    one entry per grid.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] < 1:
        raise ValueError("grid values must form a nonempty vector, or rows of one")
    if not np.isfinite(v).all():
        raise ValueError("grid values must be finite")
    edges = np.zeros(1, dtype=np.intp) if starts is None else np.asarray(starts, dtype=np.intp)
    if not (edges.ndim == 1 and edges.size and edges[0] == 0 and edges[-1] < v.shape[-1]
            and (edges[1:] > edges[:-1]).all()):
        raise ValueError("grid starts must rise from 0 within the last axis")
    # both sets at once: a run begins at a flagged point that starts its
    # grid or follows an unflagged point
    flags = np.stack([v >= 0.0, v <= 0.0])
    begins = np.empty_like(flags)
    np.greater(flags[..., 1:], flags[..., :-1], out=begins[..., 1:])
    begins[..., edges] = flags[..., edges]
    pos, neg = np.moveaxis(np.add.reduceat(begins, edges, axis=-1, dtype=np.intp), -1, 1)
    if starts is not None:
        return pos, neg
    return (int(pos[0]), int(neg[0])) if v.ndim == 1 else (pos[0], neg[0])


def double_crossover(v_left, v_mid, v_right):
    """Whether three values show a there-and-back sign pattern, elementwise."""
    return ((v_left >= 0.0) & (v_mid <= 0.0) & (v_right >= 0.0)) | (
        (v_left <= 0.0) & (v_mid >= 0.0) & (v_right <= 0.0)
    )


@dataclass(frozen=True)
class OracleCount:
    """Reference component counts from a dense scan.

    ``zero_count`` is the number of zeros of u - mu the scan found: one
    per sign change between neighbouring scan points plus the exact zeros
    at scan points. ``zeros`` lists them in increasing order, each sign
    change polished to a root; the polish runs on the first read, so a
    caller that needs only counts never pays for it. ``degenerate`` flags
    scan evidence of a double root (a tiny local minimum of |u - mu|
    without a sign change), which makes the counts unreliable.
    """

    beta0_pos: int
    beta0_neg: int
    zero_count: int
    degenerate: bool
    # what the first read of ``zeros`` needs: the path and threshold, the
    # sign-change brackets as (lo, hi, f(lo), f(hi)) and the exact zeros
    _path: SamplePath = field(repr=False, compare=False)
    _threshold: ThresholdFn = field(repr=False, compare=False)
    _brackets: tuple = field(repr=False, compare=False)
    _exact: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def zeros(self) -> np.ndarray:
        path, threshold = self._path, self._threshold

        def diff(x):
            return path.value(x) - threshold.value(x)

        roots = _polish_roots(diff, *self._brackets)
        return np.sort(np.concatenate([roots, self._exact]))


def _polish_roots(diff, lo, hi, flo, fhi):
    """Roots of ``diff`` in sign-change brackets, to within _ROOT_XTOL.

    A vectorized regula falsi with the Illinois weight: each step
    evaluates ``diff`` once at the secant point of every open bracket and
    keeps the half that still shows the sign change, so every bracket
    holds a root throughout. When the same end survives twice its value
    is halved, which stops regula falsi from creeping in from one side.
    A secant point off the open bracket is replaced by the midpoint, and a
    bracket that has not halved in three steps takes a midpoint step, so
    the work is at most four times that of bisection. A bracket closes
    when its width is at most _ROOT_XTOL, when no float lies strictly
    inside it, or when ``diff`` vanishes exactly; its root is then the
    midpoint. A bracket's root does not depend on the other brackets.
    """
    lo, hi, flo, fhi = (np.array(v, dtype=float) for v in (lo, hi, flo, fhi))
    kept = np.zeros(lo.shape, dtype=np.int8)  # end kept by the last step: -1 lo, +1 hi
    slow = np.zeros(lo.shape, dtype=np.int8)  # steps in a row that did not halve
    while True:
        mid = 0.5 * (lo + hi)
        todo = np.flatnonzero((hi - lo > _ROOT_XTOL) & (lo < mid) & (mid < hi))
        if todo.size == 0:
            return mid
        l, h, fl, fh, m = lo[todo], hi[todo], flo[todo], fhi[todo], mid[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = h - fh * ((h - l) / (fh - fl))
        # a point within XTOL/2 of an end moves XTOL/2 inside, so a bracket
        # whose root sits that close to one end closes on the next step
        x = np.clip(x, l + 0.5 * _ROOT_XTOL, h - 0.5 * _ROOT_XTOL)
        x = np.where((slow[todo] >= 3) | ~(l < x) | ~(x < h), m, x)
        fx = diff(x)
        up = (fx < 0.0) == (fl < 0.0)  # the sign change lies in [x, h]
        hit = fx == 0.0
        new_l = np.where(up | hit, x, l)
        new_h = np.where(up & ~hit, h, x)
        # Illinois: the end kept for a second step in a row counts half
        fl = np.where(up, fx, np.where(kept[todo] == -1, 0.5 * fl, fl))
        fh = np.where(up, np.where(kept[todo] == 1, 0.5 * fh, fh), fx)
        slow[todo] = np.where(new_h - new_l > 0.5 * (h - l), slow[todo] + 1, 0)
        kept[todo] = np.where(up, 1, -1)
        lo[todo], hi[todo], flo[todo], fhi[todo] = new_l, new_h, fl, fh


def _cell_systems(model, threshold, points, cells, width, span=None):
    """The threshold system on each of ``cells``, cells of ``width`` steps, a batch at a time.

    Cell i reads the ``span`` positions i w, ..., i w + span - 1
    (w = ``width``: _SCAN_CELL for the scan's cells, _SCAN_SUBCELL for
    their sub-cells; span = w + 1 unless given, so a cell reads both its
    ends, and 1 reads the cells' first points alone), position p at scan
    point min(p, R - 1), so the last cell repeats the final scan point
    where the scan ends first. ``cells`` may repeat and come in any order.
    Yields (lo, system) for consecutive batches of at most
    _SCAN_BLOCK_VALUES // ((K + 1) span) cells, ``system[k, c, q]`` being
    row k at position q of cell ``cells[lo + c]``. Each system is written
    into this thread's buffer 0 and its points into buffer 1
    (``_buffer``), so it is valid only until the next batch.
    """
    rows, positions = model.n_terms + 1, np.arange(width + 1 if span is None else span)
    step = max(1, _SCAN_BLOCK_VALUES // (rows * positions.size))
    for lo in range(0, len(cells), step):
        batch = cells[lo : lo + step]
        # mode="clip" reads a position past the last scan point at the last one
        x = _buffer(1, (batch.size, positions.size))
        x = points.take(batch[:, None] * width + positions, mode="clip", out=x).ravel()
        system = threshold_system(model, threshold, x, out=_buffer(0, (rows, x.size)))
        yield lo, system.reshape(rows, batch.size, positions.size)


def _bends(ends, out):
    """Each cell's bend D: the mean of the second differences of ``ends`` at its two ends.

    ``ends`` is a C-contiguous array of values at the N + 1 coarse points
    along its last axis, so cell i ends at columns i and i + 1, and
    ``out``, C-contiguous of the same shape, receives cell i's bend in
    column i and 0 in its last column. The second difference at an inner
    coarse point x is E(x - 1) - 2 E(x) + E(x + 1); at the first and last
    coarse points the one-sided difference, that of the next point in, is
    taken. So inside, D_i = ((E(i - 1) + E(i + 2)) - E(i) - E(i + 1)) / 2,
    taken along the flattened arrays, and the first and last cells take the
    second difference of their inner end, (E(0) + E(2)) - E(1) - E(1) and
    its mirror. With fewer than three coarse points every bend is 0. D is
    linear in E, with coefficients of absolute sum 2 inside and 4 at the
    two end cells, and the float D lies within 10 u max|E| of the exact
    one, plus half a smallest subnormal.
    """
    cells = ends.shape[-1] - 1
    if cells < 2:
        out[...] = 0.0
        return out
    flat = ends.reshape(-1)
    inner = np.add(flat[:-3], flat[3:], out=out.reshape(-1)[1:-2])
    inner -= flat[1:-2]
    inner -= flat[2:-1]
    inner *= 0.5
    for cell, at in ((0, 0), (cells - 1, cells - 2)):
        bend = ends[..., at] + ends[..., at + 2]
        bend -= ends[..., at + 1]
        bend -= ends[..., at + 1]
        out[..., cell] = bend
    out[..., cells] = 0.0
    return out


def _chord_tables(model, threshold, points):
    """The row bounds, coarse columns and bent-chord residual table of a scan.

    Cell i spans the positions l_i = i s to r_i = l_i + s of
    ``_cell_systems`` (s = _SCAN_CELL). ``coarse`` holds the threshold
    system's columns at l_0, l_1, ... and R - 1, so cell i ends at coarse
    columns i and i + 1, and ``bounds`` each system row's largest |value|
    over every scan point. The coarse columns are evaluated first, so each
    cell's bend D_ki (``_bends`` of row k of ``coarse``) is known when the
    cell is evaluated. ``rho[k, i]`` bounds, in exact arithmetic on the
    system's values and with D_ki the exact value of the bend's formula,
    how far row k strays inside cell i from its chord bent by D_ki:

        |phi_k(l_i) + t (phi_k(r_i) - phi_k(l_i)) - t (1 - t) D_ki / 2 - phi_k(m)|,

    t = (m - l_i) / s, over the positions m before r_i, where the bent
    chord meets the row (the last cell's clamped positions read
    phi_k(r_i) below t = 1, which can only widen its bound). It is the
    largest float residual, with the bent chord formed as one product of
    (phi(l), phi(r), D) with (1 - t, t, -t (1 - t) / 2), all three weights
    exact. That residual lies within 9 u bounds[k] of the exact one: the
    product's terms add to at most 1.5 bounds[k] (|D| <= 4 bounds[k]), the
    difference to at most 2.5 bounds[k], and the float D moves the bend by
    at most 10 u bounds[k] / 8. Adding 16 u bounds[k] covers that and the
    final sum's rounding, and adding the smallest normal double covers
    gradual underflow and keeps every entry normal. Every cell end inside
    the scan is evaluated twice, once among the coarse columns and once as
    a cell's end; ValueError is raised when the two differ in any bit, as
    they can for a basis that is not pointwise.
    """
    rows, s = model.n_terms + 1, _SCAN_CELL
    cells = -(-(len(points) - 1) // s)
    coarse = np.empty((rows, cells + 1))
    for lo, system in _cell_systems(model, threshold, points, np.arange(cells + 1), s, span=1):
        coarse[:, lo : lo + system.shape[1]] = system[:, :, 0]
    # rho holds each cell's bend until the cell's residuals replace it; the
    # last column of _bends' layout is no cell's and stays out of the view
    rho = _bends(coarse, np.empty_like(coarse))[:, :-1]
    bounds = np.full(rows, -np.inf)
    t = np.arange(s) / s
    weights = np.stack([1.0 - t, t, -0.5 * t * (1.0 - t)])
    for lo, system in _cell_systems(model, threshold, points, np.arange(cells), s):
        hi = lo + system.shape[1]
        ends = system[:, :, :: s]
        if ends.tobytes() != np.stack([coarse[:, lo:hi], coarse[:, lo + 1 : hi + 1]], axis=-1).tobytes():
            raise ValueError("the basis is not pointwise: a point's values depend on the other points")
        np.maximum(bounds, magnitude_bounds(system.reshape(rows, -1)), out=bounds)
        chords = np.concatenate([ends, rho[:, lo:hi, None]], axis=-1).reshape(-1, 3)
        residual = (chords @ weights).reshape(rows, hi - lo, s)
        residual -= system[:, :, :-1]
        np.max(np.abs(residual, out=residual), axis=-1, out=rho[:, lo:hi])
    rho += (16.0 * _UNIT_ROUNDOFF * bounds + _SMALLEST_NORMAL)[:, None]
    return bounds, coarse, rho


def _scan_tables(model, threshold, resolution):
    """The scan points, row bounds, coarse columns and residual table that ``scan_counts`` reads.

    The scan points are ``resolution`` equispaced points over the model's
    domain; the rest is built by ``_chord_tables``. Paths with the same
    basis and threshold share the scan, so its tables are built once per
    basis, threshold and resolution, also across models and thresholds
    built or unpickled separately. They are kept as the ``"scan"`` entry of
    ``fields._kept``, through ``fields.kept_value``, so two scans are never
    alive at once and a scan is held only when it is whole. Every array is
    read-only. At Chebyshev n=64 and 151,552 points they take 3.7 MB,
    where the full threshold system would be 66 x 151,552 doubles, 76 MiB.
    """
    # the system's values depend on the basis and the threshold's bits
    # (so -0.0 and 0.0 differ), never on the coefficient variances
    key = (basis_key(model), threshold.coeffs.tobytes(), resolution)

    def build():
        points = np.linspace(model.a, model.b, resolution)
        tables = (points, *_chord_tables(model, threshold, points))
        for array in tables:
            array.flags.writeable = False
        return tables

    return kept_value(_kept, "scan", key, build)


def oracle_beta0(path: SamplePath, threshold: ThresholdFn, resolution: int) -> OracleCount:
    """Count components of the true sign sets of u - mu on the domain [a, b].

    The difference ``path.value - threshold.value`` is scanned at
    ``resolution`` equispaced points, evaluated afresh for every call (at
    Chebyshev n=64 and 151,552 points its basis is a 79 MB transient,
    freed on return), so the scan is this definition bit for bit and
    nothing is kept. The zeros are counted from the scan signs; each sign
    change between neighbouring scan points is polished to within 1e-12
    by a bracket-safeguarded Illinois step when ``zeros`` is first read.
    The components are counted from the scan values by the grid rule of
    ``cubical_beta0``, so an exact zero at a scan point (a touching root,
    or a root at a or b) belongs to both sets, as it does on any grid that
    samples it. The resolution should comfortably exceed twice the
    expected zero count.
    """
    if resolution < 3:
        raise ValueError("scan needs at least three points")
    xs = np.linspace(path.model.a, path.model.b, resolution)
    fs = path.value(xs) - threshold.value(xs)
    signs = np.sign(fs)

    interior = np.abs(fs[1:-1])
    local_min = (interior <= np.abs(fs[:-2])) & (interior <= np.abs(fs[2:]))
    no_change = (signs[:-2] == signs[2:]) & (signs[1:-1] == signs[:-2])
    degenerate = bool(np.any(local_min & no_change & (interior < _DEGENERATE_TOL)))
    # an exact zero flanked by equal signs is a touching root
    exact = np.flatnonzero(signs == 0.0)
    if exact.size:
        inner = exact[(exact > 0) & (exact < resolution - 1)]
        if np.any(signs[inner - 1] == signs[inner + 1]):
            degenerate = True

    bracket = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    brackets = (xs[bracket], xs[bracket + 1], fs[bracket], fs[bracket + 1])
    zeros_at = xs[exact]
    pos, neg = cubical_beta0(fs)
    return OracleCount(
        pos, neg, bracket.size + zeros_at.size, degenerate, path, threshold, brackets, zeros_at
    )


def scan_counts(model, threshold: ThresholdFn, coeffs, resolution: int):
    """``oracle_beta0``'s counts for each row of ``coeffs``, where the signs decide them.

    Row j is the path with coefficients ``coeffs[j]``, scanned on the
    oracle's points, as its row (c, -1) times the threshold system, so every
    threshold rides in the product as the system's last row. A block
    value can differ in its last bits from the oracle's per-path product,
    by at most the row's rounding slack d_j (``block_minus_threshold``),
    and each lies within d_j / 2 of the exact value. A row is settled when
    every block value |u - mu| is at least _DEGENERATE_TOL + d_j: then
    every oracle value has the block value's sign and is at least
    _DEGENERATE_TOL in size, so the oracle scan has no exact zero and no
    degenerate minimum, and (the slack being finite) no non-finite value.

    Most values are never computed. The coarse pass (``_coarse_pass``)
    certifies the whole cells of _SCAN_CELL steps where a row keeps one
    sign; the cell pass (``_cell_pass``) certifies sub-cells of the cells
    left open and computes the rest in full. Every certified cell or
    sub-cell has no sign change and only values of at least
    _DEGENERATE_TOL + 2 d_j, block or per-path, so the sign changes and
    the settle rule are decided by the computed values alone; each pass's
    docstring holds its proof.

    With b the number of sign changes and p0 whether u - mu > 0 at a, a
    settled row's counts are zero_count = b, beta0_pos = (b + 1 + p0) // 2
    and beta0_neg = (b + 2 - p0) // 2. Returns the integer arrays
    beta0_pos, beta0_neg and zero_count and the boolean array
    ``settled``; a row that is not settled (a small minimum, an exact
    zero, a non-finite value, or a value the slack cannot clear) holds no
    counts and needs ``oracle_beta0``.
    """
    if resolution < 3:
        raise ValueError("scan needs at least three points")
    points, bounds, coarse, rho = _scan_tables(model, threshold, resolution)
    lhs = fold_coefficients(coeffs)
    # a non-finite value or slack leaves its row unsettled, and the oracle raises for it
    with np.errstate(over="ignore", invalid="ignore"):
        first, slack, cells, rows, columns = _coarse_pass(lhs, bounds, coarse, rho)
        changes, smallest = _cell_pass(lhs, model, threshold, points, cells, rows, *columns)
    settled = np.isfinite(slack) & (smallest >= _DEGENERATE_TOL + slack)
    return (changes + 1 + first) // 2, (changes + 2 - first) // 2, changes, settled


def _coarse_pass(lhs, bounds, coarse, rho):
    """The coarse pass of ``scan_counts``: the (cell, row) pairs it cannot certify.

    One block product gives each row j of ``lhs`` (a path's (c, -1)) its
    values F at the coarse points, which end the whole cells of
    ``_cell_systems`` (s = _SCAN_CELL steps, the last clamped to the final
    scan point), each within d_j / 2 of the exact value, and its slack d_j
    (``block_minus_threshold``). Each cell i gets the row's bend
    D_ji = ``_bends`` of F. The exact u - mu strays inside the cell from
    its exact bent chord (through the exact end values, bent by the exact
    bend of the exact coarse values) by at most
    B_ji = sum_k |lhs_jk| rho[k, i], as the bend is linear and ``rho``
    bounds each system row's residual from its own bent chord. D_ji lies
    within 4 d_j of that exact bend: the end values' errors enter with
    coefficients of absolute sum at most 4, and D's rounding, at most
    10 u max|F| plus half a smallest subnormal, is below 2 d_j, because
    d_j >= 6 u sum_k |lhs_jk| bounds[k] >= 6 u (max|F| - d_j / 2) and d_j is
    at least 4 smallest subnormals.

    Cell i is certified when F(l_i) and F(r_i) have one sign and both are
    at least T_ji = _DEGENERATE_TOL + 4 d_j + B_ji + |D_ji| / 8 in size,
    that sum's rounding covered with room to spare (see ``_open_subcells``).
    The proof: the bent chord is the straight chord, which lies between
    the exact end values, each within d_j / 2 of F, minus t (1 - t) / 2
    times the exact bend, at most (|D_ji| + 4 d_j) / 8 in size; so the exact
    value anywhere in the cell clears _DEGENERATE_TOL + 3 d_j with F's
    sign, and every float evaluation, block or per-path, clears
    _DEGENERATE_TOL + 2.5 d_j. A certified cell thus has no sign change and
    meets the settle rule.

    Rows are taken in equal blocks of at most _SCAN_BLOCK_VALUES coarse
    values, each block's values, bends and bounds written into this
    thread's buffers (``_buffer``). Returns whether each row is positive
    at the first scan point, the slacks, and for the pairs left open (a
    row whose slack is not finite has none) their cells, their rows and
    the columns (F(l), F(r), T, D) of each.
    """
    paths, stride = len(lhs), coarse.shape[1]
    first = np.zeros(paths, dtype=bool)
    slack = np.empty(paths)
    pairs, columns = [np.empty((2, 0), dtype=np.intp)], [np.empty((4, 0))]
    blocks = -(-paths * stride // _SCAN_BLOCK_VALUES)
    height = max(1, -(-paths // max(1, blocks)))
    cover = 1.0 + 4.0 * (len(coarse) + 3) * _UNIT_ROUNDOFF
    for lo in range(0, paths, height):
        block = slice(lo, lo + height)
        # every per-cell array shares the values' layout, cell i of a row at
        # its left end's column, so the block's cells are one flat run of
        # which every row's last column is no cell
        shape = (len(lhs[block]), stride)
        f, slack[block] = block_minus_threshold(lhs[block], coarse, bounds, out=_buffer(0, shape))
        bend = _bends(f, _buffer(2, shape)).reshape(-1)
        concave = np.signbit(bend)
        size = np.abs(bend, out=bend)  # the bends' signs are kept in concave
        # 8 T, from 8 |lhs| so that no term is rounded for the factor 8, then T
        clear = _buffer(1, shape)
        blocked_product(8.0 * np.abs(lhs[block]), rho, out=clear[:, :-1])
        clear += 8.0 * (_DEGENERATE_TOL + 4.0 * slack[block, None])
        clear = clear.reshape(-1)
        clear += size
        clear *= 0.125 * cover
        above = f.reshape(-1) > 0.0
        f = np.abs(f, out=f).reshape(-1)  # f's signs are kept in above
        uncertified = above[1:] != above[:-1]
        uncertified |= f[1:] < clear[:-1]
        uncertified |= f[:-1] < clear[:-1]
        # a row's last column is no cell, and a row whose slack is not finite
        # is never settled: none of its cells is computed
        uncertified[stride - 1 :: stride] = False
        for row in np.flatnonzero(~np.isfinite(slack[block])):
            uncertified[row * stride : (row + 1) * stride] = False
        at = np.flatnonzero(uncertified)
        rows, cells = np.divmod(at, stride)
        # each open pair's two end values and bend, signs restored, and its T
        sides = np.stack([at, at + 1])
        signed, bent = f.take(sides), size.take(at)
        signed = np.where(above.take(sides), signed, -signed)
        bent = np.where(concave.take(at), -bent, bent)
        pairs.append(np.stack([cells, rows + lo]))
        columns.append(np.vstack([signed, clear.take(at), bent]))
        first[block] = above[::stride]
    cells, rows = np.concatenate(pairs, axis=1)
    return first, slack, cells, rows, np.concatenate(columns, axis=1)


def _cell_pass(lhs, model, threshold, points, cells, rows, left, right, bound, bend):
    """The cell pass of ``scan_counts``: each row's sign changes and smallest |value| in its open cells.

    Pair p is cell ``cells[p]`` of row ``rows[p]``, left open by
    ``_coarse_pass`` with the end values F(l) = ``left[p]`` and
    F(r) = ``right[p]``, the bound T = ``bound[p]`` and the bend
    D = ``bend[p]`` (all of that pass's notation). The cell splits into
    s / s' sub-cells of s' = _SCAN_SUBCELL steps, sub-cell q spanning the
    weights w0 = q s' / s to w1 = (q + 1) s' / s of the cell (both exact).
    The bent chord through F, G(w) = F(l) + w (F(r) - F(l)) - w (1 - w) D / 2
    taken exactly, lies within d_j / 2 + 4 d_j / 8 = d_j of the exact bent
    chord Q at every w, and Q, a parabola with Q'' the exact bend, strays
    from its own chord over the sub-cell by at most
    |Q''| (w1 - w0)^2 / 8 <= |D| (w1 - w0)^2 / 8 + d_j / 2. A sub-cell is
    certified (``_open_subcells``, which covers G's float roundings) when
    G has one sign at its two ends and clears
    _DEGENERATE_TOL + 4 d_j + B_ji + |D| (w1 - w0)^2 / 8 there. Then Q
    clears _DEGENERATE_TOL + 3 d_j + B_ji + |D| (w1 - w0)^2 / 8 at both
    ends with G's sign, so its chord does all along the sub-cell, so Q
    clears _DEGENERATE_TOL + 2.5 d_j + B_ji there, and the exact u - mu,
    within B_ji of Q, clears _DEGENERATE_TOL + 2.5 d_j: every float
    evaluation, block or per-path, clears _DEGENERATE_TOL + 2 d_j, and no
    sign change lies inside the sub-cell.

    Every sub-cell left open is computed in full, from the system
    evaluated at that sub-cell's points alone (``_cell_values``). Returns
    the number of sign changes and the smallest |value| computed for each
    of the ``len(lhs)`` rows (inf for a row with nothing computed).
    """
    pair, q = np.nonzero(_open_subcells(left, right, bound, bend))
    # every block's open sub-cells at once, each evaluated for its own row
    subcells = cells[pair] * (_SCAN_CELL // _SCAN_SUBCELL) + q
    changes = np.zeros(len(lhs), dtype=np.int64)
    smallest = np.full(len(lhs), np.inf)
    for j, values in _cell_values(lhs, model, threshold, points, rows[pair], subcells, _SCAN_SUBCELL):
        above = values > 0.0
        flips = np.flatnonzero(above[:, 1:] != above[:, :-1]) // (values.shape[1] - 1)
        changes += np.bincount(j[flips], minlength=len(lhs))
        # each pair's smallest |value|, a column at a time, as numpy reduces
        # rows this short one row at a time
        least = np.abs(values[:, 0])
        for column in np.abs(values, out=values).T[1:]:
            np.minimum(least, column, out=least)
        np.minimum.at(smallest, j, least)
    return changes, smallest


def _open_subcells(left, right, bound, bend):
    """Which _SCAN_SUBCELL-step sub-cells of open cells the cells' bent chords leave open.

    Pair p is a cell of s = _SCAN_CELL steps whose row has the block
    values left[p] and right[p] at the cell's ends and the bend
    D = bend[p], and bound[p] is at least (1 + 9 u) (A + |D| / 8), A being
    the part of the cell's bound T of ``_coarse_pass`` without its
    |D| / 8. (T's float sum and scaling make K + 5 roundings, K + 1 being
    the system's rows, which take under (K + 6) u of it, and its cover
    factor adds 4 (K + 4) u, so T keeps at least 9 u of room.) Sub-cell q
    spans the weights w = q s' / s to (q + 1) s' / s of the cell
    (s' = _SCAN_SUBCELL), and its own bound A + |D| (s' / s)^2 / 8 is taken as
    bound - |D| (1 - (s' / s)^2) / 8, all factors exact: the room of
    9 u (A + |D| / 8) covers that difference's two roundings. At each end
    the float bent chord G = left + w (right - left) - D w (1 - w) / 2 is
    evaluated, w (1 - w) / 2 exact too; its five roundings add at most
    6 u M + u |D| / 4, with M = max(|left|, |right|), and gradual
    underflow at most a smallest subnormal, far below u M' with
    M' = M + |D| / 8 wherever a sub-cell can be certified, as there
    (1 + 8 u) M' >= |G| >= A > _DEGENERATE_TOL. A sub-cell is certified
    when its two G have one sign and both are at least its bound plus
    16 u M' in size, that sum taken in floats; the second 8 u M' covers
    the sum's roundings, as the sum is at most |G|. Returns a boolean
    (pairs, s / s') array, True where a sub-cell is left open. Pairs are
    taken in batches of at most _SCAN_BLOCK_VALUES chord values, each
    batch's chords and bend terms written into this thread's buffers 0
    and 1 (``_buffer``), which ``_cell_values`` takes only once this
    returns.
    """
    width = _SCAN_SUBCELL / _SCAN_CELL
    # one row per sub-cell end, one column per pair
    w = np.arange(_SCAN_CELL // _SCAN_SUBCELL + 1)[:, None] * width
    bent = 0.5 * w * (1.0 - w)
    opened = np.empty((len(left), len(w) - 1), dtype=bool)
    step = max(1, _SCAN_BLOCK_VALUES // len(w))
    for lo in range(0, len(left), step):
        l, r, b, d = (column[lo : lo + step] for column in (left, right, bound, bend))
        shape = (len(w), len(l))
        chord = np.multiply(w, r - l, out=_buffer(0, shape))
        chord += l
        chord -= np.multiply(bent, d, out=_buffer(1, shape))
        size = np.abs(d)
        bar = np.maximum(np.abs(l), np.abs(r))
        bar += 0.125 * size
        bar *= 16.0 * _UNIT_ROUNDOFF
        bar += b - size * (0.125 * (1.0 - width * width))
        above = chord > 0.0
        clears = np.abs(chord, out=chord) >= bar
        opened[lo : lo + step] = ((above[1:] != above[:-1]) | ~(clears[1:] & clears[:-1])).T
    return opened


def _cell_values(lhs, model, threshold, points, rows, cells, width):
    """u - mu over whole cells of ``width`` steps: cell ``cells[p]`` of row ``rows[p]``, a batch at a time.

    Yields (the batch's rows, their values) in the order of the pairs, one
    row of values per pair at its cell's width + 1 positions of
    ``_cell_systems``, whose clamped positions repeat the final scan point
    and so add no sign change and no smaller |value|. Every pair's cell
    is evaluated at its own points, so a cell that several rows need is
    evaluated once per row, to the same bits (the basis is pointwise),
    and a pair's values are its row of ``lhs`` times its own columns,
    with nothing copied. The values are written into this thread's
    buffer 2 (``_buffer``), so each yielded array is valid only until the
    next batch.
    """
    for lo, system in _cell_systems(model, threshold, points, cells, width):
        j = rows[lo : lo + system.shape[1]]
        values = _buffer(2, (len(j), 1, system.shape[2]))
        yield j, np.matmul(lhs[j, None, :], system.transpose(1, 0, 2), out=values)[:, 0]


def default_oracle_resolution(model) -> int:
    """Scan resolution scaled to the expected zero count, the planner's kept zero mass."""
    return _SCAN_POINTS_PER_ZERO * max(1, int(np.ceil(expected_zero_count(model))))


def admissibility_failure_bound(crossover_rate: float, width: float) -> float:
    """Leading-order probability that a cell of this width is inadmissible."""
    return float(4.0 / 3.0 * crossover_rate * width ** 3)


@dataclass(frozen=True)
class NodalReport:
    """Side-by-side component counts for one path and one plan."""

    beta0_true_pos: int
    beta0_true_neg: int
    beta0_grid_pos: int
    beta0_grid_neg: int
    zeros: np.ndarray
    match_pos: bool
    match_neg: bool
    degenerate: bool

    @property
    def match(self) -> bool:
        return self.match_pos and self.match_neg


def verify_match(
    path: SamplePath,
    threshold: ThresholdFn,
    plan: SamplingPlan,
    resolution: int | None = None,
) -> NodalReport:
    """Compare grid component counts against the dense-scan reference."""
    if resolution is None:
        resolution = default_oracle_resolution(path.model)
    oracle = oracle_beta0(path, threshold, resolution)
    values = path.value(plan.grid) - threshold.value(plan.grid)
    grid_pos, grid_neg = cubical_beta0(values)
    return NodalReport(
        beta0_true_pos=oracle.beta0_pos,
        beta0_true_neg=oracle.beta0_neg,
        beta0_grid_pos=grid_pos,
        beta0_grid_neg=grid_neg,
        zeros=oracle.zeros,
        match_pos=grid_pos == oracle.beta0_pos,
        match_neg=grid_neg == oracle.beta0_neg,
        degenerate=oracle.degenerate,
    )
