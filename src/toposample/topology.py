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
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (
    _SMALLEST_SUBNORMAL,
    _UNIT_ROUNDOFF,
    SamplePath,
    ThresholdFn,
    _kept,
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
# splits each cell the chord bound cannot certify into sub-cells of
# _SCAN_SUBCELL steps (a power of two dividing s, so every sub-cell weight
# q s' / s is exact too), certified from the same chord at their ends; it
# computes in full only the open sub-cells. It takes rows in blocks of at
# most _SCAN_BLOCK_VALUES coarse values, and every cell or sub-cell is read
# through _cell_systems in batches of at most that many system values.
# 64-step cells halve the coarse values and tables of 32-step ones, which
# the binomial-5 block scan needs; whole 64-step cells doubled the points
# computed for four Chebyshev-64 paths (10,205 against 5,214), and 8-step
# sub-cells halve them instead (2,763). 32-step cells with 8-step
# sub-cells are faster there but slower on binomial-5
_SCAN_CELL = 64
_SCAN_SUBCELL = 8
_SCAN_BLOCK_VALUES = 1 << 16


class _Workspace(threading.local):
    """The block scan's three batch buffers, one set per thread, kept while the thread lives."""

    def __init__(self):
        self.buffers = [np.empty(0)] * 3


_workspace = _Workspace()


def _buffer(slot, shape):
    """This thread's float buffer ``slot`` (0, 1 or 2), as a C-contiguous array of ``shape``.

    Every batch-sized temporary of the block scan is written into one of
    these, so a warm scan maps no fresh pages. A scan's two passes never
    overlap, so they share the three: the coarse pass of ``scan_counts``
    holds a block's coarse values, certification bounds and smaller end
    magnitudes in them, the cell pass a system batch (``_cell_systems``,
    as the table build does), the sub-cells' copied columns and their
    values (``_cell_values``). A buffer grows to the largest shape asked of it
    and never shrinks; the array is valid until the next request for the
    same slot in the same thread.
    """
    size = math.prod(shape)
    flat = _workspace.buffers[slot]
    if flat.size < size:
        flat = _workspace.buffers[slot] = np.empty(size)
    return flat[:size].reshape(shape)


def cubical_beta0(values):
    """Component counts of the grid approximations from point values.

    ``values`` holds u - mu at the grid points and must be finite (a NaN
    or an infinity raises ValueError). A value >= 0 flags the
    cell for the nonnegative set, <= 0 for the nonpositive set; an exact
    zero flags both. Each maximal run of flagged points is one component
    (the final point's degenerate cell included), so the count is the
    number of runs. A vector gives a pair of ints; a 2-D array is read
    as one grid per row and gives a pair of integer arrays.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] < 1:
        raise ValueError("grid values must form a nonempty vector, or rows of one")
    if not np.isfinite(v).all():
        raise ValueError("grid values must be finite")

    def runs(f):
        return f[..., 0] + np.count_nonzero(f[..., 1:] > f[..., :-1], axis=-1)

    pos, neg = runs(v >= 0.0), runs(v <= 0.0)
    return (int(pos), int(neg)) if v.ndim == 1 else (pos, neg)


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


def _cell_systems(model, threshold, points, cells, width):
    """The threshold system on each of ``cells``, cells of ``width`` steps, a batch at a time.

    Cell i reads the width + 1 positions i w, ..., i w + w (w = ``width``:
    _SCAN_CELL for the scan's cells, _SCAN_SUBCELL for their sub-cells),
    position p at scan point min(p, R - 1), so the last cell repeats the
    final scan point where the scan ends first. Yields (lo, system) for
    consecutive batches of at most _SCAN_BLOCK_VALUES // ((K + 1)(w + 1))
    cells, ``system[k, c, q]`` being row k at position q of cell
    ``cells[lo + c]``. Each system is written into this thread's buffer
    0 (``_buffer``), so it is valid only until the next batch.
    """
    rows, positions = model.n_terms + 1, np.arange(width + 1)
    step = max(1, _SCAN_BLOCK_VALUES // (rows * positions.size))
    for lo in range(0, len(cells), step):
        batch = cells[lo : lo + step]
        # mode="clip" reads a position past the last scan point at the last one
        x = points.take(batch[:, None] * width + positions, mode="clip").ravel()
        system = threshold_system(model, threshold, x, out=_buffer(0, (rows, x.size)))
        yield lo, system.reshape(rows, batch.size, positions.size)


def _chord_tables(model, threshold, points):
    """The row bounds, coarse columns and chord-error table of a scan.

    Cell i spans the positions l_i = i s to r_i = l_i + s of
    ``_cell_systems`` (s = _SCAN_CELL). ``coarse`` holds the threshold system's columns at
    l_0, l_1, ... and R - 1, so cell i ends at coarse columns i and i + 1,
    and ``bounds`` each system row's largest |value| over every scan point.
    ``chord[k, i]`` bounds, in exact arithmetic on the system's values, how
    far row k strays from its chord inside cell i:
    |phi_k(m) - ((1 - t) phi_k(l_i) + t phi_k(r_i))| with t = (m - l_i) / s,
    over the positions m before r_i, where the chord meets the row (the
    last cell's clamped positions read phi_k(r_i) below t = 1, which can
    only widen its bound). It is the largest float residual
    phi(l) + t (phi(r) - phi(l)) - phi(m), within 7 u max|phi| of the exact
    one, plus 16 u ``bounds[k]``, which covers that and the sum's rounding,
    and 4 smallest subnormals for gradual underflow. Every cell end inside
    the scan is evaluated twice, as one cell's right end and the next one's
    left end; ValueError is raised when the two differ in any bit, as they
    can for a basis that is not pointwise.
    """
    rows, s = model.n_terms + 1, _SCAN_CELL
    cells = -(-(len(points) - 1) // s)
    coarse = np.empty((rows, cells + 1))
    chord = np.empty((rows, cells))
    bounds = np.full(rows, -np.inf)
    t = np.arange(s) / s
    for lo, system in _cell_systems(model, threshold, points, np.arange(cells), s):
        hi = lo + system.shape[1]
        left, right = system[:, :, 0], system[:, :, -1]
        if not lo:
            coarse[:, 0] = left[:, 0]
        coarse[:, lo + 1 : hi + 1] = right
        if left.tobytes() != coarse[:, lo:hi].tobytes():
            raise ValueError("the basis is not pointwise: a point's values depend on the other points")
        np.maximum(bounds, magnitude_bounds(system.reshape(rows, -1)), out=bounds)
        residual = (right - left)[..., None] * t
        residual += left[..., None]
        residual -= system[:, :, :-1]
        np.max(np.abs(residual, out=residual), axis=-1, out=chord[:, lo:hi])
    chord += (16.0 * _UNIT_ROUNDOFF * bounds + 4.0 * _SMALLEST_SUBNORMAL)[:, None]
    return bounds, coarse, chord


def _scan_tables(model, threshold, resolution):
    """The scan points, row bounds, coarse columns and chord table that ``scan_counts`` reads.

    The scan points are ``resolution`` equispaced points over the model's
    domain; the rest is built by ``_chord_tables``. Paths with the same
    basis and threshold share the scan, so its tables are built once per
    basis, threshold and resolution, also across models and thresholds
    built or unpickled separately. They are kept as the ``"scan"`` entry of
    ``fields._kept``, through ``fields.kept_value``, so two scans are never
    alive at once and a scan is held only when it is whole. Every array is
    read-only.
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

    Most values are never computed. One block product gives every row's
    values F at the coarse points that end the whole cells of
    ``_cell_systems`` (s = _SCAN_CELL steps, the last clamped to the final
    scan point), and B_ji = sum_k |lhs_jk| chord[k, i]
    bounds how far u - mu strays from its chord inside cell i. Cell i is
    certified when F(l_i) and F(r_i) have one sign and both are at least
    c_ji = _DEGENERATE_TOL + 3 d_j + B_ji in size (that sum's rounding
    covered). The proof is one line: the exact u - mu at any point of the
    cell is within B_ji of a point of the chord, which lies between the
    exact end values, themselves within d_j / 2 of F; so the exact value
    clears _DEGENERATE_TOL + 2.5 d_j with F's sign, and every float
    evaluation, block or per-path, clears _DEGENERATE_TOL + 2 d_j. A
    certified cell thus has no sign change and meets the settle rule.

    Every other cell splits into s / s' sub-cells of s' = _SCAN_SUBCELL
    steps, sub-cell q spanning the positions l_i + q s' to
    l_i + (q + 1) s', each certified from the cell's bound
    (``_open_subcells``) when the float chord F(l_i) + w (F(r_i) - F(l_i))
    has one sign at its two ends (w = q s' / s and (q + 1) s' / s, both
    exact) and clears c_ji there with a margin for the chord's own
    roundings. The proof is one line too: every exact value in the
    sub-cell lies within B_ji of the exact chord, so within B_ji + d_j / 2
    of the chord through F (whose ends are each within d_j / 2), which is
    linear and so keeps one sign in the sub-cell and clears c_ji there;
    so the exact value clears _DEGENERATE_TOL + 2.5 d_j, every block or
    per-path evaluation clears _DEGENERATE_TOL + 2 d_j, and no sign change
    lies inside the sub-cell. Every sub-cell left open, of a row whose
    coarse values meet the settle rule, is computed in full, for its sign
    changes and smallest |value|, from the system evaluated at that
    sub-cell's points alone (``_cell_values``). s = 64 and s' = 8 leave
    about one or two computed sub-cells per zero on the benchmark models,
    and a few percent of the values; the full system is never built.

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
    points, bounds, coarse, chord = _scan_tables(model, threshold, resolution)
    paths = len(coeffs)
    lhs = fold_coefficients(coeffs)
    first = np.zeros(paths, dtype=bool)
    slack = np.empty(paths)
    # the (cell, row) pairs the chord bound leaves uncertified, and their
    # (F(l), F(r), c) columns
    pairs, bars = [np.empty((2, 0), dtype=np.intp)], [np.empty((3, 0))]
    # rows are taken in equal blocks of at most _SCAN_BLOCK_VALUES coarse values
    blocks = -(-paths * coarse.shape[1] // _SCAN_BLOCK_VALUES)
    height = max(1, -(-paths // max(1, blocks)))
    cover = 1.0 + 4.0 * (len(coarse) + 3) * _UNIT_ROUNDOFF
    # a non-finite value or slack leaves its row unsettled, and the oracle raises for it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, paths, height):
            block = slice(lo, lo + height)
            ends = _buffer(0, (len(lhs[block]), coarse.shape[1]))
            f, slack[block] = block_minus_threshold(lhs[block], coarse, bounds, out=ends)
            shape = (len(f), chord.shape[1])
            clear = blocked_product(np.abs(lhs[block]), chord, out=_buffer(1, shape))
            clear += _DEGENERATE_TOL + 3.0 * slack[block, None]
            clear *= cover
            above = f > 0.0
            size = np.abs(f, out=f)  # f's signs are kept in above
            uncertified = above[:, 1:] != above[:, :-1]
            uncertified |= np.minimum(size[:, 1:], size[:, :-1], out=_buffer(2, shape)) < clear
            # a row whose slack is not finite is never settled: none of its cells is computed
            uncertified &= np.isfinite(slack[block, None])
            cells, rows = np.divmod(np.flatnonzero(uncertified.T), len(f))
            # each open cell's two end values, signs restored, and its c
            at = rows * size.shape[1] + cells
            sides = np.stack([at, at + 1])
            signed = size.take(sides)
            np.negative(signed, out=signed, where=~above.take(sides))
            pairs.append(np.stack([cells, rows + lo]))
            bars.append(np.vstack([signed, clear.take(at - rows)]))
            first[block] = above[:, 0]
        cells, rows = np.concatenate(pairs, axis=1)
        pair, q = np.nonzero(_open_subcells(*np.concatenate(bars, axis=1)))
        # every block's open sub-cells at once, ordered by sub-cell, so that rows share their evaluation
        subcells = cells[pair] * (_SCAN_CELL // _SCAN_SUBCELL) + q
        order = np.argsort(subcells, kind="stable")
        changes = np.zeros(paths, dtype=np.int64)
        smallest = np.full(paths, np.inf)
        for j, values in _cell_values(
            lhs, model, threshold, points, rows[pair[order]], subcells[order], _SCAN_SUBCELL
        ):
            above = values > 0.0
            flips = np.flatnonzero(above[:, 1:] != above[:, :-1]) // (values.shape[1] - 1)
            changes += np.bincount(j[flips], minlength=paths)
            np.minimum.at(smallest, j, np.abs(values).min(axis=1))
    settled = np.isfinite(slack) & (smallest >= _DEGENERATE_TOL + slack)
    return (changes + 1 + first) // 2, (changes + 2 - first) // 2, changes, settled


def _open_subcells(left, right, need):
    """Which _SCAN_SUBCELL-step sub-cells of open cells the cells' chords leave open.

    Pair p is a cell of s = _SCAN_CELL steps whose row has the block
    values left[p] and right[p] at the cell's ends and must clear
    need[p] (c_ji of ``scan_counts``). Sub-cell q spans the weights
    w = q s' / s to (q + 1) s' / s of the cell (s' = _SCAN_SUBCELL, so
    every w is exact), and at each of its ends the float chord
    G = left + w (right - left) is evaluated. G lies within 8 u M of the
    chord through left and right, M = max(|left|, |right|): its three
    roundings add under 7.1 u M, and gradual underflow at most half a
    smallest subnormal, far below u M wherever a sub-cell can be
    certified, as there (1 + 8 u) M >= |G| >= need > _DEGENERATE_TOL. A
    sub-cell is certified when its two G have one sign and both are at
    least need + 16 u M in size, that sum taken in floats; the second
    8 u M covers the sum's rounding, since need <= (1 + 9 u) M wherever
    |G| clears it. Returns a boolean (pairs, s / s') array, True where a
    sub-cell is left open.
    """
    w = np.arange(_SCAN_CELL // _SCAN_SUBCELL + 1) * (_SCAN_SUBCELL / _SCAN_CELL)
    chord = (right - left)[:, None] * w
    chord += left[:, None]
    bar = np.maximum(np.abs(left), np.abs(right))
    bar *= 16.0 * _UNIT_ROUNDOFF
    bar += need
    above = chord > 0.0
    clears = np.abs(chord, out=chord) >= bar[:, None]
    return (above[:, 1:] != above[:, :-1]) | ~(clears[:, 1:] & clears[:, :-1])


def _cell_values(lhs, model, threshold, points, rows, cells, width):
    """u - mu over whole cells of ``width`` steps: cell ``cells[p]`` of row ``rows[p]``, a batch at a time.

    ``cells`` is ascending. Yields (the batch's rows, their values) in the
    order of the pairs, one row of values per cell at its width + 1
    positions of ``_cell_systems``, whose clamped positions repeat the
    final scan point and so add no sign change and no smaller |value|.
    Each distinct cell is evaluated once; a pair's values are its row of
    ``lhs`` times a copy of its cell's columns, made for at most a
    batch's capacity of pairs at a time, so no copy exceeds
    _SCAN_BLOCK_VALUES values. The copies and the values are written into
    this thread's buffers 1 and 2 (``_buffer``), so each yielded array is
    valid only until the next batch.
    """
    # each pair's index among the distinct cells
    new = np.diff(cells, prepend=-1) != 0
    distinct, which = cells[new], np.cumsum(new) - 1
    for lo, system in _cell_systems(model, threshold, points, distinct, width):
        terms, batch, positions = system.shape
        step = max(1, _SCAN_BLOCK_VALUES // (terms * positions))
        first, last = np.searchsorted(which, [lo, lo + batch])
        for sub in range(first, last, step):
            part = slice(sub, min(sub + step, last))
            j = rows[part]
            # the indices lie in range; mode="raise" would buffer the whole output
            gather = _buffer(1, (terms, len(j), positions))
            columns = np.take(system, which[part] - lo, axis=1, out=gather, mode="clip")
            values = _buffer(2, (len(j), 1, positions))
            yield j, np.matmul(lhs[j, None, :], columns.transpose(1, 0, 2), out=values)[:, 0]


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
