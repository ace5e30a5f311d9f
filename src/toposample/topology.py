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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (
    _SMALLEST_SUBNORMAL,
    _UNIT_ROUNDOFF,
    SamplePath,
    ThresholdFn,
    block_minus_threshold,
    blocked_product,
    fold_coefficients,
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
# computes in full only the cells the chord bound cannot certify; it takes
# rows in blocks of at most _SCAN_BLOCK_VALUES coarse values, builds its
# tables from blocks of at most _SCAN_BLOCK_VALUES system values and
# evaluates the system at the computed cells' points in batches of at most
# _SCAN_BLOCK_VALUES values; a batch costs two ufunc calls per Chebyshev
# row however few its points, so 32 steps, which halve the points of the
# computed cells, beat 64 at Chebyshev n=64 (16 costs the block scan more)
_SCAN_CELL = 32
_SCAN_BLOCK_VALUES = 1 << 16

# the last scan's key and what has been built for it, as one (key, parts)
# entry: parts["points"] holds the scan points, and, once a caller asks for
# them, parts["tables"] the row bounds, coarse columns and chord-error table
# (scan_counts) and parts["system"] the full threshold system (oracle_beta0);
# the key holds everything that fixes the values (see _scan_entry), so equal
# models and thresholds share an entry and none can match a stale one
_scan_slot = [None]


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


def _chord_residuals(fine, left, right, t, out):
    """Largest |chord - value| per cell, rounded, into ``out``.

    ``fine`` (rows, cells, w) holds the first w values of each cell,
    ``left`` and ``right`` its end values and ``t`` the chord weights of
    those w points; the right end, where the chord meets the row exactly,
    is not among them. The float residual
    phi(l) + t (phi(r) - phi(l)) - phi(m) is within 7 u max|phi| of the
    exact chord residual.
    """
    residual = (right - left)[..., None] * t
    residual += left[..., None]
    residual -= fine
    np.max(np.abs(residual, out=residual), axis=-1, out=out)


def _chord_tables(model, threshold, points):
    """The row bounds, coarse columns and chord-error table of a scan.

    The R scan points split into cells of s = _SCAN_CELL steps: cell i
    spans the points l_i = i s to r_i = min(l_i + s, R - 1). ``coarse``
    holds the threshold system's columns at l_0, l_1, ... and R - 1, so
    cell i ends at coarse columns i and i + 1, and ``bounds`` each system
    row's largest |value| over every scan point. ``chord[k, i]`` bounds, in
    exact arithmetic on the system's values, how far row k strays from its
    chord inside cell i: |phi_k(m) - ((1 - t) phi_k(l_i) + t phi_k(r_i))|
    with t = (m - l_i) / s, over every point m of the cell (for the last,
    maybe shorter, cell t stays below 1, which the certificate allows). It
    is the largest float residual plus 16 u ``bounds[k]``, which covers the
    residual's own rounding and that of the sum, and 4 smallest subnormals
    for gradual underflow. The system is evaluated a block of whole cells
    at a time, at most _SCAN_BLOCK_VALUES values each, and never kept; a
    pointwise basis gives each block the bits of the full system. Raises
    ValueError when the column two blocks share comes out with different
    bits in each, as it can for a basis that is not pointwise.
    """
    rows, count = model.n_terms + 1, len(points)
    s = _SCAN_CELL
    ends = np.append(np.arange(0, count - 1, s), count - 1)
    cells = len(ends) - 1
    coarse = np.empty((rows, cells + 1))
    chord = np.empty((rows, cells))
    bounds = np.full(rows, -np.inf)
    t = np.arange(s) / s
    # a block of step cells has step s + 1 points
    step = max(1, (_SCAN_BLOCK_VALUES // rows - 1) // s)
    for lo in range(0, cells, step):
        hi = min(lo + step, cells)
        block = threshold_system(model, threshold, points[ends[lo] : ends[hi] + 1])
        # neighbouring blocks share their end column, so a basis whose bits
        # depend on the tile shows here
        if lo and block[:, 0].tobytes() != coarse[:, lo].tobytes():
            raise ValueError("the basis is not pointwise: a point's values depend on the other points")
        np.maximum(bounds, magnitude_bounds(block), out=bounds)
        coarse[:, lo : hi + 1] = block[:, ends[lo : hi + 1] - ends[lo]]
        # only the scan's last cell can be short
        width = ends[hi] - ends[hi - 1]
        full = hi - lo - (width < s)
        if full:
            fine = block[:, : full * s].reshape(rows, full, s)
            mid = lo + full
            left, right = coarse[:, lo:mid], coarse[:, lo + 1 : mid + 1]
            _chord_residuals(fine, left, right, t, chord[:, lo:mid])
        if width < s:
            fine = block[:, -1 - width : -1].reshape(rows, 1, width)
            left, right = coarse[:, hi - 1 : hi], coarse[:, hi:]
            _chord_residuals(fine, left, right, t[:width], chord[:, hi - 1 :])
    chord += (16.0 * _UNIT_ROUNDOFF * bounds + 4.0 * _SMALLEST_SUBNORMAL)[:, None]
    return bounds, coarse, chord


def _scan_entry(model, threshold, resolution):
    """The parts built so far for a scan of ``resolution`` points, as a dict.

    The scan points are ``resolution`` equispaced points over the model's
    domain. Paths with the same basis and threshold share the scan, so its
    parts are built once per basis, threshold and resolution, also across
    models and thresholds built or unpickled separately. The slot is
    emptied before a new entry is made, so two scans are never alive at
    once. Every array is read-only.
    """
    # the system's values depend on the family, the number of terms, the
    # domain and the threshold (by their bits, so -0.0 and 0.0 differ),
    # the period and a custom basis table, never on the coefficient
    # variances
    domain = tuple(v.hex() for v in model.domain)
    basis = (model.family, model.n_terms, domain, model.period, model.basis_table)
    key = (basis, threshold.coeffs.tobytes(), resolution)
    entry = _scan_slot[0]
    if entry is None or entry[0] != key:
        _scan_slot[0] = None
        points = np.linspace(model.a, model.b, resolution)
        points.flags.writeable = False
        entry = _scan_slot[0] = (key, {"points": points})
    return entry[1]


def _scan_tables(model, threshold, resolution):
    """The scan points, row bounds, coarse columns and chord table that ``scan_counts`` reads.

    Built by ``_chord_tables`` on the first call for a scan and kept in its
    entry; the full system is not built.
    """
    parts = _scan_entry(model, threshold, resolution)
    if "tables" not in parts:
        tables = _chord_tables(model, threshold, parts["points"])
        for array in tables:
            array.flags.writeable = False
        parts["tables"] = tables
    return (parts["points"], *parts["tables"])


def _scan_system(model, threshold, resolution):
    """The threshold system on every scan point, which ``oracle_beta0`` reads.

    ``threshold_system`` at the scan points: the basis rows with the
    threshold's values as one more row (about 76 MiB at Chebyshev n=64 and
    151,552 points). Built on the first call for a scan and kept in its
    entry; no chord table is built.
    """
    parts = _scan_entry(model, threshold, resolution)
    if "system" not in parts:
        system = threshold_system(model, threshold, parts["points"])
        system.flags.writeable = False
        parts["system"] = system
    return parts["system"]


def oracle_beta0(path: SamplePath, threshold: ThresholdFn, resolution: int) -> OracleCount:
    """Count components of the true sign sets of u - mu on the domain [a, b].

    The difference is scanned at ``resolution`` equispaced points, as the
    path's coefficients times the basis rows of the scan system, minus its
    threshold row (``_scan_system``, built on the first call and shared by
    every path of the same basis and threshold), which is bit for bit
    ``path.value - threshold.value`` on those points. The zeros are
    counted from the scan signs; each sign change between neighbouring
    scan points is polished to within 1e-12 by a bracket-safeguarded
    Illinois step when ``zeros`` is first read. The components are
    counted from the scan values by the grid rule of ``cubical_beta0``,
    so an exact zero at a scan point (a touching root, or a root at a or
    b) belongs to both sets, as it does on any grid that samples it. The
    resolution should comfortably exceed twice the expected zero count.
    """
    if resolution < 3:
        raise ValueError("scan needs at least three points")
    system = _scan_system(path.model, threshold, resolution)
    fs = path.coeffs @ system[:-1] - system[-1]
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
    xs = np.linspace(path.model.a, path.model.b, resolution)
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
    values F at the coarse points that end the cells of ``_chord_tables``
    (s = _SCAN_CELL steps each), and B_ji = sum_k |lhs_jk| chord[k, i]
    bounds how far u - mu strays from its chord inside cell i. Cell i is
    certified when F(l_i) and F(r_i) have one sign and both are at least
    _DEGENERATE_TOL + 3 d_j + B_ji in size (that sum's rounding covered).
    The proof is one line: the exact u - mu at any point of the cell is
    within B_ji of a point of the chord, which lies between the exact end
    values, themselves within d_j / 2 of F; so the exact value clears
    _DEGENERATE_TOL + 2.5 d_j with F's sign, and every float evaluation,
    block or per-path, clears _DEGENERATE_TOL + 2 d_j. A certified cell
    thus has no sign change and meets the settle rule. Every other cell
    of a row whose coarse values meet the settle rule is computed in
    full, for its sign changes and smallest |value|, from the system
    evaluated at that cell's points alone (``_cell_values``). s = 32
    leaves about one computed cell per zero on the benchmark models, and
    a few percent of the values; the full system is never built.

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
    # the (cell, row) pairs the chord bound leaves uncertified
    pairs = [np.empty((2, 0), dtype=np.intp)]
    # rows are taken in equal blocks of at most _SCAN_BLOCK_VALUES coarse values
    blocks = -(-paths * coarse.shape[1] // _SCAN_BLOCK_VALUES)
    height = max(1, -(-paths // max(1, blocks)))
    cover = 1.0 + 4.0 * (len(coarse) + 3) * _UNIT_ROUNDOFF
    # a non-finite value or slack leaves its row unsettled, and the oracle raises for it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, paths, height):
            block = slice(lo, lo + height)
            f, slack[block] = block_minus_threshold(lhs[block], coarse, bounds)
            clear = blocked_product(np.abs(lhs[block]), chord)
            clear += _DEGENERATE_TOL + 3.0 * slack[block, None]
            clear *= cover
            above = f > 0.0
            size = np.abs(f)
            uncertified = above[:, 1:] != above[:, :-1]
            uncertified |= np.minimum(size[:, 1:], size[:, :-1]) < clear
            # a row whose slack is not finite is never settled: none of its cells is computed
            uncertified &= np.isfinite(slack[block, None])
            cells, rows = np.divmod(np.flatnonzero(uncertified.T), len(f))
            pairs.append(np.stack([cells, rows + lo]))
            first[block] = above[:, 0]
        # every block's cells at once, ordered by cell, so that rows share their evaluation
        cells, rows = np.concatenate(pairs, axis=1)
        order = np.argsort(cells, kind="stable")
        changes = np.zeros(paths, dtype=np.int64)
        smallest = np.full(paths, np.inf)
        for j, values in _cell_values(lhs, model, threshold, points, rows[order], cells[order]):
            above = values > 0.0
            flips = np.flatnonzero(above[:, 1:] != above[:, :-1]) // (values.shape[1] - 1)
            changes += np.bincount(j[flips], minlength=paths)
            np.minimum.at(smallest, j, np.abs(values).min(axis=1))
    settled = np.isfinite(slack) & (smallest >= _DEGENERATE_TOL + slack)
    return (changes + 1 + first) // 2, (changes + 2 - first) // 2, changes, settled


def _cell_values(lhs, model, threshold, points, rows, cells):
    """u - mu over whole scan cells: cell ``cells[p]`` of row ``rows[p]``, a batch at a time.

    ``cells`` is ascending. Yields (the batch's rows, their values) in the
    order of the pairs, one row of values per cell and
    ``min(_SCAN_CELL, R - 1) + 1`` values per row. A batch takes the pairs
    of at most _SCAN_BLOCK_VALUES / ((K + 1) span) consecutive distinct
    cells and evaluates ``threshold_system`` once at their points; a
    cell's values are its row of ``lhs`` times a copy of its columns, made
    for at most as many pairs at a time, so no batch holds more than
    _SCAN_BLOCK_VALUES system values. The last cell, when shorter, takes
    the window of points that ends at the last one, with the points before
    the cell replaced by its first, so they add no sign change and no
    smaller |value|.
    """
    count = len(points)
    span = min(_SCAN_CELL, count - 1) + 1
    height = model.n_terms + 1
    step = max(1, _SCAN_BLOCK_VALUES // (height * span))
    # each pair's index among the distinct cells
    new = np.diff(cells, prepend=-1) != 0
    distinct, which = cells[new], np.cumsum(new) - 1
    for lo in range(0, distinct.size, step):
        starts = distinct[lo : lo + step] * _SCAN_CELL
        window = np.minimum(starts, count - span)[:, None] + np.arange(span)
        x = points[np.maximum(window, starts[:, None]).ravel()]
        system = threshold_system(model, threshold, x)
        columns = system.reshape(height, starts.size, span).transpose(1, 0, 2)
        first, last = np.searchsorted(which, [lo, lo + step])
        for sub in range(first, last, step):
            part = slice(sub, min(sub + step, last))
            j = rows[part]
            yield j, np.matmul(lhs[j, None, :], columns[which[part] - lo])[:, 0]


def default_oracle_resolution(model, expected_zeros: float | None = None) -> int:
    """Scan resolution scaled to the expected zero count (integrated unless given)."""
    if expected_zeros is None:
        expected_zeros = expected_zero_count(model)
    return _SCAN_POINTS_PER_ZERO * max(1, int(np.ceil(expected_zeros)))


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
