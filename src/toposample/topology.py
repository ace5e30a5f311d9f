"""Connected-component counts of sign sets, exact and grid-based.

For a path u and threshold mu, the sets {u - mu >= 0} and
{u - mu <= 0} partition the interval up to their shared zeros. The
functions here count their connected components two ways: from the signs
of a dense scan (the reference answer, whose roots are polished only when
read) and from sign data on a finite grid, where each flagged grid point
contributes the cell to its right and the last point a degenerate cell.
Comparing the two is the whole game: a well-placed grid reproduces the
true counts with high probability.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (
    _PRODUCT_MULADDS,
    SamplePath,
    ThresholdFn,
    block_minus_threshold,
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
_DEFAULT_ADMISSIBILITY_DEPTH = 12
# scan_counts takes up to _SCAN_BLOCK_ROWS paths at a time and computes
# their scan values a tile of points at a time, each tile at most
# _SCAN_BLOCK_VALUES values and one matrix product (fields._PRODUCT_MULADDS)
_SCAN_BLOCK_ROWS = 16
_SCAN_BLOCK_VALUES = 1 << 16

# the scan grid, threshold system and per-row max |value| of the last
# scan, as one (key, xs, system, bounds) entry; the key holds everything
# that fixes the system's values (see _scan_system), so equal models and
# thresholds share an entry and none can match a stale one
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


def _scan_system(model, threshold, resolution):
    """Scan points over the model's domain, their threshold system and its row bounds.

    The system (``threshold_system``) holds the basis rows with the
    threshold's values as one more row, and the bounds each row's largest
    |value|. Paths with the same basis and threshold share the scan, so
    it is built once per basis, threshold and resolution, also across
    models and thresholds built or unpickled separately. The slot is
    emptied before a new build, so two systems are never alive at once
    (about 80 MB each at Chebyshev n=64). All three arrays are read-only.
    """
    # the system's values depend on the family, the number of terms, the
    # domain and the threshold (by their bits, so -0.0 and 0.0 differ),
    # the period and a custom basis table, never on the coefficient
    # variances
    domain = tuple(v.hex() for v in model.domain)
    basis = (model.family, model.n_terms, domain, model.period, model.basis_table)
    key = (basis, threshold.coeffs.tobytes(), resolution)
    entry = _scan_slot[0]
    if entry is not None and entry[0] == key:
        return entry[1:]
    _scan_slot[0] = None
    xs = np.linspace(model.a, model.b, resolution)
    system = threshold_system(model, threshold, xs)
    bounds = magnitude_bounds(system)
    for array in (xs, system, bounds):
        array.flags.writeable = False
    _scan_slot[0] = (key, xs, system, bounds)
    return xs, system, bounds


def oracle_beta0(path: SamplePath, threshold: ThresholdFn, resolution: int) -> OracleCount:
    """Count components of the true sign sets of u - mu on the domain [a, b].

    The difference is scanned at ``resolution`` equispaced points, as the
    path's coefficients times the basis rows of the scan system, minus its
    threshold row (``_scan_system``, kept between calls and shared by
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
    xs, system, _ = _scan_system(path.model, threshold, resolution)
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
    brackets = (xs[bracket], xs[bracket + 1], fs[bracket], fs[bracket + 1])
    zeros_at = xs[exact]
    pos, neg = cubical_beta0(fs)
    return OracleCount(
        pos, neg, bracket.size + zeros_at.size, degenerate, path, threshold, brackets, zeros_at
    )


def scan_counts(model, threshold: ThresholdFn, coeffs, resolution: int):
    """``oracle_beta0``'s counts for each row of ``coeffs``, where the signs decide them.

    Row j is the path with coefficients ``coeffs[j]``, scanned on the
    oracle's points. Up to _SCAN_BLOCK_ROWS paths are scanned at a time,
    by one matrix product of their rows (c, -1) with a tile of the scan
    system's columns (``block_minus_threshold``), so every threshold rides
    in the product as the system's last row. A value can differ in its
    last bits from the oracle's per-path product, by at most the row's
    rounding slack d_j. A row is settled when its smallest |u - mu|
    is at least _DEGENERATE_TOL + d_j: then every oracle value has the
    block value's sign and is at least _DEGENERATE_TOL in size, so the
    oracle scan has no exact zero and no degenerate minimum, and (the
    slack being finite) no non-finite value. With b the number of sign
    changes and p0 whether u - mu > 0 at a, its counts are then
    zero_count = b, beta0_pos = (b + 1 + p0) // 2 and
    beta0_neg = (b + 2 - p0) // 2. Returns the integer arrays beta0_pos,
    beta0_neg and zero_count and the boolean array ``settled``; a row
    that is not settled (a small minimum, an exact zero, a non-finite
    value, or a value the slack cannot clear) holds no counts and needs
    ``oracle_beta0``.
    """
    if resolution < 3:
        raise ValueError("scan needs at least three points")
    _, system, bounds = _scan_system(model, threshold, resolution)
    paths = len(coeffs)
    lhs = fold_coefficients(coeffs)
    changes = np.zeros(paths, dtype=np.int64)
    first = np.zeros(paths, dtype=np.int64)
    settled = np.zeros(paths, dtype=bool)
    height = max(1, min(paths, _SCAN_BLOCK_ROWS))
    width = min(
        resolution,
        _SCAN_BLOCK_VALUES // height,
        max(1, _PRODUCT_MULADDS // (len(system) * height)),
    )
    values = np.empty(height * width)
    above = np.empty((height, resolution), dtype=bool)  # u - mu > 0, per row of the block
    # a non-finite value leaves its row unsettled, and the oracle raises for it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, paths, height):
            hi = min(lo + height, paths)
            smallest = np.full(hi - lo, np.inf)
            slack = None
            for x0 in range(0, resolution, width):
                x1 = min(x0 + width, resolution)
                f, slack = block_minus_threshold(
                    lhs[lo:hi],
                    system[:, x0:x1],
                    bounds,
                    out=values[: (hi - lo) * (x1 - x0)].reshape(hi - lo, x1 - x0),
                    slack=slack,
                )
                np.greater(f, 0.0, out=above[: hi - lo, x0:x1])
                np.minimum(smallest, np.abs(f, out=f).min(axis=1), out=smallest)
            p = above[: hi - lo]
            # per row: count_nonzero along an axis is several times slower
            changes[lo:hi] = [np.count_nonzero(row) for row in p[:, 1:] != p[:, :-1]]
            first[lo:hi] = p[:, 0]
            settled[lo:hi] = smallest >= _DEGENERATE_TOL + slack
    return (changes + 1 + first) // 2, (changes + 2 - first) // 2, changes, settled


def default_oracle_resolution(model, expected_zeros: float | None = None) -> int:
    """Scan resolution scaled to the expected zero count (integrated unless given)."""
    if expected_zeros is None:
        expected_zeros = expected_zero_count(model)
    return _SCAN_POINTS_PER_ZERO * max(1, int(np.ceil(expected_zeros)))


def admissible_to_depth(
    path: SamplePath,
    threshold: ThresholdFn,
    interval: tuple[float, float],
    depth: int = _DEFAULT_ADMISSIBILITY_DEPTH,
) -> bool:
    """No dyadic subinterval up to ``depth`` shows a double crossover.

    Checks every interval [l + (r - l) k / 2^n, l + (r - l) (k + 1) / 2^n]
    for n = 0..depth. True here (together with nonvanishing endpoint
    values and simple roots) certifies that grid counts over the cell
    match the true counts. The check is cumulative, so the result is
    antitone in ``depth``. A finite depth can only under-approximate
    true admissibility over all subintervals.
    """
    left, right = interval
    if not right > left:
        raise ValueError("interval must have positive length")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    points = 1 << (depth + 1)
    xs = np.linspace(left, right, points + 1)
    fs = path.value(xs) - threshold.value(xs)
    for n in range(depth + 1):
        stride = points >> n  # 2 or more throughout, so midpoints exist
        lv = fs[0::stride][:-1]
        rv = fs[stride::stride]
        mv = fs[stride // 2::stride][: lv.size]
        if np.any(double_crossover(lv, mv, rv)):
            return False
    return True


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
