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

from .fields import SamplePath, ThresholdFn, basis_values
from .planner import SamplingPlan, expected_zero_count

# scan minima below this absolute size with no sign change nearby are
# treated as possible double roots
_DEGENERATE_TOL = 1e-9
_ROOT_XTOL = 1e-12
_SCAN_POINTS_PER_ZERO = 4096
_DEFAULT_ADMISSIBILITY_DEPTH = 12

# the scan grid and basis rows of the last oracle call, as one
# ((model, resolution), xs, rows) entry; the key holds the model itself,
# so a model built later can never match a stale entry
_scan_basis_slot = [None]
# the threshold's values on the scan grid of the last oracle call, as one
# ((threshold, xs), values) entry; the key holds the threshold and the
# scan-grid array themselves, so it never matches a stale entry
_scan_threshold_slot = [None]


def cubical_beta0(values) -> tuple[int, int]:
    """Component counts of the grid approximations from point values.

    ``values`` holds u - mu at the grid points and must be finite (a NaN
    or an infinity raises ValueError). A value >= 0 flags the
    cell for the nonnegative set, <= 0 for the nonpositive set; an exact
    zero flags both. Each maximal run of flagged points is one component
    (the final point's degenerate cell included), so the count is the
    number of runs.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("grid values must form a nonempty vector")
    if not np.isfinite(v).all():
        raise ValueError("grid values must be finite")

    def runs(f):
        return int(f[0]) + int(np.count_nonzero(f[1:] > f[:-1]))

    return runs(v >= 0.0), runs(v <= 0.0)


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


def _scan_basis(model, resolution):
    """Scan points over the model's domain and basis rows on them.

    Paths of one model share the scan, so the rows are built once per
    (model, resolution); the model is matched by identity. The slot is
    emptied before a new build, so two row matrices are never alive at
    once (about 79 MB each at Chebyshev n=64). Both arrays are read-only.
    """
    key = (model, resolution)
    entry = _scan_basis_slot[0]
    if entry is not None and entry[0] == key:
        return entry[1], entry[2]
    _scan_basis_slot[0] = None
    xs = np.linspace(model.a, model.b, resolution)
    rows = basis_values(model, xs)
    xs.flags.writeable = False
    rows.flags.writeable = False
    _scan_basis_slot[0] = (key, xs, rows)
    return xs, rows


def _scan_threshold(threshold, xs):
    """The threshold's values on the scan points ``xs``, built once.

    A degree-0 threshold is returned as its scalar, which subtracts to
    the same bits as its value array; any other threshold's values are
    kept, read-only, for as long as both the threshold and ``xs`` (both
    matched by identity) stay those of the last call.
    """
    if threshold.coeffs.size == 1:
        return threshold.coeffs[0]
    entry = _scan_threshold_slot[0]
    if entry is not None and entry[0][0] is threshold and entry[0][1] is xs:
        return entry[1]
    _scan_threshold_slot[0] = None
    values = threshold.value(xs)
    values.flags.writeable = False
    _scan_threshold_slot[0] = ((threshold, xs), values)
    return values


def oracle_beta0(path: SamplePath, threshold: ThresholdFn, resolution: int) -> OracleCount:
    """Count components of the true sign sets of u - mu on the domain [a, b].

    The difference is scanned at ``resolution`` equispaced points, as the
    path's coefficients times basis rows that every path of the model
    shares (bit for bit ``path.value``), minus the threshold's values on
    the same points, which are also kept between calls. The zeros are
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
    xs, rows = _scan_basis(path.model, resolution)
    fs = path.coeffs @ rows - _scan_threshold(threshold, xs)
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
