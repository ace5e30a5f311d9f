"""Adaptive quadrature and scalar search utilities.

Adaptive Gauss-Kronrod 7-15 integration (Piessens et al., QUADPACK,
1983) with a global error budget and a check of both ends, kept under
the name ``adaptive_simpson`` that perfbench/tracing.py wraps; a
cumulative-integral object that evaluates F(x) = int_a^x f and inverts
it for many targets at once from the Kronrod node values the
integration kept, without calling the integrand again; golden-section
maximization; and bisection for monotone functions.
Integrands must accept numpy arrays, and their value at a point must not
depend on the other points of the call: every integrand call holds at
most ``_POINTS_PER_CALL`` points, so a long pass is split into chunks.
"""
from __future__ import annotations

from functools import cache

import numpy as np

from .errors import NonFiniteDensityError

_MAX_REFINE_PASSES = 60
# refinement floor: a panel this narrow is taken at face value, since
# further halving only chases evaluation noise of the integrand
_MIN_PANEL_FRACTION = 2.0**-26
# hard cap on simultaneously refined panels; smooth integrands stay in
# the hundreds, so hitting this means the estimator is churning on noise
_MAX_ACTIVE_PANELS = 1 << 18
# initial uniform panel count; refinement only subdivides further
_MIN_INTERVALS = 16
# the most points one integrand call evaluates: a density of a large
# family holds a few jet rows of n_terms doubles per point, so this bounds
# the memory of a call whatever the number of active panels
_POINTS_PER_CALL = 1024

# the nonnegative abscissas x_1 > ... > x_7 > x_8 = 0 of the Kronrod
# 15-point rule on [-1, 1] and their weights; the Gauss 7-point rule uses
# x_2, x_4, x_6 and 0, with the weights _GAUSS7_WEIGHTS (QUADPACK's dqk15)
_KRONROD15_NODES = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_KRONROD15_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_GAUSS7_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
# the 15 Kronrod nodes in increasing order, with both rules' weights
_NODES15 = np.concatenate([-_KRONROD15_NODES[:-1], _KRONROD15_NODES[::-1]])
_WEIGHTS15 = np.concatenate([_KRONROD15_WEIGHTS[:-1], _KRONROD15_WEIGHTS[::-1]])
_WEIGHTS7 = np.concatenate([_GAUSS7_WEIGHTS, _GAUSS7_WEIGHTS[-2::-1]])


def _eval(fn, x):
    """``fn`` at every point of ``x``, in calls of at most _POINTS_PER_CALL points."""
    vals = np.empty(x.size)
    for lo in range(0, x.size, _POINTS_PER_CALL):
        vals[lo : lo + _POINTS_PER_CALL] = fn(x[lo : lo + _POINTS_PER_CALL])
    if not np.all(np.isfinite(vals)):
        raise NonFiniteDensityError("integrand returned a non-finite value")
    return vals


def _gauss_kronrod(fn, left, right, extra=()):
    """Kronrod 15-point integrals of each panel, their |K15 - G7| estimates
    and the node values.

    The 15 nodes of every panel, followed by the points ``extra``, go
    through one chunked evaluation; the values at ``extra`` are only
    checked to be finite. Row i of the node values holds f at the 15
    nodes of panel i in increasing order.
    """
    centre = 0.5 * (left + right)
    half = 0.5 * (right - left)
    x = (centre[:, None] + half[:, None] * _NODES15).ravel()
    vals = _eval(fn, np.concatenate([x, extra]))[: x.size].reshape(left.size, 15)
    integ = half * (vals @ _WEIGHTS15)
    return integ, np.abs(integ - half * (vals[:, 1::2] @ _WEIGHTS7)), vals


def adaptive_simpson(fn, a, b, rel_tol=1e-10):
    """Integrate ``fn`` over [a, b] and return (value, panel_table).

    Parameters
    ----------
    fn : callable
        Vectorized integrand mapping an ndarray of abscissas to values.
    a, b : float
        Integration limits with a < b.
    rel_tol : float
        Target relative error of the total integral.

    Returns
    -------
    value : float
    panels : tuple of ndarrays
        (left_edges, right_edges, panel_integrals, node_values) sorted
        by position, where row i of the (panels, 15) array node_values
        holds f at the 15 Kronrod nodes of panel i in increasing order;
        :class:`CumulativeIntegral` evaluates and inverts F from it.

    Despite the name, the rule is adaptive Gauss-Kronrod 7-15: each
    panel's integral is its Kronrod 15-point sum, and |K15 - G7| is its
    error estimate, a pessimistic one since K15 is far more accurate
    than G7. Refinement stops once the summed estimates of all panels
    clear rel_tol |I|; until then each pass halves only the panels whose
    estimate exceeds their width-prorated share of that budget, and
    evaluates the 15 nodes of every new panel in one chunked pass. The
    first pass also evaluates f(a) and f(b), which no Kronrod node
    reaches, so an integrand that is not finite at an end raises
    NonFiniteDensityError. Panels narrower than 2**-26 of the span are
    accepted outright, and refinement ends when more than 2**18 panels
    would be active, which keeps the subdivision finite when an
    integrand is rough at roundoff scale. The name stays because
    perfbench/tracing.py wraps ``adaptive_simpson`` here and in
    ``planner`` to count integrand points and panels.
    """
    if not b > a:
        raise ValueError("integration interval must satisfy a < b")
    span = b - a
    edges = np.linspace(a, b, _MIN_INTERVALS + 1)
    left, right = edges[:-1], edges[1:]
    integ, err, vals = _gauss_kronrod(fn, left, right, extra=(a, b))
    done_l, done_r, done_i, done_v = [], [], [], []
    done_total = done_err = 0.0
    for _ in range(_MAX_REFINE_PASSES):
        budget = rel_tol * abs(done_total + float(np.sum(integ)))
        if done_err + float(np.sum(err)) <= budget:
            break
        width = right - left
        split = (err > budget * width / span) & (width > span * _MIN_PANEL_FRACTION)
        n_split = int(np.count_nonzero(split))
        if n_split == 0 or 2 * n_split > _MAX_ACTIVE_PANELS:
            break
        keep = ~split
        done_l.append(left[keep])
        done_r.append(right[keep])
        done_i.append(integ[keep])
        done_v.append(vals[keep])
        done_total += float(np.sum(integ[keep]))
        done_err += float(np.sum(err[keep]))
        lo, hi = left[split], right[split]
        mid = 0.5 * (lo + hi)
        left, right = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        integ, err, vals = _gauss_kronrod(fn, left, right)
    # panels still active once a budget runs out are taken at face value
    left = np.concatenate([*done_l, left])
    right = np.concatenate([*done_r, right])
    integ = np.concatenate([*done_i, integ])
    vals = np.concatenate([*done_v, vals])
    order = np.argsort(left)
    left, right, integ, vals = left[order], right[order], integ[order], vals[order]
    return float(np.sum(integ)), (left, right, integ, vals)


_INVERSE_XTOL_REL = 1e-13  # of the span b - a
_MAX_NEWTON_STEPS = 100
# the most targets (or query points) one pass of Newton steps holds: a
# pass keeps a few (targets, 16) tables, so this bounds its memory
_TARGETS_PER_BLOCK = 4096
_DEGREES = np.arange(16)


@cache
def _chebyshev_from_values():
    """The 15x15 matrix from a panel's node values to Chebyshev coefficients.

    On a panel [l, r] the coefficients c_k describe the degree-14
    interpolant p = sum_k c_k T_k(sigma) through the 15 node values, in
    the panel coordinate sigma = 1 - 2 (x - l) / (r - l), which runs
    from 1 at the left edge to -1 at the right. The Kronrod rule is
    exact to degree 22, so p integrates over the panel to exactly its
    Kronrod sum. Built on first use.
    """
    sigma = -_NODES15
    return np.linalg.inv(np.cos(np.arccos(sigma)[:, None] * _DEGREES[:15]))


def _antiderivative(c):
    """Coefficients h_1..h_15 of H = sum_k h_k T_k with H' = p, one row per panel.

    h_k = (c_{k-1} - c_{k+1}) / (2k), with c_0 counted twice and
    c_15 = c_16 = 0 (the term-by-term integral of a Chebyshev series).
    """
    padded = np.zeros((c.shape[0], 17))
    padded[:, :15] = c
    padded[:, 0] *= 2.0
    return (padded[:, :15] - padded[:, 2:]) / (2.0 * _DEGREES[1:])


def _interpolant(c, h, left, width, x):
    """(int_left^x p, p(x)) for each row: interpolant p, coefficients c and h.

    Every x lies in its panel [left, left + width], so sigma is in
    [-1, 1]. With phi = arccos(sigma), T_k(sigma) = cos(k phi) and
    phi = 0 at the left edge, so int_left^x p = (width / 2) sum_k h_k
    (1 - cos k phi) is exactly 0 there.
    """
    sigma = 1.0 - 2.0 * (x - left) / width
    cos_k = np.cos(np.arccos(sigma)[:, None] * _DEGREES)
    value = np.einsum("ij,ij->i", cos_k[:, :15], c)
    part = 0.5 * width * np.einsum("ij,ij->i", 1.0 - cos_k[:, 1:], h)
    return part, value


class CumulativeIntegral:
    """Callable F with F(x) = int_a^x f over an accepted panel table.

    F(x) is the prefix sum of the panels left of x plus the integral,
    from the panel's left edge to x, of the degree-14 interpolant
    through the 15 Kronrod node values of the panel that holds x. That
    interpolant integrates over its panel to the panel's Kronrod sum, so
    F equals the prefix sums at the panel edges, up to rounding, and is
    continuous. :meth:`inverse` solves F(x) = t for many targets at once.
    Neither evaluates the integrand: the object holds only the table.
    The arrays it derives are read-only; it holds the panel arrays it is
    given as they are, so ``cumulative_integral``, which owns fresh ones,
    marks them read-only before it hands them over, and one object can
    then serve every caller. ``grid_slot`` is where ``planner.place_grid``
    keeps the last grid it placed by this F, so the grid lives and dies
    with it.
    """

    def __init__(self, a, b, total, panels):
        self.a = float(a)
        self.b = float(b)
        self.total = float(total)
        left, right, integ, vals = panels
        self._left = left
        self._right = right
        self._width = right - left
        self._prefix = np.concatenate([[0.0], np.cumsum(integ)])
        self._values = vals
        for array in (self._width, self._prefix):
            array.flags.writeable = False
        self.grid_slot = [None]

    def _coefficients(self, i):
        """Chebyshev coefficients (c, h) of the interpolants of panels ``i``.

        einsum forms each row alone, where a BLAS product may round a
        row differently with the number of rows, so a point's F does not
        depend on the other points of its query.
        """
        c = np.einsum("ij,kj->ik", self._values[i], _chebyshev_from_values())
        return c, _antiderivative(c)

    def __call__(self, x):
        xs = np.clip(np.asarray(x, dtype=float), self.a, self.b)
        flat = xs.ravel()
        out = np.empty(flat.size)
        for lo in range(0, flat.size, _TARGETS_PER_BLOCK):
            xb = flat[lo : lo + _TARGETS_PER_BLOCK]
            i = np.searchsorted(self._left, xb, side="right") - 1
            i = np.clip(i, 0, self._left.size - 1)
            c, h = self._coefficients(i)
            part, _ = _interpolant(c, h, self._left[i], self._width[i], xb)
            out[lo : lo + xb.size] = self._prefix[i] + part
        out[flat >= self.b] = self.total
        if xs.ndim == 0:
            return float(out[0])
        return out.reshape(xs.shape)

    def inverse(self, targets):
        """Points x with F(x) = t, for a 1-D array of targets in [0, total].

        Each target's panel comes from the prefix sums; inside it,
        Newton steps on F' = p run for a block of targets together, each
        kept in its shrinking bracket by a midpoint step when the Newton
        point leaves it.
        """
        t = np.clip(np.asarray(targets, dtype=float), 0.0, self.total)
        x = np.empty(t.size)
        for lo in range(0, t.size, _TARGETS_PER_BLOCK):
            tb = t[lo : lo + _TARGETS_PER_BLOCK]
            x[lo : lo + tb.size] = self._inverse_block(tb)
        return x

    def _inverse_block(self, t):
        n_panels = self._left.size
        i = np.clip(np.searchsorted(self._prefix, t, side="right") - 1, 0, n_panels - 1)
        c, h = self._coefficients(i)
        base = self._prefix[i]
        left, width = self._left[i], self._width[i]
        lo = left.copy()
        hi = self._right[i]
        mass = self._prefix[i + 1] - base
        frac = np.divide(t - base, mass, out=np.full_like(t, 0.5), where=mass > 0.0)
        x = lo + np.clip(frac, 0.0, 1.0) * width
        xtol = _INVERSE_XTOL_REL * (self.b - self.a)
        todo = np.arange(t.size)
        for _ in range(_MAX_NEWTON_STEPS):
            if todo.size == 0:
                break
            xk = x[todo]
            part, f = _interpolant(c[todo], h[todo], left[todo], width[todo], xk)
            resid = base[todo] + part - t[todo]
            below = resid < 0.0
            lo[todo] = np.where(below, xk, lo[todo])
            hi[todo] = np.where(below, hi[todo], xk)
            l, r = lo[todo], hi[todo]
            # where the interpolant is not positive, the midpoint step is taken
            step = xk - np.divide(resid, f, out=np.full_like(f, np.inf), where=f > 0.0)
            # closed bracket: the update above may have moved an end onto
            # the converged point, which must still be accepted
            step = np.where((l <= step) & (step <= r), step, 0.5 * (l + r))
            x[todo] = step
            done = (np.abs(step - xk) <= xtol) | (r - l <= xtol)
            todo = todo[~done]
        return x


def cumulative_integral(fn, a, b):
    """Return (total, F), F a :class:`CumulativeIntegral`, at rel_tol 1e-10.

    The panel arrays are fresh from the integral and nobody else holds
    them, so they are marked read-only here: every array of F is.
    """
    total, panels = adaptive_simpson(fn, a, b)
    for array in panels:
        array.flags.writeable = False
    return total, CumulativeIntegral(a, b, total, panels)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_XTOL = 1e-10
_GOLDEN_SCAN_POINTS = 1001


def golden_max(fn, a, b):
    """Locate the maximum of ``fn`` on [a, b].

    A 1001-point scan brackets the best abscissa, then golden-section
    search refines the bracket to 1e-10. Returns (argmax, max_value).
    """
    xs = np.linspace(a, b, _GOLDEN_SCAN_POINTS)
    vals = np.asarray(fn(xs), dtype=float)
    k = int(np.argmax(vals))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, _GOLDEN_SCAN_POINTS - 1)]
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = float(fn(np.array([x1]))[0])
    f2 = float(fn(np.array([x2]))[0])
    while hi - lo > _GOLDEN_XTOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = float(fn(np.array([x2]))[0])
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = float(fn(np.array([x1]))[0])
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    if float(vals[k]) > best_f:
        return float(xs[k]), float(vals[k])
    return float(best_x), float(best_f)


def bisect_increasing(g, lo, hi, xtol=1e-12):
    """Root of a nondecreasing function with g(lo) <= 0 <= g(hi)."""
    if g(lo) > 0 or g(hi) < 0:
        raise ValueError("bisection bracket does not straddle the root")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
