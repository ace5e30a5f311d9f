"""Adaptive quadrature and scalar search utilities.

Adaptive Gauss-Kronrod 7-15 integration (Piessens et al., QUADPACK,
1983) with a global error budget and a check of both ends, kept under
the name ``adaptive_simpson`` that perfbench/tracing.py wraps; a
cumulative-integral object that evaluates F(x) = int_a^x f and inverts
it for many targets at once; golden-section maximization; and bisection
for monotone functions.
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


def _eval(fn, x):
    """``fn`` at every point of ``x``, in calls of at most _POINTS_PER_CALL points."""
    vals = np.empty(x.size)
    for lo in range(0, x.size, _POINTS_PER_CALL):
        vals[lo : lo + _POINTS_PER_CALL] = fn(x[lo : lo + _POINTS_PER_CALL])
    if not np.all(np.isfinite(vals)):
        raise NonFiniteDensityError("integrand returned a non-finite value")
    return vals


def _gauss_kronrod(fn, left, right, extra=()):
    """Kronrod 15-point integrals of each panel and their |K15 - G7| estimates.

    The 15 nodes of every panel, followed by the points ``extra``, go
    through one chunked evaluation; the values at ``extra`` are only
    checked to be finite.
    """
    nodes = np.concatenate([-_KRONROD15_NODES[:-1], _KRONROD15_NODES[::-1]])
    kronrod = np.concatenate([_KRONROD15_WEIGHTS[:-1], _KRONROD15_WEIGHTS[::-1]])
    gauss = np.concatenate([_GAUSS7_WEIGHTS, _GAUSS7_WEIGHTS[-2::-1]])
    centre = 0.5 * (left + right)
    half = 0.5 * (right - left)
    x = (centre[:, None] + half[:, None] * nodes).ravel()
    vals = _eval(fn, np.concatenate([x, extra]))[: x.size].reshape(left.size, 15)
    integ = half * (vals @ kronrod)
    return integ, np.abs(integ - half * (vals[:, 1::2] @ gauss))


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
        (left_edges, right_edges, panel_integrals) sorted by position,
        reusable for cumulative queries.

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
    integ, err = _gauss_kronrod(fn, left, right, extra=(a, b))
    done_l, done_r, done_i = [], [], []
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
        done_total += float(np.sum(integ[keep]))
        done_err += float(np.sum(err[keep]))
        lo, hi = left[split], right[split]
        mid = 0.5 * (lo + hi)
        left, right = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        integ, err = _gauss_kronrod(fn, left, right)
    # panels still active once a budget runs out are taken at face value
    left = np.concatenate([*done_l, left])
    right = np.concatenate([*done_r, right])
    integ = np.concatenate([*done_i, integ])
    order = np.argsort(left)
    left, right, integ = left[order], right[order], integ[order]
    return float(np.sum(integ)), (left, right, integ)


_INVERSE_XTOL_REL = 1e-13  # of the span b - a
_MAX_NEWTON_STEPS = 100


@cache
def _gauss_legendre():
    """Node positions in [0, 1] and half weights of the 8-node rule.

    The rule for a partial integral inside one accepted panel; 8 nodes
    integrate degree 15 exactly, one degree beyond the Gauss 7-point rule
    whose gap to the Kronrod sum bounded the panel's error.
    Built on first use, so importing the package does not import
    numpy.polynomial.
    """
    nodes, weights = np.polynomial.legendre.leggauss(8)
    return 0.5 * (nodes + 1.0), 0.5 * weights


class CumulativeIntegral:
    """Callable F with F(x) = int_a^x f over an accepted panel table.

    F(x) is the prefix sum of the panels left of x plus an 8-node
    Gauss-Legendre rule on [left_i, x] inside the panel i that holds x.
    :meth:`inverse` solves F(x) = t for many targets at once.
    """

    def __init__(self, fn, a, b, total, panels):
        self.fn = fn
        self.a = float(a)
        self.b = float(b)
        self.total = float(total)
        left, right, integ = panels
        self._left = left
        self._right = right
        self._prefix = np.concatenate([[0.0], np.cumsum(integ)])

    def _partial(self, i, x):
        """(int_{left_i}^x f, f(x)) for each pair (i, x), in one integrand call."""
        fractions, half_weights = _gauss_legendre()
        lo = self._left[i]
        h = x - lo
        nodes = lo[:, None] + h[:, None] * fractions
        vals = _eval(self.fn, np.concatenate([nodes.ravel(), x]))
        part = h * (vals[:-x.size].reshape(nodes.shape) @ half_weights)
        return part, vals[-x.size:]

    def __call__(self, x):
        xs = np.clip(np.asarray(x, dtype=float), self.a, self.b)
        flat = xs.ravel()
        i = np.searchsorted(self._left, flat, side="right") - 1
        i = np.clip(i, 0, self._left.size - 1)
        out = self._prefix[i] + self._partial(i, flat)[0]
        out[flat >= self.b] = self.total
        if xs.ndim == 0:
            return float(out[0])
        return out.reshape(xs.shape)

    def inverse(self, targets):
        """Points x with F(x) = t, for a 1-D array of targets in [0, total].

        Each target's panel comes from the prefix sums; inside it,
        Newton steps on F' = f run for all targets together, each kept
        in its shrinking bracket by a midpoint step when the Newton point
        leaves it.
        """
        t = np.clip(np.asarray(targets, dtype=float), 0.0, self.total)
        n_panels = self._left.size
        i = np.clip(np.searchsorted(self._prefix, t, side="right") - 1, 0, n_panels - 1)
        base = self._prefix[i]
        lo = self._left[i]
        hi = self._right[i]
        mass = self._prefix[i + 1] - base
        frac = np.divide(t - base, mass, out=np.full_like(t, 0.5), where=mass > 0.0)
        x = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)
        xtol = _INVERSE_XTOL_REL * (self.b - self.a)
        todo = np.arange(t.size)
        for _ in range(_MAX_NEWTON_STEPS):
            if todo.size == 0:
                break
            xk = x[todo]
            part, f = self._partial(i[todo], xk)
            resid = base[todo] + part - t[todo]
            below = resid < 0.0
            lo[todo] = np.where(below, xk, lo[todo])
            hi[todo] = np.where(below, hi[todo], xk)
            l, h = lo[todo], hi[todo]
            with np.errstate(divide="ignore", invalid="ignore"):
                step = xk - resid / f
            # closed bracket: the update above may have moved an end onto
            # the converged point, which must still be accepted
            step = np.where((l <= step) & (step <= h), step, 0.5 * (l + h))
            x[todo] = step
            done = (np.abs(step - xk) <= xtol) | (h - l <= xtol)
            todo = todo[~done]
        return x


def cumulative_integral(fn, a, b):
    """Return (total, F), F a :class:`CumulativeIntegral`, at rel_tol 1e-10."""
    total, panels = adaptive_simpson(fn, a, b)
    return total, CumulativeIntegral(fn, a, b, total, panels)


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
