"""Adaptive quadrature and scalar search utilities.

Composite Simpson integration with per-panel adaptive refinement, a
cumulative-integral object that evaluates F(x) = int_a^x f and inverts
it for many targets at once, golden-section maximization, and bisection
for monotone functions. Integrands must accept numpy arrays.
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


def _simpson(width, fl, fm, fr):
    return width * (fl + 4.0 * fm + fr) / 6.0


def _eval(fn, x):
    vals = np.asarray(fn(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteDensityError("integrand returned a non-finite value")
    return vals


def adaptive_simpson(fn, a, b, rel_tol=1e-10, min_intervals=64):
    """Integrate ``fn`` over [a, b] and return (value, panel_table).

    Parameters
    ----------
    fn : callable
        Vectorized integrand mapping an ndarray of abscissas to values.
    a, b : float
        Integration limits with a < b.
    rel_tol : float
        Target relative error of the total integral.
    min_intervals : int
        Initial uniform panel count; refinement only subdivides further.

    Returns
    -------
    value : float
    panels : tuple of ndarrays
        (left_edges, right_edges, panel_integrals) sorted by position,
        reusable for cumulative queries.

    The per-panel error estimate is the standard Richardson comparison of
    one against two Simpson steps; a panel is accepted once the estimate
    drops below the tolerance prorated by panel width. Panels narrower
    than 2**-26 of the span are accepted outright, which keeps the
    subdivision finite when an integrand is rough at roundoff scale.
    """
    if not b > a:
        raise ValueError("integration interval must satisfy a < b")
    edges = np.linspace(a, b, min_intervals + 1)
    xl, xr = edges[:-1], edges[1:]
    sample = np.concatenate([xl, 0.5 * (xl + xr), [b]])
    vals = _eval(fn, sample)
    fl = vals[:min_intervals]
    fm = vals[min_intervals:2 * min_intervals]
    fr = np.concatenate([fl[1:], vals[-1:]])
    s0 = _simpson(xr - xl, fl, fm, fr)

    total_scale = max(abs(float(np.sum(s0))), 1e-300)
    span = b - a
    done_l, done_r, done_i = [], [], []
    active = (xl, xr, fl, fm, fr, s0)
    for _ in range(_MAX_REFINE_PASSES):
        xl, xr, fl, fm, fr, s = active
        if xl.size == 0:
            break
        mid = 0.5 * (xl + xr)
        fnew = _eval(fn, np.concatenate([0.5 * (xl + mid), 0.5 * (mid + xr)]))
        flm, frm = fnew[:xl.size], fnew[xl.size:]
        half = 0.5 * (xr - xl)
        s_left = _simpson(half, fl, flm, fm)
        s_right = _simpson(half, fm, frm, fr)
        err = (s_left + s_right - s) / 15.0
        ok = np.abs(err) <= rel_tol * total_scale * (xr - xl) / span
        ok |= (xr - xl) <= span * _MIN_PANEL_FRACTION
        if np.any(ok):
            done_l.append(xl[ok])
            done_r.append(xr[ok])
            done_i.append((s_left + s_right + err)[ok])
        bad = ~ok
        active = (
            np.concatenate([xl[bad], mid[bad]]),
            np.concatenate([mid[bad], xr[bad]]),
            np.concatenate([fl[bad], fm[bad]]),
            np.concatenate([flm[bad], frm[bad]]),
            np.concatenate([fm[bad], fr[bad]]),
            np.concatenate([s_left[bad], s_right[bad]]),
        )
        # keep the running scale current so prorated tolerances track it
        total_scale = max(
            abs(float(sum(np.sum(d) for d in done_i) + np.sum(active[5]))), 1e-300
        )
        if active[0].size > _MAX_ACTIVE_PANELS:
            break
    # panels still active once a budget runs out are taken at face value
    if active[0].size:
        done_l.append(active[0])
        done_r.append(active[1])
        done_i.append(active[5])
    left = np.concatenate(done_l)
    right = np.concatenate(done_r)
    integ = np.concatenate(done_i)
    order = np.argsort(left)
    left, right, integ = left[order], right[order], integ[order]
    return float(np.sum(integ)), (left, right, integ)


_INVERSE_XTOL_REL = 1e-13  # of the span b - a
_MAX_NEWTON_STEPS = 100


@cache
def _gauss_legendre():
    """Node positions in [0, 1] and half weights of the 8-node rule.

    The rule for a partial integral inside one accepted panel; 8 nodes
    integrate degree 15 exactly, far past the panel's Simpson tolerance.
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


def cumulative_integral(fn, a, b, rel_tol=1e-10, min_intervals=64):
    """Return (total, F) where F is a :class:`CumulativeIntegral`."""
    total, panels = adaptive_simpson(
        fn, a, b, rel_tol=rel_tol, min_intervals=min_intervals
    )
    return total, CumulativeIntegral(fn, a, b, total, panels)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, a, b, xtol=1e-10, scan_points=1001):
    """Locate the maximum of ``fn`` on [a, b].

    A dense scan brackets the best abscissa, then golden-section search
    refines the bracket to ``xtol``. Returns (argmax, max_value).
    """
    xs = np.linspace(a, b, scan_points)
    vals = np.asarray(fn(xs), dtype=float)
    k = int(np.argmax(vals))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, scan_points - 1)]
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = float(fn(np.array([x1]))[0])
    f2 = float(fn(np.array([x2]))[0])
    while hi - lo > xtol:
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
