"""Local sampling density and zero density of a Gaussian process.

The central object is the rate at which a sampled path can change its
finite topology between two nearby points: the probability that a path
crosses the threshold level twice inside a window of width d scales like
d^3, and the coefficient of that law is what we call the sampling
density here. Its cube root tells a planner where grid points pay off.
The companion quantity is the classical first-moment density of
threshold crossings, whose integral is the expected zero count.

All formulas consume the diagonal correlation jet of
:mod:`toposample.fields` together with the local jet (mu, mu', mu'') of
the threshold function.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NondegeneracyError, NonFiniteDensityError
from .fields import FieldModel, ThresholdFn, jet_tables

_PREFACTOR = 1.0 / (48.0 * np.pi)
# fraction of the two-crossing rate that flips a sign pattern
_CROSSOVER_FRACTION = 0.75


@dataclass(frozen=True)
class DensityProfile:
    """Sampling density along a grid of points, with its factors split out.

    ``density`` is the d^3-rate coefficient itself. ``threshold_gain``
    (polynomial correction where the threshold bends relative to the
    process) and ``threshold_decay`` (Gaussian exponent suppressing
    unlikely levels) combine into ``threshold_factor`` = (1 + gain)
    exp(-decay), which is 1 for a zero threshold. ``crossover_rate`` is
    3/4 of ``density``, the coefficient of the sign-pattern flip
    probability. ``zero_density`` is the first-moment density of zeros,
    threshold level ignored.
    """

    x: np.ndarray
    density: np.ndarray
    threshold_gain: np.ndarray
    threshold_decay: np.ndarray
    threshold_factor: np.ndarray
    crossover_rate: np.ndarray
    zero_density: np.ndarray
    nondegenerate: np.ndarray


def _require_finite(finite, x, what):
    """Raise NonFiniteDensityError at the first point where ``finite`` is False."""
    if not np.all(finite):
        bad = float(x[np.argmin(finite)])
        raise NonFiniteDensityError(
            f"{what} is not finite at x={bad:g}; it overflows double precision"
        )


def _zero_density(x, t):
    """Zero density column of a jet table; NaN where the (u, u') block is singular.

    A point is singular only where minor33, and with it r00, r10 and r11,
    is finite; any other non-finite value raises.
    """
    r00, r11, m33 = t["r00"], t["r11"], t["minor33"]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        zero_dens = np.sqrt(np.clip(m33, 0.0, None)) / (np.pi * r00)
        zero_ok = (r00 > 0.0) & (m33 > -1e-12 * r00 * r11)
    _require_finite(np.isfinite(np.where(zero_ok, zero_dens, m33)), x, "zero density")
    return np.where(zero_ok, zero_dens, np.nan)


def zero_density(model: FieldModel, x) -> np.ndarray:
    """First-moment density of zeros at each point of ``x``.

    The ``zero_density`` column of :func:`density_profile`, bit for bit,
    from the first-order jet alone: no second derivative is formed, and
    the sampling density's jet, which may overflow where this one does
    not, is never read.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _zero_density(x, jet_tables(model, x, order=1))


def density_profile(
    model: FieldModel, threshold: ThresholdFn, x, strict: bool = False
) -> DensityProfile:
    """Evaluate the density breakdown on an array of points.

    Degenerate points get NaN densities and a False flag; with
    ``strict`` they raise instead, which makes
    ``density_profile(model, threshold, x, strict=True).density[0]`` the
    checked value at a single point. The zero density column is filled
    wherever the (u, u') block allows it. A point is degenerate only
    where the jet entries its test reads are finite; any other
    non-finite value, such as a jet that overflows double precision,
    raises NonFiniteDensityError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = jet_tables(model, x)
    ok = t["nondegenerate"]
    r00, r10 = t["r00"], t["r10"]
    m33, m32, m31, det3 = t["minor33"], t["minor32"], t["minor31"], t["det3"]
    mu, dmu, ddmu = threshold.jet(x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = np.sqrt(m33) ** 3
        base = _PREFACTOR * det3 / scale
        shift = m31 * mu - m32 * dmu + m33 * ddmu
        gain = shift * shift / (m33 * det3)
        slope_term = r10 * mu - r00 * dmu
        decay = (slope_term * slope_term + m33 * mu * mu) / (2.0 * r00 * m33)
        factor = (1.0 + gain) * np.exp(-decay)
        dens = base * factor
    # a point is degenerate only where the entries its mask reads are
    # finite: minor33 and det3, whose finiteness implies every rkl's. A
    # nondegenerate point also needs minor33^1.5 finite: det3 can stay
    # finite where it overflows, and det3 / inf would read as density 0
    finite = np.isfinite(np.where(ok, dens, det3)) & np.isfinite(np.where(ok, scale, m33))
    _require_finite(finite, x, "sampling density")
    if strict and not np.all(ok):
        bad = float(x[np.argmin(ok)])
        raise NondegeneracyError(
            f"derivative covariance is singular at x={bad:g}", x=bad
        )
    dens = np.where(ok, dens, np.nan)
    gain = np.where(ok, gain, np.nan)
    decay = np.where(ok, decay, np.nan)
    factor = np.where(ok, factor, np.nan)
    zero_dens = _zero_density(x, t)
    return DensityProfile(
        x, dens, gain, decay, factor, _CROSSOVER_FRACTION * dens, zero_dens, ok
    )
