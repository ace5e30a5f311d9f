"""Closed forms and exact values that the tests check the library against.

None of these is called by the package: each gives, by a formula or in
exact rational arithmetic, a value that the package computes from
correlation jets and quadrature.
"""
from fractions import Fraction

import numpy as np

from toposample.errors import NondegeneracyError


def spectral_moment(model, order: int) -> float:
    """sum_k k^(2 order) a_k^2 for the periodic family."""
    if model.family != "periodic":
        raise ValueError("spectral moments are defined for the periodic family")
    k = np.arange(model.amplitudes.size, dtype=float)
    return float(np.sum(k ** (2 * order) * model.amplitudes ** 2))


def periodic_density_closed_form(m0, m1, m2, period, mu_jet) -> float:
    """Sampling density of a stationary trigonometric model, closed form.

    Parameters
    ----------
    m0, m1, m2 : float
        Spectral moments sum_k k^(2j) a_k^2 of the amplitude vector for
        j = 0, 1, 2.
    period : float
        Period length L.
    mu_jet : tuple of float
        (mu, mu', mu'') at the evaluation point.

    The value agrees with :func:`toposample.density_profile` evaluated on
    the periodic model; the spread m0 m2 - m1^2 must be positive, which
    is exactly the nondegeneracy of the derivative covariance.
    """
    mu, dmu, ddmu = (float(v) for v in mu_jet)
    if m0 <= 0.0 or m1 <= 0.0:
        raise NondegeneracyError("spectral moments m0 and m1 must be positive")
    spread = m0 * m2 - m1 * m1
    if spread <= 0.0:
        raise NondegeneracyError(
            "spectral spread m0 m2 - m1^2 must be positive; a single active "
            "frequency has none"
        )
    ll = float(period)
    lead = np.pi ** 2 / (6.0 * ll ** 3) * spread / (m0 ** 1.5 * np.sqrt(m1))
    bend = m1 * mu + m0 * ddmu * ll ** 2 / (4.0 * np.pi ** 2)
    gain = bend * bend / (m0 * spread)
    decay = (m1 * mu * mu + m0 * dmu * dmu * ll ** 2 / (4.0 * np.pi ** 2)) / (
        2.0 * m0 * m1
    )
    return float(lead * (1.0 + gain) * np.exp(-decay))


def binomial_density_closed_form(n: int, x):
    """Sampling density of the binomial monomial family, closed form."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(float(n)) * (n - 1.0) / (24.0 * np.pi * (1.0 + x * x) ** 3)


def binomial_zero_density_closed_form(n: int, x):
    """Zero density of the binomial monomial family, closed form."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(float(n)) / (np.pi * (1.0 + x * x))


def chebyshev_jets_recurrence(n_terms: int, x):
    """Chebyshev T_k, T_k' and T_k'' at x by their three-term recurrences.

    Each row is formed in one expression, as in
    T_k = 2 x T_{k-1} - T_{k-2},
    T_k' = 2 T_{k-1} + 2 x T_{k-1}' - T_{k-2}' and
    T_k'' = 4 T_{k-1}' + 2 x T_{k-1}'' - T_{k-2}'', evaluated left to right.
    """
    x = np.asarray(x, dtype=float)
    b0, b1, b2 = (np.zeros((n_terms, x.size)) for _ in range(3))
    b0[0] = 1.0
    if n_terms > 1:
        b0[1], b1[1] = x, 1.0
    for k in range(2, n_terms):
        b0[k] = 2.0 * x * b0[k - 1] - b0[k - 2]
        b1[k] = 2.0 * b0[k - 1] + 2.0 * x * b1[k - 1] - b1[k - 2]
        b2[k] = 4.0 * b1[k - 1] + 2.0 * x * b2[k - 1] - b2[k - 2]
    return b0, b1, b2


def unit_jet_minors_exact(n: int, x):
    """(minor33, det3) of the unit family's jet at x, in exact rational arithmetic."""
    x = Fraction(x)
    b0 = [x**k for k in range(n + 1)]
    b1 = [k * x ** (k - 1) if k else Fraction(0) for k in range(n + 1)]
    b2 = [k * (k - 1) * x ** (k - 2) if k > 1 else Fraction(0) for k in range(n + 1)]
    (r00, r01, r02), (_, r11, r12), (_, _, r22) = (
        [sum(p * q for p, q in zip(u, v)) for v in (b0, b1, b2)] for u in (b0, b1, b2)
    )
    det3 = r00 * (r11 * r22 - r12 * r12) - r01 * (r01 * r22 - r02 * r12) + r02 * (r01 * r12 - r11 * r02)
    return r00 * r11 - r01 * r01, det3
