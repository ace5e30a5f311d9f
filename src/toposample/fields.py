"""Gaussian random process models on a compact interval.

A process is a finite random series

    u(x) = sum_k g_k phi_k(x),

where the basis functions phi_k are deterministic and twice
differentiable and the coefficient vector g is centered Gaussian with a
diagonal or full covariance matrix. Everything downstream works through
the spatial correlation function R(x, y) = E[u(x) u(y)] and its
derivative jet on the diagonal, so this module is the only place that
knows how individual basis families are evaluated.

Built-in families
-----------------
``chebyshev``
    Degree-k Chebyshev polynomials of the first kind on [-1, 1], unit
    coefficient variances.
``cosine``
    cos(k pi x) on [0, 1], unit coefficient variances.
``periodic``
    Constant, cosine, and sine waves of periods L/k on [0, L]; the
    amplitude vector (a_0, ..., a_K) gives both matching trigonometric
    terms of index k the variance a_k^2, which makes the process
    stationary.
``binomial``
    Monomials x^k on [-3, 3] with binomial variances binom(N, k), so
    that R(x, y) = (1 + x y)^N.
``unit``
    Monomials x^k on [-3, 3] with unit variances.
``custom``
    A user-supplied table of (value, derivative, second derivative)
    callables together with an explicit domain.

Sampling is reproducible: a path is a pure function of the model, a
64-bit seed, and a stream index, independent of platform and of any
parallel execution schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FactorizationError

FAMILIES = ("chebyshev", "cosine", "periodic", "binomial", "unit", "custom")

# relative slack for domain membership checks
_DOMAIN_TOL = 1e-9
# positive-semidefiniteness tolerance, relative to the largest variance
_PSD_TOL = 1e-12
# singularity threshold for the derivative covariance minors, relative
# to their natural scale
_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FieldModel:
    """Immutable description of a Gaussian process.

    Attributes
    ----------
    family : str
        One of :data:`FAMILIES`.
    n_terms : int
        Number of basis functions in the series.
    domain : tuple of float
        Closed interval (a, b) on which the process lives.
    variances : ndarray or None
        Diagonal coefficient covariance. Exactly one of ``variances``
        and ``covariance`` is set.
    covariance : ndarray or None
        Full symmetric coefficient covariance.
    period : float or None
        Length L for the periodic family.
    amplitudes : ndarray or None
        Amplitude vector (a_0, ..., a_K) for the periodic family.
    basis_table : tuple or None
        For the custom family, a sequence of (f, df, ddf) callables.
    """

    family: str
    n_terms: int
    domain: tuple[float, float]
    variances: np.ndarray | None = None
    covariance: np.ndarray | None = None
    period: float | None = None
    amplitudes: np.ndarray | None = None
    basis_table: tuple | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "domain", tuple(float(v) for v in self.domain))
        if self.variances is not None:
            object.__setattr__(
                self, "variances", np.atleast_1d(np.asarray(self.variances, float))
            )
        if self.covariance is not None:
            object.__setattr__(
                self, "covariance", np.asarray(self.covariance, dtype=float)
            )
        a, b = self.domain
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError("domain must be a finite interval with a < b")
        if self.n_terms < 1:
            raise ValueError("at least one basis term is required")
        if (self.variances is None) == (self.covariance is None):
            raise ValueError("exactly one of variances/covariance is required")
        coefficient_cov = self.variances if self.covariance is None else self.covariance
        if not np.all(np.isfinite(coefficient_cov)):
            raise ValueError("coefficient variances and covariance must be finite")
        if self.variances is not None and self.variances.shape != (self.n_terms,):
            raise ValueError("variance vector length must equal n_terms")
        if self.covariance is not None:
            if self.covariance.shape != (self.n_terms, self.n_terms):
                raise ValueError("covariance must be n_terms x n_terms")
            sym_gap = np.max(np.abs(self.covariance - self.covariance.T))
            if sym_gap > _PSD_TOL * max(1.0, np.max(np.abs(self.covariance))):
                raise FactorizationError("coefficient covariance is not symmetric")
        self._factor  # fail fast on indefinite covariances

    @property
    def a(self) -> float:
        return self.domain[0]

    @property
    def b(self) -> float:
        return self.domain[1]

    @cached_property
    def _factor(self) -> np.ndarray:
        """Matrix L with L L^T equal to the coefficient covariance."""
        if self.variances is not None:
            v = np.asarray(self.variances, dtype=float)
            tol = _PSD_TOL * max(float(np.max(v, initial=0.0)), 1.0)
            if np.any(v < -tol):
                raise FactorizationError("negative coefficient variance")
            return np.sqrt(np.clip(v, 0.0, None))
        w, vecs = np.linalg.eigh(self.covariance)
        tol = _PSD_TOL * max(float(np.max(np.diag(self.covariance))), 1.0)
        if w[0] < -tol:
            raise FactorizationError(
                f"coefficient covariance has eigenvalue {w[0]:.3e} below zero"
            )
        return vecs * np.sqrt(np.clip(w, 0.0, None))

    def _check_domain(self, x: np.ndarray):
        a, b = self.domain
        slack = _DOMAIN_TOL * (b - a)
        if x.size and (x.min() < a - slack or x.max() > b + slack):
            raise ValueError(f"point outside the model domain [{a}, {b}]")


def chebyshev_model(n: int) -> FieldModel:
    """Chebyshev family truncated at degree ``n``."""
    return FieldModel("chebyshev", n + 1, (-1.0, 1.0), variances=np.ones(n + 1))


def cosine_model(n: int) -> FieldModel:
    """Half-period cosine family truncated at frequency ``n``."""
    return FieldModel("cosine", n + 1, (0.0, 1.0), variances=np.ones(n + 1))


def periodic_model(amplitudes, period: float = 1.0) -> FieldModel:
    """Stationary trigonometric family on [0, period].

    ``amplitudes`` lists a_0 through a_K; entry k scales both the cosine
    and the sine wave of frequency k. At least one entry must be
    nonzero, and at least two are needed for the sampling density to be
    defined (a single active frequency makes the derivative covariance
    singular).
    """
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    if period <= 0:
        raise ValueError("period must be positive")
    if amps.ndim != 1 or amps.size < 1:
        raise ValueError("amplitudes must be a nonempty vector")
    if not np.any(amps != 0.0):
        raise ValueError("at least one amplitude must be nonzero")
    n_terms = 2 * amps.size - 1
    variances = np.empty(n_terms)
    variances[0] = amps[0] ** 2
    variances[1::2] = amps[1:] ** 2
    variances[2::2] = amps[1:] ** 2
    return FieldModel(
        "periodic",
        n_terms,
        (0.0, float(period)),
        variances=variances,
        period=float(period),
        amplitudes=amps,
    )


def binomial_model(n: int) -> FieldModel:
    """Monomial family with binomial variances, R(x, y) = (1 + xy)^n."""
    variances = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    return FieldModel("binomial", n + 1, (-3.0, 3.0), variances=variances)


def unit_model(n: int) -> FieldModel:
    """Monomial family with unit variances on [-3, 3]."""
    return FieldModel("unit", n + 1, (-3.0, 3.0), variances=np.ones(n + 1))


# builders of the families fixed by one truncation order n
FAMILY_BUILDERS = {
    "chebyshev": chebyshev_model,
    "cosine": cosine_model,
    "binomial": binomial_model,
    "unit": unit_model,
}


def custom_model(basis_table, domain, variances=None, covariance=None) -> FieldModel:
    """Model over a user-supplied basis.

    ``basis_table`` is a sequence of (f, df, ddf) triples of vectorized
    callables. When neither variances nor covariance is given the
    coefficients default to unit variance.
    """
    table = tuple(tuple(entry) for entry in basis_table)
    if any(len(entry) != 3 for entry in table):
        raise ValueError("each basis entry must be (value, d1, d2)")
    if variances is None and covariance is None:
        variances = np.ones(len(table))
    return FieldModel(
        "custom",
        len(table),
        (float(domain[0]), float(domain[1])),
        variances=None if variances is None else np.asarray(variances, dtype=float),
        covariance=None if covariance is None else np.asarray(covariance, dtype=float),
        basis_table=table,
    )


# Each family has a value function (model, x) -> rows and a derivative
# function (model, x, rows) -> (first, second) that reuses the value rows,
# so value-only callers skip the derivative work.


def _monomial_values(model, x):
    k = np.arange(model.n_terms, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return x[None, :] ** k


def _monomial_derivatives(model, x, b0):
    k = np.arange(model.n_terms, dtype=float)[:, None]
    b1 = np.zeros_like(b0)
    b2 = np.zeros_like(b0)
    if model.n_terms > 1:
        b1[1:] = k[1:] * x[None, :] ** (k[1:] - 1.0)
    if model.n_terms > 2:
        b2[2:] = k[2:] * (k[2:] - 1.0) * x[None, :] ** (k[2:] - 2.0)
    return b1, b2


def _chebyshev_values(model, x):
    b0 = np.empty((model.n_terms, x.size))
    b0[0] = 1.0
    if model.n_terms > 1:
        b0[1] = x
    for k in range(2, model.n_terms):
        b0[k] = 2.0 * x * b0[k - 1] - b0[k - 2]
    return b0


def _chebyshev_derivatives(model, x, b0):
    # three-term recurrences for T_k' and T_k''; finite at the endpoints,
    # unlike differentiating cos(k arccos x)
    b1 = np.empty_like(b0)
    b2 = np.empty_like(b0)
    b1[0], b2[0] = 0.0, 0.0
    if model.n_terms > 1:
        b1[1], b2[1] = 1.0, 0.0
    for k in range(2, model.n_terms):
        b1[k] = 2.0 * b0[k - 1] + 2.0 * x * b1[k - 1] - b1[k - 2]
        b2[k] = 4.0 * b1[k - 1] + 2.0 * x * b2[k - 1] - b2[k - 2]
    return b1, b2


def _reduce_half_turns(t):
    # t = n + r with integer n and |r| <= 1/2; returns ((-1)^n, pi r), so
    # that sin(pi t) and cos(pi t) come out with exact range reduction and
    # integer t yields exact zeros; naive sin(pi * t) leaves O(eps * t)
    # residue that poisons degeneracy detection at domain endpoints
    n = np.rint(t)
    parity = n - 2.0 * np.floor(0.5 * n)  # 0 or 1, exact for integer n
    return 1.0 - 2.0 * parity, np.pi * (t - n)


def _cosine_values(model, x):
    k = np.arange(model.n_terms, dtype=float)[:, None]
    sign, angle = _reduce_half_turns(k * x[None, :])
    return sign * np.cos(angle)


def _cosine_derivatives(model, x, b0):
    k = np.arange(model.n_terms, dtype=float)[:, None]
    w = k * np.pi
    sign, angle = _reduce_half_turns(k * x[None, :])
    return -w * (sign * np.sin(angle)), -(w ** 2) * b0


def _periodic_values(model, x):
    # rows: 1, then the cosine and sine waves of each frequency k >= 1
    b0 = np.empty((model.n_terms, x.size))
    b0[0] = 1.0
    tx = x / model.period
    for k in range(1, (model.n_terms + 1) // 2):
        sign, angle = _reduce_half_turns((2.0 * k) * tx)
        b0[2 * k - 1] = sign * np.cos(angle)
        b0[2 * k] = sign * np.sin(angle)
    return b0


def _periodic_derivatives(model, x, b0):
    b1 = np.empty_like(b0)
    b2 = np.empty_like(b0)
    b1[0], b2[0] = 0.0, 0.0
    for k in range(1, (model.n_terms + 1) // 2):
        w = 2.0 * np.pi * k / model.period
        i = 2 * k - 1
        c, s = b0[i], b0[i + 1]
        b1[i], b2[i] = -w * s, -(w ** 2) * c
        b1[i + 1], b2[i + 1] = w * c, -(w ** 2) * s
    return b1, b2


def _custom_values(model, x):
    b0 = np.empty((model.n_terms, x.size))
    for k, (f, _, _) in enumerate(model.basis_table):
        b0[k] = f(x)
    return b0


def _custom_derivatives(model, x, b0):
    b1 = np.empty_like(b0)
    b2 = np.empty_like(b0)
    for k, (_, df, ddf) in enumerate(model.basis_table):
        b1[k] = df(x)
        b2[k] = ddf(x)
    return b1, b2


_BASIS_ROWS = {
    "chebyshev": (_chebyshev_values, _chebyshev_derivatives),
    "cosine": (_cosine_values, _cosine_derivatives),
    "periodic": (_periodic_values, _periodic_derivatives),
    "binomial": (_monomial_values, _monomial_derivatives),
    "unit": (_monomial_values, _monomial_derivatives),
    "custom": (_custom_values, _custom_derivatives),
}


def _domain_points(model, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    model._check_domain(x)
    return x


def basis_values(model: FieldModel, x) -> np.ndarray:
    """Values of every basis function, shape (n_terms, len(x)).

    The first array of :func:`basis_jets`, without the derivative work.
    """
    x = _domain_points(model, x)
    return _BASIS_ROWS[model.family][0](model, x)


def basis_jets(model: FieldModel, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, first, and second derivatives of every basis function.

    Returns three arrays of shape (n_terms, len(x)).
    """
    x = _domain_points(model, x)
    values, derivatives = _BASIS_ROWS[model.family]
    b0 = values(model, x)
    return (b0, *derivatives(model, x, b0))


def _pair_contract(model, left, right):
    """sum_ij cov_ij left_i right_j for each column."""
    if model.variances is not None:
        return np.einsum("km,k,km->m", left, model.variances, right)
    return np.einsum("im,ij,jm->m", left, model.covariance, right)


def correlation(model: FieldModel, x, y):
    """Spatial correlation R(x, y) = E[u(x) u(y)].

    ``x`` and ``y`` broadcast elementwise; scalars give a float.
    """
    scalar = np.isscalar(x) and np.isscalar(y)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x, y = np.broadcast_arrays(x, y)
    bx = basis_values(model, x.ravel())
    by = basis_values(model, y.ravel())
    out = _pair_contract(model, bx, by).reshape(x.shape)
    return float(out[0]) if scalar else out


# entries of a large family may overflow to inf or NaN; the density code
# tells such points from degenerate ones
@np.errstate(over="ignore", invalid="ignore")
def jet_tables(model: FieldModel, x) -> dict[str, np.ndarray]:
    """Diagonal derivative jet of the correlation function at each point.

    ``rkl`` is the covariance of the k-th and l-th spatial derivatives
    of the process at ``x``. The three 2x2 minors and the full 3x3
    determinant of the symmetric matrix

        [[r00, r10, r20],
         [r10, r11, r21],
         [r20, r21, r22]]

    are included because every density formula is built from them, and
    ``nondegenerate`` flags the points where (u, u') and (u, u', u'')
    are jointly nonsingular. Returns a dict of arrays, one entry per
    point of ``x``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b0, b1, b2 = basis_jets(model, x)
    r00 = _pair_contract(model, b0, b0)
    r10 = _pair_contract(model, b1, b0)
    r11 = _pair_contract(model, b1, b1)
    r20 = _pair_contract(model, b2, b0)
    r21 = _pair_contract(model, b2, b1)
    r22 = _pair_contract(model, b2, b2)
    minor33 = r00 * r11 - r10 * r10
    minor32 = r00 * r21 - r10 * r20
    minor31 = r10 * r21 - r11 * r20
    det3 = (
        r00 * (r11 * r22 - r21 * r21)
        - r10 * (r10 * r22 - r20 * r21)
        + r20 * (r10 * r21 - r11 * r20)
    )
    ok = (
        (r00 > 0.0)
        & (minor33 > _DEGENERACY_TOL * r00 * r11)
        & (det3 > _DEGENERACY_TOL * r00 * r11 * r22)
    )
    return {
        "x": x,
        "r00": r00,
        "r10": r10,
        "r11": r11,
        "r20": r20,
        "r21": r21,
        "r22": r22,
        "minor33": minor33,
        "minor32": minor32,
        "minor31": minor31,
        "det3": det3,
        "nondegenerate": ok,
    }


def spectral_moment(model: FieldModel, order: int) -> float:
    """sum_k k^(2 order) a_k^2 for the periodic family."""
    if model.family != "periodic":
        raise ValueError("spectral moments are defined for the periodic family")
    k = np.arange(model.amplitudes.size, dtype=float)
    return float(np.sum(k ** (2 * order) * model.amplitudes ** 2))


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One realization of a model: the drawn coefficient vector."""

    model: FieldModel
    coeffs: np.ndarray

    def value(self, x):
        scalar = np.isscalar(x)
        out = self.coeffs @ basis_values(self.model, x)
        return float(out[0]) if scalar else out


def coefficient_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream).

    Distinct streams are independent, and the draw for a given pair does
    not depend on evaluation order, which keeps parallel trial loops
    schedule-invariant. Seed and stream must lie in [0, 2^64), so that
    no two pairs share a generator; anything else raises ValueError.
    """
    for name, v in (("seed", seed), ("stream", stream)):
        if not 0 <= v < 2**64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {v}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_path(model: FieldModel, seed: int, stream: int = 0) -> SamplePath:
    """Draw one path. Identical (model, seed, stream) gives identical coefficients."""
    z = coefficient_rng(seed, stream).standard_normal(model.n_terms)
    factor = model._factor
    coeffs = factor * z if factor.ndim == 1 else factor @ z
    return SamplePath(model, coeffs)


def _horner(c, x):
    """Ascending-power polynomial ``c`` at ``x``.

    The Horner steps of ``numpy.polynomial.polynomial.polyval``, bit for
    bit, without its per-call set-up.
    """
    if isinstance(x, (tuple, list)):
        x = np.asarray(x)
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


@dataclass(frozen=True, eq=False)
class ThresholdFn:
    """Deterministic threshold level mu with two derivatives.

    Stored as a polynomial in ascending powers; the constructors below
    cover the level-set cases used elsewhere.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_d1", np.polynomial.polynomial.polyder(c))
        object.__setattr__(self, "_d2", np.polynomial.polynomial.polyder(c, 2))

    def value(self, x):
        return _horner(self.coeffs, x)

    def d1(self, x):
        return _horner(self._d1, x)

    def d2(self, x):
        return _horner(self._d2, x)

    def jet(self, x):
        return self.value(x), self.d1(x), self.d2(x)


def threshold_zero() -> ThresholdFn:
    return ThresholdFn(np.zeros(1))


def threshold_constant(tau: float) -> ThresholdFn:
    return ThresholdFn(np.array([float(tau)]))


def threshold_polynomial(coeffs) -> ThresholdFn:
    """Polynomial threshold from ascending-power coefficients."""
    return ThresholdFn(np.asarray(coeffs, dtype=float))


def threshold_cubic_shift(tau: float) -> ThresholdFn:
    """mu(x) = x - x^3 + tau, the bent level used in the demos."""
    return ThresholdFn(np.array([float(tau), 1.0, 0.0, -1.0]))

