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

import ctypes
import math
import operator
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FactorizationError, NonFiniteDensityError

# relative slack for domain membership checks
_DOMAIN_TOL = 1e-9
# positive-semidefiniteness tolerance, relative to the largest variance
_PSD_TOL = 1e-12
# singularity threshold for the (u, u') covariance minor, relative to
# r00 r11
_DEGENERACY_TOL = 1e-12
# det3 is trusted where the volume of the unit-norm jet rows exceeds this
# multiple of gamma_{3n}, its backward error: det3 is then within 1% of
# the determinant of the jets
_VOLUME_MARGIN = 1024.0
# the largest n whose binomial variances, up to binom(n, n // 2), are finite
_BINOMIAL_MAX_N = 1029


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

    The arrays are read-only copies of those passed in.
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
        # the model keeps read-only copies, so the cached ``_factor`` and the
        # planner's kept integrals, keyed on these bits, never go stale
        for name, ndmin in (("variances", 1), ("covariance", 0), ("amplitudes", 1)):
            value = getattr(self, name)
            if value is not None:
                value = np.array(value, dtype=float, ndmin=ndmin)
                value.flags.writeable = False
                object.__setattr__(self, name, value)
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

    def __setstate__(self, state):
        # numpy's pickle drops the read-only flag, so an unpickled model (a
        # pool worker's) sets it again, and ``_factor`` stays in step
        for name in ("variances", "covariance", "amplitudes"):
            if state.get(name) is not None:
                state[name].flags.writeable = False
        self.__dict__.update(state)

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


def basis_key(model: FieldModel) -> tuple:
    """The bits that fix a model's basis rows at any point.

    They are the family, the number of terms, the domain (by its bits,
    so -0.0 and 0.0 differ), the period and a custom basis table, never
    the coefficient variances. The scan entry and the planner's kept
    integrals build their keys on it, so "the same basis" means one thing.
    """
    domain = tuple(v.hex() for v in model.domain)
    return (model.family, model.n_terms, domain, model.period, model.basis_table)


# every value the package keeps between calls at module level, one
# (key, value) entry per kind: the scan tables of the last scan_counts call
# ("scan", topology._scan_tables), the cube-root mass ("weight",
# planner.cumulative_weight) and the zero mass ("zeros", planner._zero_mass).
# A key holds every bit that fixes its value, so equal models and thresholds
# built or unpickled separately share an entry and none can match a stale
# one. Each kind holds its last entry alone, and a new key evicts it, so the
# two integrals of one compare_strategies call never evict each other.
# harness.forget empties them all
_kept = dict.fromkeys(("scan", "weight", "zeros"))


def kept_value(slots, kind, key, build):
    """The value ``build()`` made for ``key``, kept in ``slots[kind]`` between calls.

    The slot holds one (key, value) entry. A call whose key equals the
    kept one returns its value and builds nothing. Otherwise the slot is
    emptied before ``build`` runs, so the old value and the new one are
    never alive together, and holds the new entry only once ``build`` has
    returned: a build that raises leaves the slot empty, and the next
    call builds, and raises, again. Every kind of ``_kept`` keeps its
    value through it, and so does each integral's last grid.
    """
    entry = slots[kind]
    if entry is None or entry[0] != key:
        slots[kind] = None
        entry = slots[kind] = (key, build())
    return entry[1]


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
    # an amplitude past 1e154 squares to inf, which FieldModel rejects
    with np.errstate(over="ignore"):
        squares = amps ** 2
    variances = np.empty(n_terms)
    variances[0] = squares[0]
    variances[1::2] = squares[1:]
    variances[2::2] = squares[1:]
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
    if n > _BINOMIAL_MAX_N:
        raise NonFiniteDensityError(
            f"binomial variances are not finite in double precision for n > {_BINOMIAL_MAX_N}"
        )
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
    callables. Each must be pointwise to the bit: its value at a point
    may not depend on the other points of the array it is called with.
    Elementwise products and sums and ufuncs such as ``np.sin`` are;
    ``np.power`` is not, since on some hosts it rounds short arrays
    differently from long ones. The scan evaluates the basis on tiles of
    its points and certifies them with tables built from other tiles, so
    a basis that rounds differently by tile can miscount; the scan raises
    ValueError where a cell end gets different bits as one cell's right
    end and as the next cell's left end. When
    neither variances nor covariance is given the coefficients default to
    unit variance.
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


# Each family has one jet function (model, x, b0, order) that fills the
# (n_terms, len(x)) array b0 its caller passes in with the basis values
# and returns the list [b0, b1, ..., b_order] of the values and their
# first ``order`` derivatives, order 0, 1 or 2. A caller that needs fewer
# derivatives asks for a lower order and skips the rest of the work, and
# the values can be written straight into a larger table. ``_jets`` is
# the one reader of the family table.


# each power is the one below it times x, so a point's values depend on
# that point alone: np.power rounds differently on short arrays than on
# long ones, which would make a tile of points differ from the same points
# of a longer grid. The d-th derivative of x^k is k!/(k - d)! x^(k - d).
# The row loops here take each table's rows once, as a list of views:
# indexing a row costs more than the arithmetic of a short one
def _monomial_jets(model, x, b0, order):
    b0[0] = 1.0
    p = list(b0)
    for k in range(1, model.n_terms):
        np.multiply(p[k - 1], x, out=p[k])
    jets = [b0]
    for d in range(1, order + 1):
        jets.append(np.zeros_like(b0))
        rows = list(jets[d])
        for k in range(d, model.n_terms):
            np.multiply(float(math.perm(k, d)), p[k - d], out=rows[k])
    return jets


# T_k = 2x T_{k-1} - T_{k-2}, each row written in place with 2x formed
# once, and its derivatives T_k^(d) = 2x T_{k-1}^(d) + 2d T_{k-1}^(d-1)
# - T_{k-2}^(d): finite at the endpoints, unlike differentiating
# cos(k arccos x)
def _chebyshev_jets(model, x, b0, order):
    b0[0] = 1.0
    if model.n_terms > 1:
        b0[1] = x
    x2, t = 2.0 * x, list(b0)
    for k in range(2, model.n_terms):
        np.multiply(x2, t[k - 1], out=t[k])
        np.subtract(t[k], t[k - 2], out=t[k])
    jets = [b0]
    if order:
        term = np.empty_like(x)
    for d in range(1, order + 1):
        jets.append(np.empty_like(b0))
        lower, rows = list(jets[d - 1]), list(jets[d])
        jets[d][:2] = 0.0
        if d == 1:
            jets[1][1:2] = 1.0  # T_1' = 1
        for k in range(2, model.n_terms):
            np.multiply(2.0 * d, lower[k - 1], out=term)
            np.multiply(x2, rows[k - 1], out=rows[k])
            np.add(term, rows[k], out=rows[k])
            np.subtract(rows[k], rows[k - 2], out=rows[k])
    return jets


def _reduce_half_turns(t):
    # t = n + r with integer n and |r| <= 1/2; returns ((-1)^n, pi r), so
    # that sin(pi t) and cos(pi t) come out with exact range reduction and
    # integer t yields exact zeros; naive sin(pi * t) leaves O(eps * t)
    # residue that poisons degeneracy detection at domain endpoints
    n = np.rint(t)
    parity = n - 2.0 * np.floor(0.5 * n)  # 0 or 1, exact for integer n
    return 1.0 - 2.0 * parity, np.pi * (t - n)


def _cosine_jets(model, x, b0, order):
    k = np.arange(model.n_terms, dtype=float)[:, None]
    sign, angle = _reduce_half_turns(k * x[None, :])
    jets = [np.multiply(sign, np.cos(angle), out=b0)]
    if order >= 1:
        jets.append(-(k * np.pi) * (sign * np.sin(angle)))
    if order == 2:
        jets.append(-((k * np.pi) ** 2) * b0)
    return jets


def _periodic_jets(model, x, b0, order):
    # rows: 1, then the cosine and sine waves of each frequency k >= 1
    jets = [b0] + [np.empty_like(b0) for _ in range(order)]
    for d, rows in enumerate(jets):
        rows[0] = 0.0 if d else 1.0
    tx = x / model.period
    for k in range(1, (model.n_terms + 1) // 2):
        sign, angle = _reduce_half_turns((2.0 * k) * tx)
        i, w = 2 * k - 1, 2.0 * np.pi * k / model.period
        b0[i] = sign * np.cos(angle)
        b0[i + 1] = sign * np.sin(angle)
        if order >= 1:
            jets[1][i], jets[1][i + 1] = -w * b0[i + 1], w * b0[i]
        if order == 2:
            # a float64, so that w^2 of a tiny period overflows to inf, as
            # the arrays do, where a Python float raises OverflowError
            jets[2][i : i + 2] = -(np.float64(w) ** 2) * b0[i : i + 2]
    return jets


def _custom_jets(model, x, b0, order):
    jets = [b0] + [np.empty_like(b0) for _ in range(order)]
    for k, entry in enumerate(model.basis_table):
        for rows, f in zip(jets, entry):
            rows[k] = f(x)
    return jets


_BASIS_JETS = {
    "chebyshev": _chebyshev_jets,
    "cosine": _cosine_jets,
    "periodic": _periodic_jets,
    "binomial": _monomial_jets,
    "unit": _monomial_jets,
    "custom": _custom_jets,
}
FAMILIES = tuple(_BASIS_JETS)


def _jets(model, x, b0, order):
    return _BASIS_JETS[model.family](model, x, b0, order)


def _domain_points(model, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    model._check_domain(x)
    return x


def basis_values(model: FieldModel, x) -> np.ndarray:
    """Values of every basis function, shape (n_terms, len(x)).

    The first array of :func:`basis_jets`, without the derivative work.
    """
    x = _domain_points(model, x)
    return _jets(model, x, np.empty((model.n_terms, x.size)), 0)[0]


def basis_jets(model: FieldModel, x, order: int = 2) -> tuple[np.ndarray, ...]:
    """Values and the first ``order`` derivatives of every basis function.

    ``order`` is 0, 1 or 2; returns ``order + 1`` arrays of shape
    (n_terms, len(x)), values first.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    x = _domain_points(model, x)
    return tuple(_jets(model, x, np.empty((model.n_terms, x.size)), order))


def threshold_system(model: FieldModel, threshold: ThresholdFn, x, out=None) -> np.ndarray:
    """Basis values with the threshold's values as one more row, shape (n_terms + 1, len(x)).

    The family's jet function writes the basis rows in place at order 0,
    so ``system[:-1]`` holds the bits of ``basis_values(model, x)`` and no
    basis is copied; ``system[-1]`` is ``threshold.value(x)``. So u - mu
    of the path with coefficients c is the product of (c, -1) with the
    system, and ``c @ system[:-1] - system[-1]`` is bit for bit
    ``path.value(x) - threshold.value(x)``. Given ``out``, a float array
    of that shape, the system is written into it and ``out`` returned.
    """
    x = _domain_points(model, x)
    system = np.empty((model.n_terms + 1, x.size)) if out is None else out
    _jets(model, x, system[:-1], 0)
    system[-1] = threshold.value(x)
    return system


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


def _det3_ratio(model, b0, b1, b2, r00, r10, r20, r11, r22):
    """det3 / (r00 r11 r22) at each column of the jets, without cancellation.

    The jet rows weighted by the covariance factor, w_k, have Gram matrix
    [rkl]. Modified Gram-Schmidt takes w1 and w2 orthogonal to w0, then
    w2 orthogonal to w1, and the squared norms s1, s2 of what is left are
    R11^2 and R22^2 of a QR factorization of the rows, so the ratio is
    (s1 / r11)(s2 / r22): the squared volume of the unit-norm rows. Its
    computed R is the exact R of rows perturbed by a modest multiple of
    n u of their norm, n = n_terms (Higham, Accuracy and Stability of
    Numerical Algorithms, thm. 19.13); with that perturbation below
    gamma_{3n}, the volume is off by at most (1 + gamma_{3n})^3 - 1. With
    fewer than three terms the three rows are linearly dependent and the
    ratio is exactly 0.
    """
    if model.n_terms < 3:
        return np.zeros_like(r00)

    def quotient(num, den):
        # 0 where den is 0: a zero row spans no volume
        return num / np.where(den > 0.0, den, np.inf)

    factor = model._factor
    w0, w1, w2 = (factor[:, None] * b if factor.ndim == 1 else factor.T @ b for b in (b0, b1, b2))
    w1 -= quotient(r10, r00) * w0
    w2 -= quotient(r20, r00) * w0
    s1 = np.einsum("km,km->m", w1, w1)
    w2 -= quotient(np.einsum("km,km->m", w1, w2), s1) * w1
    s2 = np.einsum("km,km->m", w2, w2)
    return quotient(s1, r11) * quotient(s2, r22)


# entries of a large family may overflow to inf or NaN; the density code
# tells such points from degenerate ones
@np.errstate(over="ignore", invalid="ignore")
def jet_tables(model: FieldModel, x, order: int = 2) -> dict[str, np.ndarray]:
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
    point of ``x``. With ``order=1`` the second derivatives are never
    formed and the dict holds only ``x``, ``r00``, ``r10``, ``r11`` and
    ``minor33``, bit for bit the entries of the full table.

    ``det3`` is the ratio det3 / (r00 r11 r22) from a Gram-Schmidt QR of
    the three jet rows, weighted by the covariance factor, times
    r00 r11 r22. The 3x3 determinant formula of the entries cancels all
    its digits where that ratio is small (cosine waves next to the domain
    ends, monomials near |x| = 3 from n = 50 on); the QR keeps them. The
    determinant part of ``nondegenerate`` asks that the volume of the
    unit-norm rows, the ratio's square root, exceed 2^10 gamma_{3n}, which
    puts det3 within 1% of the determinant of the jets. The ratio is
    multiplied by r00, r11 and r22 in turn, never by their product, which
    overflows first. A point whose det3 or any entry still overflows gets
    a det3 that is not finite, and the density code raises there.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b0, b1, *b2 = basis_jets(model, x, order)
    r00 = _pair_contract(model, b0, b0)
    r10 = _pair_contract(model, b1, b0)
    r11 = _pair_contract(model, b1, b1)
    minor33 = r00 * r11 - r10 * r10
    first = {"x": x, "r00": r00, "r10": r10, "r11": r11, "minor33": minor33}
    if order == 1:
        return first
    (b2,) = b2
    r20 = _pair_contract(model, b2, b0)
    r21 = _pair_contract(model, b2, b1)
    r22 = _pair_contract(model, b2, b2)
    minor32 = r00 * r21 - r10 * r20
    minor31 = r10 * r21 - r11 * r20
    ratio = _det3_ratio(model, b0, b1, b2, r00, r10, r20, r11, r22)
    det3 = ratio * r00 * r11 * r22
    n = 3 * model.n_terms
    floor = _VOLUME_MARGIN * n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    ok = (
        (r00 > 0.0)
        & (minor33 > _DEGENERACY_TOL * r00 * r11)
        & (ratio > floor * floor)
    )
    return {
        **first,
        "r20": r20,
        "r21": r21,
        "r22": r22,
        "minor32": minor32,
        "minor31": minor31,
        "det3": det3,
        "nondegenerate": ok,
    }


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One realization of a model: the drawn coefficient vector."""

    model: FieldModel
    coeffs: np.ndarray

    def value(self, x):
        scalar = np.isscalar(x)
        out = self.coeffs @ basis_values(self.model, x)
        return float(out[0]) if scalar else out


def magnitude_bounds(values):
    """Largest |value| along the last axis, by max and min reductions.

    No array of absolute values is formed, so a large basis table costs
    two reading passes and no temporary. A NaN gives NaN.
    """
    return np.maximum(values.max(axis=-1), -values.min(axis=-1))


# unit roundoff and smallest subnormal of IEEE double precision
_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_SUBNORMAL = 2.0 ** -1074
# a scale below this leaves every partial sum of the product finite
_SCALE_LIMIT = np.finfo(float).max / 2.0
# the most multiply-adds one matrix product takes: OpenBLAS runs a product
# of at most 2^18 on one thread and splits a larger one across threads,
# which made a 4 x 65 x 8192 product 18 times slower on a busy 2-core host.
# blocked_product cuts a wider product into column blocks of all its rows
# (up to 16), so the 4 x 66 x 2,370 coarse product of four Chebyshev-64
# paths runs as 3 of 4 x 66 x <= 992 and reads its table once
_PRODUCT_MULADDS = 1 << 18


def fold_coefficients(coeffs):
    """The rows (c, -1), whose product with a ``threshold_system`` is u - mu."""
    return np.hstack([coeffs, np.full((len(coeffs), 1), -1.0)])


def blocked_product(lhs, rhs, out=None):
    """``lhs @ rhs``, in blocks of at most _PRODUCT_MULADDS multiply-adds each.

    A block is whole rows while 16 of them, or all of ``lhs``, fit;
    otherwise it is at most 16 rows by as many columns as fit, so a wide
    ``rhs`` is read once per 16 rows rather than once per row or per few
    rows. The summation order of a value may change with the blocks, which
    the rounding slack of ``block_minus_threshold`` covers. Given ``out``, a
    float array of the product's shape, the product is written into it
    and ``out`` returned.
    """
    inner, points = rhs.shape
    if out is None:
        out = np.empty((len(lhs), points))
    rows, cols = _PRODUCT_MULADDS // max(1, inner * points), points
    if rows < min(len(lhs), 16):
        rows = min(len(lhs), 16)
        cols = max(1, _PRODUCT_MULADDS // max(1, inner * rows))
    for lo in range(0, len(lhs), rows):
        for left in range(0, points, cols):
            block = (slice(lo, lo + rows), slice(left, left + cols))
            np.matmul(lhs[block[0]], rhs[:, block[1]], out=out[block])
    return out


def block_minus_threshold(lhs, system, bounds, out=None):
    """u - mu of a block of paths by one matrix product, and a rounding slack per row.

    ``system`` holds the K + 1 rows of a ``threshold_system`` on some
    points (or some of its columns), ``lhs`` one row (c, -1) per path
    (``fold_coefficients``) and ``bounds`` the largest |value| of each
    system row over the points the slack is to cover. Returns
    ``lhs @ system`` (``blocked_product``, written into ``out`` when it is
    given) and ``slack``:

        slack_j = 2 gamma sum_k |lhs_jk| bounds_k,
        gamma = n u / (1 - n u),  u = 2^-53,  n = K + 2 = len(system) + 1.

    Every float evaluation of c . phi(x) - mu(x), the block's sum of
    K + 1 products as well as the per-path product minus mu, in any
    summation order and with or without fused multiply-adds, lies within
    gamma_{K+1} (sum_k |c_k| |phi_k(x)| + |mu(x)|) of the exact value
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).
    So ``values[j]`` differs from the per-path
    ``path.value(x) - threshold.value(x)`` by at most ``slack[j]`` at every
    point: where |values[j, x]| exceeds ``slack[j]`` the two have the same
    sign, neither is zero, and the per-path |value| is at least
    |values[j, x]| - slack[j]. Taking n = K + 2 rather than K + 1 covers
    the rounding of the slack's own arithmetic, and (K + 1) smallest
    subnormals per evaluation cover gradual underflow. With a finite
    slack every value is finite. A row whose scale is not finite, or
    within a factor 2 of overflow, gets a NaN slack, so every comparison
    with it fails and the row is never certified.
    """
    n = len(system) + 1
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    scale = np.abs(lhs) @ bounds
    slack = 2.0 * (gamma * scale + (n - 1) * _SMALLEST_SUBNORMAL)
    slack[~(scale < _SCALE_LIMIT)] = np.nan
    return blocked_product(lhs, system, out), slack


def _check_key_part(name, v):
    """``v`` as an int in [0, 2^64): TypeError unless it is an integer, ValueError outside."""
    try:
        v = operator.index(v)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {v!r}") from None
    if not 0 <= v < 2**64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {v}")
    return v


class _PhiloxTail(ctypes.Structure):
    # the fields of numpy's philox_state after its two pointers
    _fields_ = [
        ("buffer_pos", ctypes.c_int),
        ("buffer", ctypes.c_uint64 * 4),
        ("has_uint32", ctypes.c_int),
        ("uinteger", ctypes.c_uint32),
    ]


class _PhiloxState(ctypes.Structure):
    # numpy's philox_state, as read on numpy 2.4:
    # {ctr*, key*, int buffer_pos, uint64 buffer[4], int has_uint32, uint32 uinteger}
    _fields_ = [("ctr", ctypes.c_void_p), ("key", ctypes.c_void_p), ("tail", _PhiloxTail)]


# a struct, so that one assignment to ``words`` writes all four
class _PhiloxCounter(ctypes.Structure):
    _fields_ = [("words", ctypes.c_uint64 * 4)]


_PhiloxKey = ctypes.c_uint64 * 2
# what a freshly keyed Philox holds past its key: a zero counter and an
# empty, zeroed buffer
_ZERO_COUNTER = (ctypes.c_uint64 * 4)()
_FRESH_TAIL = _PhiloxTail(buffer_pos=4)
# the key a thread's generator is built with, two distinct nonzero words,
# so that no view of the key or the counter read in the other's place
# passes the check
_CHECK_KEY = (1, 2)


class _Local(threading.local):
    """What each thread keeps between calls: the scan's work buffers and its generator.

    ``buffers`` are the block scan's three batch buffers
    (``topology._buffer``). ``draw`` is None until the thread's first draw
    (``_thread_draw``), then its Philox generator's state, counter and key
    views and the generator's ``standard_normal``, which holds the
    generator alive as long as the views are. ``forget()`` resets the
    calling thread's with ``__init__``, as a new thread starts with them.
    """

    def __init__(self):
        self.buffers = [np.empty(0)] * 3
        self.draw = None


_local = _Local()


def _thread_draw():
    """This thread's Philox generator, as ``(state, counter, key, standard_normal)``.

    Built on the thread's first draw and kept in ``_local.draw``. Its
    ``philox_state`` is read through numpy's public
    ``bitgen.ctypes.state_address``, the counter and key through the
    struct's own pointers, which are followed only when they lie inside
    the generator object. Raises RuntimeError before any draw unless
    they do and the views read what numpy keyed: key ``_CHECK_KEY``, a
    zero counter and an empty buffer.
    """
    if _local.draw is not None:
        return _local.draw
    bitgen = np.random.Philox(key=_CHECK_KEY)
    base, size = id(bitgen), type(bitgen).__basicsize__
    state = _PhiloxState.from_address(bitgen.ctypes.state_address)
    if all(base <= p <= base + size - n for p, n in ((state.ctr or 0, 32), (state.key or 0, 16))):
        counter = _PhiloxCounter.from_address(state.ctr)
        key = _PhiloxKey.from_address(state.key)
        fresh = counter.words[:] == [0, 0, 0, 0] and state.tail.buffer_pos == 4
        if fresh and tuple(key) == _CHECK_KEY:
            _local.draw = state, counter, key, np.random.Generator(bitgen).standard_normal
            return _local.draw
    raise RuntimeError(
        f"numpy {np.__version__}'s Philox state does not have the layout "
        "the generator is re-keyed through"
    )


def _normals(seed: int, streams, size: int) -> np.ndarray:
    """Standard normals of the Philox streams (seed, s) for s in ``streams``, ``size`` per row.

    Row j is bit for bit ``Generator(Philox(key=(seed, streams[j])))
    .standard_normal(size)``, and a seed or stream that is not an integer
    in [0, 2^64) raises its TypeError or ValueError before anything is
    drawn. The thread's one generator (``_thread_draw``) serves every row.
    Philox is counter-based, so moving the generator to stream s only
    writes its key (seed, s), a zero counter and an empty buffer in place
    into numpy's ``philox_state`` (the seed word once per call, the rest
    before each draw), which then holds what a generator freshly keyed to
    (seed, s) holds, at a fraction of the cost of building one or setting
    its state dict.
    """
    seed = _check_key_part("seed", seed)
    streams = list(streams)
    if streams and not (
        set(map(type, streams)) == {int} and min(streams) >= 0 and max(streams) < 2**64
    ):
        streams = [_check_key_part("stream", stream) for stream in streams]
    state, counter, key, draw = _thread_draw()
    out = np.empty((len(streams), size))
    key[0] = seed
    for row, stream in zip(out, streams):
        key[1] = stream
        counter.words = _ZERO_COUNTER
        state.tail = _FRESH_TAIL
        draw(out=row)
    return out


def sample_coefficients(model: FieldModel, seed: int, streams) -> np.ndarray:
    """Coefficient vectors of the paths (seed, s) for s in ``streams``, one row each.

    Row j is the standard normals of the Philox stream (seed, streams[j])
    (``_normals``, which gives their bits and checks) times the model's
    covariance factor.
    """
    out = _normals(seed, streams, model.n_terms)
    factor = model._factor
    if factor.ndim == 1:
        out *= factor
    else:
        for row in out:
            row[:] = factor @ row
    return out


def sample_path(model: FieldModel, seed: int, stream: int = 0) -> SamplePath:
    """Draw one path. Identical (model, seed, stream) gives identical coefficients."""
    return SamplePath(model, sample_coefficients(model, seed, [stream])[0])


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


def _derivative(c, order):
    """The ``order``-th derivative of the ascending-power polynomial ``c``.

    The steps of ``numpy.polynomial.polynomial.polyder``, bit for bit,
    without importing it or paying its per-call set-up.
    """
    if c.size <= order:
        return c[:1] * 0
    for _ in range(order):
        c = c[1:] * np.arange(1, c.size)
    return c


@dataclass(frozen=True, eq=False)
class ThresholdFn:
    """Deterministic threshold level mu with two derivatives.

    Stored as a polynomial in ascending powers, whose coefficients are a
    read-only copy of those passed in; the constructors below cover the
    level-set cases used elsewhere.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        # a read-only copy, so the derivatives below and every key built on
        # these bits (the scan entry, the kept cube-root mass) stay in step
        c = np.array(self.coeffs, dtype=float, ndmin=1)
        c.flags.writeable = False
        if c.ndim != 1 or c.size == 0:
            raise ValueError("threshold coefficients must form a nonempty vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("threshold coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_d1", _derivative(c, 1))
        object.__setattr__(self, "_d2", _derivative(c, 2))

    def __setstate__(self, state):
        # as for FieldModel, so ``_d1`` and ``_d2`` stay in step
        state["coeffs"].flags.writeable = False
        self.__dict__.update(state)

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

