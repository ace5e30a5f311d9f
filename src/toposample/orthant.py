"""Local three-point Gaussian analysis of double crossovers.

Sampling a path at x, x + d/2, and x + d gives a trivariate Gaussian
vector whose covariance degenerates in a very structured way as d -> 0:
one eigenvalue stays put, one shrinks like d^2, and one like d^4, with
eigenvectors approaching the averaging, differencing, and second
differencing directions. The probability that the three values alternate
around the threshold (a double crossover) is then an orthant probability
that collapses onto an explicit asymptotic weight. This module exposes
the pieces: the local model, its eigen-structure against the predicted
limits, the asymptotic weight in quadrature and closed form, and a
direct Monte Carlo estimate of the crossover probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NondegeneracyError, NonFiniteDensityError, NotPositiveDefiniteError
from .fields import (
    FieldModel,
    ThresholdFn,
    basis_values,
    coefficient_rng,
    correlation,
    jet_tables,
)
from .quadrature import adaptive_simpson
from .topology import double_crossover

_MC_CHUNK = 1 << 20
_WEIGHT_REL_TOL = 1e-12
_JACOBI_SWEEPS = 30


def gaussian_upper_tail(x: float) -> float:
    """int_x^inf exp(-s^2/2) ds, evaluated through the complementary
    error integral so large ``x`` keeps full relative accuracy."""
    return math.sqrt(math.pi / 2.0) * math.erfc(x / math.sqrt(2.0))


def orthant_weight(shift) -> float:
    """Asymptotic orthant weight for an n-point sign pattern.

    Parameters
    ----------
    shift : sequence of float
        Normalized threshold offsets (alpha_1, ..., alpha_n) in the
        eigenbasis ordering of the collapsing covariance; n is its
        length, and an empty or non-vector shift raises ValueError.

    Returns
    -------
    float
        2 / (2^(n/2) Gamma(n/2)) exp(-sum_{k>=2} alpha_k^2 / 2) times
        int_{alpha_1}^inf (s - alpha_1)^(n-1) exp(-s^2/2) ds.

    The weight of the all-zero shift is exactly 1 for every n. A first
    component so large that alpha_1 + 40 rounds to alpha_1 raises
    ValueError.
    """
    alpha = np.asarray(shift, dtype=float)
    if alpha.ndim != 1 or alpha.size < 1:
        raise ValueError("shift must be a nonempty vector")
    n = alpha.size
    a1 = float(alpha[0])
    upper = a1 + 40.0
    if not upper > a1:
        raise ValueError(
            f"shift component alpha_1 = {a1:g} is too large in magnitude: "
            "its quadrature window [alpha_1, alpha_1 + 40] rounds to a point"
        )
    # a tail that overflows decays to a weight of exactly 0
    with np.errstate(over="ignore"):
        tail_decay = float(np.sum(alpha[1:] ** 2)) / 2.0

    def integrand(s):
        return (s - a1) ** (n - 1) * np.exp(-0.5 * s * s)

    integral, _ = adaptive_simpson(integrand, a1, upper, rel_tol=_WEIGHT_REL_TOL)
    norm = 2.0 / (2.0 ** (n / 2.0) * math.gamma(n / 2.0))
    return float(norm * math.exp(-tail_decay) * integral)


def orthant_weight_closed3(shift) -> float:
    """Closed form of the n = 3 orthant weight."""
    a1, a2, a3 = (float(v) for v in shift)
    tail = gaussian_upper_tail(a1)
    core = -a1 * math.exp(-0.5 * a1 * a1) + (1.0 + a1 * a1) * tail
    return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * (a2 * a2 + a3 * a3)) * core


def orthant_weight_pair3(shift) -> float:
    """Sum of the n = 3 weights of a shift and its negation.

    Collapses to 2 (1 + alpha_1^2) exp(-(alpha_2^2 + alpha_3^2)/2); the
    first component's tail terms cancel exactly.
    """
    a1, a2, a3 = (float(v) for v in shift)
    return 2.0 * (1.0 + a1 * a1) * math.exp(-0.5 * (a2 * a2 + a3 * a3))


@dataclass(frozen=True, eq=False)
class LocalGaussian:
    """Trivariate Gaussian of a path at x, x + spacing/2, x + spacing.

    ``cov`` holds the pairwise correlations of the three values and
    ``thresholds`` the threshold levels at the three points. Requires a
    positive definite covariance; degenerate spacings are rejected.
    """

    cov: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (3, 3):
            raise ValueError("local covariance must be 3x3")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(
            self, "thresholds", np.asarray(self.thresholds, dtype=float)
        )
        if self.thresholds.shape != (3,):
            raise ValueError("three threshold values are required")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                "local covariance is not positive definite"
            ) from None
        object.__setattr__(self, "_chol", chol)


def local_gaussian(
    model: FieldModel, threshold: ThresholdFn, x: float, spacing: float
) -> LocalGaussian:
    """Build the three-point model at ``x`` with window ``spacing``."""
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    pts = np.array([x, x + 0.5 * spacing, x + spacing])
    a, b = model.domain
    if pts[0] < a or pts[-1] > b:
        raise ValueError("three-point window leaves the model domain")
    cov = correlation(model, pts[:, None], pts[None, :])
    return LocalGaussian(
        cov=cov,
        thresholds=np.asarray(threshold.value(pts), dtype=float),
    )


# limit directions of the local eigenbasis: second difference, first
# difference, and average of the three sampled values
_W_SECOND = np.array([1.0, -2.0, 1.0]) / math.sqrt(6.0)
_W_FIRST = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
_W_MEAN = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
_W = np.column_stack([_W_SECOND, _W_FIRST, _W_MEAN])


def _difference_gram(model, x, spacing):
    """Covariance of the rotated values (W^T applied to the three points).

    Assembled from per-basis-function differences rather than from the
    plain covariance entries, which preserves the relative accuracy of
    the d^4-scale eigenvalue that plain entries lose to cancellation.
    """
    pts = np.array([x, x + 0.5 * spacing, x + spacing])
    b0 = basis_values(model, pts)  # (n_terms, 3)
    psi = b0 @ _W  # rows: basis functions, columns: rotated directions
    if model.variances is not None:
        return (psi * model.variances[:, None]).T @ psi
    return psi.T @ model.covariance @ psi


def jacobi_eigh3(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigen-decomposition of a symmetric 3x3 matrix.

    Jacobi rotations preserve the relative accuracy of small eigenvalues
    on graded matrices, which the local Gram matrices here are. Returns
    (eigenvalues ascending, column eigenvectors).
    """
    a = np.array(mat, dtype=float)
    v = np.eye(3)
    for _ in range(_JACOBI_SWEEPS):
        off = abs(a[0, 1]) + abs(a[0, 2]) + abs(a[1, 2])
        if off == 0.0:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[p, q]
            if apq == 0.0:
                continue
            diff = a[q, q] - a[p, p]
            if abs(apq) < 1e-150 * abs(diff):
                # rotation angle below representable significance
                a[p, q] = a[q, p] = 0.0
                continue
            theta = 0.5 * diff / apq
            t = math.copysign(1.0, theta) / (
                abs(theta) + math.sqrt(1.0 + theta * theta)
            )
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            rot = np.eye(3)
            rot[p, p] = rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            a = rot.T @ a @ rot
            a[p, q] = a[q, p] = 0.0
            v = v @ rot
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]


# The quantities the eigen check tracks, in output order, each with the
# key of its convergence order in EigenExpansion.orders. v_k is the
# eigenvector of the k-th smallest eigenvalue lambda_k, and tau the
# threshold values at the three points.
EIGEN_QUANTITIES = {
    "small_ratio": "small_eig",  # lambda_1 / spacing^4
    "mid_ratio": "mid_eig",  # lambda_2 / spacing^2
    "large_value": "large_eig",  # lambda_3
    "det_ratio": "det",  # det cov / spacing^6
    "proj_small_ratio": "proj_small",  # (tau . v_1) / spacing^2
    "proj_mid_ratio": "proj_mid",  # (tau . v_2) / spacing
    "proj_large": "proj_large",  # tau . v_3
}


@dataclass(frozen=True)
class EigenStep:
    """Observed eigen-structure of the local covariance at one spacing.

    ``observed`` maps each name of :data:`EIGEN_QUANTITIES` to its value;
    ``angles`` holds the angle of each eigenvector to its limit direction.
    """

    spacing: float
    angles: np.ndarray
    observed: dict[str, float]


@dataclass(frozen=True)
class EigenExpansion:
    """Eigen-structure of the collapsing local covariance across spacings.

    ``steps`` holds the observations and ``predicted`` the limits implied
    by the correlation jet and threshold jet at x, keyed like
    :data:`EIGEN_QUANTITIES`. ``orders`` holds, under each quantity's
    order key, the log-log regression slope of its error against the
    spacing.
    """

    x: float
    steps: list[EigenStep]
    predicted: dict[str, float]
    orders: dict[str, float]


def _convergence_order(spacings, errors):
    s = np.asarray(spacings, float)
    e = np.asarray(errors, float)
    keep = (e > 0.0) & np.isfinite(e)
    if np.sum(keep) < 2:
        return float("nan")
    slope = np.polyfit(np.log(s[keep]), np.log(e[keep]), 1)[0]
    return float(slope)


def eigen_expansion_check(
    model: FieldModel,
    threshold: ThresholdFn,
    x: float,
    spacings,
) -> EigenExpansion:
    """Track the local eigen-structure against its predicted limits.

    For each spacing d the three-point covariance is rotated into the
    limiting difference basis, diagonalized with Jacobi rotations, and
    compared with the jet predictions: eigenvalues lambda_1 ~ d^4
    det3/(96 minor33), lambda_2 ~ d^2 minor33/(2 r00), lambda_3 ~ 3 r00,
    plus the matching threshold projections. Eigenvector signs are
    aligned with the limit directions.
    """
    t = jet_tables(model, x)
    keys = ("r00", "r10", "minor33", "minor32", "minor31", "det3")
    jet = {k: float(t[k][0]) for k in keys}
    overflow = [k for k, v in jet.items() if not math.isfinite(v)]
    if overflow:
        raise NonFiniteDensityError(
            f"correlation jet entry {', '.join(overflow)} is not finite at "
            f"x={float(x):g}; it overflows double precision"
        )
    if not t["nondegenerate"][0]:
        raise NondegeneracyError(
            f"derivative covariance is singular at x={float(x):g}", x=float(x)
        )
    r00, r10, m33, m32, m31, det3 = jet.values()
    mu, dmu, ddmu = (float(v) for v in threshold.jet(x))
    bend = m31 * mu - m32 * dmu + m33 * ddmu
    # the limits and, below, the observations in EIGEN_QUANTITIES order
    predicted = dict(zip(EIGEN_QUANTITIES, (
        det3 / (96.0 * m33),
        m33 / (2.0 * r00),
        3.0 * r00,
        det3 / 64.0,
        bend / (4.0 * math.sqrt(6.0) * m33),
        (r10 * mu - r00 * dmu) / (math.sqrt(2.0) * r00),
        math.sqrt(3.0) * mu,
    )))

    steps = []
    for d in spacings:
        d = float(d)
        gram = _difference_gram(model, x, d)
        w, g = jacobi_eigh3(gram)
        if w[0] <= 0.0:
            raise NotPositiveDefiniteError(
                f"local covariance loses definiteness at spacing {d:g}"
            )
        # in the rotated frame the limit directions are the axes; flip
        # each eigenvector to a positive axis component
        for j in range(3):
            if g[j, j] < 0.0:
                g[:, j] = -g[:, j]
        pts = np.array([x, x + 0.5 * d, x + d])
        tau = np.asarray(threshold.value(pts), dtype=float)
        proj = (_W.T @ tau) @ g
        vectors = _W @ g
        angles = np.array(
            [
                math.acos(min(1.0, abs(float(vectors[:, j] @ _W[:, j]))))
                for j in range(3)
            ]
        )
        observed = (
            w[0] / d ** 4, w[1] / d ** 2, w[2], np.prod(w) / d ** 6,
            proj[0] / d ** 2, proj[1] / d, proj[2],
        )
        steps.append(
            EigenStep(d, angles, {k: float(v) for k, v in zip(EIGEN_QUANTITIES, observed)})
        )

    ds = [s.spacing for s in steps]
    orders = {}
    for name, key in EIGEN_QUANTITIES.items():
        limit = predicted[name]
        scale = max(abs(limit), 1e-300)
        errors = [abs(s.observed[name] - limit) / scale for s in steps]
        orders[key] = _convergence_order(ds, errors)
    return EigenExpansion(float(x), steps, predicted, orders)


@dataclass(frozen=True)
class CrossoverEstimate:
    """Monte Carlo estimate of the double-crossover probability."""

    trials: int
    hits: int
    estimate: float
    stderr: float


def crossover_probability_from(
    local: LocalGaussian, trials: int, seed: int
) -> CrossoverEstimate:
    """Estimate P(double crossover) for a given three-point model.

    Trials are drawn in fixed-size chunks, one counter-based stream per
    chunk, so the count is reproducible under any parallel split of the
    chunks.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    chol = local._chol
    tau = local.thresholds
    hits = 0
    n_chunks = (trials + _MC_CHUNK - 1) // _MC_CHUNK
    for chunk in range(n_chunks):
        count = min(_MC_CHUNK, trials - chunk * _MC_CHUNK)
        z = coefficient_rng(seed, chunk).standard_normal((3, count))
        vals = chol @ z - tau[:, None]
        hits += int(np.count_nonzero(double_crossover(*vals)))
    p = hits / trials
    return CrossoverEstimate(
        trials=trials,
        hits=hits,
        estimate=p,
        stderr=math.sqrt(p * (1.0 - p) / trials),
    )


def crossover_probability_mc(
    model: FieldModel,
    threshold: ThresholdFn,
    x: float,
    spacing: float,
    trials: int,
    seed: int,
) -> CrossoverEstimate:
    """Monte Carlo double-crossover probability of a model at one window."""
    return crossover_probability_from(
        local_gaussian(model, threshold, x, spacing), trials, seed
    )
