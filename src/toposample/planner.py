"""Grid planning: where to sample a path so its topology survives.

The planner turns the pointwise sampling density C into concrete
sampling grids and success guarantees:

* the topology-guided grid splits [a, b] into M pieces of equal
  integral of C^(1/3), which balances the per-cell probability of an
  undetected sign flip;
* the resulting success rate is estimated as 1 - K^3 / M^2 with K the
  total cube-root mass, to leading order in 1/M (an estimate, not a lower
  bound: see ``failure_bound``);
* the matching uniform-grid bound replaces the local density by its
  maximum, which is what makes guided grids pay off for strongly
  inhomogeneous processes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import _CROSSOVER_FRACTION as _CROSSOVER_FRACTION_OF_DENSITY
from .density import density_profile, zero_density
from .errors import DegenerateDensityError
from .fields import (
    FAMILY_BUILDERS,
    FieldModel,
    ThresholdFn,
    _kept,
    basis_key,
    kept_value,
    threshold_zero,
)
from .quadrature import CumulativeIntegral, cumulative_integral, golden_max
# perfbench/tracing.py wraps planner.adaptive_simpson and
# planner.bisect_increasing, so the names stay
from .quadrature import adaptive_simpson, bisect_increasing  # noqa: F401

STRATEGIES = ("topology", "uniform", "density")


def sampling_density_fn(model: FieldModel, threshold: ThresholdFn):
    """Vectorized x -> C(x), extended by 0 over degenerate points.

    Families whose basis derivatives all vanish somewhere (cosine waves
    at the domain ends) have no density at those isolated points; the
    continuous extension there is 0, so quadrature and grid placement
    stay well defined. A density that overflows double precision raises
    NonFiniteDensityError instead.
    """

    def fn(x):
        prof = density_profile(model, threshold, x)
        return np.where(prof.nondegenerate, prof.density, 0.0)

    return fn


def zero_density_fn(model: FieldModel):
    """Vectorized x -> zero density D(x), extended by 0 like C(x)."""

    def fn(x):
        out = zero_density(model, x)
        return np.where(np.isfinite(out), out, 0.0)

    return fn


def _integrand_key(model: FieldModel) -> tuple:
    """The bits that fix a model's densities: its basis and coefficient covariance.

    A variance vector and a covariance matrix differ in shape, so a model
    with one never matches a model with the other.
    """
    cov = model.variances if model.covariance is None else model.covariance
    return (basis_key(model), cov.shape, cov.tobytes())


def cumulative_weight(model: FieldModel, threshold: ThresholdFn):
    """Total cube-root mass K and its cumulative F(x) = int_a^x C^(1/3).

    The integral runs over the model's domain [a, b] with the sampling
    density C of ``threshold``. It is kept between calls, as the
    ``"weight"`` entry of ``fields._kept``: a model and a threshold whose
    basis, coefficient covariance and threshold coefficients have the
    bits of the last ones integrated return the same (total, cumulative)
    again without a density call.

    Returns
    -------
    total : float
        K, the full integral of C^(1/3).
    cumulative : CumulativeIntegral
        Monotone callable with cumulative(b) = K.
    """
    density = sampling_density_fn(model, threshold)

    def weight(x):
        return np.cbrt(density(x))

    key = (_integrand_key(model), threshold.coeffs.tobytes())
    return kept_value(_kept, "weight", key, lambda: cumulative_integral(weight, model.a, model.b))


def place_grid(cumulative: CumulativeIntegral, total: float, m: int) -> np.ndarray:
    """Equal-mass grid: x_k with F(x_k) = k K / M, endpoints pinned.

    ``total`` is the mass F(b) of whichever density ``cumulative``
    integrates: the cube-root mass for the topology grid, the expected
    zero count for the density grid. Interior points come from one
    vectorised inversion of the monotone cumulative, which makes no
    density call; the density must not vanish on intervals of positive
    length, or consecutive points would collide.

    The grid is read-only and kept on ``cumulative`` (its ``grid_slot``,
    through ``fields.kept_value``), keyed on (total, m): a call that
    repeats the last one's total and m returns the same array without
    inverting. A grid that raises leaves the slot empty, so the next
    call raises again. The grid is not a kind of ``fields._kept``: each
    integral holds its own, so the topology and density grids of one
    ``compare_strategies`` call never evict each other, and a grid goes
    with its integral, also when ``harness.forget`` empties ``_kept``.
    """
    if m < 1:
        raise ValueError("grid needs at least one interval")

    def build():
        if not total > 0.0 or not math.isfinite(total):
            raise DegenerateDensityError(
                f"the density's mass {total!r} is not positive and finite; no guided grid exists"
            )
        grid = np.empty(m + 1)
        grid[0], grid[m] = cumulative.a, cumulative.b
        grid[1:m] = cumulative.inverse(total * np.arange(1, m) / m)
        if np.any(np.diff(grid) <= 0.0):
            raise DegenerateDensityError(
                "guided grid points collide; the density vanishes on a subinterval"
            )
        grid.flags.writeable = False
        return grid

    return kept_value(cumulative.grid_slot, 0, (total, m), build)


def _uniform_grid(a: float, b: float, m: int) -> np.ndarray:
    """M equal cells on [a, b], read-only like every plan's grid."""
    grid = np.linspace(a, b, m + 1)
    grid.flags.writeable = False
    return grid


def failure_bound(total: float, m: int) -> float:
    """Leading-order estimate 1 - K^3 / M^2 of the success rate, clamped to [0, 1].

    It is not a lower bound at small M: over 10^6 paths, Chebyshev n=5
    with a zero threshold at M = 8 matches at 0.95487, 12.6 standard
    errors below the estimate's 0.95749; on that model at M = 16, 32
    and 64 it reads within 2 standard errors below.
    """
    if total < 0.0:
        raise ValueError("cube-root mass must be nonnegative")
    if m < 1:
        raise ValueError("sample count must be at least 1")
    return float(min(1.0, max(0.0, 1.0 - total ** 3 / m ** 2)))


def bound_is_vacuous(total: float, m: int) -> bool:
    """True when the unclamped bound is negative."""
    return total ** 3 > m * m


def min_samples(total: float, p: float) -> int:
    """Smallest M with 1 - K^3 / M^2 >= p.

    ``p`` must lie in [0, 1); the answer is never below 1.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("target probability must lie in [0, 1)")
    if total < 0.0:
        raise ValueError("cube-root mass must be nonnegative")
    m = math.ceil(total ** 1.5 / math.sqrt(1.0 - p) - 1e-12)
    return max(m, 1)


def uniform_bound_samples(peak_rate: float, length: float, p: float) -> int:
    """Smallest M whose uniform-grid bound reaches p.

    ``peak_rate`` is the maximum of the crossover rate (3/4 of the
    sampling density) over the domain; the bound it yields is
    1 - (4/3) peak_rate length^3 / M^2.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("target probability must lie in [0, 1)")
    if peak_rate < 0.0:
        raise ValueError("peak rate must be nonnegative")
    m = math.ceil(
        math.sqrt(4.0 * peak_rate * length ** 3 / (3.0 * (1.0 - p))) - 1e-12
    )
    return max(m, 1)


def peak_crossover_rate(model: FieldModel, threshold: ThresholdFn) -> float:
    """max over the domain of 3/4 of the sampling density.

    Located by a 1001-point scan refined with golden-section search.
    """

    density = sampling_density_fn(model, threshold)

    def rate(x):
        return _CROSSOVER_FRACTION_OF_DENSITY * density(x)

    _, peak = golden_max(rate, model.a, model.b)
    return float(peak)


def _zero_mass(model: FieldModel):
    """Expected zero count and its cumulative: the zero density's integral.

    Kept between calls like ``cumulative_weight``'s, keyed on the model's
    basis and coefficient covariance alone.
    """
    density = zero_density_fn(model)
    key = _integrand_key(model)
    return kept_value(_kept, "zeros", key, lambda: cumulative_integral(density, model.a, model.b))


@dataclass(frozen=True)
class SamplingPlan:
    """A sampling grid plus the quantities that justify it.

    Attributes
    ----------
    grid : ndarray
        Strictly increasing points x_0 = a < ... < x_M = b, read-only: a
        guided grid is the one its cumulative keeps.
    m : int
        Number of grid cells.
    strategy : str
        One of :data:`STRATEGIES`.
    total_weight : float
        K, the integral of the cube-rooted sampling density.
    bound : float
        Leading-order estimate 1 - K^3 / M^2 of the topology-guided
        rule's success rate at this K and M, clamped to [0, 1]; not a
        lower bound at small M (see :func:`failure_bound`).
    bound_vacuous : bool
        True when the unclamped bound was negative.
    uniform_fallback : bool
        True when a degenerate density forced a uniform grid.
    """

    grid: np.ndarray
    m: int
    strategy: str
    total_weight: float
    bound: float
    bound_vacuous: bool = False
    uniform_fallback: bool = False


def build_plan(
    model: FieldModel,
    threshold: ThresholdFn,
    strategy: str = "topology",
    m: int | None = None,
    p: float | None = None,
) -> SamplingPlan:
    """Construct a sampling plan for a model.

    Exactly one of ``m`` (cell count) and ``p`` (target success
    probability, which picks the smallest sufficient count) must be
    given. A density that integrates to zero degrades to a uniform grid
    with the fallback flag set.
    """
    (plan,) = _build_plans(model, threshold, (strategy,), m, p)
    return plan


def _build_plans(model, threshold, strategies, m=None, p=None):
    """One plan per strategy, from one integral of each density they read.

    The cube-root integral serves every plan; the zero density's is read
    only when the density strategy is asked for. Both are the kept
    integrals of ``cumulative_weight`` and ``_zero_mass``, so a call on
    the model and threshold of the last one runs no quadrature, and a
    default scan resolution read after a density plan reuses its zero
    mass. Each integral keeps its last guided grid (``place_grid``), so
    a call that also repeats m inverts nothing either.
    """
    if (m is None) == (p is None):
        raise ValueError("exactly one of m and p must be given")
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
    a, b = model.domain
    total, cumulative = cumulative_weight(model, threshold)
    if m is None:
        m = min_samples(total, p)
    if m < 1:
        raise ValueError("grid needs at least one interval")
    guided = {"topology": (cumulative, total)}
    if "density" in strategies:
        zeros, zero_cumulative = _zero_mass(model)
        guided["density"] = (zero_cumulative, zeros)

    plans = []
    for strategy in strategies:
        fallback = False
        if strategy == "uniform":
            grid = _uniform_grid(a, b, m)
        else:
            try:
                grid = place_grid(*guided[strategy], m)
            except DegenerateDensityError:
                grid = _uniform_grid(a, b, m)
                fallback = True
        plans.append(
            SamplingPlan(
                grid=grid,
                m=m,
                strategy=strategy,
                total_weight=total,
                bound=failure_bound(total, m),
                bound_vacuous=bound_is_vacuous(total, m),
                uniform_fallback=fallback,
            )
        )
    return plans


def expected_zero_count(model: FieldModel) -> float:
    """Integral of the zero density over the domain.

    The total of ``_zero_mass``, so it shares that kept integral with the
    density grid and the default scan resolution: a model whose basis and
    coefficient covariance have the bits of the last one integrated
    makes no density call.
    """
    total, _ = _zero_mass(model)
    return total


@dataclass(frozen=True)
class ScalingRow:
    """One truncation order of a scaling study."""

    n: int
    expected_zeros: float
    total_weight: float
    samples_topology: int
    samples_uniform: int


def scaling_study(family, n_list, p: float) -> list[ScalingRow]:
    """Sample-count growth of both grid rules across truncation orders.

    Parameters
    ----------
    family : str
        A family of :data:`FAMILY_BUILDERS`.
    n_list : sequence of int
        Truncation orders to evaluate.
    p : float
        Target success probability shared by both rules.

    Returns
    -------
    list of ScalingRow
        Expected zero count, cube-root mass K, and the sample counts
        required by the topology-guided and uniform bounds.
    """
    if family not in FAMILY_BUILDERS:
        raise ValueError(f"no scaling-study builder for family {family!r}")
    threshold = threshold_zero()
    rows = []
    for n in n_list:
        model = FAMILY_BUILDERS[family](n)
        total, _ = cumulative_weight(model, threshold)
        rows.append(
            ScalingRow(
                n=int(n),
                expected_zeros=expected_zero_count(model),
                total_weight=total,
                samples_topology=min_samples(total, p),
                samples_uniform=uniform_bound_samples(
                    peak_crossover_rate(model, threshold), model.b - model.a, p
                ),
            )
        )
    return rows
