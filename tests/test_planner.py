"""Grid placement, sample-count rules, and plan assembly."""
import time
import tracemalloc
import weakref
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toposample as ts
from toposample import planner, quadrature
from toposample.errors import DegenerateDensityError, NonFiniteDensityError
from toposample.fields import _kept
from toposample.planner import (
    cumulative_weight,
    expected_zero_count,
    peak_crossover_rate,
    place_grid,
    sampling_density_fn,
    uniform_bound_samples,
)
from toposample.quadrature import adaptive_simpson

from reference import periodic_density_closed_form, spectral_moment

# cube-root masses frozen from high-precision runs of this code base,
# cross-checked against closed forms where one exists
K_CHEB5 = 1.396068613497449
K_BINOM5 = 1.227447641647867
K_COS8 = 2.3642546155833415


def test_cumulative_weight_constant_density(thr):
    # a stationary model on [0, 2] has a constant density C, so
    # K = 2 C^(1/3) and the cumulative is linear
    model = ts.periodic_model([0.0, 1.0, 1.0], period=2.0)
    m0, m1, m2 = (spectral_moment(model, j) for j in range(3))
    density = periodic_density_closed_form(m0, m1, m2, 2.0, (0.0, 0.0, 0.0))
    total, cum = cumulative_weight(model, thr)
    assert total == pytest.approx(2.0 * np.cbrt(density), rel=1e-12)
    assert cum(0.5) == pytest.approx(total / 4.0, rel=1e-10)
    assert cum(1.5) == pytest.approx(3.0 * total / 4.0, rel=1e-10)


def test_total_weight_anchors(cheb5, binom5, thr):
    zero = thr
    for model, want in ((cheb5, K_CHEB5), (binom5, K_BINOM5), (ts.cosine_model(8), K_COS8)):
        total, _ = cumulative_weight(model, zero)
        assert total == pytest.approx(want, rel=1e-9)


def test_binomial_mass_closed_form(binom5, thr):
    # exact value: (sqrt(5) * 4 / (24 pi))^(1/3) * 2 * atan(3)
    want = (np.sqrt(5.0) * 4.0 / (24.0 * np.pi)) ** (1.0 / 3.0) * 2.0 * np.arctan(3.0)
    total, _ = cumulative_weight(binom5, thr)
    assert total == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", [3, 5])
def test_mass_invariant_under_reparametrization(n, thr):
    # chebyshev on [-1, 1] is the cosine family pushed through x = cos(pi t),
    # and the cube-root mass is invariant under smooth reparametrization
    cheb = ts.chebyshev_model(n)
    cos = ts.cosine_model(n)
    k_cheb, _ = cumulative_weight(cheb, thr)
    k_cos, _ = cumulative_weight(cos, thr)
    assert k_cheb == pytest.approx(k_cos, rel=1e-9)
    assert expected_zero_count(cheb) == pytest.approx(expected_zero_count(cos), rel=1e-9)


def test_place_grid_equal_mass(cheb5, thr):
    total, cum = cumulative_weight(cheb5, thr)
    grid = place_grid(cum, total, 8)
    assert grid.shape == (9,)
    assert grid[0] == -1.0 and grid[-1] == 1.0
    # each cell carries mass K / 8
    masses = [cum(float(r)) - cum(float(l)) for l, r in zip(grid[:-1], grid[1:])]
    assert masses == pytest.approx(np.full(8, total / 8.0), rel=1e-6)
    # even density gives a symmetric grid
    assert np.max(np.abs(grid + grid[::-1])) < 1e-9
    assert grid[1:4] == pytest.approx(
        [-0.81569833475396081, -0.60849270425420898, -0.30990716366503246], abs=1e-9
    )


@pytest.mark.parametrize("m", [4, 7, 16])
def test_binomial_grid_closed_form(binom5, thr, m):
    # C^(1/3) is proportional to 1 / (1 + x^2) on [-3, 3], so the
    # equal-mass points are x_k = tan(atan(3) (2k/M - 1))
    plan = ts.build_plan(binom5, thr, "topology", m=m)
    want = np.tan(np.arctan(3.0) * (2.0 * np.arange(m + 1) / m - 1.0))
    assert np.max(np.abs(plan.grid - want)) <= 1e-11


def test_cheb64_cells_hold_equal_mass():
    model = ts.chebyshev_model(64)
    plan = ts.build_plan(model, ts.threshold_zero(), "topology", p=0.95)
    assert plan.m == 404
    density = sampling_density_fn(model, ts.threshold_zero())
    weight = lambda x: np.cbrt(density(x))
    masses = np.array(
        [
            adaptive_simpson(weight, lo, hi, rel_tol=1e-12)[0]
            for lo, hi in zip(plan.grid[:-1], plan.grid[1:])
        ]
    )
    k = plan.total_weight
    assert np.max(np.abs(masses - k / plan.m)) <= 1e-10 * k


@pytest.mark.parametrize("strategy", ["topology", "density"])
def test_cosine_grid_with_vanishing_end_density(strategy, thr):
    # the cosine family's density is zero at both domain ends, where the
    # inversion's Newton slope vanishes
    model = ts.cosine_model(8)
    plan = ts.build_plan(model, thr, strategy, m=20)
    assert not plan.uniform_fallback
    assert plan.grid[0] == model.a and plan.grid[-1] == model.b
    assert np.all(np.diff(plan.grid) > 0)
    # mirror symmetry of the family about the midpoint survives the inversion
    assert np.max(np.abs(plan.grid + plan.grid[::-1] - (model.a + model.b))) < 1e-11


@cache
def _cumulative(name):
    """(total, cumulative) of a density whose grid the planner inverts."""
    if name == "weight_binomial5_cubic_shift":
        return cumulative_weight(ts.binomial_model(5), ts.threshold_cubic_shift(0.5))
    if name == "weight_cosine5":
        return cumulative_weight(ts.cosine_model(5), ts.threshold_zero())
    return planner._zero_mass(ts.chebyshev_model(64))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["weight_binomial5_cubic_shift", "weight_cosine5", "zeros_chebyshev64"]),
    picks=st.lists(
        st.one_of(
            st.floats(0.0, 1.0),
            st.tuples(st.integers(0, 10**6), st.sampled_from([-1, 0, 1])),
        ),
        min_size=1,
        max_size=30,
    ),
    m=st.integers(1, 3000),
)
def test_inverse_is_monotone_and_guided_grids_strictly_increase(name, picks, m):
    # targets are shares of K, 0 and K included, and the prefix sums at
    # panel edges, each possibly one ulp off; the cosine density vanishes
    # at both ends of the domain
    total, cum = _cumulative(name)
    edges = cum._prefix
    targets = []
    for pick in picks:
        if isinstance(pick, float):
            targets.append(pick * total)
        else:
            edge = edges[pick[0] % edges.size]
            targets.append(np.nextafter(edge, pick[1] * np.inf) if pick[1] else edge)
    x = cum.inverse(np.sort(np.clip(targets, 0.0, total)))
    assert np.all(np.diff(x) >= 0.0)
    assert cum.a <= x[0] and x[-1] <= cum.b
    grid = place_grid(cum, total, m)
    assert grid.size == m + 1 and np.all(np.diff(grid) > 0.0)


def test_place_grid_at_two_hundred_thousand_cells(cheb5, thr, monkeypatch):
    # the inversion reads no density: it evaluates the interpolants about
    # four times per point, in blocks, and a grid this fine takes well
    # under a second; every point holds its share of K to check.py's 1e-10 K
    total, cum = cumulative_weight(cheb5, thr)
    m = 200_000
    evaluated = []

    def interpolant(*args):
        evaluated.append(args[-1].size)
        return real(*args)

    real = quadrature._interpolant
    monkeypatch.setattr(quadrature, "_interpolant", interpolant)
    start = time.monotonic()
    grid = place_grid(cum, total, m)
    elapsed = time.monotonic() - start
    assert max(evaluated) <= quadrature._TARGETS_PER_BLOCK
    assert sum(evaluated) <= 5 * m
    assert grid[0] == -1.0 and grid[-1] == 1.0 and np.all(np.diff(grid) > 0.0)
    assert np.max(np.abs(cum(grid) - total * np.arange(m + 1) / m)) <= 1e-10 * total
    assert elapsed < 10.0


def test_plans_read_densities_only_inside_their_integrals(binom5, monkeypatch):
    # the grids come from the node values the two integrals kept: every
    # density evaluation of a compare's three plans happens inside them
    inside, outside = [], []
    real_integral = quadrature.adaptive_simpson

    def integral(*args, **kwargs):
        inside.append(True)
        try:
            return real_integral(*args, **kwargs)
        finally:
            inside.pop()

    def counted(real):
        def density(*args, **kwargs):
            outside.append(not inside)
            return real(*args, **kwargs)

        return density

    monkeypatch.setattr(quadrature, "adaptive_simpson", integral)
    monkeypatch.setattr(planner, "adaptive_simpson", integral)
    monkeypatch.setattr(planner, "density_profile", counted(planner.density_profile))
    monkeypatch.setattr(planner, "zero_density", counted(planner.zero_density))
    plans = planner._build_plans(
        binom5, ts.threshold_cubic_shift(0.5), planner.STRATEGIES, m=7
    )
    assert len(plans) == 3 and outside and not any(outside)


def test_place_grid_validation(cheb5, thr):
    total, cum = cumulative_weight(cheb5, thr)
    with pytest.raises(ValueError):
        place_grid(cum, total, 0)
    with pytest.raises(DegenerateDensityError, match="mass 0.0 is not positive"):
        place_grid(cum, 0.0, 4)


def _plan_bits(plans):
    return [
        (p.strategy, p.m, p.grid.tobytes(), p.total_weight.hex(), p.bound, p.bound_vacuous, p.uniform_fallback)
        for p in plans
    ]


def test_a_warm_plan_inverts_nothing(binom5, monkeypatch):
    # the compare workload's three plans: the second call finds both
    # guided grids kept on their integrals and returns their bits
    threshold = ts.threshold_cubic_shift(0.5)
    cold = _plan_bits(planner._build_plans(binom5, threshold, planner.STRATEGIES, m=7))
    inverted = []
    real = quadrature.CumulativeIntegral.inverse

    def inverse(self, targets):
        inverted.append(targets)
        return real(self, targets)

    monkeypatch.setattr(quadrature.CumulativeIntegral, "inverse", inverse)
    assert _plan_bits(planner._build_plans(binom5, threshold, planner.STRATEGIES, m=7)) == cold
    assert inverted == []
    ts.forget()
    assert _plan_bits(planner._build_plans(binom5, threshold, planner.STRATEGIES, m=7)) == cold
    assert len(inverted) == 2


def test_a_new_cell_count_replaces_the_kept_grid(cheb5, thr):
    total, cum = cumulative_weight(cheb5, thr)
    eight = place_grid(cum, total, 8)
    assert place_grid(cum, total, 8) is eight
    bits, old = eight.tobytes(), weakref.ref(eight)
    nine = place_grid(cum, total, 9)
    assert cum.grid_slot == [((total, 9), nine)]
    del eight
    assert old() is None
    again = place_grid(cum, total, 8)
    assert again.tobytes() == bits and cum.grid_slot[0][1] is again


@pytest.mark.parametrize("model", ["binomial5", "constant"])
def test_plan_grids_are_read_only(model, binom5, thr):
    # every strategy's grid, a guided grid's uniform fallback included
    # (a constant field has no density), is read-only, so a kept grid
    # cannot be written through a plan
    model = binom5 if model == "binomial5" else ts.chebyshev_model(0)
    plans = planner._build_plans(model, thr, planner.STRATEGIES, m=7)
    assert [p.uniform_fallback for p in plans] == [model.n_terms == 1, False, model.n_terms == 1]
    for plan in plans:
        with pytest.raises(ValueError, match="read-only"):
            plan.grid[1] = 0.0


def test_a_zero_mass_raises_on_every_call(cheb5, thr):
    total, cum = cumulative_weight(cheb5, thr)
    place_grid(cum, total, 4)
    for _ in range(2):
        with pytest.raises(DegenerateDensityError, match="mass 0.0 is not positive"):
            place_grid(cum, 0.0, 4)
        assert cum.grid_slot == [None]


def test_failure_bound_values():
    assert ts.failure_bound(2.0, 10) == pytest.approx(0.92, rel=1e-14)
    assert ts.failure_bound(10.0, 3) == 0.0
    assert ts.failure_bound(0.0, 1) == 1.0
    with pytest.raises(ValueError):
        ts.failure_bound(-1.0, 5)
    with pytest.raises(ValueError):
        ts.failure_bound(1.0, 0)


def test_min_samples_values():
    assert ts.min_samples(2.0, 0.95) == 13
    assert ts.min_samples(K_CHEB5, 0.95) == 8
    assert ts.min_samples(K_BINOM5, 0.95) == 7
    assert ts.min_samples(0.0, 0.99) == 1
    with pytest.raises(ValueError):
        ts.min_samples(1.0, 1.0)


def test_min_samples_is_sufficient_and_tight():
    for total in (0.5, 1.3, 2.7, 4.0):
        for p in (0.5, 0.9, 0.99):
            m = ts.min_samples(total, p)
            assert ts.failure_bound(total, m) >= p
            if m > 1:
                assert ts.failure_bound(total, m - 1) < p


def test_uniform_bound_samples():
    assert uniform_bound_samples(0.75, 1.0, 0.95) == 5
    with pytest.raises(ValueError):
        uniform_bound_samples(-1.0, 1.0, 0.5)


def test_peak_crossover_rate_anchor(cheb5, thr):
    assert peak_crossover_rate(cheb5, thr) == pytest.approx(1.2406976956018596, rel=1e-9)


def test_build_plan_topology(cheb5, thr):
    plan = ts.build_plan(cheb5, thr, "topology", p=0.95)
    assert plan.m == 8
    assert plan.strategy == "topology"
    assert plan.grid.shape == (9,)
    assert plan.total_weight == pytest.approx(K_CHEB5, rel=1e-9)
    assert plan.bound == pytest.approx(1.0 - K_CHEB5**3 / 64.0, rel=1e-9)
    assert not plan.bound_vacuous and not plan.uniform_fallback


def test_build_plan_uniform(cheb5, thr):
    plan = ts.build_plan(cheb5, thr, "uniform", m=10)
    assert np.array_equal(plan.grid, np.linspace(-1.0, 1.0, 11))
    # the bound is a property of the cell count, not of the grid rule
    assert plan.bound == pytest.approx(1.0 - K_CHEB5**3 / 100.0, rel=1e-9)


def test_build_plan_density_strategy(binom5, thr):
    plan = ts.build_plan(binom5, thr, "density", m=6)
    assert plan.grid.shape == (7,)
    assert np.all(np.diff(plan.grid) > 0)
    # zero-density-guided cells each hold an equal share of expected zeros
    grid = ts.build_plan(binom5, thr, "density", m=4).grid
    mid = np.arctan(3.0) / 2.0
    # quartiles of arctan-distributed mass sit at tan(+-atan(3)/2) and 0
    assert grid[2] == pytest.approx(0.0, abs=1e-9)
    assert grid[1] == pytest.approx(-np.tan(mid), abs=1e-9)
    assert grid[3] == pytest.approx(np.tan(mid), abs=1e-9)


def test_build_plan_argument_validation(cheb5, thr):
    with pytest.raises(ValueError):
        ts.build_plan(cheb5, thr, "topology")
    with pytest.raises(ValueError):
        ts.build_plan(cheb5, thr, "topology", m=4, p=0.9)
    with pytest.raises(ValueError):
        ts.build_plan(cheb5, thr, "sideways", m=4)


def test_build_plan_extreme_threshold(cheb5):
    # a huge constant threshold crushes the density but leaves it positive,
    # so the guided grid survives and the clamped bound saturates at 1
    plan = ts.build_plan(cheb5, ts.threshold_constant(50.0), "topology", m=4)
    assert not plan.uniform_fallback
    assert plan.total_weight < 1e-40
    assert plan.bound == 1.0
    assert np.all(np.diff(plan.grid) > 0)


def test_build_plan_fallback_on_vanishing_density(sinusoid):
    # single active frequency: derivative covariance is singular everywhere,
    # the mass is exactly zero, and the plan degrades to a uniform grid
    plan = ts.build_plan(sinusoid, ts.threshold_zero(), "topology", m=3)
    assert plan.uniform_fallback
    assert plan.total_weight == 0.0
    assert plan.bound == 1.0
    assert np.array_equal(plan.grid, np.linspace(0.0, 1.0, 4))


@pytest.mark.parametrize("strategy", ["topology", "density"])
def test_guided_strategies_fall_back_on_zero_mass(strategy, thr):
    # a constant field has neither zeros nor a sampling density: both
    # masses are zero, and both guided strategies degrade to a uniform grid
    model = ts.chebyshev_model(0)
    plan = ts.build_plan(model, thr, strategy, m=4)
    assert plan.uniform_fallback
    assert np.array_equal(plan.grid, np.linspace(-1.0, 1.0, 5))


def test_expected_zero_count_anchor(binom5):
    # closed form: sqrt(5) * 2 * atan(3) / pi
    want = np.sqrt(5.0) * 2.0 * np.arctan(3.0) / np.pi
    assert expected_zero_count(binom5) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", [120, 150])
def test_zero_count_needs_only_the_zero_density_jet(n):
    # the sampling density's jet overflows here, the zero density's does not
    want = np.sqrt(n) * 2.0 * np.arctan(3.0) / np.pi
    assert expected_zero_count(ts.binomial_model(n)) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "model", [ts.binomial_model(120), ts.binomial_model(200), ts.unit_model(110)],
    ids=["binomial120", "binomial200", "unit110"],
)
def test_overflowing_jet_is_not_a_degenerate_point(model):
    # before, overflowed points counted as degenerate and were extended by 0
    with pytest.raises(NonFiniteDensityError):
        cumulative_weight(model, ts.threshold_zero())


def test_overflowing_zero_density_jet_is_an_error():
    with pytest.raises(NonFiniteDensityError):
        expected_zero_count(ts.binomial_model(200))


def _wave(k):
    """(f, f', f'') of cos(k x), a custom basis entry."""
    return (
        lambda x: np.cos(k * x),
        lambda x: -k * np.sin(k * x),
        lambda x: -k * k * np.cos(k * x),
    )


KEY_MODELS = {
    "chebyshev": ts.chebyshev_model(5),
    "cosine": ts.cosine_model(5),
    "periodic": ts.periodic_model([0.0, 1.0, 0.5, 0.25]),
    "binomial": ts.binomial_model(5),
    "unit": ts.unit_model(5),
    "custom": ts.custom_model([_wave(k) for k in range(4)], (0.0, 2.0)),
}


def _integral_bits(integral):
    total, cumulative = integral
    tables = (cumulative._left, cumulative._right, cumulative._prefix, cumulative._values)
    return [total.hex()] + [table.tobytes() for table in tables]


@pytest.mark.parametrize("family", sorted(KEY_MODELS))
def test_kept_integrals_recompute_when_a_key_bit_changes(family, monkeypatch):
    # each call differs from the one before in one part of its key: the
    # variances, a covariance in place of them, or a threshold of -0.0
    # for 0.0; each integrates afresh, to the bits of a cold call, and
    # a repeated call integrates nothing
    model = KEY_MODELS[family]
    varied = replace(model, variances=model.variances * np.linspace(1.0, 2.0, model.n_terms))
    full = replace(model, variances=None, covariance=np.diag(model.variances))
    zero, negative_zero = ts.threshold_constant(0.0), ts.threshold_constant(-0.0)
    weight_calls = [(m, zero) for m in (model, varied, full, model)] + [(model, negative_zero)]
    sequences = [
        [(cumulative_weight, args) for args in weight_calls],
        [(planner._zero_mass, (m,)) for m in (model, varied, full, model)],
    ]
    integrals = []
    real = quadrature.adaptive_simpson

    def counted(*args, **kwargs):
        integrals.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "adaptive_simpson", counted)
    for calls in sequences:
        for fn, args in calls:
            before = len(integrals)
            warm = _integral_bits(fn(*args))
            assert len(integrals) == before + 1
            assert _integral_bits(fn(*args)) == warm and len(integrals) == before + 1
            ts.forget()
            assert _integral_bits(fn(*args)) == warm


def test_an_integral_that_raises_leaves_its_slot_empty(binom5, thr):
    cumulative_weight(binom5, thr)
    for _ in range(2):
        with pytest.raises(NonFiniteDensityError):
            cumulative_weight(ts.binomial_model(120), thr)
        assert _kept["weight"] is None
    planner._zero_mass(binom5)
    for _ in range(2):
        with pytest.raises(NonFiniteDensityError):
            expected_zero_count(ts.binomial_model(200))
        assert _kept["zeros"] is None


def test_kept_panel_arrays_are_read_only(cheb5, thr):
    for _, cumulative in (cumulative_weight(cheb5, thr), planner._zero_mass(cheb5)):
        tables = (cumulative._left, cumulative._right, cumulative._width)
        for table in tables + (cumulative._prefix, cumulative._values):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0


@pytest.mark.parametrize(
    "integral, budget",
    [
        (lambda: expected_zero_count(ts.chebyshev_model(64)), 5000),
        (lambda: cumulative_weight(ts.binomial_model(5), ts.threshold_cubic_shift(0.5)), 400),
        (lambda: cumulative_weight(ts.unit_model(20), ts.threshold_zero()), 2000),
    ],
    ids=["zeros_chebyshev64", "weight_binomial5_cubic_shift", "weight_unit20"],
)
def test_integrals_stay_within_their_point_budgets(integral, budget, monkeypatch):
    # adaptive Simpson at the same tolerance took 20,513, 1,457 and
    # 832,473 integrand points here; the last churned on rounding noise
    points = []
    real = quadrature.adaptive_simpson

    def counted(fn, a, b, *args, **kwargs):
        def integrand(x):
            points.append(np.size(x))
            return fn(x)

        return real(integrand, a, b, *args, **kwargs)

    monkeypatch.setattr(planner, "adaptive_simpson", counted)
    monkeypatch.setattr(quadrature, "adaptive_simpson", counted)
    integral()
    assert 0 < sum(points) <= budget


def test_zero_count_integral_memory_is_bounded():
    # integrand calls are chunked, so the Chebyshev-64 jets of a pass are
    # never held at once (4.5 MB when one call took every point of a pass)
    model = ts.chebyshev_model(64)
    tracemalloc.start()
    try:
        expected_zero_count(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("n, k", [(50, 2.42828), (80, 2.70439)])
def test_unit_mass_keeps_the_ends(n, k, thr):
    # near |x| = 3 det3 / (r00 r11 r22) falls below 1e-12, where the
    # determinant formula cannot resolve it; masking those points as
    # degenerate made K silently low (2.41970 at n = 50, 2.59684 at n = 80)
    total, _ = cumulative_weight(ts.unit_model(n), thr)
    assert total == pytest.approx(k, abs=1e-5)


def test_scaling_study_shape():
    rows = ts.scaling_study("chebyshev", [2, 4], 0.95)
    assert [r.n for r in rows] == [2, 4]
    assert rows[0].total_weight < rows[1].total_weight
    assert rows[0].samples_topology <= rows[1].samples_topology
    assert rows[0].expected_zeros < rows[1].expected_zeros
    for r in rows:
        assert r.samples_topology == ts.min_samples(r.total_weight, 0.95)
    with pytest.raises(ValueError):
        ts.scaling_study("nope", [2], 0.9)
