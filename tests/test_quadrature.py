"""Adaptive quadrature, cumulative integrals, and 1-D searches."""
import math
import time

import numpy as np
import pytest

import toposample as ts
from toposample import planner, quadrature
from toposample.errors import NonFiniteDensityError
from toposample.quadrature import (
    CumulativeIntegral,
    adaptive_simpson,
    bisect_increasing,
    cumulative_integral,
    golden_max,
)

from reference import gauss_legendre_partial


def test_polynomial_exact():
    val, _ = adaptive_simpson(lambda x: x * x, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_sine_over_half_period():
    val, _ = adaptive_simpson(np.sin, 0.0, np.pi)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_arctan_anchor():
    val, _ = adaptive_simpson(lambda x: 1.0 / (1.0 + x * x), -3.0, 3.0)
    assert val == pytest.approx(2.0 * math.atan(3.0), rel=1e-12)


def test_narrow_bump_resolved():
    # width 1e-3 Gaussian inside a wide window; the coarse initial grid
    # must refine into it rather than miss it
    w = 1e-3
    fn = lambda x: np.exp(-(((x - 0.299) / w) ** 2))
    val, _ = adaptive_simpson(fn, -4.0, 4.0, rel_tol=1e-9)
    assert val == pytest.approx(w * math.sqrt(math.pi), rel=1e-8)


def test_nonfinite_integrand_rejected():
    fn = lambda x: np.where(np.asarray(x) > 0.5, np.inf, 1.0)
    with pytest.raises(NonFiniteDensityError):
        adaptive_simpson(fn, 0.0, 1.0)


def test_noise_band_terminates():
    # high-frequency noise riding on a constant: refinement must hit the
    # width floor and panel budget instead of subdividing forever
    fn = lambda x: 1.0 + 1e-8 * np.sin(1e12 * x)
    start = time.monotonic()
    val, panels = adaptive_simpson(fn, 0.0, 1.0, rel_tol=1e-12)
    elapsed = time.monotonic() - start
    assert val == pytest.approx(1.0, abs=1e-6)
    assert panels[0].size <= (1 << 21)
    assert elapsed < 30.0


def test_kronrod_tables():
    # the Gauss 7-point rule sits on every other Kronrod node, and on one
    # panel K15 is exact through degree 22 and G7 through degree 13
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(quadrature._KRONROD15_NODES[1::2], -nodes[:4], rtol=0, atol=1e-15)
    assert np.allclose(quadrature._GAUSS7_WEIGHTS, weights[:4], rtol=0, atol=1e-15)
    one = np.array([1.0])
    for degree in range(23):
        integ, err, _ = quadrature._gauss_kronrod(lambda x: x**degree, -one, one)
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert integ[0] == pytest.approx(exact, abs=1e-15)
        assert err[0] <= (1e-15 if degree <= 13 else 1e-2)


@pytest.mark.parametrize("end", [0.0, 1.0])
def test_first_pass_samples_both_ends(end):
    # no Kronrod node reaches an end of [a, b], so the first pass evaluates
    # f(a) and f(b) too: an integrand that is not finite only there raises
    fn = lambda x: np.where(np.asarray(x) == end, np.inf, 1.0)
    with pytest.raises(NonFiniteDensityError):
        adaptive_simpson(fn, 0.0, 1.0)


def test_integrand_calls_are_chunked_without_changing_the_result(monkeypatch):
    # every integrand call holds at most _POINTS_PER_CALL points, and the
    # chunks leave the bits of a pointwise integrand's integral unchanged
    fn = lambda x: np.sqrt(np.abs(x - 0.3))
    monkeypatch.setattr(quadrature, "_POINTS_PER_CALL", 1 << 20)
    whole = adaptive_simpson(fn, 0.0, 1.0, rel_tol=1e-12)
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return fn(x)

    monkeypatch.setattr(quadrature, "_POINTS_PER_CALL", 64)
    chunked = adaptive_simpson(counted, 0.0, 1.0, rel_tol=1e-12)
    assert max(sizes) == 64 and len(sizes) > 10
    assert chunked[0] == whole[0]
    assert all(np.array_equal(c, w) for c, w in zip(chunked[1], whole[1]))
    # sqrt|x - 0.3| integrates to (2/3)(0.3^1.5 + 0.7^1.5) over [0, 1]
    assert whole[0] == pytest.approx((0.3**1.5 + 0.7**1.5) * 2.0 / 3.0, rel=1e-12)


def test_cumulative_matches_closed_form():
    total, cum = cumulative_integral(np.cos, 0.0, np.pi / 2)
    assert total == pytest.approx(1.0, rel=1e-12)
    for x in np.linspace(0.0, np.pi / 2, 17):
        assert cum(float(x)) == pytest.approx(math.sin(x), abs=1e-10)
    assert cum(-1.0) == 0.0
    assert cum(10.0) == total


def test_cumulative_is_monotone():
    total, cum = cumulative_integral(lambda x: 1.0 + x * x, -1.0, 2.0)
    xs = np.linspace(-1.0, 2.0, 41)
    vals = [cum(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(total, rel=1e-12)


def test_inverse_round_trip():
    # F = sin on [0, pi/2]
    total, cum = cumulative_integral(np.cos, 0.0, np.pi / 2)
    targets = np.linspace(0.0, total, 101)
    xs = cum.inverse(targets)
    assert np.max(np.abs(cum(xs) - targets)) <= 1e-14
    # compared in F, since arcsin is steep near the right end
    assert np.max(np.abs(np.sin(xs) - targets)) <= 1e-14
    assert xs[0] == 0.0


def test_inverse_round_trip_with_vanishing_integrand():
    # f = 3 x^2 vanishes at the left end, where Newton slopes are zero
    total, cum = cumulative_integral(lambda x: 3.0 * x * x, 0.0, 2.0)
    targets = total * np.arange(1, 40) / 40
    xs = cum.inverse(targets)
    assert np.max(np.abs(cum(xs) - targets)) <= 1e-14 * total
    assert xs == pytest.approx(np.cbrt(targets), abs=1e-12)


@pytest.mark.parametrize("fn", [np.cos, lambda x: 3.0 * x * x])
def test_inverse_converges_in_a_few_vectorised_passes(fn, monkeypatch):
    # F and its inverse read only the node values the integration kept:
    # neither calls the integrand. Each Newton pass evaluates the
    # interpolants once for every unfinished target; a Newton point that
    # lands on a bracket end is still accepted, so no target falls back
    # to a long run of midpoint steps
    calls, passes = [], []

    def counted(x):
        calls.append(np.size(x))
        return fn(x)

    def interpolant(*args):
        passes.append(args[-1].size)
        return real(*args)

    real = quadrature._interpolant
    total, cum = cumulative_integral(counted, 0.0, 1.5)
    calls.clear()
    monkeypatch.setattr(quadrature, "_interpolant", interpolant)
    cum.inverse(total * np.arange(1, 100) / 100)
    assert calls == [] and 0 < len(passes) <= 6
    cum(np.linspace(0.0, 1.5, 7))
    assert calls == []


def _cube_root_weight(model, threshold):
    density = planner.sampling_density_fn(model, threshold)
    return lambda x: np.cbrt(density(x))


INTEGRANDS = {
    "weight_binomial5_cubic_shift": lambda: (
        _cube_root_weight(ts.binomial_model(5), ts.threshold_cubic_shift(0.5)),
        ts.binomial_model(5),
    ),
    "zeros_chebyshev64": lambda: (
        planner.zero_density_fn(ts.chebyshev_model(64)),
        ts.chebyshev_model(64),
    ),
    "weight_cosine5": lambda: (
        _cube_root_weight(ts.cosine_model(5), ts.threshold_zero()),
        ts.cosine_model(5),
    ),
    "weight_unit20": lambda: (
        _cube_root_weight(ts.unit_model(20), ts.threshold_zero()),
        ts.unit_model(20),
    ),
}


def _f_error_ratios(name, per_panel=5):
    """|F - reference| over its tolerance, at random points of every panel.

    The reference is the panel's prefix sum plus the 8-node
    Gauss-Legendre partial rule from its left edge; the tolerance is the
    panel's |K15 - G7| estimate plus 8 eps K for the rounding of the
    prefix sums.
    """
    fn, model = INTEGRANDS[name]()
    total, panels = adaptive_simpson(fn, model.a, model.b)
    cum = CumulativeIntegral(model.a, model.b, total, panels)
    left, right, integ, _ = panels
    _, err, _ = quadrature._gauss_kronrod(fn, left, right)
    i = np.repeat(np.arange(left.size), per_panel)
    x = left[i] + np.random.default_rng(7).random(i.size) * (right - left)[i]
    prefix = np.concatenate([[0.0], np.cumsum(integ)])
    reference = prefix[i] + gauss_legendre_partial(fn, left[i], x)
    return np.abs(cum(x) - reference) / (err[i] + 8.0 * np.finfo(float).eps * total)


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_interpolant_f_matches_a_gauss_legendre_reference(name):
    # F inside a panel integrates the degree-14 interpolant through the
    # panel's 15 Kronrod node values; it agrees with an independent rule
    # that evaluates the integrand afresh, within the panel's own estimate
    assert np.max(_f_error_ratios(name)) <= 1.0


def test_a_wrong_interpolation_matrix_entry_is_caught(monkeypatch):
    # one entry of the fixed values-to-coefficients matrix off by 1e-9
    # moves F far outside the reference check's tolerance
    wrong = quadrature._chebyshev_from_values().copy()
    wrong[4, 9] += 1e-9
    monkeypatch.setattr(quadrature, "_chebyshev_from_values", lambda: wrong)
    assert np.max(_f_error_ratios("weight_binomial5_cubic_shift")) > 1e3


def test_interpolant_integrates_to_the_panel_sums():
    # the Kronrod rule is exact to degree 22, so each interpolant's integral
    # over its own panel is the panel's Kronrod sum: F is continuous
    fn, model = INTEGRANDS["zeros_chebyshev64"]()
    total, panels = adaptive_simpson(fn, model.a, model.b)
    cum = CumulativeIntegral(model.a, model.b, total, panels)
    left, right, integ, vals = panels
    assert vals.shape == (left.size, 15)
    c = vals @ quadrature._chebyshev_from_values().T
    part, _ = quadrature._interpolant(
        c, quadrature._antiderivative(c), left, right - left, right
    )
    assert np.max(np.abs(part - integ)) <= 1e-15 * total
    assert cum(left[0]) == 0.0 and cum(model.b) == total


def test_only_cumulative_integral_marks_its_panels_read_only():
    # the constructor leaves the arrays it is given as they are; the
    # panels cumulative_integral makes are its own, and read-only
    total, panels = adaptive_simpson(lambda x: 1.0 + x * x, -1.0, 2.0)
    CumulativeIntegral(-1.0, 2.0, total, panels)
    assert all(array.flags.writeable for array in panels)
    _, cum = cumulative_integral(lambda x: 1.0 + x * x, -1.0, 2.0)
    for array in (cum._left, cum._right, cum._width, cum._prefix, cum._values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_cumulative_array_query_matches_scalar_queries():
    total, cum = cumulative_integral(lambda x: 1.0 + x * x, -1.0, 2.0)
    xs = np.array([-2.0, -1.0, -0.3, 0.0, 1.7, 2.0, 3.0])
    assert np.array_equal(cum(xs), np.array([cum(float(x)) for x in xs]))


def test_golden_max_quadratic():
    x, v = golden_max(lambda x: -((x - 0.3) ** 2), -1.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-15)


def test_golden_max_multimodal():
    # two peaks; the scan stage must find the taller one
    fn = lambda x: np.exp(-((x - 0.8) ** 2) / 0.01) + 0.6 * np.exp(-((x + 0.5) ** 2) / 0.01)
    x, v = golden_max(fn, -1.0, 1.0)
    assert x == pytest.approx(0.8, abs=1e-6)
    assert v == pytest.approx(1.0, rel=1e-9)


def test_bisect_increasing_root():
    root = bisect_increasing(lambda x: x**3 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-11)
