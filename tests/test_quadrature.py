"""Adaptive quadrature, cumulative integrals, and 1-D searches."""
import math
import time

import numpy as np
import pytest

from toposample import quadrature
from toposample.errors import NonFiniteDensityError
from toposample.quadrature import (
    adaptive_simpson,
    bisect_increasing,
    cumulative_integral,
    golden_max,
)


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
        integ, err = quadrature._gauss_kronrod(lambda x: x**degree, -one, one)
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
def test_inverse_converges_in_a_few_vectorised_passes(fn):
    # each pass evaluates the integrand once for every unfinished target;
    # a Newton point that lands on a bracket end is still accepted, so
    # no target falls back to a long run of midpoint steps
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return fn(x)

    total, cum = cumulative_integral(counted, 0.0, 1.5)
    calls.clear()
    cum.inverse(total * np.arange(1, 100) / 100)
    assert len(calls) <= 6


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
