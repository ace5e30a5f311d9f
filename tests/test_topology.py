"""Component counting on grids and against the dense oracle."""
import numpy as np
import pytest

import toposample as ts
from toposample.fields import SamplePath
from toposample.topology import (
    admissibility_failure_bound,
    admissible_to_depth,
    cubical_beta0,
    default_oracle_resolution,
    double_crossover,
    oracle_beta0,
    verify_match,
)


def _cheb_path(model, weights):
    coeffs = np.zeros(model.n_terms)
    for k, w in weights.items():
        coeffs[k] = w
    return SamplePath(model, coeffs)


def test_cubical_beta0_hand_cases():
    assert cubical_beta0(np.array([1.0, 2.0, 3.0])) == (1, 0)
    assert cubical_beta0(np.array([-1.0, -1.0])) == (0, 1)
    assert cubical_beta0(np.array([1.0, -1.0, 1.0])) == (2, 1)
    assert cubical_beta0(np.array([-2.0, 1.0, -3.0, 4.0])) == (2, 2)
    # zeros belong to both closed excursion sets
    assert cubical_beta0(np.array([0.0])) == (1, 1)
    assert cubical_beta0(np.array([1.0, 0.0, -1.0])) == (1, 1)
    assert cubical_beta0(np.array([1.0, 0.0, 1.0])) == (1, 1)


def test_cubical_beta0_validation():
    with pytest.raises(ValueError):
        cubical_beta0(np.array([]))
    with pytest.raises(ValueError):
        cubical_beta0(np.zeros((2, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            cubical_beta0(np.array([1.0, bad, 1.0]))


def test_double_crossover_truth_table():
    assert double_crossover(1.0, -1.0, 1.0)
    assert double_crossover(-1.0, 1.0, -1.0)
    assert not double_crossover(1.0, 1.0, 1.0)
    assert not double_crossover(1.0, -1.0, -1.0)
    assert not double_crossover(-1.0, -1.0, 1.0)


def test_oracle_counts_linear_path(cheb5, thr):
    path = _cheb_path(cheb5, {1: 1.0})  # u(x) = x
    count = oracle_beta0(path, thr, -1.0, 1.0, 1024)
    assert (count.beta0_pos, count.beta0_neg) == (1, 1)
    assert count.zeros == pytest.approx([0.0], abs=1e-10)
    assert not count.degenerate


def test_oracle_counts_two_zeros(cheb5, thr):
    path = _cheb_path(cheb5, {2: 1.0})  # u(x) = 2x^2 - 1
    count = oracle_beta0(path, thr, -1.0, 1.0, 2048)
    assert (count.beta0_pos, count.beta0_neg) == (2, 1)
    root = 0.5 ** 0.5
    assert count.zeros == pytest.approx([-root, root], abs=1e-10)
    assert not count.degenerate


def test_oracle_flags_tangential_zero(cheb5, thr):
    # u(x) = x^2 grazes zero; an odd resolution lands a scan point on it
    path = _cheb_path(cheb5, {0: 0.5, 2: 0.5})
    count = oracle_beta0(path, thr, -1.0, 1.0, 2049)
    assert count.degenerate
    assert count.zeros == pytest.approx([0.0], abs=1e-12)


def test_oracle_resolution_floor(cheb5, thr):
    path = _cheb_path(cheb5, {1: 1.0})
    with pytest.raises(ValueError):
        oracle_beta0(path, thr, -1.0, 1.0, 2)


def test_oracle_sinusoid_period(sinusoid, thr):
    # every nonzero path of a single frequency crosses zero exactly twice
    for seed in range(5):
        path = ts.sample_path(sinusoid, seed=seed)
        count = oracle_beta0(path, thr, 0.0, 1.0, 2048)
        assert count.zeros.size == 2


def test_default_oracle_resolution(cheb5, binom5):
    # 4096 per expected zero, with at least one block
    assert default_oracle_resolution(cheb5) == 4096 * 3
    assert default_oracle_resolution(binom5) == 4096 * 2


def test_admissibility_monotone_path(cheb5, thr):
    path = _cheb_path(cheb5, {1: 1.0})
    for depth in (0, 3, 6):
        assert admissible_to_depth(path, thr, (-1.0, 1.0), depth=depth)


def test_admissibility_detects_double_crossover(cheb5, thr):
    # u = 2x^2 - 1 dips below zero between the endpoints of [-1, 1]
    path = _cheb_path(cheb5, {2: 1.0})
    assert not admissible_to_depth(path, thr, (-1.0, 1.0), depth=0)
    # on one half of the domain there is a single crossing: fine at any depth
    assert admissible_to_depth(path, thr, (0.0, 1.0), depth=8)


def test_admissibility_antitone_in_depth(cheb5, thr):
    # deeper checks only add constraints; track the first failing depth
    path = _cheb_path(cheb5, {3: 1.0})  # 4x^3 - 3x, three zeros in [-1, 1]
    flags = [admissible_to_depth(path, thr, (-0.99, 0.99), depth=d) for d in range(6)]
    for earlier, later in zip(flags, flags[1:]):
        assert earlier or not later


def test_admissibility_validation(cheb5, thr):
    path = _cheb_path(cheb5, {1: 1.0})
    with pytest.raises(ValueError):
        admissible_to_depth(path, thr, (0.5, 0.5), depth=2)
    with pytest.raises(ValueError):
        admissible_to_depth(path, thr, (-1.0, 1.0), depth=-1)


def test_admissibility_failure_bound():
    assert admissibility_failure_bound(2.0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert admissibility_failure_bound(0.0, 1.0) == 0.0


def test_verify_match_fine_grid(cheb5, thr):
    path = _cheb_path(cheb5, {2: 1.0})
    plan = ts.build_plan(cheb5, thr, "uniform", m=8)
    report = verify_match(path, thr, plan, resolution=4096)
    assert (report.beta0_true_pos, report.beta0_true_neg) == (2, 1)
    assert (report.beta0_grid_pos, report.beta0_grid_neg) == (2, 1)
    assert report.match_pos and report.match_neg and report.match
    assert report.zeros.size == 2
    assert not report.degenerate


def test_verify_match_coarse_grid_misses(cheb5, thr):
    path = _cheb_path(cheb5, {2: 1.0})
    plan = ts.build_plan(cheb5, thr, "uniform", m=1)
    report = verify_match(path, thr, plan, resolution=4096)
    # endpoints are both positive; the dip is invisible at m = 1
    assert (report.beta0_grid_pos, report.beta0_grid_neg) == (1, 0)
    assert not report.match


def test_oracle_zeros_match_exact_chebyshev_roots(cheb5, thr):
    # the root polish must keep each zero inside the scan bracket it came
    # from and land on the exact roots, here the real eigenvalues in
    # [-1, 1] of the Chebyshev colleague matrix
    resolution = 4096
    xs = np.linspace(-1.0, 1.0, resolution)
    checked = 0
    for stream in range(300):
        path = ts.sample_path(cheb5, seed=2718, stream=stream)
        count = oracle_beta0(path, thr, -1.0, 1.0, resolution)
        fs = path.value(xs)
        bracket = np.flatnonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0.0)
        assert count.zeros.size == bracket.size
        assert np.all(xs[bracket] <= count.zeros)
        assert np.all(count.zeros <= xs[bracket + 1])
        exact = np.polynomial.chebyshev.chebroots(path.coeffs)
        exact = np.sort(exact[exact.imag == 0.0].real)
        exact = exact[(exact >= -1.0) & (exact <= 1.0)]
        assert count.zeros == pytest.approx(exact, rel=0.0, abs=1e-11)
        checked += count.zeros.size
    assert checked > 500
