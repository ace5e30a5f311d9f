"""Component counting on grids and against the dense oracle."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toposample as ts
from toposample import topology
from toposample.fields import SamplePath, basis_values
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
    # elementwise on arrays, each row as its scalar call
    rows = np.array([[1.0, -1.0, 1.0], [0.0, 0.0, 0.0], [1.0, -1.0, -1.0], [-2.0, 0.5, -0.1]])
    assert double_crossover(*rows.T).tolist() == [double_crossover(*r) for r in rows]


def test_oracle_counts_linear_path(cheb5, thr):
    path = _cheb_path(cheb5, {1: 1.0})  # u(x) = x
    count = oracle_beta0(path, thr, 1024)
    assert (count.beta0_pos, count.beta0_neg) == (1, 1)
    assert count.zeros == pytest.approx([0.0], abs=1e-10)
    assert not count.degenerate


def test_oracle_counts_two_zeros(cheb5, thr):
    path = _cheb_path(cheb5, {2: 1.0})  # u(x) = 2x^2 - 1
    count = oracle_beta0(path, thr, 2048)
    assert (count.beta0_pos, count.beta0_neg) == (2, 1)
    root = 0.5 ** 0.5
    assert count.zeros == pytest.approx([-root, root], abs=1e-10)
    assert not count.degenerate


def test_oracle_flags_tangential_zero(cheb5, thr):
    # u(x) = x^2 grazes zero; an odd resolution lands a scan point on it
    path = _cheb_path(cheb5, {0: 0.5, 2: 0.5})
    count = oracle_beta0(path, thr, 2049)
    assert count.degenerate
    assert count.zeros == pytest.approx([0.0], abs=1e-12)
    # {u >= 0} is the whole interval and {u <= 0} the single point 0
    assert (count.beta0_pos, count.beta0_neg) == (1, 1)


@pytest.mark.parametrize("slope, root", [(1.0, -1.0), (-1.0, 1.0)], ids=["at a", "at b"])
def test_oracle_counts_a_zero_at_an_end_like_any_grid(cheb5, thr, slope, root):
    # u = 1 + x vanishes at a, u = 1 - x at b: {u <= 0} is that one point
    path = _cheb_path(cheb5, {0: 1.0, 1: slope})
    count = oracle_beta0(path, thr, 1024)
    assert (count.beta0_pos, count.beta0_neg) == (1, 1)
    assert np.array_equal(count.zeros, [root])
    assert not count.degenerate
    for m in (1, 4, 7):
        plan = ts.build_plan(cheb5, thr, "uniform", m=m)
        assert verify_match(path, thr, plan, resolution=1024).match


def test_oracle_resolution_floor(cheb5, thr):
    path = _cheb_path(cheb5, {1: 1.0})
    with pytest.raises(ValueError):
        oracle_beta0(path, thr, 2)


def test_oracle_sinusoid_period(sinusoid, thr):
    # every nonzero path of a single frequency crosses zero exactly twice
    for seed in range(5):
        path = ts.sample_path(sinusoid, seed=seed)
        count = oracle_beta0(path, thr, 2048)
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
        count = oracle_beta0(path, thr, resolution)
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


def _uncached_oracle(monkeypatch, path, threshold, resolution):
    # the oracle with its scan basis and threshold values built afresh
    # for this call, the threshold always as an array
    def fresh(model, resolution):
        xs = np.linspace(model.a, model.b, resolution)
        return xs, basis_values(model, xs)

    with monkeypatch.context() as m:
        m.setattr(topology, "_scan_basis", fresh)
        m.setattr(topology, "_scan_threshold", lambda threshold, xs: threshold.value(xs))
        return oracle_beta0(path, threshold, resolution)


def _same_count(got, want):
    return (
        (got.beta0_pos, got.beta0_neg, got.zero_count, got.degenerate)
        == (want.beta0_pos, want.beta0_neg, want.zero_count, want.degenerate)
        and got.zeros.tobytes() == want.zeros.tobytes()
    )


@pytest.mark.parametrize(
    "family", ["chebyshev", "binomial_cubic_shift", "cosine_constant", "periodic"]
)
def test_oracle_equals_uncached_reference_scan(family, cheb5, binom5, cosine5, mode5, monkeypatch):
    model, threshold = {
        "chebyshev": (cheb5, ts.threshold_zero()),
        "binomial_cubic_shift": (binom5, ts.threshold_cubic_shift(0.5)),
        "cosine_constant": (cosine5, ts.threshold_constant(0.3)),
        "periodic": (mode5, ts.threshold_zero()),
    }[family]
    a, b = model.domain
    resolution = 4096
    ref_xs = np.linspace(a, b, resolution)
    for stream in range(300):
        path = ts.sample_path(model, seed=4242, stream=stream)
        count = oracle_beta0(path, threshold, resolution)
        assert _same_count(count, _uncached_oracle(monkeypatch, path, threshold, resolution))
        # the cached product is the scan of path.value and polyval, bit for bit
        _, xs, rows = topology._scan_basis_slot[0]
        scan = path.coeffs @ rows - topology._scan_threshold(threshold, xs)
        ref = path.value(ref_xs) - np.polynomial.polynomial.polyval(ref_xs, threshold.coeffs)
        assert scan.tobytes() == ref.tobytes()


def test_scan_basis_is_never_stale(cheb5, monkeypatch):
    # two models with equally many terms, so stale rows would go unnoticed
    # by the shapes; two resolutions, interleaved
    unit5 = ts.unit_model(5)
    keys = [(model, resolution) for model in (cheb5, unit5) for resolution in (513, 1024)]
    order = [keys[i % len(keys)] for i in range(0, 5 * len(keys), 3)]
    threshold = ts.threshold_zero()
    for stream, (model, resolution) in enumerate(order):
        path = ts.sample_path(model, seed=99, stream=stream)
        count = oracle_beta0(path, threshold, resolution)
        assert _same_count(count, _uncached_oracle(monkeypatch, path, threshold, resolution))
        assert topology._scan_basis_slot[0][0] == (model, resolution)


def test_scan_basis_slot_holds_one_read_only_entry(cheb5, binom5, thr, monkeypatch):
    builds = []

    def recording(model, xs):
        builds.append(topology._scan_basis_slot[0])  # state while building
        return basis_values(model, xs)

    monkeypatch.setattr(topology, "basis_values", recording)
    for model, stream in ((cheb5, 0), (cheb5, 1), (binom5, 0), (binom5, 1), (cheb5, 2)):
        oracle_beta0(ts.sample_path(model, seed=5, stream=stream), thr, 640)
    # one build per change of key, each into an emptied slot
    assert builds == [None, None, None]
    assert len(topology._scan_basis_slot) == 1
    key, xs, rows = topology._scan_basis_slot[0]
    assert key == (cheb5, 640)
    assert rows.shape == (cheb5.n_terms, 640)
    for array in (xs, rows):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_scan_basis_is_not_built_at_import():
    code = (
        "from toposample import topology; "
        "assert topology._scan_basis_slot == [None]; "
        "assert topology._scan_threshold_slot == [None]"
    )
    # the child imports the same package as this process, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(ts.__file__).resolve().parent.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


COUNT_FAMILIES = {
    "chebyshev": (ts.chebyshev_model(5), ts.threshold_zero()),
    "binomial_cubic_shift": (ts.binomial_model(5), ts.threshold_cubic_shift(0.5)),
    "cosine_constant": (ts.cosine_model(5), ts.threshold_constant(0.3)),
    "periodic": (ts.periodic_model([0.0] + [5.0 ** -0.5] * 5), ts.threshold_zero()),
}


@pytest.mark.parametrize("family", list(COUNT_FAMILIES))
def test_zero_count_is_the_polished_zero_count(family):
    # counting from the scan needs no root: the polish returns one root
    # per sign-change bracket, so the count equals the polished size
    model, threshold = COUNT_FAMILIES[family]
    counted = 0
    for stream in range(2000):
        count = oracle_beta0(ts.sample_path(model, seed=1618, stream=stream), threshold, 2048)
        before = (count.beta0_pos, count.beta0_neg, count.zero_count, count.degenerate)
        zeros = count.zeros
        assert count.zero_count == zeros.size
        assert (count.beta0_pos, count.beta0_neg, count.zero_count, count.degenerate) == before
        assert count.zeros is zeros  # polished once
        counted += count.zero_count
    assert counted > 2000


@pytest.mark.parametrize(
    "weights, resolution, zero",
    [({0: 1.0, 1: 1.0}, 1024, -1.0), ({0: 1.0, 1: -1.0}, 1024, 1.0), ({1: 1.0}, 1025, 0.0)],
    ids=["at a", "at b", "inside"],
)
def test_zero_count_includes_exact_scan_zeros(cheb5, thr, weights, resolution, zero):
    # u = 1 + x, 1 - x and x have a scan point on their only zero
    path = _cheb_path(cheb5, weights)
    assert np.any(np.linspace(-1.0, 1.0, resolution) == zero)
    count = oracle_beta0(path, thr, resolution)
    assert (count.beta0_pos, count.beta0_neg, count.zero_count) == (1, 1, 1)
    assert np.array_equal(count.zeros, [zero])


def test_zeros_are_polished_only_when_read(cheb5, thr, monkeypatch):
    polished = []
    original = topology._polish_roots

    def recording(*args):
        polished.append(args)
        return original(*args)

    monkeypatch.setattr(topology, "_polish_roots", recording)
    count = oracle_beta0(_cheb_path(cheb5, {2: 1.0}), thr, 2048)
    assert polished == [] and count.zero_count == 2
    root = 0.5 ** 0.5
    assert count.zeros == pytest.approx([-root, root], abs=1e-10)
    assert count.zeros == pytest.approx([-root, root], abs=1e-10)
    assert len(polished) == 1


def test_trial_pass_never_polishes(binom5, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a trial polished a root")

    monkeypatch.setattr(topology, "_polish_roots", forbidden)
    threshold = ts.threshold_cubic_shift(0.5)
    plans = [ts.build_plan(binom5, threshold, s, m=7) for s in ts.planner.STRATEGIES]
    assert len(plans) == 3
    results, (valid, total, _) = ts.harness.trial_pass(
        binom5, threshold, plans, trials=200, seed=3, oracle_resolution=1024
    )
    assert all(r.valid == valid for r in results) and total > valid
    zc = ts.zero_count_experiment(binom5, trials=200, seed=3, oracle_resolution=1024)
    assert zc.valid > 0 and zc.mean_zeros > 0.0


def test_scan_threshold_is_never_stale(cheb5, monkeypatch):
    # two models with equally many terms, two non-constant thresholds and
    # two resolutions, interleaved, so a stale entry would keep its shape
    unit5 = ts.unit_model(5)
    thresholds = (ts.threshold_polynomial([0.2, 0.5]), ts.threshold_cubic_shift(0.1))
    keys = [(m, t, r) for m in (cheb5, unit5) for t in thresholds for r in (513, 1024)]
    order = [keys[i % len(keys)] for i in range(0, 5 * len(keys), 3)]
    assert set(order) == set(keys)
    for stream, (model, threshold, resolution) in enumerate(order):
        path = ts.sample_path(model, seed=77, stream=stream)
        count = oracle_beta0(path, threshold, resolution)
        assert _same_count(count, _uncached_oracle(monkeypatch, path, threshold, resolution))
        (held, xs), _ = topology._scan_threshold_slot[0]
        assert held is threshold and xs is topology._scan_basis_slot[0][1]


def test_scan_threshold_slot_holds_one_read_only_entry(cheb5, binom5):
    cubic, line = ts.threshold_cubic_shift(0.5), ts.threshold_polynomial([0.1, 0.3])
    entries = []
    runs = [(cheb5, cubic, 0), (cheb5, cubic, 1), (binom5, cubic, 0)]
    runs += [(binom5, line, 0), (binom5, line, 1)]
    for model, threshold, stream in runs:
        oracle_beta0(ts.sample_path(model, seed=5, stream=stream), threshold, 640)
        entries.append(topology._scan_threshold_slot[0])
    # one build per change of threshold or scan grid, kept across paths
    assert [a is b for a, b in zip(entries, entries[1:])] == [True, False, False, True]
    assert len(topology._scan_threshold_slot) == 1
    (held, xs), values = topology._scan_threshold_slot[0]
    assert held is line and xs is topology._scan_basis_slot[0][1]
    assert values.tobytes() == line.value(xs).tobytes()
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 0.0
    # a degree-0 threshold is subtracted as its scalar, and leaves the slot alone
    oracle_beta0(ts.sample_path(binom5, seed=5, stream=2), ts.threshold_constant(0.3), 640)
    assert topology._scan_threshold_slot[0] is entries[-1]
    assert topology._scan_threshold(ts.threshold_constant(0.3), xs) == 0.3


def test_chunk_grading_is_path_value_minus_threshold(binom5, monkeypatch):
    # every grid of a compare run is graded on path.value - threshold.value, bit for bit
    threshold, seed, trials = ts.threshold_cubic_shift(0.5), 13, 40
    graded, grids = [], []
    chunk = ts.harness._trial_chunk

    def recording_chunk(args):
        grids.append(args[2])
        return chunk(args)

    def recording_beta0(values):
        graded.append(np.array(values))
        return cubical_beta0(values)

    monkeypatch.setattr(ts.harness, "_trial_chunk", recording_chunk)
    monkeypatch.setattr(ts.harness, "cubical_beta0", recording_beta0)
    ts.compare_strategies(binom5, threshold, m=7, trials=trials, seed=seed, oracle_resolution=512)
    (grids,) = grids
    assert len(grids) == 3 and len(graded) == 3 * trials
    for trial in range(trials):
        path = ts.sample_path(binom5, seed, stream=trial)
        for g, grid in enumerate(grids):
            want = path.value(grid) - threshold.value(grid)
            assert graded[3 * trial + g].tobytes() == want.tobytes()
