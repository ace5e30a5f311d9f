"""Acceptance gate: ten criteria with pinned tolerances and budgets.

Each criterion appends a [PASS]/[FAIL] line to the terminal summary via
the ``acceptance_record`` fixture, then asserts. Monte Carlo criteria use
seeds fixed in advance; a statistical criterion is run once at its stated
trial count, never re-rolled.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

import toposample as ts
from toposample.cli import main as cli_main
from toposample.harness import profile_dump, trial_pass
from toposample.orthant import orthant_weight_closed3, orthant_weight_pair3
from toposample.planner import cumulative_weight, sampling_density_fn
from toposample.topology import cubical_beta0

from reference import binomial_density_closed_form, periodic_density_closed_form, spectral_moment

# pre-committed seeds for the stochastic criteria
SEED_LOCAL_LAW = 505
SEED_MATCH = 101
SEED_ZEROS_COSINE = 909
SEED_ZEROS_BINOMIAL = 910
SEED_DETERMINISM = 1010


def test_criterion_1_closed_form_density(acceptance_record, thr):
    start = time.monotonic()
    worst = 0.0
    xs = np.linspace(-3.0, 3.0, 101)
    for n in range(2, 11):
        model = ts.binomial_model(n)
        prof = ts.density_profile(model, thr, xs, strict=True)
        want = binomial_density_closed_form(n, xs)
        worst = max(worst, float(np.max(np.abs(prof.density / want - 1.0))))
    elapsed = time.monotonic() - start
    acceptance_record(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"binomial density vs closed form, N=2..10, 101 pts: "
        f"max rel err {worst:.3e} (tol 1e-10), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_density_coincidence(acceptance_record, thr):
    start = time.monotonic()
    worst = 0.0
    for n in (2, 5, 7):
        header, rows = profile_dump(ts.binomial_model(n), thr, 101)
        i_c = header.index("norm_cuberoot_density")
        i_z = header.index("norm_zero_density")
        worst = max(worst, max(abs(r[i_c] - r[i_z]) for r in rows))
    elapsed = time.monotonic() - start
    acceptance_record(
        2,
        worst <= 1e-10 and elapsed < 1.0,
        f"binomial normalized cube-root density vs normalized zero density: "
        f"max gap {worst:.3e} (tol 1e-10), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_3_orthant_asymptotics(acceptance_record):
    start = time.monotonic()
    rng = np.random.default_rng(333)
    worst_quad = 0.0
    worst_pair = 0.0
    for _ in range(100):
        shift = rng.standard_normal(3)
        quad = ts.orthant_weight(shift)
        closed = orthant_weight_closed3(shift)
        worst_quad = max(worst_quad, abs(quad - closed))
        pair = quad + ts.orthant_weight(-shift)
        worst_pair = max(worst_pair, abs(pair - orthant_weight_pair3(shift)))
    elapsed = time.monotonic() - start
    acceptance_record(
        3,
        worst_quad <= 1e-8 and worst_pair <= 1e-10 and elapsed < 5.0,
        f"orthant weight over 100 random shifts: quadrature vs closed form "
        f"{worst_quad:.3e} (tol 1e-8), pair identity {worst_pair:.3e} "
        f"(tol 1e-10), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_4_eigen_expansions(acceptance_record, mode5, binom5, thr):
    start = time.monotonic()
    spacings = [2.0**-k for k in range(4, 11)]
    cases = [(mode5, x) for x in (0.123, 0.5, 0.876)]
    cases += [(binom5, x) for x in (-1.2, 0.0, 0.7)]
    worst_err = 0.0
    worst_angle = 0.0
    worst_order = float("inf")
    for model, x in cases:
        report = ts.eigen_expansion_check(model, thr, x, spacings)
        last = report.steps[-1]
        worst_err = max(
            worst_err,
            abs(last.observed["small_ratio"] / report.predicted["small_ratio"] - 1.0),
            abs(last.observed["mid_ratio"] / report.predicted["mid_ratio"] - 1.0),
            abs(last.observed["large_value"] / report.predicted["large_value"] - 1.0),
        )
        worst_angle = max(worst_angle, float(np.max(last.angles)))
        for key in ("small_eig", "mid_eig", "large_eig"):
            worst_order = min(worst_order, report.orders[key])
    elapsed = time.monotonic() - start
    acceptance_record(
        4,
        worst_err <= 0.02 and worst_angle <= 0.02 and worst_order >= 0.8 and elapsed < 5.0,
        f"eigen expansions at 6 points: final rel err {worst_err:.3e} "
        f"(tol 2e-2), eigenvector angle {worst_angle:.3e} rad, "
        f"min order {worst_order:.2f} (needs 0.8), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_5_local_probability_law(acceptance_record, mode5, thr):
    start = time.monotonic()
    delta = 0.01
    target = 0.75 * periodic_density_closed_form(
        spectral_moment(mode5, 0),
        spectral_moment(mode5, 1),
        spectral_moment(mode5, 2),
        1.0,
        (0.0, 0.0, 0.0),
    )
    est = ts.crossover_probability_mc(
        mode5, thr, 0.3, delta, trials=10_000_000, seed=SEED_LOCAL_LAW
    )
    ratio = est.estimate / delta**3 / target
    se_ratio = est.stderr / delta**3 / target
    elapsed = time.monotonic() - start
    acceptance_record(
        5,
        abs(ratio - 1.0) <= 0.15 and elapsed < 60.0,
        f"double-crossover rate / delta^3 at delta=0.01, 1e7 trials: "
        f"{ratio:.4f} +- {se_ratio:.4f} of {target:.4f} (tol 15%), "
        f"{elapsed:.1f}s (budget 60s)",
    )


def _interval_union_components(flags):
    # reference counter: union of closed cells [k, k+1] for flagged
    # vertices, last vertex owning the degenerate cell [M, M]
    top = len(flags) - 1
    count = 0
    reach = None
    for k, on in enumerate(flags):
        if not on:
            continue
        if reach is None or k > reach:
            count += 1
        hi = min(k + 1, top)
        reach = hi if reach is None else max(reach, hi)
    return count


def test_criterion_6_exhaustive_beta0(acceptance_record):
    start = time.monotonic()
    cases = 0
    for length in range(1, 12):
        for values in itertools.product((1.0, -1.0), repeat=length):
            arr = np.array(values)
            pos, neg = cubical_beta0(arr)
            assert pos == _interval_union_components([v >= 0.0 for v in values])
            assert neg == _interval_union_components([v <= 0.0 for v in values])
            cases += 1
    ternary = 0
    for length in range(1, 8):
        for values in itertools.product((1.0, 0.0, -1.0), repeat=length):
            arr = np.array(values)
            pos, neg = cubical_beta0(arr)
            assert pos == _interval_union_components([v >= 0.0 for v in values])
            assert neg == _interval_union_components([v <= 0.0 for v in values])
            ternary += 1
    elapsed = time.monotonic() - start
    acceptance_record(
        6,
        elapsed < 1.0,
        f"component counts match interval-union reference on {cases} sign "
        f"sequences and {ternary} with-zeros sequences, {elapsed:.2f}s (budget 1s)",
    )


@pytest.fixture(scope="module")
def match_rates(cheb5, thr):
    # shared Monte Carlo pass for both clauses of criterion 7: one dense
    # reference count per path, graded against the M and 2M point grids
    plan8 = ts.build_plan(cheb5, thr, "topology", p=0.95)
    assert plan8.m == 8
    plan16 = ts.build_plan(cheb5, thr, "topology", m=16)
    start = time.monotonic()
    (at8, at16), _ = trial_pass(
        cheb5, thr, [plan8, plan16], 100_000, SEED_MATCH, oracle_resolution=4096
    )
    elapsed = time.monotonic() - start
    return {
        "valid": at8.valid,
        "rate8": at8.correctness,
        "rate16": at16.correctness,
        "bound8": plan8.bound,
        "bound16": plan16.bound,
        "elapsed": elapsed,
    }


def test_criterion_7a_match_rate_at_minimum_m(acceptance_record, match_rates):
    rate = match_rates["rate8"]
    se = math.sqrt(rate * (1.0 - rate) / match_rates["valid"])
    floor = 0.95 - 3.0 * se
    elapsed = match_rates["elapsed"]
    acceptance_record(
        7,
        rate >= floor and elapsed < 300.0,
        f"match rate at M=8 over {match_rates['valid']} valid trials: "
        f"{rate:.5f} vs floor 0.95-3SE={floor:.5f} "
        f"(estimate {match_rates['bound8']:.5f}), {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_7b_match_rate_at_doubled_m(acceptance_record, match_rates):
    rate = match_rates["rate16"]
    se = math.sqrt(rate * (1.0 - rate) / match_rates["valid"])
    acceptance_record(
        7,
        rate >= 0.99,
        f"match rate at M=16: {rate:.5f} +- {se:.5f} vs hard floor 0.99; "
        f"the leading-order estimate 1 - K^3/M^2 at M=16 is {match_rates['bound16']:.5f}, "
        f"already below 0.99, and the measured rate sits near it",
    )


def test_criterion_8_scaling_slopes(acceptance_record):
    start = time.monotonic()
    orders = [4, 8, 16, 32, 64]

    def slope(counts):
        return float(np.polyfit(np.log(orders), np.log(counts), 1)[0])

    cheb = ts.scaling_study("chebyshev", orders, 0.95)
    cos = ts.scaling_study("cosine", orders, 0.95)
    s_cheb_topo = slope([r.samples_topology for r in cheb])
    s_cheb_unif = slope([r.samples_uniform for r in cheb])
    s_cos_topo = slope([r.samples_topology for r in cos])
    s_cos_unif = slope([r.samples_uniform for r in cos])
    elapsed = time.monotonic() - start
    ok = (
        1.35 <= s_cheb_topo <= 1.65
        and 2.7 <= s_cheb_unif <= 3.3
        and 1.35 <= s_cos_topo <= 1.65
        and 1.35 <= s_cos_unif <= 1.65
        and elapsed < 30.0
    )
    acceptance_record(
        8,
        ok,
        f"sample-count slopes: chebyshev guided {s_cheb_topo:.2f} "
        f"(win [1.35,1.65]) uniform {s_cheb_unif:.2f} (win [2.7,3.3]); "
        f"cosine guided {s_cos_topo:.2f} uniform {s_cos_unif:.2f} "
        f"(both [1.35,1.65]), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_9_zero_count_validation(acceptance_record, cosine5, binom5):
    start = time.monotonic()
    runs = [
        ("cosine", cosine5, SEED_ZEROS_COSINE),
        ("binomial", binom5, SEED_ZEROS_BINOMIAL),
    ]
    details = []
    ok = True
    for name, model, seed in runs:
        # 2048 scan points: the worst-case pair-miss bias is ~2e-3 zeros,
        # far inside the 3 SE tolerance, and the run stays under budget
        result = ts.zero_count_experiment(
            model, trials=10_000, seed=seed, oracle_resolution=2048
        )
        gap = abs(result.mean_zeros - result.expected)
        ok = ok and gap <= 3.0 * result.stderr
        details.append(
            f"{name} mean {result.mean_zeros:.4f} vs predicted "
            f"{result.expected:.4f} (gap {gap / max(result.stderr, 1e-12):.1f} SE)"
        )
    # the binomial prediction has an exact closed form
    want = math.sqrt(5.0) * 2.0 * math.atan(3.0) / math.pi
    closed_gap = abs(result.expected - want)
    ok = ok and closed_gap <= 1e-9
    elapsed = time.monotonic() - start
    acceptance_record(
        9,
        ok and elapsed < 60.0,
        "; ".join(details)
        + f"; binomial integral {result.expected:.6f} matches closed form "
        f"{want:.6f} within {closed_gap:.1e}, {elapsed:.0f}s (budget 60s)",
    )


def test_criterion_10_determinism(acceptance_record, tmp_path):
    start = time.monotonic()
    seed = str(SEED_DETERMINISM)
    jobs = {
        "experiment": [
            "experiment", "--family", "chebyshev", "--n", "5", "--m", "8",
            "--trials", "600", "--seed", seed, "--oracle-resolution", "1024",
        ],
        "compare": [
            "compare", "--family", "binomial", "--n", "5", "--m", "5",
            "--trials", "300", "--seed", seed, "--oracle-resolution", "1024",
        ],
        "zeros": [
            "zeros", "--family", "cosine", "--n", "5",
            "--trials", "400", "--seed", seed, "--oracle-resolution", "1024",
        ],
    }
    identical = True
    for name, argv in jobs.items():
        out = tmp_path / f"{name}.csv"
        blobs = []
        for workers in ("1", "2", "1"):
            code = cli_main(argv + ["--workers", workers, "--output", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        identical = identical and blobs[0] == blobs[1] == blobs[2]
    # seeded sampler with no worker knob: repeat runs must also agree
    out = tmp_path / "mc.json"
    mc_blobs = []
    for _ in range(2):
        code = cli_main(
            [
                "orthant-check", "--family", "binomial", "--n", "5",
                "--mode", "mc", "--x", "0.2", "--spacings", "0.25",
                "--trials", "20000", "--seed", seed,
                "--format", "json", "--output", str(out),
            ]
        )
        assert code == 0
        mc_blobs.append(out.read_bytes())
    identical = identical and mc_blobs[0] == mc_blobs[1]
    elapsed = time.monotonic() - start
    acceptance_record(
        10,
        identical and elapsed < 30.0,
        f"experiment/compare/zeros byte-identical across worker counts and "
        f"reruns; seeded sampler rerun identical, {elapsed:.0f}s (budget 30s)",
    )
