"""Orthant weights, local Gaussian models, and crossover Monte Carlo."""
import math
import warnings

import numpy as np
import pytest

import toposample as ts
from toposample.errors import NotPositiveDefiniteError
from toposample.orthant import crossover_probability_from


def test_gaussian_upper_tail_values():
    assert ts.gaussian_upper_tail(0.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)
    # reflection: the two tails sum to the full integral sqrt(2 pi)
    for x in (0.3, 1.0, 2.5):
        both = ts.gaussian_upper_tail(x) + ts.gaussian_upper_tail(-x)
        assert both == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)
    # large-argument accuracy survives thanks to erfc
    assert ts.gaussian_upper_tail(10.0) == pytest.approx(7.69459862670642e-23, rel=1e-10)


def test_orthant_weight_normalization():
    # all-zero shift has weight exactly 1 at every pattern size
    for n in (2, 3, 4, 5):
        assert ts.orthant_weight(np.zeros(n)) == pytest.approx(1.0, rel=1e-10)


def test_orthant_weight_quadrature_matches_closed3():
    shifts = [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (-1.0, 0.0, 0.0),
        (0.7, -0.4, 1.1),
        (-2.0, 0.3, -0.5),
    ]
    for shift in shifts:
        quad = ts.orthant_weight(shift)
        closed = ts.orthant_weight_closed3(shift)
        assert quad == pytest.approx(closed, abs=1e-9)


@pytest.mark.parametrize("a1", [-35.0, -40.0, -60.0, -1e5])
def test_orthant_weight_reaches_the_bulk_for_negative_shifts(a1):
    # the integrand's mass sits near s = 0, beyond [alpha_1, alpha_1 + 40]
    for shift in ((a1, 0.0, 0.0), (a1, 0.3, -0.2)):
        closed = ts.orthant_weight_closed3(shift)
        assert ts.orthant_weight(shift) == pytest.approx(closed, rel=1e-12)


def test_orthant_weight_closed3_anchors():
    assert ts.orthant_weight_closed3((1.0, 0.0, 0.0)) == pytest.approx(
        0.15067956668754151, rel=1e-12
    )
    # shift in a tail component only rescales by a Gaussian factor
    assert ts.orthant_weight_closed3((0.0, 1.0, 0.0)) == pytest.approx(
        math.exp(-0.5), rel=1e-13
    )


def test_orthant_pair_identity():
    rng = np.random.default_rng(42)
    for _ in range(20):
        shift = rng.standard_normal(3)
        lhs = ts.orthant_weight_closed3(shift) + ts.orthant_weight_closed3(-shift)
        assert lhs == pytest.approx(ts.orthant_weight_pair3(shift), rel=1e-12)
    assert ts.orthant_weight_pair3((1.0, 0.0, 0.0)) == pytest.approx(4.0, rel=1e-14)


def test_orthant_weight_validation():
    # the shift must be a nonempty vector
    for shift in ([], [[1.0, 0.0, 0.0]]):
        with pytest.raises(ValueError):
            ts.orthant_weight(shift)


def test_orthant_weight_rejects_a_window_that_rounds_to_a_point():
    # alpha_1 + 40 == alpha_1 leaves no quadrature window
    for a1 in (1e308, -1e308, 1e18, -1e18):
        with pytest.raises(ValueError, match="too large in magnitude"):
            ts.orthant_weight([a1, 0.0, 0.0])
    # far out, but with a window: the weight underflows to 0
    assert ts.orthant_weight([1e17, 0.0, 0.0]) == 0.0
    # an overflowing tail decays to exactly 0, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ts.orthant_weight([1.0, 1e308, 1.0]) == 0.0


def test_jacobi_eigensolver_matches_lapack():
    rng = np.random.default_rng(7)
    for _ in range(25):
        half = rng.standard_normal((3, 3))
        mat = half + half.T
        vals, vecs = ts.jacobi_eigh3(mat)
        want = np.linalg.eigvalsh(mat)
        assert vals == pytest.approx(want, rel=1e-11, abs=1e-11)
        assert np.all(np.diff(vals) >= 0.0)
        # eigen decomposition reconstructs the matrix
        recon = vecs @ np.diag(vals) @ vecs.T
        assert recon == pytest.approx(mat, abs=1e-11)


def test_jacobi_handles_tiny_scales():
    # scale spread mimicking a collapsing covariance at small spacing
    mat = np.diag([1e-12, 1e-6, 1.0])
    mat[0, 1] = mat[1, 0] = 1e-9
    vals, _ = ts.jacobi_eigh3(mat)
    want = np.linalg.eigvalsh(mat)
    assert vals == pytest.approx(want, rel=1e-8, abs=1e-18)


def test_local_gaussian_construction(binom5, thr):
    local = ts.local_gaussian(binom5, thr, 0.4, 0.25)
    pts = np.array([0.4, 0.525, 0.65])
    for i in range(3):
        for j in range(3):
            want = ts.correlation(binom5, float(pts[i]), float(pts[j]))
            assert local.cov[i, j] == pytest.approx(want, rel=1e-12)
    assert local.thresholds == pytest.approx(np.zeros(3), abs=0.0)


def test_local_gaussian_validation(binom5, thr):
    with pytest.raises(ValueError):
        ts.local_gaussian(binom5, thr, 0.4, 0.0)
    with pytest.raises(ValueError):
        ts.local_gaussian(binom5, thr, 2.9, 0.5)
    bad = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        ts.LocalGaussian(bad, np.zeros(3))


def test_crossover_probability_iid_case():
    # independent standard normals alternate in sign with probability 1/4
    local = ts.LocalGaussian(np.eye(3), np.zeros(3))
    est = crossover_probability_from(local, trials=200_000, seed=31)
    assert est.trials == 200_000
    assert est.hits == round(est.estimate * est.trials)
    assert est.estimate == pytest.approx(0.25, abs=5.0 * 0.001)
    want_se = math.sqrt(est.estimate * (1.0 - est.estimate) / est.trials)
    assert est.stderr == pytest.approx(want_se, rel=1e-9)


def test_crossover_probability_deterministic():
    local = ts.LocalGaussian(np.eye(3), np.zeros(3))
    one = crossover_probability_from(local, trials=50_000, seed=5)
    two = crossover_probability_from(local, trials=50_000, seed=5)
    other = crossover_probability_from(local, trials=50_000, seed=6)
    assert one.estimate == two.estimate
    assert one.estimate != other.estimate
    with pytest.raises(ValueError):
        crossover_probability_from(local, trials=0, seed=1)


def test_crossover_mc_wraps_local_model(binom5, thr):
    direct = ts.crossover_probability_mc(binom5, thr, 0.2, 0.3, trials=20_000, seed=9)
    local = ts.local_gaussian(binom5, thr, 0.2, 0.3)
    routed = crossover_probability_from(local, trials=20_000, seed=9)
    assert direct.estimate == routed.estimate
    assert direct.stderr == routed.stderr


def test_eigen_expansion_structure(binom5):
    spacings = [2.0**-k for k in range(4, 9)]
    report = ts.eigen_expansion_check(binom5, ts.threshold_cubic_shift(0.3), 0.7, spacings)
    assert len(report.steps) == len(spacings)
    assert report.x == 0.7
    for key in (
        "small_eig",
        "mid_eig",
        "large_eig",
        "det",
        "proj_small",
        "proj_mid",
        "proj_large",
    ):
        assert key in report.orders
    # scaled quantities settle onto their predicted limits as spacing shrinks
    last = report.steps[-1].observed
    predicted = report.predicted
    assert last["large_value"] == pytest.approx(predicted["large_value"], rel=0.05)
    assert last["mid_ratio"] == pytest.approx(predicted["mid_ratio"], rel=0.05)
    assert last["small_ratio"] == pytest.approx(predicted["small_ratio"], rel=0.05)
    assert last["det_ratio"] == pytest.approx(predicted["det_ratio"], rel=0.05)
    first = report.steps[0].observed
    gap_first = abs(first["large_value"] - predicted["large_value"])
    gap_last = abs(last["large_value"] - predicted["large_value"])
    assert gap_last <= gap_first


def test_eigen_expansion_predictions_from_jet(mode5):
    # stationary family at zero threshold: odd-derivative terms vanish
    report = ts.eigen_expansion_check(mode5, ts.threshold_zero(), 0.5, [2.0**-6])
    r00, m33, det3 = (ts.jet_tables(mode5, 0.5)[k][0] for k in ("r00", "minor33", "det3"))
    predicted = report.predicted
    assert predicted["large_value"] == pytest.approx(3.0 * r00, rel=1e-12)
    assert predicted["mid_ratio"] == pytest.approx(m33 / (2.0 * r00), rel=1e-12)
    assert predicted["small_ratio"] == pytest.approx(det3 / (96.0 * m33), rel=1e-12)
    assert predicted["det_ratio"] == pytest.approx(det3 / 64.0, rel=1e-12)
    assert predicted["proj_large"] == 0.0
    assert predicted["proj_mid_ratio"] == 0.0
    assert predicted["proj_small_ratio"] == 0.0
