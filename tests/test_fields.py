"""Basis jets, correlation jets, sample paths, thresholds."""
import numpy as np
import pytest

import toposample as ts
from toposample.errors import FactorizationError
from toposample.fields import basis_values


def _fd_check(model, xs, h, tol1, tol2):
    # central differences of the order-0 row against the analytic rows,
    # scaled by the row magnitude so large bases do not inflate roundoff
    b0, b1, b2 = ts.basis_jets(model, xs)
    p0, _, _ = ts.basis_jets(model, xs + h)
    m0, _, _ = ts.basis_jets(model, xs - h)
    s1 = max(1.0, float(np.max(np.abs(b1))))
    s2 = max(1.0, float(np.max(np.abs(b2))))
    e1 = np.max(np.abs((p0 - m0) / (2 * h) - b1)) / s1
    e2 = np.max(np.abs((p0 - 2 * b0 + m0) / h**2 - b2)) / s2
    assert e1 < tol1, f"first derivative off by {e1:.3g}"
    assert e2 < tol2, f"second derivative off by {e2:.3g}"


def test_basis_jets_match_finite_differences(cheb5, cosine5, binom5, mode5):
    _fd_check(cheb5, np.linspace(-0.9, 0.9, 7), 1e-5, 1e-6, 1e-4)
    _fd_check(cosine5, np.linspace(0.1, 0.9, 5), 1e-4, 1e-5, 1e-4)
    _fd_check(mode5, np.linspace(0.05, 0.95, 5), 1e-4, 1e-4, 1e-4)
    _fd_check(binom5, np.linspace(-2.5, 2.5, 7), 1e-5, 1e-5, 1e-3)
    _fd_check(ts.unit_model(4), np.linspace(-2.0, 2.0, 5), 1e-5, 1e-5, 1e-3)


def test_chebyshev_recurrence_values(cheb5):
    v, d1, d2 = (float(row[2, 0]) for row in ts.basis_jets(cheb5, 0.5))
    assert v == pytest.approx(-0.5, abs=1e-14)
    assert d1 == pytest.approx(2.0, abs=1e-13)
    assert d2 == pytest.approx(4.0, abs=1e-12)


def test_monomial_values():
    model = ts.unit_model(4)
    v, d1, d2 = (float(row[3, 0]) for row in ts.basis_jets(model, 2.0))
    assert (v, d1, d2) == (8.0, 12.0, 12.0)


def test_cosine_endpoint_derivative_exact(cosine5):
    # range-reduced trig must land on exact zeros at integer arguments
    _, b1, _ = ts.basis_jets(cosine5, np.array([0.0, 1.0]))
    assert np.all(b1 == 0.0)


def test_periodic_wrap_exact(mode5):
    left = ts.basis_jets(mode5, np.array([0.0]))
    right = ts.basis_jets(mode5, np.array([1.0]))
    for lo, hi in zip(left, right):
        assert np.array_equal(lo, hi)


def test_correlation_symmetric(binom5):
    xs = np.array([-1.3, 0.2, 2.4])
    ys = np.array([0.7, -2.1, 1.1])
    assert ts.correlation(binom5, xs, ys) == pytest.approx(
        ts.correlation(binom5, ys, xs), rel=1e-14
    )


def test_binomial_correlation_closed_form(binom5):
    # coefficient variances C(5, k) collapse the series to (1 + xy)^5
    xs = np.linspace(-2.0, 2.0, 9)
    ys = np.linspace(-1.5, 2.5, 9)
    got = ts.correlation(binom5, xs, ys)
    assert got == pytest.approx((1.0 + xs * ys) ** 5, rel=1e-13)
    assert ts.correlation(binom5, 1.0, 1.0) == pytest.approx(32.0, rel=1e-14)


def test_binomial_jet_at_origin(binom5):
    jet = {key: col[0] for key, col in ts.jet_tables(binom5, 0.0).items()}
    assert jet["r00"] == pytest.approx(1.0, rel=1e-14)
    assert jet["r10"] == pytest.approx(0.0, abs=1e-14)
    assert jet["r11"] == pytest.approx(5.0, rel=1e-14)
    assert jet["r22"] == pytest.approx(40.0, rel=1e-13)
    assert jet["minor33"] == pytest.approx(5.0, rel=1e-13)
    assert jet["det3"] == pytest.approx(200.0, rel=1e-12)
    assert jet["nondegenerate"]


def test_cosine_endpoints_degenerate(cosine5):
    # constant-derivative direction dies at the ends of the half period
    tables = ts.jet_tables(cosine5, np.array([0.0, 0.5, 1.0]))
    assert list(tables["nondegenerate"]) == [False, True, False]


def test_spectral_moments(mode5):
    assert ts.spectral_moment(mode5, 0) == pytest.approx(1.0, rel=1e-14)
    assert ts.spectral_moment(mode5, 1) == pytest.approx(11.0, rel=1e-14)
    assert ts.spectral_moment(mode5, 2) == pytest.approx(195.8, rel=1e-13)


def test_spectral_moment_requires_periodic(cheb5):
    with pytest.raises(ValueError):
        ts.spectral_moment(cheb5, 0)


def test_periodic_validation():
    with pytest.raises(ValueError):
        ts.periodic_model([0.0, 0.0])
    with pytest.raises(ValueError):
        ts.periodic_model([1.0], period=-2.0)
    with pytest.raises(ValueError):
        ts.periodic_model([np.inf, 1.0])


def test_custom_model_matches_monomials():
    table = [
        (lambda x: np.ones_like(x), lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)),
        (lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
        (lambda x: x**2, lambda x: 2.0 * x, lambda x: 2.0 * np.ones_like(x)),
    ]
    custom = ts.custom_model(table, (-3.0, 3.0))
    unit = ts.unit_model(2)
    xs = np.linspace(-2.0, 2.0, 7)
    for got, want in zip(ts.basis_jets(custom, xs), ts.basis_jets(unit, xs)):
        assert got == pytest.approx(want, rel=1e-14)


def test_custom_covariance_must_factor():
    table = [
        (lambda x: np.ones_like(x), lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)),
        (lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
    ]
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    # indefinite covariances are rejected at construction time
    with pytest.raises(FactorizationError):
        ts.custom_model(table, (0.0, 1.0), covariance=bad)
    # so are non-finite ones
    for v in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            ts.custom_model(table, (0.0, 1.0), variances=[1.0, v])
        with pytest.raises(ValueError):
            ts.custom_model(table, (0.0, 1.0), covariance=[[1.0, v], [v, 1.0]])


def test_domain_enforced(cheb5):
    with pytest.raises(ValueError):
        ts.basis_jets(cheb5, np.array([1.5]))
    with pytest.raises(ValueError):
        ts.correlation(cheb5, -2.0, 0.0)


def test_sample_path_reproducible(cheb5):
    one = ts.sample_path(cheb5, seed=7, stream=3)
    two = ts.sample_path(cheb5, seed=7, stream=3)
    other = ts.sample_path(cheb5, seed=7, stream=4)
    assert np.array_equal(one.coeffs, two.coeffs)
    assert not np.array_equal(one.coeffs, other.coeffs)


def test_sample_path_evaluation(binom5):
    path = ts.sample_path(binom5, seed=11)
    xs = np.linspace(-2.0, 2.0, 9)
    want = path.coeffs @ ts.basis_jets(binom5, xs)[0]
    assert path.value(xs) == pytest.approx(want, rel=1e-13)


def test_coefficient_rng_streams():
    a = ts.coefficient_rng(123, 0).standard_normal(4)
    b = ts.coefficient_rng(123, 0).standard_normal(4)
    c = ts.coefficient_rng(123, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("bad", [-1, 2**64, 2**64 + 1])
def test_coefficient_rng_rejects_values_outside_64_bits(bad):
    # masking to 64 bits made seed 2^64 + 1 draw seed 1's paths
    with pytest.raises(ValueError, match="seed must lie in"):
        ts.coefficient_rng(bad, 0)
    with pytest.raises(ValueError, match="stream must lie in"):
        ts.coefficient_rng(1, bad)


def test_coefficient_rng_keeps_the_key_of_every_64_bit_seed():
    for seed, stream in ((0, 0), (1, 7), (2**64 - 1, 2**64 - 1)):
        key = np.array([seed, stream], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(3)
        assert ts.coefficient_rng(seed, stream).standard_normal(3).tobytes() == want.tobytes()


def test_threshold_functions():
    const = ts.threshold_constant(2.5)
    assert const.value(0.3) == 2.5
    assert const.d1(0.3) == 0.0
    assert const.d2(0.3) == 0.0

    poly = ts.threshold_polynomial([1.0, 2.0, 3.0])
    assert poly.value(2.0) == pytest.approx(17.0, rel=1e-14)
    assert poly.d1(2.0) == pytest.approx(14.0, rel=1e-14)
    assert poly.d2(2.0) == pytest.approx(6.0, rel=1e-14)

    zero = ts.threshold_zero()
    assert zero.jet(1.7) == (0.0, 0.0, 0.0)

    cubic = ts.threshold_cubic_shift(0.25)
    x = 0.5
    assert cubic.value(x) == pytest.approx(x - x**3 + 0.25, rel=1e-14)
    assert cubic.d1(x) == pytest.approx(1.0 - 3.0 * x**2, rel=1e-14)
    assert cubic.d2(x) == pytest.approx(-6.0 * x, rel=1e-14)


def test_threshold_fn_jet_vectorized():
    poly = ts.threshold_polynomial([0.0, 1.0, -1.0])
    xs = np.array([0.0, 0.5, 1.0])
    v, d1, d2 = poly.jet(xs)
    assert v == pytest.approx(xs - xs**2, rel=1e-14)
    assert d1 == pytest.approx(1.0 - 2.0 * xs, rel=1e-14)
    assert d2 == pytest.approx(np.full(3, -2.0), rel=1e-14)


def test_threshold_values_equal_polyval_bit_for_bit():
    polyval = np.polynomial.polynomial.polyval
    thresholds = (
        ts.threshold_zero(),
        ts.threshold_constant(-0.7),
        ts.threshold_cubic_shift(0.5),
        ts.threshold_polynomial([0.3, -1.1, 0.25, 2.0, -0.125, 1.0 / 3.0]),
    )
    xs = np.linspace(-3.0, 3.0, 1001)
    for thr in thresholds:
        for fn, coeffs in ((thr.value, thr.coeffs), (thr.d1, thr._d1), (thr.d2, thr._d2)):
            assert fn(xs).tobytes() == polyval(xs, coeffs).tobytes()
            for x in (0.0, -2.5, 1.0 / 7.0):
                got, want = fn(x), polyval(x, coeffs)
                assert type(got) is type(want)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_basis_values_are_the_jet_value_rows(cheb5, cosine5, binom5, mode5):
    table = tuple((f, f, f) for f in (np.sin, np.cos, np.exp))
    custom = ts.custom_model(table, (0.0, 2.0))
    for model in (cheb5, cosine5, binom5, mode5, ts.unit_model(4), custom):
        a, b = model.domain
        xs = np.linspace(a, b, 97)
        assert np.array_equal(basis_values(model, xs), ts.basis_jets(model, xs)[0])
    with pytest.raises(ValueError):
        basis_values(cheb5, np.array([1.5]))
