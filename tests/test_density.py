"""Sampling density, zero density, and closed-form cross checks."""
import math

import numpy as np
import pytest

import toposample as ts
from toposample import fields
from toposample.density import zero_density
from toposample.errors import NondegeneracyError, NonFiniteDensityError
from toposample.fields import jet_tables
from toposample.planner import cumulative_weight, expected_zero_count

from reference import (
    binomial_density_closed_form,
    binomial_zero_density_closed_form,
    periodic_density_closed_form,
    spectral_moment,
    unit_jet_minors_exact,
)

SQRT5 = 5.0 ** 0.5


def _at(model, threshold, x):
    return ts.density_profile(model, threshold, x, strict=True)


def test_binomial_density_at_origin(binom5):
    got = _at(binom5, ts.threshold_constant(0.0), 0.0)
    assert got.density[0] == pytest.approx(SQRT5 / (6.0 * np.pi), rel=1e-13)
    assert got.crossover_rate[0] == pytest.approx(0.75 * got.density[0], rel=1e-14)


def test_binomial_density_closed_form_grid(binom5):
    xs = np.linspace(-2.8, 2.8, 29)
    want = binomial_density_closed_form(5, xs)
    got = _at(binom5, ts.threshold_constant(0.0), xs)
    assert got.density == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("n", [100, 101])
def test_binomial_density_is_finite_where_only_the_diagonal_product_overflows(n):
    # r00 r11 r22 overflows at x = -3 from n = 100 on, while det3 itself
    # stays finite up to n = 102
    xs = np.linspace(-3.0, 3.0, 4097)
    got = ts.density_profile(ts.binomial_model(n), ts.threshold_zero(), xs)
    assert got.density == pytest.approx(binomial_density_closed_form(n, xs), rel=1e-10)


@pytest.mark.parametrize("n", [106, 108])
def test_unit_density_is_exact_where_minor33_cubed_nearly_overflows(n):
    # at x = -3 and 3 both det3 and minor33^1.5 sit near the top of double
    # range; the zero threshold makes the density det3 / (48 pi minor33^1.5)
    xs = np.array([-3.0, 3.0])
    got = _at(ts.unit_model(n), ts.threshold_zero(), xs).density
    want = []
    for x in xs:
        minor33, det3 = unit_jet_minors_exact(n, x)
        want.append(math.exp(math.log(det3) - 1.5 * math.log(minor33)) / (48.0 * math.pi))
    assert got == pytest.approx(want, rel=1e-9)


def test_overflowing_minor33_cubed_raises_instead_of_reading_zero():
    # unit n=109 at x = -3 and 3: det3 is finite and the point nondegenerate,
    # but minor33^1.5 overflows; det3 / inf would read as density 0, not ~5e-5
    model, xs = ts.unit_model(109), np.array([0.0, -3.0, 3.0])
    table = jet_tables(model, xs)
    assert np.all(np.isfinite(table["det3"]) & table["nondegenerate"])
    with pytest.raises(NonFiniteDensityError, match="not finite at x=-3"):
        ts.density_profile(model, ts.threshold_zero(), xs)


def test_binomial_zero_density(binom5, thr):
    assert _at(binom5, thr, 0.0).zero_density[0] == pytest.approx(SQRT5 / np.pi, rel=1e-13)
    xs = np.linspace(-2.5, 2.5, 11)
    want = binomial_zero_density_closed_form(5, xs)
    assert _at(binom5, thr, xs).zero_density == pytest.approx(want, rel=1e-11)


def test_periodic_closed_form_matches_profile(mode5, thr):
    m0 = spectral_moment(mode5, 0)
    m1 = spectral_moment(mode5, 1)
    m2 = spectral_moment(mode5, 2)
    closed = periodic_density_closed_form(m0, m1, m2, 1.0, (0.0, 0.0, 0.0))
    assert closed == pytest.approx(37.09827791134088, rel=1e-12)
    xs = np.linspace(0.05, 0.95, 7)
    prof = ts.density_profile(mode5, thr, xs, strict=True)
    # stationary family: same density everywhere
    assert prof.density == pytest.approx(np.full(7, closed), rel=1e-10)
    assert prof.crossover_rate == pytest.approx(0.75 * prof.density, rel=1e-14)


def test_zero_threshold_factor_is_one(cheb5):
    got = _at(cheb5, ts.threshold_zero(), 0.3)
    assert got.threshold_gain[0] == 0.0
    assert got.threshold_decay[0] == 0.0
    assert got.threshold_factor[0] == 1.0
    same = _at(cheb5, ts.threshold_constant(0.0), 0.3)
    assert same.density[0] == got.density[0]


def test_large_threshold_suppresses_density(cheb5):
    # decay scales with tau^2 and wins over the polynomial gain
    base = _at(cheb5, ts.threshold_constant(0.0), 0.2).density[0]
    levels = [_at(cheb5, ts.threshold_constant(t), 0.2).density[0] for t in (3.0, 6.0, 12.0)]
    assert base > levels[0] > levels[1] > levels[2]
    assert levels[2] < 1e-6 * base
    assert _at(cheb5, ts.threshold_constant(6.0), 0.2).threshold_decay[0] > 0.0


def test_breakdown_factor_consistency(binom5):
    # mu = 0.7 - 0.4 (x - 0.8) + 0.6 (x - 0.8)^2, whose jet at 0.8 is (0.7, -0.4, 1.2)
    bent = ts.threshold_polynomial([1.404, -1.36, 0.6])
    assert bent.jet(0.8) == pytest.approx((0.7, -0.4, 1.2), rel=1e-14)
    got = _at(binom5, bent, 0.8)
    want_factor = (1.0 + got.threshold_gain[0]) * np.exp(-got.threshold_decay[0])
    assert got.threshold_factor[0] == pytest.approx(want_factor, rel=1e-14)
    base = _at(binom5, ts.threshold_constant(0.0), 0.8).density[0]
    assert got.density[0] == pytest.approx(base * got.threshold_factor[0], rel=1e-13)


def test_profile_masks_degenerate_rows(cosine5, thr):
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    prof = ts.density_profile(cosine5, thr, xs)
    assert list(prof.nondegenerate) == [False, True, True, True, False]
    assert np.isnan(prof.density[0]) and np.isnan(prof.density[-1])
    assert np.all(np.isfinite(prof.density[1:-1]))
    with pytest.raises(NondegeneracyError):
        ts.density_profile(cosine5, thr, xs, strict=True)


def test_profile_zero_density_column(binom5, thr):
    xs = np.linspace(-2.0, 2.0, 9)
    prof = ts.density_profile(binom5, thr, xs, strict=True)
    t = jet_tables(binom5, xs)
    want = np.sqrt(t["minor33"]) / (np.pi * t["r00"])
    assert prof.zero_density == pytest.approx(want, rel=1e-12)


def test_chebyshev_density_even(cheb5, thr):
    xs = np.linspace(-0.9, 0.9, 13)
    prof = ts.density_profile(cheb5, thr, xs, strict=True)
    assert prof.density == pytest.approx(prof.density[::-1], rel=1e-10)


def test_periodic_closed_form_validation():
    with pytest.raises(NondegeneracyError):
        periodic_density_closed_form(1.0, 2.0, 4.0, 1.0, (0.0, 0.0, 0.0))
    with pytest.raises(NondegeneracyError):
        periodic_density_closed_form(0.0, 1.0, 2.0, 1.0, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("strict", [False, True])
def test_overflowing_jet_raises_instead_of_masking(strict):
    # binomial n=150 at x=2.9: det3 overflows, r00, r10, r11 and minor33 do not
    model = ts.binomial_model(150)
    with pytest.raises(NonFiniteDensityError, match="not finite at x=2.9"):
        ts.density_profile(model, ts.threshold_zero(), [0.0, 2.9], strict=strict)
    assert np.all(np.isfinite(zero_density(model, [0.0, 2.9])))


def test_zero_density_is_the_profile_column(cosine5):
    # cosine jets degenerate at both ends, so the NaN entries are compared too
    xs = np.linspace(0.0, 1.0, 101)
    prof = ts.density_profile(cosine5, ts.threshold_zero(), xs)
    assert np.array_equal(zero_density(cosine5, xs), prof.zero_density, equal_nan=True)


def test_zero_density_never_forms_second_derivatives(cheb5, cosine5, binom5, mode5, monkeypatch):
    table = ((np.sin, np.cos, np.sin), (np.cos, np.sin, np.cos), (np.exp, np.exp, np.exp))
    models = (cheb5, cosine5, binom5, mode5, ts.unit_model(4), ts.chebyshev_model(64))
    models += (ts.custom_model(table, (0.0, 2.0)),)
    grids = [np.linspace(*model.domain, 301) for model in models]
    columns = [
        ts.density_profile(model, ts.threshold_zero(), xs).zero_density
        for model, xs in zip(models, grids)
    ]

    def spy(jets):
        def first_order_only(model, x, b0, order):
            if order > 1:
                raise AssertionError("a second derivative was formed")
            return jets(model, x, b0, order)
        return first_order_only

    monkeypatch.setattr(
        fields, "_BASIS_JETS", {family: spy(jets) for family, jets in fields._BASIS_JETS.items()}
    )
    for model, xs, column in zip(models, grids, columns):
        assert zero_density(model, xs).tobytes() == column.tobytes()
    assert expected_zero_count(binom5) > 0.0
    with pytest.raises(AssertionError, match="second derivative"):
        ts.density_profile(binom5, ts.threshold_zero(), grids[2])


@pytest.mark.parametrize(
    "model",
    [
        ts.cosine_model(1),
        # nonzero second derivatives, so only the count of rows makes the jet singular
        ts.custom_model([(np.ones_like, np.zeros_like, np.zeros_like),
                         (np.square, lambda x: 2.0 * x, lambda x: np.full_like(x, 2.0))],
                        (-1.0, 1.0)),
    ],
    ids=["cosine-1", "custom-2"],
)
def test_fewer_than_three_terms_are_degenerate_everywhere(model, thr):
    # three jet rows in one or two dimensions are linearly dependent
    xs = np.linspace(*model.domain, 9)
    prof = ts.density_profile(model, thr, xs)
    assert not np.any(prof.nondegenerate)
    assert not np.any(fields.jet_tables(model, xs)["det3"])
    assert cumulative_weight(model, thr)[0] == 0.0


@pytest.mark.parametrize("t", [1e-4, 3e-4])
def test_cosine_density_near_an_end_is_the_pushed_chebyshev_density(t, thr):
    # cosine n is Chebyshev n pushed through x = cos(pi t), so C^(1/3)
    # picks up the factor |dx/dt|; here det3 / (r00 r11 r22) is 1e-14 to
    # 1e-12, below what the 3x3 determinant formula resolves
    cosine = ts.density_profile(ts.cosine_model(5), thr, t)
    cheb = ts.density_profile(ts.chebyshev_model(5), thr, np.cos(np.pi * t))
    assert cosine.nondegenerate[0]
    want = np.cbrt(cheb.density[0]) * np.pi * np.sin(np.pi * t)
    assert np.cbrt(cosine.density[0]) == pytest.approx(want, rel=1e-8)
