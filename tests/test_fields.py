"""Basis jets, correlation jets, sample paths, thresholds."""
import ctypes
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toposample as ts
from toposample import fields, planner
from toposample.errors import FactorizationError
from toposample.fields import (
    SamplePath,
    basis_jets,
    basis_values,
    block_minus_threshold,
    blocked_product,
    coefficient_rng,
    correlation,
    fold_coefficients,
    jet_tables,
    magnitude_bounds,
    sample_coefficients,
    threshold_system,
)

from reference import chebyshev_jets_recurrence, spectral_moment, unit_jet_minors_exact


def _fd_check(model, xs, h, tol1, tol2):
    # central differences of the order-0 row against the analytic rows,
    # scaled by the row magnitude so large bases do not inflate roundoff
    b0, b1, b2 = basis_jets(model, xs)
    p0, _, _ = basis_jets(model, xs + h)
    m0, _, _ = basis_jets(model, xs - h)
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
    v, d1, d2 = (float(row[2, 0]) for row in basis_jets(cheb5, 0.5))
    assert v == pytest.approx(-0.5, abs=1e-14)
    assert d1 == pytest.approx(2.0, abs=1e-13)
    assert d2 == pytest.approx(4.0, abs=1e-12)


def test_monomial_values():
    model = ts.unit_model(4)
    v, d1, d2 = (float(row[3, 0]) for row in basis_jets(model, 2.0))
    assert (v, d1, d2) == (8.0, 12.0, 12.0)


@pytest.mark.parametrize("n, points", [(0, 15), (1, 15), (5, 15), (64, 15), (64, 1024), (5, 151552)])
def test_chebyshev_rows_are_the_three_term_recurrence(n, points):
    # the in-place rows take the recurrences' operations in their order,
    # so they are bit for bit the one-expression recurrences
    model = ts.chebyshev_model(n)
    xs = np.linspace(-1.0, 1.0, points)
    for got, want in zip(basis_jets(model, xs), chebyshev_jets_recurrence(n + 1, xs)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [5, 12])
def test_monomial_rows_are_products_within_their_rounding(n):
    # x^k is x^(k-1) times x, so k - 1 roundings: within gamma_{k-1} of
    # the exact power; the derivative rows are k x^(k-1) and k(k-1) x^(k-2),
    # one product each
    model = ts.unit_model(n)
    xs = np.array([-3.0, -2.7182818, -1.0 / 3.0, -0.0, 1e-5, 0.7, 2.0, 3.0])
    b0, b1, b2 = basis_jets(model, xs)
    u = 2.0 ** -53
    for k in range(n + 1):
        for i, x in enumerate(xs):
            exact = Fraction(x) ** k
            gamma = max(k - 1, 0) * u / (1.0 - max(k - 1, 0) * u)
            assert abs(Fraction(b0[k, i]) - exact) <= gamma * abs(exact)
            assert b1[k, i] == (k * b0[k - 1, i] if k else 0.0)
            assert b2[k, i] == (k * (k - 1.0) * b0[k - 2, i] if k > 1 else 0.0)


def test_cosine_endpoint_derivative_exact(cosine5):
    # range-reduced trig must land on exact zeros at integer arguments
    _, b1, _ = basis_jets(cosine5, np.array([0.0, 1.0]))
    assert np.all(b1 == 0.0)


def test_periodic_wrap_exact(mode5):
    left = basis_jets(mode5, np.array([0.0]))
    right = basis_jets(mode5, np.array([1.0]))
    for lo, hi in zip(left, right):
        assert np.array_equal(lo, hi)


def test_correlation_symmetric(binom5):
    xs = np.array([-1.3, 0.2, 2.4])
    ys = np.array([0.7, -2.1, 1.1])
    assert correlation(binom5, xs, ys) == pytest.approx(
        correlation(binom5, ys, xs), rel=1e-14
    )


def test_binomial_correlation_closed_form(binom5):
    # coefficient variances C(5, k) collapse the series to (1 + xy)^5
    xs = np.linspace(-2.0, 2.0, 9)
    ys = np.linspace(-1.5, 2.5, 9)
    got = correlation(binom5, xs, ys)
    assert got == pytest.approx((1.0 + xs * ys) ** 5, rel=1e-13)
    assert correlation(binom5, 1.0, 1.0) == pytest.approx(32.0, rel=1e-14)


def test_binomial_jet_at_origin(binom5):
    jet = {key: col[0] for key, col in jet_tables(binom5, 0.0).items()}
    assert jet["r00"] == pytest.approx(1.0, rel=1e-14)
    assert jet["r10"] == pytest.approx(0.0, abs=1e-14)
    assert jet["r11"] == pytest.approx(5.0, rel=1e-14)
    assert jet["r22"] == pytest.approx(40.0, rel=1e-13)
    assert jet["minor33"] == pytest.approx(5.0, rel=1e-13)
    assert jet["det3"] == pytest.approx(200.0, rel=1e-12)
    assert jet["nondegenerate"]


def test_cosine_endpoints_degenerate(cosine5):
    # constant-derivative direction dies at the ends of the half period
    tables = jet_tables(cosine5, np.array([0.0, 0.5, 1.0]))
    assert list(tables["nondegenerate"]) == [False, True, False]


def test_spectral_moments(mode5):
    assert spectral_moment(mode5, 0) == pytest.approx(1.0, rel=1e-14)
    assert spectral_moment(mode5, 1) == pytest.approx(11.0, rel=1e-14)
    assert spectral_moment(mode5, 2) == pytest.approx(195.8, rel=1e-13)


def test_spectral_moment_requires_periodic(cheb5):
    with pytest.raises(ValueError):
        spectral_moment(cheb5, 0)


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
    for got, want in zip(basis_jets(custom, xs), basis_jets(unit, xs)):
        assert got == pytest.approx(want, rel=1e-14)


def test_model_and_threshold_arrays_are_read_only_copies():
    # writing to a model's variances in place would leave its cached
    # covariance factor, and every integral keyed on the old bits, stale;
    # writing to a threshold's coefficients would leave its derivatives so
    variances, covariance, amplitudes = np.ones(3), np.eye(3), np.array([0.0, 1.0, 0.5])
    coeffs = np.array([0.5, 1.0, 0.0, -1.0])
    by_variances = ts.FieldModel("chebyshev", 3, (-1.0, 1.0), variances=variances)
    by_covariance = ts.FieldModel("chebyshev", 3, (-1.0, 1.0), covariance=covariance)
    periodic = ts.periodic_model(amplitudes)
    pairs = (
        (variances, by_variances.variances),
        (covariance, by_covariance.covariance),
        (amplitudes, periodic.amplitudes),
        (coeffs, ts.threshold_polynomial(coeffs).coeffs),
    )
    for own, kept in pairs:
        before = kept.copy()
        own[1] = 7.0
        assert np.array_equal(kept, before)
        with pytest.raises(ValueError, match="read-only"):
            kept[1] = 7.0
    assert periodic.variances.tolist() == [0.0, 1.0, 1.0, 0.25, 0.25]


def test_unpickled_models_and_thresholds_keep_read_only_arrays():
    # numpy's pickle drops the read-only flag, so an unpickled model or
    # threshold (a pool worker's) would again let an in-place write leave
    # its cached factor or derivatives stale; a round trip sets the flag
    # again and gives the original's keys, K and grids bit for bit
    models = (
        ts.binomial_model(5),
        ts.periodic_model([0.0, 1.0, 0.5]),
        ts.FieldModel("chebyshev", 3, (-1.0, 1.0), covariance=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    )
    threshold = ts.threshold_cubic_shift(0.5)
    back = pickle.loads(pickle.dumps(threshold))
    assert not back.coeffs.flags.writeable
    assert back.coeffs.tobytes() == threshold.coeffs.tobytes()
    for model in models:
        back = pickle.loads(pickle.dumps(model))
        for name in ("variances", "covariance", "amplitudes"):
            kept = getattr(back, name)
            if kept is not None:
                assert not kept.flags.writeable
                assert kept.tobytes() == getattr(model, name).tobytes()
        assert ts.fields.basis_key(back) == ts.fields.basis_key(model)
        assert back._factor.tobytes() == model._factor.tobytes()
        bits = []
        for each, each_threshold in ((model, threshold), (back, pickle.loads(pickle.dumps(threshold)))):
            ts.forget()
            total, _ = planner.cumulative_weight(each, each_threshold)
            grids = [ts.build_plan(each, each_threshold, s, m=7).grid for s in ("topology", "density")]
            bits.append((total.hex(), *(g.tobytes() for g in grids)))
        assert bits[0] == bits[1]


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
        basis_jets(cheb5, np.array([1.5]))
    with pytest.raises(ValueError):
        correlation(cheb5, -2.0, 0.0)


def test_sample_path_reproducible(cheb5):
    one = ts.sample_path(cheb5, seed=7, stream=3)
    two = ts.sample_path(cheb5, seed=7, stream=3)
    other = ts.sample_path(cheb5, seed=7, stream=4)
    assert np.array_equal(one.coeffs, two.coeffs)
    assert not np.array_equal(one.coeffs, other.coeffs)


def test_sample_path_evaluation(binom5):
    path = ts.sample_path(binom5, seed=11)
    xs = np.linspace(-2.0, 2.0, 9)
    want = path.coeffs @ basis_jets(binom5, xs)[0]
    assert path.value(xs) == pytest.approx(want, rel=1e-13)


def test_coefficient_rng_streams():
    a = coefficient_rng(123, 0).standard_normal(4)
    b = coefficient_rng(123, 0).standard_normal(4)
    c = coefficient_rng(123, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("bad", [-1, 2**64, 2**64 + 1])
def test_coefficient_rng_rejects_values_outside_64_bits(bad):
    # masking to 64 bits made seed 2^64 + 1 draw seed 1's paths
    with pytest.raises(ValueError, match="seed must lie in"):
        coefficient_rng(bad, 0)
    with pytest.raises(ValueError, match="stream must lie in"):
        coefficient_rng(1, bad)


def test_coefficient_rng_keeps_the_key_of_every_64_bit_seed():
    for seed, stream in ((0, 0), (1, 7), (2**64 - 1, 2**64 - 1)):
        key = np.array([seed, stream], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(3)
        assert coefficient_rng(seed, stream).standard_normal(3).tobytes() == want.tobytes()


def _draw(model, seed, stream):
    # one path's draw as coefficient_rng gives it, scaled by the factor
    z = coefficient_rng(seed, stream).standard_normal(model.n_terms)
    factor = model._factor
    return factor * z if factor.ndim == 1 else factor @ z


def test_sample_coefficients_are_the_per_path_draws(cheb5, binom5):
    cov = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]])
    table = ((np.ones_like, np.zeros_like, np.zeros_like), (np.sin, np.cos, np.sin), (np.cos, np.sin, np.cos))
    full = ts.custom_model(table, (0.0, 1.0), covariance=cov)
    streams = [*range(300), 2**63, 2**64 - 1]
    for model in (cheb5, binom5, ts.chebyshev_model(64), full):
        for seed in (0, 12345, 2**64 - 1):
            block = sample_coefficients(model, seed, streams)
            assert block.shape == (len(streams), model.n_terms)
            for row, stream in zip(block, streams):
                assert row.tobytes() == _draw(model, seed, stream).tobytes()
                path = ts.sample_path(model, seed, stream)
                assert path.coeffs.tobytes() == row.tobytes()
    assert sample_coefficients(cheb5, 1, []).shape == (0, cheb5.n_terms)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_sample_coefficients_rejects_values_outside_64_bits(cheb5, bad):
    with pytest.raises(ValueError, match="stream must lie in"):
        sample_coefficients(cheb5, 1, [0, 1, bad])
    with pytest.raises(ValueError, match="seed must lie in"):
        sample_coefficients(cheb5, bad, [0])


def test_sample_coefficients_names_the_first_bad_stream(cheb5, monkeypatch):
    # the range is checked before any draw, and the message names the
    # first stream outside [0, 2^64) in the order given
    built = []
    monkeypatch.setattr(np.random, "Generator", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=r"stream must lie in \[0, 2\^64\), got 18446744073709551616$"):
        sample_coefficients(cheb5, 1, [3, 2**64, -1])
    with pytest.raises(ValueError, match=r"stream must lie in \[0, 2\^64\), got -1$"):
        sample_coefficients(cheb5, 1, range(-1, 5))
    with pytest.raises(ValueError, match="seed must lie in"):
        sample_coefficients(cheb5, -1, [2**64])
    assert built == []


def _state_fields(state):
    inner = state["state"]
    return (
        state["bit_generator"],
        inner["counter"].tolist(),
        inner["key"].tolist(),
        state["buffer"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )


@pytest.mark.parametrize("seed", [0, 77, 2**64 - 1])
def test_every_reset_leaves_a_freshly_keyed_state(cheb5, seed, monkeypatch):
    # right before each draw the generator holds, field by field, the
    # state of a Philox freshly keyed to (seed, stream); stream 0 comes
    # again after draws have filled the buffer and moved the counter
    states = []
    real = np.random.Generator

    class Recording:
        def __init__(self, bitgen):
            self.bitgen, self.gen = bitgen, real(bitgen)

        def standard_normal(self, out):
            states.append(self.bitgen.state)
            return self.gen.standard_normal(out=out)

    monkeypatch.setattr(np.random, "Generator", Recording)
    streams = [0, 2**63, 2**64 - 1, 0]
    sample_coefficients(cheb5, seed, streams)
    assert len(states) == len(streams)
    for state, stream in zip(states, streams):
        fresh = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).state
        assert state.keys() == fresh.keys() and state["state"].keys() == fresh["state"].keys()
        assert _state_fields(state) == _state_fields(fresh)


class _TailOneWordLate(ctypes.Structure):
    _fields_ = [
        ("ctr", ctypes.c_void_p),
        ("key", ctypes.c_void_p),
        ("pad", ctypes.c_uint64),
        ("tail", fields._PhiloxTail),
    ]


def _misread(how, monkeypatch):
    state, counter, key = fields._philox_offsets()
    if how == "pointer_outside_the_object":
        monkeypatch.setattr(fields, "_philox_offsets", lambda: None)
    elif how == "key_and_counter_swapped":
        monkeypatch.setattr(fields, "_philox_offsets", lambda: (state, key, counter))
    else:
        monkeypatch.setattr(fields, "_PhiloxState", _TailOneWordLate)


@pytest.mark.parametrize(
    "how", ["pointer_outside_the_object", "key_and_counter_swapped", "tail_one_word_late"]
)
def test_a_misread_philox_layout_raises_before_any_draw(cheb5, how, monkeypatch):
    built = []
    _misread(how, monkeypatch)
    monkeypatch.setattr(np.random, "Generator", lambda *args: built.append(args))
    with pytest.raises(RuntimeError, match="Philox state does not have the layout"):
        sample_coefficients(cheb5, 5, [0, 1])
    assert built == []


def test_the_layout_probe_follows_no_pointer_outside_the_object(monkeypatch):
    # read one word late, both "pointers" are the buffer position and
    # the buffer's first word, neither of them inside the generator
    class PointersOneWordLate(ctypes.Structure):
        _fields_ = [("pad", ctypes.c_uint64 * 2), ("ctr", ctypes.c_void_p), ("key", ctypes.c_void_p)]

    assert fields._philox_offsets() is not None
    monkeypatch.setattr(fields, "_PhiloxState", PointersOneWordLate)
    assert fields._philox_offsets.__wrapped__() is None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    streams=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
)
def test_sample_coefficients_match_coefficient_rng_for_any_key(seed, streams):
    model = ts.binomial_model(5)
    block = sample_coefficients(model, seed, streams)
    for row, stream in zip(block, streams):
        assert row.tobytes() == _draw(model, seed, stream).tobytes()


def _exact(c, rows, mu):
    # c @ rows - mu in rational arithmetic, one value per column
    return [
        sum(Fraction(ck) * Fraction(rk) for ck, rk in zip(c, column)) - Fraction(m)
        for column, m in zip(rows.T, mu)
    ]


def test_block_minus_threshold_lies_within_its_slack(binom5):
    # one matrix product for the block, and each row within half its slack
    # of the exact value, as is path.value - threshold.value
    xs = np.linspace(-3.0, 3.0, 1001)
    coeffs = sample_coefficients(binom5, 5, range(40))
    lhs = fold_coefficients(coeffs)
    for threshold in (ts.threshold_cubic_shift(0.5), ts.threshold_constant(0.3), ts.threshold_zero()):
        system = threshold_system(binom5, threshold, xs)
        got, slack = block_minus_threshold(lhs, system, magnitude_bounds(system))
        assert np.all(slack > 0.0) and np.all(slack < 1e-10)
        for j, c in enumerate(coeffs):
            per_path = SamplePath(binom5, c).value(xs) - threshold.value(xs)
            assert np.all(np.abs(got[j] - per_path) <= slack[j])
            # away from a value's own size the block and per-path signs agree
            clear = np.abs(got[j]) > slack[j]
            assert np.array_equal(np.sign(got[j][clear]), np.sign(per_path[clear]))
        for j in (0, 17, 39):
            exact = _exact(coeffs[j], system[:-1, ::50], system[-1, ::50])
            half = Fraction(slack[j]) / 2
            for value, want in zip(got[j, ::50], exact):
                assert abs(Fraction(value) - want) <= half


def test_block_minus_threshold_splits_large_products(monkeypatch):
    # no product takes more than 2^18 multiply-adds, and the split rows
    # hold the same values as one product per row block
    model = ts.chebyshev_model(64)
    xs = np.linspace(-1.0, 1.0, 1000)
    system = threshold_system(model, ts.threshold_zero(), xs)
    coeffs = sample_coefficients(model, 2, range(10))
    shapes = []
    matmul = np.matmul

    def recording(a, b, out=None):
        shapes.append((a.shape[0], a.shape[1], b.shape[1]))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", recording)
    got, slack = block_minus_threshold(fold_coefficients(coeffs), system, magnitude_bounds(system))
    monkeypatch.undo()
    # 3 whole rows fit in 2^18, fewer than the 10 rows, so every block
    # carries all 10 rows over at most 2^18 / (10 x 66) = 397 columns
    assert shapes == [(10, 66, 397), (10, 66, 397), (10, 66, 206)]
    assert all(m * k * n <= 1 << 18 for m, k, n in shapes)
    for j, c in enumerate(coeffs):
        assert np.all(np.abs(got[j] - SamplePath(model, c).value(xs)) <= slack[j])


def test_blocked_product_splits_a_long_row_by_columns(monkeypatch):
    # fewer whole rows than the block's (at most 16) fit the budget, so
    # the product is taken in column blocks of all its rows, which read
    # the wide factor once, not once per row: a row over the budget, and
    # the 4 x 66 x 2,370 coarse product of four Chebyshev-64 paths at
    # 151,552 scan points, where one row fits but two do not
    rng = np.random.default_rng(3)
    matmul = np.matmul
    for points in (5000, 2370):
        lhs, rhs = rng.normal(size=(4, 66)), rng.normal(size=(66, points))
        shapes = []

        def recording(a, b, out=None):
            shapes.append((a.shape[0], a.shape[1], b.shape[1]))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recording)
        got = blocked_product(lhs, rhs)
        monkeypatch.undo()
        assert {s[0] for s in shapes} == {4} and sum(s[2] for s in shapes) == points
        assert all(m * k * n <= 1 << 18 for m, k, n in shapes)
        assert np.allclose(got, lhs @ rhs, rtol=0.0, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_block_minus_threshold_never_clears_a_non_finite_row(binom5):
    # a NaN slack fails every comparison, so such a row is never certified
    xs = np.linspace(-3.0, 3.0, 101)
    system = threshold_system(binom5, ts.threshold_zero(), xs)
    coeffs = sample_coefficients(binom5, 5, range(5))
    coeffs[1, 2] = np.nan
    coeffs[2, 5] = np.inf
    coeffs[3, 5] = 1e308  # 3^5 times 1e308 overflows
    coeffs[4, 5] = 4e305  # finite, but its scale lies within a factor 2 of overflow
    _, slack = block_minus_threshold(fold_coefficients(coeffs), system, magnitude_bounds(system))
    assert np.isfinite(slack[0])
    assert np.isnan(slack[1:]).all()
    system[-1] = np.nan  # a threshold row no bound covers
    _, slack = block_minus_threshold(fold_coefficients(coeffs[:1]), system, magnitude_bounds(system))
    assert np.isnan(slack).all()


def test_magnitude_bounds_are_the_largest_absolute_values():
    values = np.array([[1.0, -3.0, 2.0], [0.0, 0.5, -0.25], [np.nan, 1.0, 2.0]])
    got = magnitude_bounds(values)
    assert got[:2].tolist() == [3.0, 0.5] and np.isnan(got[2])
    assert magnitude_bounds(np.array([-2.0])) == 2.0


def test_first_order_jet_is_the_full_jet_prefix(cheb5, cosine5, binom5, mode5):
    table = ((np.sin, np.cos, np.sin), (np.cos, np.sin, np.cos), (np.exp, np.exp, np.exp))
    custom = ts.custom_model(table, (0.0, 2.0))
    for model in (cheb5, cosine5, binom5, mode5, ts.unit_model(4), custom):
        xs = np.linspace(*model.domain, 257)
        full = jet_tables(model, xs)
        first = jet_tables(model, xs, order=1)
        assert list(first) == ["x", "r00", "r10", "r11", "minor33"]
        for key, value in first.items():
            assert value.tobytes() == full[key].tobytes()
        full_jets = basis_jets(model, xs)
        for order in (0, 1):
            jets = basis_jets(model, xs, order=order)
            assert len(jets) == order + 1
            for got, want in zip(jets, full_jets):
                assert got.tobytes() == want.tobytes()
        # the jet functions stop at the second derivative
        with pytest.raises(ValueError, match="order"):
            basis_jets(model, xs, order=3)


def test_trig_families_reduce_half_turns_once_per_frequency(monkeypatch):
    calls, reduce_half_turns = [], fields._reduce_half_turns

    def counted(t):
        calls.append(t.shape)
        return reduce_half_turns(t)

    monkeypatch.setattr(fields, "_reduce_half_turns", counted)
    cosine, periodic = ts.cosine_model(5), ts.periodic_model([0.5, 1.0, 0.25, 2.0])
    xs = np.linspace(0.0, 1.0, 33)
    for order in (0, 1, 2):
        calls.clear()
        basis_jets(cosine, xs, order=order)
        assert calls == [(6, 33)]
        calls.clear()
        basis_jets(periodic, xs, order=order)
        assert calls == [(33,)] * 3


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ts.threshold_polynomial([]), "nonempty vector"),
        (lambda: ts.threshold_polynomial([[1.0, 2.0], [3.0, 4.0]]), "nonempty vector"),
        (lambda: ts.threshold_constant(float("nan")), "finite"),
        (lambda: ts.threshold_polynomial([0.5, float("inf")]), "finite"),
    ],
    ids=["empty", "matrix", "nan", "inf"],
)
def test_threshold_rejects_coefficients_it_cannot_use(build, message):
    # rejected when built, not later as an IndexError in the planner, a
    # broadcast error in the scan or a density reported as overflowing
    with pytest.raises(ValueError, match=message):
        build()


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


def test_threshold_derivatives_equal_polyder_bit_for_bit():
    # coefficient vectors of every length up to 9, with signed zeros and
    # magnitudes from 1e-300 to 1e300; a derivative past the last power is
    # the constant term times 0, a signed zero
    polyder = np.polynomial.polynomial.polyder
    rng = np.random.default_rng(27)
    for size in range(1, 10):
        coeffs = rng.standard_normal((400, size)) * 10.0 ** rng.integers(-300, 301, (400, size))
        coeffs[rng.random((400, size)) < 0.2] = 0.0
        coeffs *= rng.choice([-1.0, 1.0], (400, size))
        for c in coeffs:
            thr = ts.ThresholdFn(c)
            for got, order in ((thr._d1, 1), (thr._d2, 2)):
                want = polyder(c, order)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_basis_values_are_the_jet_value_rows(cheb5, cosine5, binom5, mode5):
    table = tuple((f, f, f) for f in (np.sin, np.cos, np.exp))
    custom = ts.custom_model(table, (0.0, 2.0))
    for model in (cheb5, cosine5, binom5, mode5, ts.unit_model(4), custom):
        a, b = model.domain
        xs = np.linspace(a, b, 97)
        assert np.array_equal(basis_values(model, xs), basis_jets(model, xs)[0])
    with pytest.raises(ValueError):
        basis_values(cheb5, np.array([1.5]))


_SINE = (np.sin, np.cos, lambda x: -np.sin(x))
SYSTEM_MODELS = {
    "chebyshev": ts.chebyshev_model(5),
    "cosine": ts.cosine_model(5),
    "periodic": ts.periodic_model([0.0, 1.0, 0.5, 0.25]),
    "binomial": ts.binomial_model(5),
    "unit": ts.unit_model(5),
    "custom": ts.custom_model(((np.ones_like, np.zeros_like, np.zeros_like), _SINE), (-2.0, 2.0)),
}


@pytest.mark.parametrize("points", [3, 513, 9000])
@pytest.mark.parametrize("family", sorted(SYSTEM_MODELS))
def test_threshold_system_holds_the_basis_bits(family, points):
    # the basis rows are written in place by the family's one jet
    # function at order 0, so they are byte for byte the basis values and
    # the jet's value rows; the last row is the threshold's values
    model = SYSTEM_MODELS[family]
    xs = np.linspace(*model.domain, points)
    threshold = ts.threshold_cubic_shift(0.5)
    system = threshold_system(model, threshold, xs)
    assert system.shape == (model.n_terms + 1, points)
    assert system[:-1].tobytes() == basis_values(model, xs).tobytes()
    assert system[:-1].tobytes() == basis_jets(model, xs)[0].tobytes()
    assert system[-1].tobytes() == threshold.value(xs).tobytes()
    with pytest.raises(ValueError):
        threshold_system(model, threshold, np.array([model.b + 1.0]))


@pytest.mark.parametrize("n", [50, 80])
def test_unit_det3_is_resolved_near_the_ends(n):
    # det3 / (r00 r11 r22) is below 1e-12 at these points (4.4e-14 at x = 3,
    # n = 80), where the 3x3 determinant formula cancels to noise
    x = np.array([-3.0, -2.95, 2.9, 3.0])
    t = jet_tables(ts.unit_model(n), x)
    exact = np.array([float(unit_jet_minors_exact(n, v)[1]) for v in x])
    assert np.all(t["nondegenerate"])
    assert t["det3"] == pytest.approx(exact, rel=1e-6)


def test_det3_is_trusted_down_to_its_volume_floor():
    # basis (cos x, sin x, x^3): adding the first jet row to the third gives
    # (0, 0, 6x + x^3), so det3 = (6x + x^3)^2 exactly, and the unit-norm
    # rows span a volume of about 6|x|; the floor is 2^10 gamma_9 = 1.0e-12
    table = [
        (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
        (np.sin, np.cos, lambda x: -np.sin(x)),
        (lambda x: x**3, lambda x: 3.0 * x**2, lambda x: 6.0 * x),
    ]
    model = ts.custom_model(table, (-1.0, 1.0))
    x = np.array([0.0, 1e-14, -1e-14, 1e-12, -1e-11, 1e-9, -1e-7, 0.5])
    t = jet_tables(model, x)
    assert t["nondegenerate"].tolist() == [False] * 3 + [True] * 5
    exact = (6.0 * x + x**3) ** 2
    ok = t["nondegenerate"]
    assert t["det3"][ok] == pytest.approx(exact[ok], rel=1e-2)


def test_resolved_det3_weights_a_full_covariance_like_its_diagonal():
    # the QR of the jet rows reads the covariance through its factor
    n = 50
    diagonal = ts.unit_model(n)
    full = ts.FieldModel("unit", n + 1, (-3.0, 3.0), covariance=np.eye(n + 1))
    x = np.linspace(-3.0, 3.0, 41)
    want, got = jet_tables(diagonal, x), jet_tables(full, x)
    assert np.array_equal(got["nondegenerate"], want["nondegenerate"])
    assert got["det3"] == pytest.approx(want["det3"], rel=1e-9)


POINTWISE_MODELS = {
    **SYSTEM_MODELS,
    "chebyshev64": ts.chebyshev_model(64),
    "binomial12": ts.binomial_model(12),
    "sine": ts.custom_model(
        [
            (lambda x, k=k: np.sin(k * x), lambda x, k=k: k * np.cos(k * x), np.zeros_like)
            for k in range(1, 5)
        ],
        (0.0, 3.0),
    ),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(POINTWISE_MODELS)),
    resolution=st.sampled_from((3, 65, 1000, 8192, 9001)),
    start=st.integers(0, 10**6),
    length=st.integers(1, 200),
    gathered=st.booleans(),
)
def test_threshold_system_is_pointwise(family, resolution, start, length, gathered):
    # the scan evaluates the system on tiles of its points, a block of cells
    # or the gathered points of scattered cells, repeated and in any order
    # (a sub-cell is evaluated once per row that needs it), and certifies
    # them with tables built from other tiles: every basis must give each
    # point the bits it has in the full grid, whatever tile it is evaluated in
    model = POINTWISE_MODELS[family]
    threshold = ts.threshold_cubic_shift(0.5)
    xs = np.linspace(*model.domain, resolution)
    full = threshold_system(model, threshold, xs)
    start %= resolution
    if gathered:
        index = np.random.default_rng(start).integers(0, resolution, length)
    else:
        index = np.arange(start, min(start + length, resolution))
    tile = threshold_system(model, threshold, xs[index])
    assert tile.tobytes() == np.ascontiguousarray(full[:, index]).tobytes()
