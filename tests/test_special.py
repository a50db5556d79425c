"""Tests for the log-Bessel / vMF-normalizer layer.

Reference values were computed once with mpmath.besseli at 60-digit working
precision and frozen here as literals; closed forms at half-integer order and
scipy's exponentially scaled ive serve as independent cross-checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import ive
from scipy.special import logsumexp as scipy_logsumexp

from spherebayes.special import (
    MAX_DIM,
    MAX_KAPPA,
    bessel_ratio,
    log_bessel_i,
    log_sphere_area,
    log_vmf_normalizer,
    logsumexp,
    mean_resultant_ratio,
)

# (nu, x, ln I_nu(x)) frozen from mpmath at 60 dps.
LOG_I_TABLE = [
    (0, 0.5, 0.061549719185481304),
    (0, 1, 0.23591435850717865),
    (0, 10, 7.9429720831186956),
    (0.5, 1, -0.064351991073531799),
    (1, 2.5, 0.92295497451349355),
    (3, 40, 37.125897792467999),
    (7, 49.5, 46.133436598925747),
    (7, 51.0, 47.633215295179924),
    (15, 3, -21.6772454164293),
    (31, 200, 194.02883804776677),
    (127, 1e4, 9993.6694242966513),
    (0, 1e6, 999992.17330631281),
    (2047, 1e6, 999990.07820149684),
]

# (p, kappa, A_p(kappa)) frozen from mpmath at 60 dps.
RATIO_TABLE = [
    (2, 0.5, 0.24249961258080195),
    (3, 5, 0.80009080398201938),
    (3, 0.001, 0.00033333331111111323),
    (8, 1, 0.12346931414340687),
    (16, 20, 0.68709220894493633),
    (64, 50, 0.54939448887983946),
    (256, 500, 0.7768141349805955),
    (1024, 300, 0.27142208278793077),
]


class TestLogBesselI:
    @pytest.mark.parametrize("nu, x, expected", LOG_I_TABLE)
    def test_frozen_references(self, nu, x, expected):
        assert_allclose(log_bessel_i(nu, x), expected, rtol=1e-12)

    def test_half_integer_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
        for x in (0.1, 1.0, 5.0, 30.0, 100.0):
            expected = 0.5 * math.log(2.0 / (math.pi * x)) + math.log(math.sinh(x))
            assert_allclose(log_bessel_i(0.5, x), expected, rtol=1e-12)

    def test_three_halves_closed_form(self):
        # I_{3/2}(x) = sqrt(2/(pi x)) (cosh x - sinh(x)/x)
        for x in (0.5, 2.0, 10.0, 40.0):
            expected = 0.5 * math.log(2.0 / (math.pi * x)) + math.log(math.cosh(x) - math.sinh(x) / x)
            assert_allclose(log_bessel_i(1.5, x), expected, rtol=1e-12)

    def test_x_zero(self):
        assert log_bessel_i(0.0, 0.0) == 0.0
        assert log_bessel_i(2.0, 0.0) == -math.inf
        assert log_bessel_i(0.5, 0.0) == -math.inf

    def test_agrees_with_scipy_scaled(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            nu = rng.uniform(0.0, 300.0)
            x = rng.uniform(1e-3, 1e4)
            ref = math.log(ive(nu, x)) + x
            assert_allclose(log_bessel_i(nu, x), ref, rtol=1e-10, atol=1e-10)

    def test_branch_switchover_is_seamless(self):
        # The series/asymptotic split sits at x = max(50, nu): both branches,
        # evaluated at the same boundary point, must agree to float resolution.
        from spherebayes.special import _log_i_asymptotic, _log_i_series

        for nu in (0.0, 0.5, 7.0, 60.0, 333.5):
            edge = max(50.0, nu)
            assert_allclose(_log_i_series(nu, edge), _log_i_asymptotic(nu, edge), rtol=1e-13)

    def test_recurrence_consistency(self):
        # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x), checked through
        # ratios so all quantities stay representable.
        for nu in (1.0, 1.5, 4.0, 16.0, 128.5):
            for x in (0.7, 5.0, 55.0, 400.0, 3e4):
                down = 1.0 / bessel_ratio(nu - 1.0, x)  # I_{nu-1}/I_nu
                up = bessel_ratio(nu, x)  # I_{nu+1}/I_nu
                assert_allclose(down - up, 2.0 * nu / x, rtol=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_bessel_i(-0.5, 1.0)
        with pytest.raises(ValueError):
            log_bessel_i(1.0, -1.0)
        with pytest.raises(ValueError):
            log_bessel_i(math.nan, 1.0)
        with pytest.raises(ValueError):
            log_bessel_i(1.0, math.inf)


class TestBesselRatio:
    @pytest.mark.parametrize("p, kappa, expected", RATIO_TABLE)
    def test_frozen_references(self, p, kappa, expected):
        assert_allclose(mean_resultant_ratio(p, kappa), expected, rtol=1e-12)

    def test_p3_coth_identity(self):
        # A_3(kappa) = coth(kappa) - 1/kappa
        for kappa in np.geomspace(1e-3, 1e4, 40):
            expected = 1.0 / math.tanh(kappa) - 1.0 / kappa
            assert_allclose(mean_resultant_ratio(3, kappa), expected, rtol=1e-8)

    def test_zero_and_range(self):
        assert mean_resultant_ratio(5, 0.0) == 0.0
        for p in (2, 3, 16, 256):
            for kappa in (1e-6, 1.0, 1e3, 1e6):
                a = mean_resultant_ratio(p, kappa)
                assert 0.0 < a < 1.0

    def test_monotone_in_kappa(self):
        for p in (2, 3, 8, 64, 1024):
            grid = np.geomspace(1e-4, 1e6, 60)
            vals = [mean_resultant_ratio(p, k) for k in grid]
            assert np.all(np.diff(vals) > 0.0)

    def test_ratio_consistent_with_log_values(self):
        # Where both routes are well-conditioned they must agree; this pins
        # the direct ratio against the independent series/asymptotic path.
        for nu in (0.0, 2.5, 40.0):
            for x in (0.3, 7.0, 90.0, 1.2e4, 8e4):
                via_logs = math.exp(log_bessel_i(nu + 1.0, x) - log_bessel_i(nu, x))
                assert_allclose(bessel_ratio(nu, x), via_logs, rtol=1e-9)

    def test_large_argument_branch_continuity(self):
        # The router hands the continued fraction off to a differenced
        # asymptotic form at x = max(50, nu); both routes must still agree
        # far above that, at x = 2e4.
        from spherebayes.special import _ratio_continued_fraction, _ratio_differenced_asymptotic

        for nu in (0.0, 1.5, 31.0, 511.0):
            assert_allclose(
                _ratio_continued_fraction(nu, np.array([2e4]))[0],
                _ratio_differenced_asymptotic(nu, 2e4),
                rtol=1e-13,
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mean_resultant_ratio(1, 1.0)
        with pytest.raises(ValueError):
            mean_resultant_ratio(2.5, 1.0)
        with pytest.raises(ValueError):
            mean_resultant_ratio(3, -0.1)
        with pytest.raises(ValueError):
            mean_resultant_ratio(MAX_DIM + 2, 1.0)
        with pytest.raises(ValueError):
            mean_resultant_ratio(3, MAX_KAPPA * 1.01)


class TestMeanResultantRatioArray:
    KAPPAS = [0.0, 1e-12, 0.3, 1.0, 40.0, 900.0, np.nextafter(2e4, 0.0), 2e4, np.nextafter(2e4, 1e6), 2.5e4, 1e6]

    @pytest.mark.parametrize("p", [2, 3, 8, 32, 128, 256, 1024, 4096])
    def test_bitwise_equal_to_scalar_calls(self, p):
        kappas = np.array(self.KAPPAS)
        got = mean_resultant_ratio(p, kappas)
        expected = np.array([mean_resultant_ratio(p, float(k)) for k in kappas])
        assert got.dtype == np.float64 and got.shape == kappas.shape
        assert_array_equal(got, expected)
        # Entries converge at their own iteration: order and company do not matter.
        shuffled = np.random.default_rng(p).permutation(len(kappas))
        assert_array_equal(mean_resultant_ratio(p, kappas[shuffled]), expected[shuffled])

    def test_shapes(self):
        assert isinstance(mean_resultant_ratio(8, 3.0), float)
        assert isinstance(mean_resultant_ratio(8, np.float64(3.0)), float)
        grid = np.array(self.KAPPAS[:10]).reshape(2, 5)
        got = mean_resultant_ratio(8, grid)
        assert got.shape == (2, 5)
        assert_array_equal(got.ravel(), [mean_resultant_ratio(8, float(k)) for k in grid.ravel()])
        assert mean_resultant_ratio(8, [1.0]).shape == (1,)
        assert mean_resultant_ratio(8, np.array([])).shape == (0,)

    def test_bad_entries_raise(self):
        for bad in (-0.1, math.nan, math.inf, MAX_KAPPA * 1.01):
            with pytest.raises(ValueError):
                mean_resultant_ratio(8, np.array([1.0, bad]))


def _mp_ratio(nu, x):
    """I_{nu+1}(x)/I_nu(x) from mpmath at 40 digits, as an mpf."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        return mpmath.besseli(nu + 1, x) / mpmath.besseli(nu, x)


class TestRatioEdges:
    @pytest.mark.parametrize("p", [2, 3, 128, 4096])
    @pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-300, 1e-200, 1e-9])
    def test_tiny_arguments(self, p, x):
        # Below ~1e-8 the ratio is its leading term x/p; the continued
        # fraction's Lentz start would swamp it, or overflow on subnormals.
        ref = float(_mp_ratio(p / 2.0 - 1.0, x))
        got = mean_resultant_ratio(p, x)
        assert abs(got - ref) <= np.spacing(ref)
        assert bessel_ratio(p / 2.0 - 1.0, x) == got
        assert_array_equal(mean_resultant_ratio(p, np.array([x, 1.0])), [got, mean_resultant_ratio(p, 1.0)])

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_small_order_near_2e4(self, nu):
        # Here the continued fraction carried ~8e-15 of rounding; the
        # differenced asymptotic, which serves x > max(50, nu), carries
        # less than 1e-15.
        for x in (1.5e4, np.nextafter(2e4, 0.0), 2e4, 2.3e4):
            ref = _mp_ratio(nu, x)
            assert abs(float((bessel_ratio(nu, x) - ref) / ref)) <= 1e-15

    @pytest.mark.parametrize("nu", [0.0, 1.0, 15.0, 63.0, 2047.0])
    def test_regime_seam(self, nu):
        edge = max(50.0, nu)
        for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), 1.5 * edge):
            ref = _mp_ratio(nu, x)
            assert abs(float((bessel_ratio(nu, x) - ref) / ref)) <= 2e-15


class TestLogVmfNormalizer:
    def test_p3_closed_form(self):
        # C_3(kappa) = 4 pi sinh(kappa) / kappa; write sinh in log form so the
        # identity stays exact far past sinh's float64 overflow near 710.
        for kappa in (0.25, 1.0, 10.0, 250.0, 5000.0):
            expected = (
                math.log(4 * math.pi)
                + kappa
                + math.log1p(-math.exp(-2 * kappa))
                - math.log(2 * kappa)
            )
            assert_allclose(log_vmf_normalizer(3, kappa), expected, rtol=1e-12)

    def test_frozen_values(self):
        assert_allclose(log_vmf_normalizer(3, 1.0), 2.6924636085404864, rtol=1e-13)
        assert_allclose(log_vmf_normalizer(2, 1.0), 2.0737914249165241, rtol=1e-13)
        assert_allclose(log_vmf_normalizer(16, 20.0), 10.079147105901478, rtol=1e-13)

    def test_uniform_limits(self):
        assert_allclose(log_vmf_normalizer(3, 0.0), math.log(4 * math.pi), rtol=1e-15)
        assert_allclose(log_vmf_normalizer(2, 0.0), math.log(2 * math.pi), rtol=1e-15)
        # log surface areas of S^(p-1), frozen closed-form values
        assert_allclose(log_sphere_area(2), 1.8378770664093455, rtol=1e-15)
        assert_allclose(log_sphere_area(4), 2.9826069522587457, rtol=1e-15)
        assert_allclose(log_sphere_area(5), 3.2702890247105266, rtol=1e-15)
        assert_allclose(log_sphere_area(4096), -11219.226399984545, rtol=1e-15)

    def test_continuity_at_kappa_zero(self):
        for p in (2, 3, 8, 64, 1024, 4096):
            gap = abs(log_vmf_normalizer(p, 1e-12) - log_vmf_normalizer(p, 0.0))
            assert gap < 1e-8

    def test_circle_density_integrates_to_one(self):
        # p = 2: the density exp(kappa cos(theta)) / C_2(kappa) over the
        # circle must integrate to 1.
        for kappa in (0.0, 1.0, 10.0, 100.0):
            log_c = log_vmf_normalizer(2, kappa)
            total, err = quad(
                lambda t: math.exp(kappa * math.cos(t) - log_c), 0.0, 2.0 * math.pi
            )
            assert abs(total - 1.0) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_vmf_normalizer(1, 1.0)
        with pytest.raises(ValueError):
            log_vmf_normalizer(3, -1.0)
        with pytest.raises(ValueError):
            log_sphere_area(0)

    @pytest.mark.parametrize("p", [2, 3, 32, 128, 256, 4096])
    def test_array_matches_scalar_calls(self, p):
        # Entries either side of the series/asymptotic switch at max(50, nu)
        # share one call with the uniform and extreme ends.
        edge = max(50.0, p / 2.0 - 1.0)
        kappas = np.array([0.0, 1e-12, 0.5, edge * (1 - 1e-9), edge, edge * (1 + 1e-9),
                           3.0 * edge, 1e6, 7.25, edge * 0.9])
        out = log_vmf_normalizer(p, kappas)
        assert out.shape == kappas.shape
        expected = np.array([log_vmf_normalizer(p, float(k)) for k in kappas])
        assert_allclose(out, expected, rtol=1e-15, atol=0)
        assert isinstance(log_vmf_normalizer(p, 1.0), float)

    @pytest.mark.parametrize("bad", [math.nan, -1e-300, MAX_KAPPA * (1 + 1e-12), math.inf])
    def test_array_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_vmf_normalizer(8, np.array([1.0, bad, 2.0]))


class TestLogSumExp:
    """Bitwise agreement with scipy.special.logsumexp, the reference."""

    def _same(self, a, axis, keepdims):
        expected = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
        out = logsumexp(a, axis=axis, keepdims=keepdims)
        assert np.shape(out) == np.shape(expected)
        assert np.array_equal(out, expected, equal_nan=True)

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_random_batches(self, keepdims):
        rng = np.random.default_rng(3)
        for shape, scale in (((64, 20), 1.0), ((64, 20), 30.0), ((7, 1000), 5.0), ((3, 1), 1.0)):
            a = rng.standard_normal(shape) * scale
            self._same(a, -1, keepdims)
            self._same(a, 0, keepdims)

    def test_one_dimensional(self):
        a = np.random.default_rng(4).standard_normal(181) * 40.0
        self._same(a, -1, False)
        self._same(a, -1, True)

    def test_ties_and_minus_inf_columns(self):
        a = np.array([
            [1.0, 1.0, 0.5, -2.0],
            [3.0, 3.0, 3.0, 3.0],
            [-math.inf, 0.25, -math.inf, 0.25],
            [2.0, -math.inf, -math.inf, -math.inf],
        ])
        self._same(a, -1, True)
        self._same(a, -1, False)

    def test_non_finite_rows(self):
        # All -inf, +inf (alone and with -inf), and nan rows give scipy's
        # values; the error::RuntimeWarning filter catches any new warning.
        a = np.array([
            [-math.inf, -math.inf, -math.inf],
            [math.inf, 0.0, 1.0],
            [math.inf, -math.inf, math.inf],
            [math.nan, 0.0, 1.0],
            [0.0, 1.0, 2.0],
        ])
        self._same(a, -1, True)
        self._same(a, -1, False)
        assert logsumexp(np.full(4, -math.inf)) == -math.inf

    def test_nan_row_does_not_hide_a_tie(self):
        # Row 0 has two maxima and row 1 none (nan), so the maxima count
        # equals the row count although not every row has one maximum.
        self._same(np.array([[1.0, 1.0, 0.0], [math.nan, 0.0, 1.0]]), -1, False)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 8),
        cols=st.integers(1, 12),
        ties=st.integers(0, 8),
        planted=st.lists(st.sampled_from(["-inf row", "-inf", "+inf", "nan"]), max_size=3),
        axis=st.sampled_from([0, -1]),
        keepdims=st.booleans(),
    )
    def test_matches_scipy_on_every_path(self, seed, rows, cols, ties, planted, axis, keepdims):
        # Rows (taken along axis) with one maximum each, ties, -inf rows and
        # nans, alone or together.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, cols)) * 10.0
        for r in range(min(ties, rows) if cols > 1 else 0):
            a[r, (np.argmax(a[r]) + 1 + rng.integers(cols - 1)) % cols] = a[r].max()
        for what in planted:
            r, c = rng.integers(rows), rng.integers(cols)
            if what == "-inf row":
                a[r] = -math.inf
            else:
                a[r, c] = {"-inf": -math.inf, "+inf": math.inf, "nan": math.nan}[what]
        self._same(a if axis == -1 else a.T, axis, keepdims)
