"""Tests for streaming class statistics, conjugate posteriors, MAP estimates."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from spherebayes.estimation import (
    ClassStats,
    ConcentrationOverflowError,
    DegeneratePosteriorError,
    PosteriorSpec,
    PriorSpec,
    class_posteriors,
    concentration_slopes,
    concentrations,
    map_estimate,
    posterior,
    scale_prior,
    update_stats,
)
from spherebayes.special import MAX_KAPPA, mean_resultant_ratio
from spherebayes.vmf import VmfParams, sample, substream


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestClassStats:
    def test_mean_update_arithmetic(self):
        # n=2 at mean (0.5, 0.5) plus one sample (1, 0) moves the mean to (2/3, 1/3)
        stats = ClassStats(2, np.array([1.0, 1.0]))
        stats = update_stats(stats, np.array([[1.0, 0.0]]))
        assert stats.count == 3
        assert_allclose(stats.mean, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)

    def test_empty_start_gives_batch_mean(self):
        batch = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        stats = update_stats(ClassStats.empty(2), batch)
        assert_allclose(stats.mean, batch.mean(axis=0), atol=1e-15)

    def test_empty_batch_is_identity(self):
        stats = ClassStats(1, np.array([0.0, 1.0]))
        assert update_stats(stats, np.empty((0, 2))) is stats

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ClassStats(1, np.array([1.5, 1.5]))  # resultant longer than count
        with pytest.raises(ValueError):
            ClassStats(-1, np.zeros(2))
        with pytest.raises(ValueError):
            ClassStats(0, np.zeros(1))
        with pytest.raises(ValueError):
            ClassStats.empty(3).mean

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            update_stats(ClassStats.empty(3), np.eye(2))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_partition_invariance(self, seed, n_chunks):
        # Any batching of the same samples must land on identical statistics.
        rng = substream(seed, 0)
        n = int(rng.integers(n_chunks, 40))
        g = rng.standard_normal((n, 5))
        z = g / np.linalg.norm(g, axis=1, keepdims=True)
        one_shot = update_stats(ClassStats.empty(5), z)
        chunked = ClassStats.empty(5)
        for part in np.array_split(z, n_chunks):
            chunked = update_stats(chunked, part)
        assert chunked.count == one_shot.count
        assert_allclose(chunked.resultant, one_shot.resultant, atol=1e-12)


class TestPosterior:
    def test_collinear_case(self):
        prior = PriorSpec(2.0, 1.0, np.array([1.0, 0.0]))
        stats = update_stats(ClassStats.empty(2), np.array([[1.0, 0.0], [1.0, 0.0]]))
        post = posterior(prior, stats)
        assert post.alpha == 4.0
        assert_allclose(post.beta, 3.0, rtol=1e-15)
        assert_allclose(post.m, [1.0, 0.0], atol=1e-15)

    def test_flat_prior_is_mle(self):
        g = substream(2, 0).standard_normal((50, 4))
        batch = g / np.linalg.norm(g, axis=1, keepdims=True)
        stats = update_stats(ClassStats.empty(4), batch)
        post = posterior(PriorSpec(0.0, 0.0), stats)
        assert post.alpha == stats.count
        assert_allclose(post.beta, np.linalg.norm(stats.resultant), rtol=1e-15)
        assert_allclose(post.m, _unit(stats.resultant), atol=1e-15)

    def test_sequential_equals_one_shot(self):
        # Feeding the posterior back in as a prior must match the single-pass
        # combination of all the data.
        rng = substream(9, 1)
        a = rng.standard_normal((30, 6)) + 2 * np.eye(6)[0]
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal((20, 6)) + 2 * np.eye(6)[0]
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        prior = PriorSpec(1.5, 0.5, np.eye(6)[0])
        stats_a = update_stats(ClassStats.empty(6), a)
        stats_b = update_stats(ClassStats.empty(6), b)
        chained = posterior(
            PriorSpec(posterior(prior, stats_a).alpha, posterior(prior, stats_a).beta, posterior(prior, stats_a).m),
            stats_b,
        )
        one_shot = posterior(prior, update_stats(stats_a, b))
        assert_allclose(chained.alpha, one_shot.alpha, rtol=1e-15)
        assert_allclose(chained.beta, one_shot.beta, rtol=1e-12)
        assert_allclose(chained.m, one_shot.m, atol=1e-12)

    def test_degenerate_cancellation(self):
        prior = PriorSpec(1.0, 1.0, np.array([1.0, 0.0]))
        stats = update_stats(ClassStats.empty(2), np.array([[-1.0, 0.0]]))
        with pytest.raises(DegeneratePosteriorError):
            posterior(prior, stats)

    def test_huge_prior_rates_give_a_finite_beta(self):
        # beta0 past ~1e154 overflowed the squares of the norm (a warning,
        # an error under pytest): posterior raised "invalid posterior
        # parameters ... beta=inf" and class_posteriors returned inf betas.
        m0 = _unit([1.0, 2.0, -2.0])
        batch = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], _unit([1.0, 1.0, 1.0])])
        stats = update_stats(ClassStats.empty(3), batch)
        post = posterior(PriorSpec(4e201, 4e161, m0), stats)
        _, betas, ms, _ = class_posteriors([4, 4], np.stack([stats.resultant, -stats.resultant]), 1e200, 1e160,
                                           np.stack([m0, -m0]))
        assert_allclose(post.beta, 4e161, rtol=1e-15)
        assert_allclose(betas, 4e160, rtol=1e-15)
        assert_allclose(np.linalg.norm(post.m), 1.0, rtol=1e-15)
        assert_allclose(np.linalg.norm(ms, axis=1), 1.0, rtol=1e-15)
        assert_allclose(post.m, m0, rtol=1e-15)
        assert_allclose(ms, np.stack([m0, -m0]), rtol=1e-15)

    def test_class_posteriors_beta_is_the_plain_norm_of_normal_rows(self):
        rng = substream(5, 0)
        counts = np.array([3, 40, 7, 0])
        resultants = rng.standard_normal((4, 8)) * np.array([[0.5], [20.0], [4.0], [0.0]])
        m0 = rng.standard_normal((4, 8))
        m0 /= np.linalg.norm(m0, axis=1, keepdims=True)
        _, beta, _, beta0 = class_posteriors(counts, resultants, 2.0, 1.5, m0)
        np.testing.assert_array_equal(beta, np.linalg.norm(resultants + beta0[:, np.newaxis] * m0, axis=1))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PriorSpec(1.0, 2.0, np.array([1.0, 0.0]))  # beta0 > alpha0
        with pytest.raises(ValueError):
            PriorSpec(1.0, 0.5)  # directional mass without a direction
        with pytest.raises(ValueError):
            PosteriorSpec(1.0, 0.5)  # same for the posterior
        with pytest.raises(ValueError):
            PosteriorSpec(1.0, 0.0)  # beta=0 needs an explicit dim
        assert PosteriorSpec(1.0, 0.0, dim=3).dim == 3


class TestMapEstimate:
    def test_approx_closed_form(self):
        post = PosteriorSpec(1.0, 0.8, np.eye(3)[0])
        est = map_estimate(post, "approx")
        assert_allclose(est.kappa, 20.0 / 3.0, rtol=5e-15)
        assert_allclose(est.mu, post.m, atol=0)

    def test_exact_root_via_coth(self):
        # A_3(5) = coth(5) - 1/5, so the exact solve must return 5.
        r = 1.0 / math.tanh(5.0) - 0.2
        est = map_estimate(PosteriorSpec(1.0, r, np.eye(3)[0]), "exact")
        assert_allclose(est.kappa, 5.0, rtol=1e-10)

    def test_exact_residual_small_on_grid(self):
        for p in (2, 8, 64, 256):
            for r in (0.05, 0.3, 0.8, 0.97):
                m = np.zeros(p)
                m[0] = 1.0
                kappa = map_estimate(PosteriorSpec(1.0, r, m), "exact").kappa
                assert abs(mean_resultant_ratio(p, kappa) - r) <= 1e-10

    def test_zero_resultant_is_uniform(self):
        est = map_estimate(PosteriorSpec(5.0, 0.0, dim=4), "approx")
        assert est.kappa == 0.0
        assert est.dim == 4

    def test_overflow_conditions(self):
        m = np.eye(2)[0]
        with pytest.raises(ConcentrationOverflowError):
            map_estimate(PosteriorSpec(1.0, 1.0 - 1e-10, m), "approx")
        # below the ratio cutoff but the implied kappa exceeds the domain cap
        with pytest.raises(ConcentrationOverflowError):
            map_estimate(PosteriorSpec(1.0, 1.0 - 1e-7, m), "approx")
        with pytest.raises(ConcentrationOverflowError):
            map_estimate(PosteriorSpec(1.0, 1.0 - 1e-7, m), "exact")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            map_estimate(PosteriorSpec(0.0, 0.0, dim=3), "approx")
        with pytest.raises(ValueError):
            map_estimate(PosteriorSpec(1.0, 0.5, np.eye(3)[0]), "newton")

    def test_approx_upper_bounds_exact(self):
        # The closed-form approximation always lands at or above the true
        # root; the relative gap grows toward 1/(p-1) as beta/alpha nears 1
        # and fades as p grows.
        for p in (3, 8, 64):
            gaps = []
            for r in (0.2, 0.5, 0.8, 0.95):
                m = np.zeros(p)
                m[0] = 1.0
                ka = map_estimate(PosteriorSpec(1.0, r, m), "approx").kappa
                ke = map_estimate(PosteriorSpec(1.0, r, m), "exact").kappa
                assert ka >= ke
                gaps.append((ka - ke) / ke)
            assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1.0 / (p - 1)

    def test_mle_consistency(self):
        # Zero prior, plenty of i.i.d. data: direction within 2 degrees,
        # concentration within 5%, in at least 9 of 10 seeds.
        truth = VmfParams(mu=_unit(np.arange(1.0, 17.0)), kappa=10.0)
        hits = 0
        for seed in range(10):
            z = sample(truth, 10_000, substream(seed, 3))
            post = posterior(PriorSpec(0.0, 0.0), update_stats(ClassStats.empty(16), z))
            est = map_estimate(post, "exact")
            angle = math.degrees(math.acos(np.clip(est.mu @ truth.mu, -1, 1)))
            if angle <= 2.0 and abs(est.kappa - 10.0) / 10.0 <= 0.05:
                hits += 1
        assert hits >= 9

    def test_prior_dominance(self):
        # Pseudo-counts 100x the data pull mu to m0 and kappa to the value
        # encoded by the prior's own resultant ratio.
        truth = VmfParams(mu=np.eye(8)[1], kappa=12.0)
        z = sample(truth, 200, substream(4, 0))
        m0 = np.eye(8)[0]
        prior = scale_prior(100.0, 50.0, m0, 200)
        post = posterior(prior, update_stats(ClassStats.empty(8), z))
        est = map_estimate(post, "exact")
        angle = math.degrees(math.acos(np.clip(est.mu @ m0, -1, 1)))
        assert angle <= 1.0
        target = map_estimate(PosteriorSpec(1.0, 0.5, m0), "exact").kappa
        assert abs(est.kappa - target) / target < 0.05

    def test_rotation_equivariance(self):
        rng = substream(31, 0)
        q, r = np.linalg.qr(rng.standard_normal((6, 6)))
        q *= np.sign(np.diag(r))
        z = sample(VmfParams(mu=np.eye(6)[0], kappa=6.0), 500, substream(31, 1))
        m0 = _unit(np.ones(6))
        prior = PriorSpec(5.0, 2.0, m0)
        base = map_estimate(posterior(prior, update_stats(ClassStats.empty(6), z)), "exact")
        rotated = map_estimate(
            posterior(
                PriorSpec(5.0, 2.0, q @ m0), update_stats(ClassStats.empty(6), z @ q.T)
            ),
            "exact",
        )
        assert_allclose(rotated.mu, q @ base.mu, atol=1e-9)
        assert_allclose(rotated.kappa, base.kappa, rtol=1e-9)


def _brentq_concentration(p, r):
    """Reference root of A_p(kappa) = r by scalar brentq, as the solver did
    before it was vectorised: bracketed by r(p-2)/(1-r^2) and the approx
    value, widened where float slop at an end calls for it."""
    lo, hi = max(r * (p - 2) / (1.0 - r * r), 0.0), p * r / (1.0 - r * r)
    while mean_resultant_ratio(p, hi) < r:
        hi = min(hi * (1.0 + 1e-12), MAX_KAPPA)
    while lo > 0.0 and mean_resultant_ratio(p, lo) > r:
        lo *= 0.5
    return brentq(lambda k: mean_resultant_ratio(p, k) - r, lo, hi, xtol=1e-300, rtol=8.9e-16)


class TestExactConcentrations:
    DIMS = [2, 3, 8, 32, 128, 256, 1024, 4096]

    @staticmethod
    def _ratios(p):
        # r from 1e-8 up to the largest r whose approx-mode kappa p r/(1-r^2)
        # stays within MAX_KAPPA, so the largest root lies near MAX_KAPPA.
        r_top = 2.0 * MAX_KAPPA / (p + math.sqrt(p * p + 4.0 * MAX_KAPPA**2)) * (1.0 - 1e-15)
        kappas = [1e-12, 1e-6, 0.5, 30.0, 2e3, np.nextafter(2e4, 0.0), np.nextafter(2e4, 1e6), 2e5]
        r = np.array([1e-8] + [mean_resultant_ratio(p, k) for k in kappas] + [r_top])
        return r[p * r / (1.0 - r * r) <= MAX_KAPPA]

    @pytest.mark.parametrize("p", DIMS)
    def test_residual(self, p):
        r = self._ratios(p)
        kappas = concentrations(p, r, "exact")
        assert kappas.max() > 0.45 * MAX_KAPPA
        assert np.max(np.abs(mean_resultant_ratio(p, kappas) - r)) <= 1e-10

    @pytest.mark.parametrize("p", DIMS)
    def test_agrees_with_brentq(self, p):
        # Within 1e-10 relative. Up to kappa = 2e4 the ratio comes from the
        # continued fraction, whose rounding (~1e-14 absolute at p = 2) makes
        # the root itself uncertain by that over the slope A'(kappa); there
        # the bound widens by it where that is more.
        r = self._ratios(p)
        got = concentrations(p, r, "exact")
        ref = np.array([_brentq_concentration(p, ri) for ri in r])
        a = mean_resultant_ratio(p, ref)
        slope = 1.0 - a * a - (p - 1) * a / ref
        noise = np.where(ref <= 2e4, 2e-14 / slope, 0.0)
        assert np.all(np.abs(got - ref) <= 1e-10 * ref + noise)

    @pytest.mark.parametrize("p", DIMS)
    def test_round_trip_and_zero(self, p):
        kappas = np.array([0.0, 1e-12, 5.0, 0.0, 300.0])
        got = concentrations(p, mean_resultant_ratio(p, kappas), "exact")
        assert got[0] == 0.0 and got[3] == 0.0
        assert_allclose(got, kappas, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("p", [2, 3, 128, 4096])
    def test_tiny_ratio_root_is_p_r(self, p, monkeypatch):
        # A_p(kappa) = kappa/p to rounding for tiny kappa, so the root is p r;
        # Newton's first step from the Banerjee start p r lands there.
        import spherebayes.estimation as estimation

        calls = []

        def counted(p, kappa):
            calls.append(kappa)
            return mean_resultant_ratio(p, kappa)

        monkeypatch.setattr(estimation, "mean_resultant_ratio", counted)
        r = np.array([1e-300, 1e-200])
        assert_allclose(concentrations(p, r, "exact"), p * r, rtol=4 * np.finfo(float).eps, atol=0)
        assert len(calls) <= 2

    def test_approx_is_upper_bracket(self):
        r = np.array([0.0, 1e-8, 0.3, 0.9, 0.99])
        for p in self.DIMS:
            assert np.all(concentrations(p, r, "exact") <= concentrations(p, r, "approx"))


class TestConcentrationSlopes:
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    @pytest.mark.parametrize("p", [2, 3, 32, 128])
    def test_matches_central_differences(self, mode, p):
        # dkappa/dbeta at fixed alpha against central differences of
        # `concentrations` in beta, at step 1e-6 beta.
        alpha = np.array([3.0, 40.0, 7.5, 120.0, 600.0, 2.0])
        beta = alpha * np.array([1e-4, 0.05, 0.3, 0.6, 0.9, 0.99])
        h = 1e-6 * beta
        fd = (concentrations(p, (beta + h) / alpha, mode) - concentrations(p, (beta - h) / alpha, mode)) / (2 * h)
        kappa = concentrations(p, beta / alpha, mode)
        slopes = concentration_slopes(p, alpha, beta, kappa, mean_resultant_ratio(p, kappa), mode)
        assert_allclose(slopes, fd, rtol=1e-6, atol=0)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown estimation mode"):
            concentration_slopes(3, np.array([2.0]), np.array([1.0]), np.array([1.0]), np.array([0.3]), "newton")


def test_import_leaves_out_scipy_optimize():
    # The exact solve is in-house; importing the package must not pay for
    # scipy.optimize (about 0.3 s of a fresh process).
    import spherebayes

    src = os.path.dirname(os.path.dirname(os.path.abspath(spherebayes.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, spherebayes; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestScalePrior:
    def test_scaling_arithmetic(self):
        m0 = np.eye(4)[0]
        prior = scale_prior(40.0, 8.0, m0, 10)
        assert (prior.alpha0, prior.beta0) == (400.0, 80.0)
        prior = scale_prior(20.0, 0.6, m0, 100)
        assert (prior.alpha0, prior.beta0) == (2000.0, 60.0)

    def test_empty_class_gives_flat_prior(self):
        prior = scale_prior(40.0, 8.0, np.eye(4)[0], 0)
        assert prior.alpha0 == 0.0 and prior.beta0 == 0.0

    def test_rate_order_enforced(self):
        with pytest.raises(ValueError):
            scale_prior(1.0, 2.0, np.eye(3)[0], 5)
        with pytest.raises(ValueError):
            scale_prior(-1.0, 0.0, np.eye(3)[0], 5)
        with pytest.raises(ValueError):
            scale_prior(1.0, 0.5, np.eye(3)[0], -2)
