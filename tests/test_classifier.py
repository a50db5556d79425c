"""Tests for the explicit Bayes classifier: posteriors, loss, adjustment, JSON."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ive, logsumexp

from spherebayes.classifier import (
    _BLOCK,
    AdjustmentPolicy,
    BayesClassifier,
    ClassPriors,
    NotFittedError,
    _fit_stats,
    adjust,
    bape_loss,
    bape_loss_grad_z,
    chain_through_normalization,
    class_stats,
    fit,
    from_json,
    kappa_report,
    log_posterior,
    logits,
    predict,
    to_json,
)
from spherebayes.baselines import LinearClassifier
from spherebayes.datagen import make_truth
from spherebayes.estimation import ConcentrationOverflowError, DegeneratePosteriorError, class_posteriors
from spherebayes.priors import build_etf
from spherebayes.vmf import VmfParams, _unit_norms, as_unit_vector, sample, substream

# Two classes on orthogonal axes, kappa=4 each, uniform priors, z on the first
# axis. The normalizers cancel, so p(0|z) = sigmoid(4) and the loss is
# log(1 + exp(-4)); frozen from an independent evaluation of those closed
# forms.
P0_FROZEN = 0.9820137900379085
LOSS_FROZEN = 0.018149927917809738
GRAD_FROZEN = 0.0719448398483662  # 4 * (1 - sigmoid(4))


def two_class(kappa0=4.0, kappa1=4.0, pi0=0.5, p=3):
    mus = np.zeros((2, p))
    mus[0, 0] = 1.0
    mus[1, 1] = 1.0
    return BayesClassifier(
        mus=mus,
        kappas=np.array([kappa0, kappa1]),
        priors=ClassPriors(np.array([pi0, 1.0 - pi0])),
    )


def random_classifier(k, p, seed, kappa_hi=40.0):
    rng = substream(seed, 90)
    mus = rng.standard_normal((k, p))
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    kappas = rng.uniform(0.5, kappa_hi, size=k)
    pi = rng.uniform(0.2, 1.0, size=k)
    return BayesClassifier(mus=mus, kappas=kappas, priors=ClassPriors(pi / pi.sum()))


def random_units(n, p, seed):
    z = substream(seed, 91).standard_normal((n, p))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestLogPosterior:
    def test_two_class_frozen_value(self):
        clf = two_class()
        z = np.array([1.0, 0.0, 0.0])
        post = np.exp(log_posterior(clf, z))
        assert_allclose(post[0], P0_FROZEN, rtol=1e-12)
        assert_allclose(post.sum(), 1.0, atol=1e-12)

    def test_identical_classes_are_uniform(self):
        for k in (2, 3, 7):
            mus = np.tile(np.eye(1, 5)[0], (k, 1))
            clf = BayesClassifier(
                mus=mus, kappas=np.full(k, 3.0), priors=ClassPriors.uniform(k)
            )
            post = np.exp(log_posterior(clf, random_units(4, 5, k)))
            assert_allclose(post, 1.0 / k, atol=1e-12)

    def test_zero_kappa_returns_priors(self):
        pi = np.array([0.7, 0.2, 0.1])
        mus = np.eye(3, 6)
        clf = BayesClassifier(mus=mus, kappas=np.zeros(3), priors=ClassPriors(pi))
        post = np.exp(log_posterior(clf, random_units(8, 6, 0)))
        assert_allclose(post, np.tile(pi, (8, 1)), atol=1e-12)

    def test_batch_matches_single(self):
        clf = random_classifier(4, 6, 1)
        zs = random_units(10, 6, 2)
        batch = log_posterior(clf, zs)
        assert batch.shape == (10, 4)
        for i in range(10):
            assert_allclose(batch[i], log_posterior(clf, zs[i]), atol=0)

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_normalized(self, seed):
        clf = random_classifier(5, 8, seed, kappa_hi=300.0)
        lp = log_posterior(clf, random_units(6, 8, seed + 1))
        assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        clf = two_class()
        with pytest.raises(ValueError):
            log_posterior(clf, np.array([1.0, 0.0]))


class TestPredict:
    def test_picks_nearest_center_under_symmetry(self):
        clf = two_class()
        assert predict(clf, np.array([1.0, 0.0, 0.0])) == 0
        assert predict(clf, np.array([0.0, 1.0, 0.0])) == 1

    def test_exact_tie_breaks_to_lowest_index(self):
        mus = np.tile(np.eye(1, 4)[0], (3, 1))
        clf = BayesClassifier(
            mus=mus, kappas=np.full(3, 5.0), priors=ClassPriors.uniform(3)
        )
        assert predict(clf, random_units(1, 4, 3)[0]) == 0
        assert_array_equal(predict(clf, random_units(5, 4, 4)), 0)

    def test_matches_posterior_argmax(self):
        clf = random_classifier(6, 10, 5)
        zs = random_units(50, 10, 6)
        assert_array_equal(predict(clf, zs), np.argmax(log_posterior(clf, zs), axis=1))

    def test_prior_shift_moves_the_boundary(self):
        # With a lopsided prior the midpoint between the two centers goes to
        # the heavy class; under a uniform prior it is a tie broken to 0.
        clf = two_class(pi0=0.1)
        mid = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        assert predict(clf, mid) == 1


class TestLogits:
    def test_one_formula_for_both_heads(self):
        clf = random_classifier(6, 10, 5)
        zs = random_units(50, 10, 6)
        assert_array_equal(logits(clf, zs), zs @ clf.W.T + clf.b)
        lin = LinearClassifier(clf.W, clf.b)
        assert_array_equal(logits(lin, zs), logits(clf, zs))
        assert_array_equal(predict(clf, zs), np.argmax(logits(clf, zs), axis=1))

    @pytest.mark.parametrize("rows", ["vector", "batch", "empty"])
    def test_bitwise_equal_to_out_of_place_sum(self, rows):
        # The parent formula, z @ W.T + b; the bias is now added in place.
        clf = random_classifier(7, 9, 6)
        zs = {"vector": random_units(1, 9, 7)[0], "batch": random_units(50, 9, 7), "empty": np.empty((0, 9))}[rows]
        for head in (clf, LinearClassifier(clf.W * 1.7, clf.b - 0.3)):
            got = logits(head, zs)
            assert_array_equal(got, zs @ head.W.T + head.b)
            assert got.shape == np.shape(zs @ head.W.T)

    def test_makes_one_full_size_array(self):
        # The (n, K) product is the only large allocation: an out-of-place
        # bias would make a second one.
        clf = random_classifier(100, 128, 8)
        zs = random_units(20000, 128, 9)
        tracemalloc.start()
        try:
            s = logits(clf, zs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.shape == (20000, 100)
        assert peak <= 1.1 * s.nbytes


class TestBapeLoss:
    def test_frozen_value(self):
        clf = two_class()
        z = np.array([1.0, 0.0, 0.0])
        assert_allclose(bape_loss(clf, z, 0), LOSS_FROZEN, rtol=1e-12)

    def test_uniform_posterior_gives_log_k(self):
        mus = np.tile(np.eye(1, 5)[0], (4, 1))
        clf = BayesClassifier(
            mus=mus, kappas=np.full(4, 2.0), priors=ClassPriors.uniform(4)
        )
        z = random_units(1, 5, 7)[0]
        assert_allclose(bape_loss(clf, z, 2), math.log(4.0), rtol=1e-12)

    def test_vanishes_at_full_confidence(self):
        clf = two_class(kappa0=200.0, kappa1=200.0)
        assert bape_loss(clf, np.array([1.0, 0.0, 0.0]), 0) < 1e-100

    def test_batch(self):
        clf = random_classifier(3, 5, 8)
        zs = random_units(6, 5, 9)
        ys = np.array([0, 1, 2, 0, 1, 2])
        losses = bape_loss(clf, zs, ys)
        assert losses.shape == (6,)
        for i in range(6):
            assert_allclose(losses[i], bape_loss(clf, zs[i], ys[i]), atol=0)
        assert np.all(losses > 0)

    def test_label_validation(self):
        clf = two_class()
        z = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            bape_loss(clf, z, 2)
        with pytest.raises(ValueError):
            bape_loss(clf, z, -1)


class TestBapeLossGrad:
    def test_frozen_two_class_gradient(self):
        clf = two_class()
        g = bape_loss_grad_z(clf, np.array([1.0, 0.0, 0.0]), 0)
        assert_allclose(g, [-GRAD_FROZEN, GRAD_FROZEN, 0.0], rtol=1e-12, atol=1e-15)

    def test_zero_at_full_confidence(self):
        clf = two_class(kappa0=300.0, kappa1=300.0)
        g = bape_loss_grad_z(clf, np.array([1.0, 0.0, 0.0]), 0)
        assert np.max(np.abs(g)) < 1e-100

    def test_matches_finite_differences_of_raw_logits(self):
        # The returned gradient treats the logits as a function of the raw
        # embedding, so difference an explicit reimplementation of that map.
        clf = random_classifier(5, 7, 10)

        def ref_loss(v, y):
            s = clf.priors.log() - clf._log_norm + (v @ clf.mus.T) * clf.kappas
            return -(s[y] - logsumexp(s))

        rng = substream(11, 0)
        h = 1e-6
        for _ in range(20):
            z = rng.standard_normal(7)
            z /= np.linalg.norm(z)
            y = int(rng.integers(5))
            g = bape_loss_grad_z(clf, z, y)
            fd = np.empty(7)
            for i in range(7):
                e = np.zeros(7)
                e[i] = h
                fd[i] = (ref_loss(z + e, y) - ref_loss(z - e, y)) / (2 * h)
            assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_chain_rule_matches_normalized_finite_differences(self):
        clf = random_classifier(4, 6, 12)
        rng = substream(13, 0)
        h = 1e-6
        for _ in range(10):
            v = rng.standard_normal(6) * rng.uniform(0.5, 3.0)
            y = int(rng.integers(4))
            z = v / np.linalg.norm(v)
            g = chain_through_normalization(v, bape_loss_grad_z(clf, z, y))
            fd = np.empty(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                hi = (v + e) / np.linalg.norm(v + e)
                lo = (v - e) / np.linalg.norm(v - e)
                fd[i] = (bape_loss(clf, hi, y) - bape_loss(clf, lo, y)) / (2 * h)
            assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_chain_kills_radial_component(self):
        v = np.array([0.3, -1.2, 0.8, 2.0])
        g = np.array([1.0, 0.5, -2.0, 0.25])
        out = chain_through_normalization(v, g)
        assert abs(out @ v) < 1e-12
        assert_allclose(chain_through_normalization(2.0 * v, g), out / 2.0, rtol=1e-12)
        with pytest.raises(ValueError):
            chain_through_normalization(np.zeros(4), g)

    def test_single_input_only(self):
        clf = two_class()
        with pytest.raises(ValueError):
            bape_loss_grad_z(clf, random_units(3, 3, 14), 0)


class TestAdjust:
    def test_identity_adjustment_is_exact(self):
        clf = random_classifier(4, 5, 15)
        same = adjust(clf, AdjustmentPolicy(target_priors=clf.priors, kappa_mode="keep"))
        zs = random_units(20, 5, 16)
        assert_array_equal(log_posterior(same, zs), log_posterior(clf, zs))

    def test_keep_holds_the_input_directions_and_weights(self):
        # Renormalizing the fitted mus again would move their last bits;
        # "keep" changes only the priors, so W z is the input's product.
        clf = fit(random_units(60, 5, 21), np.arange(60) % 3, 3)
        out = adjust(clf, AdjustmentPolicy(kappa_mode="keep"))
        assert out.mus is clf.mus and out.W is clf.W
        zs = random_units(10, 5, 22)
        assert_array_equal(logits(out, zs), zs @ clf.W.T + out.b)

    def test_rebalancing_shifts_log_odds_by_log_prior_ratio(self):
        # Moving the priors from (0.9, 0.1) to uniform adds
        # ln(0.9/0.1) = ln 9 to the log-odds of class 1, for every input.
        clf = two_class(pi0=0.9)
        flat = adjust(clf, AdjustmentPolicy())
        zs = random_units(25, 3, 17)
        before = log_posterior(clf, zs)
        after = log_posterior(flat, zs)
        shift = (after[:, 1] - after[:, 0]) - (before[:, 1] - before[:, 0])
        assert_allclose(shift, math.log(9.0), atol=1e-12)

    def test_default_target_is_uniform(self):
        clf = two_class(pi0=0.8)
        assert_allclose(adjust(clf, AdjustmentPolicy()).priors.pi, 0.5, atol=0)

    def test_shared_mean_with_equal_kappas_is_identity(self):
        clf = random_classifier(3, 4, 18)
        clf = BayesClassifier(
            mus=clf.mus, kappas=np.full(3, 7.5), priors=clf.priors
        )
        pooled = adjust(
            clf,
            AdjustmentPolicy(target_priors=clf.priors, kappa_mode="shared_mean"),
        )
        zs = random_units(10, 4, 19)
        assert_allclose(log_posterior(pooled, zs), log_posterior(clf, zs), atol=1e-14)

    def test_shared_mean_averages(self):
        clf = two_class(kappa0=2.0, kappa1=4.0)
        pooled = adjust(clf, AdjustmentPolicy(kappa_mode="shared_mean"))
        assert_allclose(pooled.kappas, 3.0, atol=0)

    def test_fixed_kappa(self):
        clf = two_class()
        out = adjust(clf, AdjustmentPolicy(kappa_mode="fixed", fixed_kappa=12.0))
        assert_allclose(out.kappas, 12.0, atol=0)
        with pytest.raises(ValueError):
            AdjustmentPolicy(kappa_mode="fixed")
        with pytest.raises(ValueError):
            AdjustmentPolicy(kappa_mode="keep", fixed_kappa=3.0)
        with pytest.raises(ValueError):
            AdjustmentPolicy(kappa_mode="median")

    def test_original_untouched(self):
        clf = two_class(pi0=0.9)
        _ = adjust(clf, AdjustmentPolicy(kappa_mode="fixed", fixed_kappa=1.0))
        assert_allclose(clf.priors.pi, [0.9, 0.1], atol=0)
        assert_allclose(clf.kappas, 4.0, atol=0)

    def test_excluded_classes_stay_excluded(self):
        mus = np.eye(3, 4)
        clf = BayesClassifier(
            mus=mus,
            kappas=np.array([5.0, 0.0, 5.0]),
            priors=ClassPriors(np.array([0.5, 0.0, 0.5]), allow_zero=True),
            excluded=(1,),
        )
        out = adjust(clf, AdjustmentPolicy())
        assert out.excluded == (1,)
        assert_allclose(out.priors.pi, [0.5, 0.0, 0.5], atol=0)
        lp = log_posterior(out, random_units(4, 4, 20))
        assert np.all(np.isneginf(lp[:, 1]))


class TestKappaReport:
    def test_fitted_report(self):
        truth = [
            VmfParams(mu=np.eye(3, 8)[i], kappa=20.0) for i in range(3)
        ]
        zs, ys = [], []
        for i, params in enumerate(truth):
            zs.append(sample(params, 500, substream(21, i)))
            ys.append(np.full(500, i))
        clf = fit(np.vstack(zs), np.concatenate(ys), 3)
        rows = kappa_report(clf)
        assert [r["class"] for r in rows] == [0, 1, 2]
        assert all(r["count"] == 500 for r in rows)
        assert all(abs(r["mu_norm"] - 1.0) < 1e-9 for r in rows)
        kappas = np.array([r["kappa"] for r in rows])
        # equal-sized classes from equal-spread sources estimate alike
        assert kappas.max() / kappas.min() < 1.10
        # sampling noise plus the deliberate upward bias of the closed-form
        # estimate; the exact solver's consistency is pinned elsewhere
        assert_allclose(kappas, 20.0, rtol=0.25)

    def test_requires_training_counts(self):
        with pytest.raises(NotFittedError):
            kappa_report(two_class())


class TestClassStats:
    def test_bitwise_equal_to_masked_sums(self):
        # Shuffled labels, empty classes in the middle and at the end.
        rng = np.random.default_rng(9)
        z = rng.standard_normal((500, 7))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = rng.choice([0, 1, 3, 4, 6], size=500, p=[0.5, 0.3, 0.1, 0.07, 0.03])
        counts, resultants = class_stats(z, y, 9, np.ones(500))  # unit rows: x / 1.0 is x
        assert_array_equal(counts, [np.sum(y == c) for c in range(9)])
        expected = np.stack([z[y == c].sum(axis=0) for c in range(9)])
        assert np.array_equal(resultants, expected)
        assert np.all(resultants[[2, 5, 7, 8]] == 0.0)

    @staticmethod
    def _gathered(features, labels, n_classes):
        # The parent formula: always a stable argsort gather, then one slice per class.
        counts = np.bincount(labels, minlength=n_classes)
        grouped = features[np.argsort(labels, kind="stable")]
        ends = np.cumsum(counts)
        resultants = np.zeros((n_classes, features.shape[1]))
        for y in np.flatnonzero(counts):
            resultants[y] = grouped[ends[y] - counts[y] : ends[y]].sum(axis=0)
        return counts, resultants

    @pytest.mark.parametrize("order", ["sorted", "shuffled", "one_swap"])
    def test_bitwise_equal_to_gathered_sums(self, order):
        # Sorted labels (every generated dataset's) skip the gather; the
        # others, one swapped pair included, take it.
        rng = np.random.default_rng(10)
        z = rng.standard_normal((3000, 33))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = np.sort(rng.choice([0, 1, 2, 4, 7], size=3000, p=[0.4, 0.3, 0.2, 0.07, 0.03]))
        if order == "shuffled":
            y = rng.permutation(y)
        elif order == "one_swap":
            y[[10, 2990]] = y[[2990, 10]]
        counts, resultants = class_stats(z, y, 9, np.ones(3000))
        expected_counts, expected = self._gathered(z, y, 9)
        assert_array_equal(counts, expected_counts)
        assert np.array_equal(resultants, expected)
        assert np.array_equal(resultants, np.stack([z[y == c].sum(axis=0) for c in range(9)]))

    @staticmethod
    def _float32_rows():
        # Rows normalised in float64 and stored as float32, so each norm is
        # off 1 by up to ~1e-7, as generated features' are. Class 1 holds
        # rows 3000-6199, six full 512-row blocks and a partial one; class 3
        # is empty.
        rng = np.random.default_rng(11)
        z = rng.standard_normal((7000, 24))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = np.repeat([0, 1, 2, 4], [3000, 3200, 700, 100])
        return z.astype(np.float32), y

    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_blocked_float32_rows_equal_the_unit_copy(self, order):
        # class_stats divides a block of rows at a time by their norms; each
        # resultant is bitwise that of a full float64 unit copy of the rows.
        features, y = self._float32_rows()
        if order == "shuffled":
            y = np.random.default_rng(12).permutation(y)
        assert _BLOCK == 512
        counts, resultants = class_stats(features, y, 5, _unit_norms(features))
        expected_counts, expected = self._gathered(as_unit_vector(features), y, 5)
        assert_array_equal(counts, expected_counts)
        assert np.array_equal(resultants, expected)
        assert np.all(resultants[3] == 0.0)
        assert not np.array_equal(resultants, class_stats(features, y, 5, np.ones(7000))[1])  # the norms matter

    @pytest.mark.parametrize("kind", ["float32", "float64", "list"])
    def test_fit_equals_the_unit_copy_fit(self, kind):
        # `fit` takes its rows' norms once and divides the rows a block at a
        # time; whatever it is given, it fits bitwise the statistics of
        # as_unit_vector's copy.
        features, y = self._float32_rows()
        y = np.random.default_rng(13).permutation(y)
        given = {"float32": features, "float64": features.astype(float), "list": features.tolist()}[kind]
        expected = _fit_stats(*self._gathered(as_unit_vector(features), y, 5), 1.0, 0.0, None, "exact", "exclude")
        clf = fit(given, y, 5, 1.0, 0.0, None, "exact", "exclude")
        assert clf.excluded == (3,)
        for name in ("counts", "alphas", "betas", "mus", "kappas"):
            assert np.array_equal(getattr(clf, name), getattr(expected, name)), name

    def test_fit_makes_no_float64_copy_of_float32_rows(self):
        # A float64 copy of these rows is 7.7 MB; the fit's scratch (one
        # block of rows, and the norm pass's blocks) stays near 1 MB.
        rng = np.random.default_rng(14)
        features = rng.standard_normal((30000, 32))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        features = features.astype(np.float32)
        y = rng.permutation(np.repeat(np.arange(6), 5000))
        tracemalloc.start()
        try:
            fit(features, y, 6, 1.0, 0.0, None, "approx", "exclude")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < features.size * 8 / 2


class TestFit:
    def _toy_data(self, n_per=400, p=6, seed=22):
        mus = np.eye(3, p)
        kappas = [30.0, 12.0, 50.0]
        zs, ys = [], []
        for i in range(3):
            zs.append(sample(VmfParams(mu=mus[i], kappa=kappas[i]), n_per, substream(seed, i)))
            ys.append(np.full(n_per, i))
        return np.vstack(zs), np.concatenate(ys), mus, np.array(kappas)

    def test_recovers_generating_parameters(self):
        z, y, mus, kappas = self._toy_data()
        clf = fit(z, y, 3)
        assert_array_equal(clf.counts, 400)
        assert_allclose(clf.priors.pi, 1.0 / 3.0, atol=1e-12)
        cos = np.sum(clf.mus * mus, axis=1)
        assert np.all(cos > 0.995)
        assert_allclose(clf.kappas, kappas, rtol=0.25)

    def test_class_priors_are_frequencies(self):
        z, y, _, _ = self._toy_data()
        keep = np.concatenate([np.where(y == 0)[0][:100], np.where(y > 0)[0]])
        clf = fit(z[keep], y[keep], 3)
        assert_allclose(clf.priors.pi, np.array([100, 400, 400]) / 900.0, atol=1e-12)

    def test_empty_class_without_prior_raises(self):
        z, y, _, _ = self._toy_data()
        with pytest.raises(DegeneratePosteriorError):
            fit(z, y, 4)

    def test_empty_class_can_be_excluded(self):
        z, y, _, _ = self._toy_data()
        clf = fit(z, y, 4, on_degenerate="exclude")
        assert clf.excluded == (3,)
        assert clf.priors.pi[3] == 0.0
        zs = random_units(30, 6, 23)
        assert not np.any(predict(clf, zs) == 3)
        assert np.all(np.isneginf(log_posterior(clf, zs)[:, 3]))

    def test_empty_class_degenerate_even_with_directions(self):
        # Prior strength scales with class size, so a class with no samples
        # has no prior either; a directional hint alone cannot rescue it.
        z, y, _, _ = self._toy_data()
        frame = np.eye(4, 6)
        with pytest.raises(DegeneratePosteriorError):
            fit(z, y, 4, alpha_hat=40.0, beta_hat=8.0, prior_directions=frame)
        clf = fit(
            z, y, 4, alpha_hat=40.0, beta_hat=8.0, prior_directions=frame,
            on_degenerate="exclude",
        )
        assert clf.excluded == (3,)

    def _with_singleton(self):
        # Class 2 keeps one sample: under alpha_hat = 0 its beta/alpha is 1,
        # so its concentration is unbounded.
        z, y, _, _ = self._toy_data()
        keep = np.concatenate([np.flatnonzero(y < 2), np.flatnonzero(y == 2)[:1]])
        return z[keep], y[keep]

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_singleton_class_raises_naming_it(self, mode):
        z, y = self._with_singleton()
        with pytest.raises(ConcentrationOverflowError, match=r"classes \[2\]"):
            fit(z, y, 3, mode=mode)

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_singleton_class_can_be_excluded(self, mode):
        z, y = self._with_singleton()
        clf = fit(z, y, 3, mode=mode, on_degenerate="exclude")
        assert clf.excluded == (2,)
        assert_array_equal(clf.counts, [400, 400, 1])
        assert_array_equal(clf.priors.pi, [0.5, 0.5, 0.0])
        assert clf.kappas[2] == 0.0
        assert np.all(clf.kappas[:2] > 0.0)
        assert not np.any(predict(clf, z) == 2)

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_every_class_excluded_raises_saying_why(self, mode):
        # One sample per class under alpha_hat = 0 (each kappa unbounded) and
        # a fourth class with none: no class is left to fit.
        z, y, _, _ = self._toy_data(n_per=1)
        why = r"every class is degenerate \(1 with no samples and no directional prior, 3 with an unbounded kappa\)"
        with pytest.raises(DegeneratePosteriorError, match=why):
            fit(z, y, 4, mode=mode, on_degenerate="exclude")

    def test_strong_prior_pulls_small_class(self):
        z, y, _, _ = self._toy_data(n_per=3)
        frame = np.eye(3, 6)[[1, 2, 0]]  # deliberately not the source centers
        weak = fit(z, y, 3, alpha_hat=1e-6, beta_hat=1e-7, prior_directions=frame)
        strong = fit(z, y, 3, alpha_hat=4000.0, beta_hat=3999.0, prior_directions=frame)
        for c in range(3):
            assert strong.mus[c] @ frame[c] > 0.99
            assert strong.mus[c] @ frame[c] > weak.mus[c] @ frame[c]

    def test_overflowing_pseudo_count_names_alpha_hat(self):
        # alpha_hat * n + n overflows: the fit said every class had an
        # unbounded kappa, after a RuntimeWarning from inf / inf.
        z, y, _, _ = self._toy_data()
        with pytest.raises(ValueError, match=r"^alpha_hat=1e\+308 times a class size of 400 overflows the pseudo-count$"):
            fit(z, y, 3, alpha_hat=1e308, beta_hat=1e308, prior_directions=np.eye(3, 6))

    def test_beta_without_directions_rejected(self):
        z, y, _, _ = self._toy_data()
        with pytest.raises(ValueError):
            fit(z, y, 3, alpha_hat=40.0, beta_hat=8.0)

    def test_exact_mode_below_approx_within_bound(self):
        z, y, _, kappas = self._toy_data()
        exact = fit(z, y, 3, mode="exact")
        approx = fit(z, y, 3, mode="approx")
        gap = (approx.kappas - exact.kappas) / exact.kappas
        assert np.all(gap > 0)
        assert np.all(gap < 1.0 / (6 - 1))  # p = 6
        # the exact solver tracks the generating spreads closely at n=400
        assert_allclose(exact.kappas, kappas, rtol=0.1)


class TestFittedPosterior:
    """A fitted classifier carries the conjugate posterior (alphas, betas) its fit solved."""

    def _data(self):
        # Classes of 40, 9 and 3 rows in p = 5, and an empty fourth class,
        # which every fit below excludes (beta = 0).
        z = random_units(52, 5, 30)
        y = np.repeat([0, 1, 2], [40, 9, 3])
        return z, y

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    @pytest.mark.parametrize("prior", [False, True])
    def test_fit_keeps_the_posterior_at_the_renormalised_directions(self, mode, prior):
        z, y = self._data()
        counts, resultants = class_stats(as_unit_vector(z), y, 4, np.ones(52))  # the rows as `fit` takes them
        # Directions within the unit-norm tolerance but not on the sphere:
        # the fit renormalises them before the update.
        frame = build_etf(4, 5, 31).vectors * (1.0 + 1e-7) if prior else None
        rates = (1.0, 0.5) if prior else (0.0, 0.0)
        expected = class_posteriors(counts, resultants, *rates, None if frame is None else as_unit_vector(frame))
        for clf in (fit(z, y, 4, *rates, frame, mode, "exclude"),
                    _fit_stats(counts, resultants, *rates, frame, mode, "exclude")):
            assert clf.excluded == (3,)
            assert_array_equal(clf.alphas, expected[0])
            assert_array_equal(clf.betas, expected[1])
        if prior:  # the update at the directions as given is another posterior
            assert not np.array_equal(clf.betas, class_posteriors(counts, resultants, *rates, frame)[1])

    @pytest.mark.parametrize("kappa_mode, fixed_kappa", [("keep", None), ("shared_mean", None), ("fixed", 7.0)])
    def test_adjust_passes_it_through(self, kappa_mode, fixed_kappa):
        z, y = self._data()
        clf = fit(z, y, 4, 1.0, 0.5, build_etf(4, 5, 31).vectors, on_degenerate="exclude")
        adjusted = adjust(clf, AdjustmentPolicy(kappa_mode=kappa_mode, fixed_kappa=fixed_kappa))
        assert_array_equal(adjusted.alphas, clf.alphas)
        assert_array_equal(adjusted.betas, clf.betas)
        assert_array_equal(adjusted.counts, clf.counts)

    def test_none_unless_fitted_from_data(self):
        z, y = self._data()
        fitted = fit(z[:49], y[:49], 2)
        for clf in (two_class(), from_json(to_json(fitted)), make_truth(3, 4, (5.0, 10.0), seed=1).classifier()):
            assert clf.alphas is None and clf.betas is None

    @pytest.mark.parametrize("name", ["alphas", "betas"])
    @pytest.mark.parametrize("values", [[1.0, 2.0], [[1.0, 2.0, 3.0]], [1.0, -1.0, 3.0], [1.0, np.nan, 3.0],
                                        [1.0, np.inf, 3.0]])
    def test_malformed_values_raise(self, name, values):
        clf = random_classifier(3, 4, 32)
        with pytest.raises(ValueError, match=f"{name} must be K finite values >= 0"):
            BayesClassifier(mus=clf.mus, kappas=clf.kappas, priors=clf.priors, **{name: values})

    def test_json_is_that_of_the_parameters_alone(self):
        z, y = self._data()
        clf = fit(z, y, 4, 1.0, 0.5, build_etf(4, 5, 31).vectors, on_degenerate="exclude")
        bare = BayesClassifier(mus=clf.mus, kappas=clf.kappas, priors=clf.priors, excluded=clf.excluded)
        assert to_json(clf) == to_json(bare)
        assert set(json.loads(to_json(clf))) == {"p", "K", "priors", "classes"}


class TestBayesAgreement:
    def test_predictions_match_independent_bayes_rule(self):
        # Build the same decision rule from scratch on top of scipy's
        # exponentially scaled Bessel I and compare decisions on a large
        # mixture sample.
        p = 4
        mus = np.array([[1.0, 0, 0, 0], [-0.5, math.sqrt(0.75), 0, 0]])
        kappas = np.array([6.0, 3.0])
        pi = np.array([0.7, 0.3])
        clf = BayesClassifier(mus=mus, kappas=kappas, priors=ClassPriors(pi))

        rng = substream(24, 0)
        n = 100_000
        ys = rng.choice(2, size=n, p=pi)
        zs = np.empty((n, p))
        for k in range(2):
            idx = np.where(ys == k)[0]
            zs[idx] = sample(VmfParams(mu=mus[k], kappa=kappas[k]), idx.size, substream(24, k + 1))

        nu = p / 2.0 - 1.0
        log_c = (
            (p / 2.0) * math.log(2.0 * math.pi)
            + np.log(ive(nu, kappas))
            + kappas
            - nu * np.log(kappas)
        )
        logits = np.log(pi) - log_c + (zs @ mus.T) * kappas
        oracle_pred = np.argmax(logits, axis=1)
        ours = predict(clf, zs)
        assert np.mean(ours != oracle_pred) <= 1e-4
        # and the rule acts like a Bayes rule should on its own data
        assert np.mean(ours == ys) > 0.80


class TestJson:
    def test_round_trip_is_bitwise(self):
        clf = random_classifier(5, 9, 25)
        back = from_json(to_json(clf))
        assert_array_equal(back.mus, clf.mus)
        assert_array_equal(back.kappas, clf.kappas)
        assert_array_equal(back.priors.pi, clf.priors.pi)
        zs = random_units(12, 9, 26)
        assert_array_equal(log_posterior(back, zs), log_posterior(clf, zs))

    def test_awkward_floats_survive(self):
        clf = two_class(kappa0=6.123456789012345, kappa1=1.0 / 3.0, pi0=2.0 / 3.0)
        back = from_json(to_json(clf))
        assert back.kappas[0] == 6.123456789012345
        assert back.kappas[1] == 1.0 / 3.0
        assert back.priors.pi[0] == 2.0 / 3.0

    def test_document_shape(self):
        clf = two_class(p=4)
        doc = json.loads(to_json(clf))
        assert doc["p"] == 4
        assert doc["K"] == 2
        assert len(doc["priors"]) == 2
        assert set(doc["classes"][0]) == {"kappa", "mu"}
        assert len(doc["classes"][0]["mu"]) == 4

    def test_counts_not_serialized(self):
        z = random_units(60, 4, 27)
        y = np.arange(60) % 3
        clf = fit(z, y, 3)
        back = from_json(to_json(clf))
        assert back.counts is None
        with pytest.raises(NotFittedError):
            kappa_report(back)

    def test_excluded_round_trip(self):
        mus = np.eye(3, 4)
        clf = BayesClassifier(
            mus=mus,
            kappas=np.array([5.0, 0.0, 5.0]),
            priors=ClassPriors(np.array([0.5, 0.0, 0.5]), allow_zero=True),
            excluded=(1,),
        )
        back = from_json(to_json(clf))
        assert back.excluded == (1,)
        assert back.priors.pi[1] == 0.0

    def test_malformed_documents(self):
        good = json.loads(to_json(two_class()))
        missing = dict(good)
        del missing["priors"]
        with pytest.raises(ValueError):
            from_json(json.dumps(missing))
        short = dict(good)
        short["classes"] = good["classes"][:1]
        with pytest.raises(ValueError):
            from_json(json.dumps(short))
        with pytest.raises(ValueError):
            from_json("not json at all {")
        badmu = json.loads(to_json(two_class()))
        badmu["classes"][0]["mu"] = [1.0, 0.0]
        with pytest.raises(ValueError):
            from_json(json.dumps(badmu))
