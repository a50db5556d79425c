"""Tests for the gradient-trained linear baselines and their diagnostics."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spherebayes.baselines import (
    LinearClassifier,
    TrainConfig,
    TrainingDivergedError,
    ce_loss,
    ce_loss_grad,
    linear_from_json,
    linear_to_json,
    minority_collapse_metric,
    norm_report,
    predict_linear,
    train,
)
from spherebayes.classifier import ClassPriors
from spherebayes.priors import build_etf
from spherebayes.vmf import VmfParams, sample, substream


def unit_rows(n, p, seed):
    z = substream(seed, 60).standard_normal((n, p))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def blob_data(n_per=200, kappa=80.0, seed=0):
    """Three well-separated spherical blobs in the plane."""
    centers = np.array(
        [[1.0, 0.0], [-0.5, math.sqrt(0.75)], [-0.5, -math.sqrt(0.75)]]
    )
    zs, ys = [], []
    for i, c in enumerate(centers):
        zs.append(sample(VmfParams(mu=c, kappa=kappa), n_per, substream(seed, i)))
        ys.append(np.full(n_per, i))
    return np.vstack(zs), np.concatenate(ys)


class TestCeLoss:
    def test_equal_logits_give_log_k(self):
        clf = LinearClassifier(np.zeros((4, 3)), np.zeros(4))
        z = unit_rows(1, 3, 1)[0]
        assert_allclose(ce_loss(clf, z, 2), math.log(4.0), rtol=1e-15)

    def test_adjusted_equal_logits_return_prior_surprisal(self):
        # With flat logits the adjusted softmax is exactly the priors, so the
        # loss on the rare class is -ln(0.1) = ln 10.
        clf = LinearClassifier(np.zeros((2, 5)), np.zeros(2))
        pi = ClassPriors(np.array([0.9, 0.1]))
        z = unit_rows(1, 5, 2)[0]
        la = ce_loss(clf, z, 1, mode="logit_adjusted", priors=pi)
        assert_allclose(la, math.log(10.0), rtol=1e-15)
        assert_allclose(
            ce_loss(clf, z, 0, mode="logit_adjusted", priors=pi),
            -math.log(0.9),
            rtol=1e-15,
        )

    def test_vanishes_at_full_confidence(self):
        w = np.zeros((3, 4))
        w[1, 0] = 500.0
        clf = LinearClassifier(w, np.zeros(3))
        assert ce_loss(clf, np.eye(4)[0], 1) < 1e-100

    def test_batch_matches_single(self):
        clf = LinearClassifier(unit_rows(3, 6, 3), np.array([0.1, -0.2, 0.3]))
        zs = unit_rows(5, 6, 4)
        ys = np.array([0, 2, 1, 1, 0])
        losses = ce_loss(clf, zs, ys)
        assert losses.shape == (5,)
        for i in range(5):
            assert_allclose(losses[i], ce_loss(clf, zs[i], ys[i]), atol=0)

    def test_temperature_rescales_logits(self):
        clf = LinearClassifier(unit_rows(3, 4, 5), np.array([0.5, 0.0, -0.5]))
        half = LinearClassifier(clf.W / 2.0, clf.b / 2.0)
        z = unit_rows(1, 4, 6)[0]
        assert_allclose(
            ce_loss(clf, z, 1, temperature=2.0), ce_loss(half, z, 1), rtol=1e-12
        )

    def test_adjustment_is_a_bias_shift(self):
        # Folding ln pi into the bias reproduces the adjusted loss exactly.
        clf = LinearClassifier(unit_rows(3, 5, 7), np.array([0.2, -0.1, 0.0]))
        pi = ClassPriors(np.array([0.6, 0.3, 0.1]))
        shifted = LinearClassifier(clf.W, clf.b + pi.log())
        zs = unit_rows(10, 5, 8)
        ys = np.arange(10) % 3
        assert_allclose(
            ce_loss(clf, zs, ys, mode="logit_adjusted", priors=pi),
            ce_loss(shifted, zs, ys),
            rtol=1e-12,
        )

    def test_validation(self):
        clf = LinearClassifier(np.zeros((2, 3)), np.zeros(2))
        z = unit_rows(1, 3, 9)[0]
        with pytest.raises(ValueError):
            ce_loss(clf, z, 5)
        with pytest.raises(ValueError):
            ce_loss(clf, z, 0, mode="focal")
        with pytest.raises(ValueError):
            ce_loss(clf, z, 0, mode="logit_adjusted")  # priors missing


class TestCeLossGrad:
    def _fd(self, clf, z, y, mode, priors, temperature, h=1e-6):
        gw = np.empty_like(clf.W)
        for i in range(clf.W.shape[0]):
            for j in range(clf.W.shape[1]):
                delta = np.zeros_like(clf.W)
                delta[i, j] = h
                hi = ce_loss(LinearClassifier(clf.W + delta, clf.b), z, y, mode, priors, temperature)
                lo = ce_loss(LinearClassifier(clf.W - delta, clf.b), z, y, mode, priors, temperature)
                gw[i, j] = (hi - lo) / (2 * h)
        gb = np.empty_like(clf.b)
        for i in range(clf.b.shape[0]):
            delta = np.zeros_like(clf.b)
            delta[i] = h
            hi = ce_loss(LinearClassifier(clf.W, clf.b + delta), z, y, mode, priors, temperature)
            lo = ce_loss(LinearClassifier(clf.W, clf.b - delta), z, y, mode, priors, temperature)
            gb[i] = (hi - lo) / (2 * h)
        return gw, gb

    @pytest.mark.parametrize("mode", ["softmax", "logit_adjusted"])
    def test_matches_finite_differences(self, mode):
        rng = substream(10, 0)
        pi = ClassPriors(np.array([0.5, 0.3, 0.2])) if mode == "logit_adjusted" else None
        for trial in range(20):
            clf = LinearClassifier(rng.standard_normal((3, 4)), rng.standard_normal(3))
            z = rng.standard_normal(4)
            z /= np.linalg.norm(z)
            y = int(rng.integers(3))
            tau = float(rng.uniform(0.5, 2.0))
            gw, gb = ce_loss_grad(clf, z, y, mode, pi, tau)
            fw, fb = self._fd(clf, z, y, mode, pi, tau)
            assert_allclose(gw, fw, rtol=1e-5, atol=1e-8)
            assert_allclose(gb, fb, rtol=1e-5, atol=1e-8)

    def test_vanishes_at_full_confidence(self):
        w = np.zeros((2, 3))
        w[0, 0] = 500.0
        clf = LinearClassifier(w, np.zeros(2))
        gw, gb = ce_loss_grad(clf, np.eye(3)[0], 0)
        assert np.max(np.abs(gw)) < 1e-100
        assert np.max(np.abs(gb)) < 1e-100

    def test_single_input_only(self):
        clf = LinearClassifier(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            ce_loss_grad(clf, unit_rows(4, 3, 11), 0)


class TestTrain:
    def test_separable_blobs_fit(self):
        z, y = blob_data()
        clf = train(z, y, TrainConfig(lr=0.5, epochs=30, batch_size=32, rng_seed=0))
        assert np.mean(predict_linear(clf, z) == y) >= 0.99

    def test_zero_lr_returns_initialization(self):
        z, y = blob_data(n_per=50)
        clf = train(z, y, TrainConfig(lr=0.0, epochs=5, batch_size=16, rng_seed=7))
        expected_w = substream(7, 0).standard_normal((3, 2)) / np.sqrt(2)
        assert_array_equal(clf.W, expected_w)
        assert_array_equal(clf.b, np.zeros(3))

    def test_zero_grad_scale_freezes_weights(self):
        z, y = blob_data(n_per=50)
        cfg = TrainConfig(lr=0.5, epochs=5, batch_size=16, rng_seed=7, grad_scale=0.0)
        clf = train(z, y, cfg)
        expected_w = substream(7, 0).standard_normal((3, 2)) / np.sqrt(2)
        assert_array_equal(clf.W, expected_w)

    def test_deterministic(self):
        z, y = blob_data(n_per=80)
        cfg = TrainConfig(lr=0.3, epochs=8, batch_size=25, rng_seed=3)
        a = train(z, y, cfg)
        b = train(z, y, cfg)
        assert_array_equal(a.W, b.W)
        assert_array_equal(a.b, b.b)

    def test_seed_changes_result(self):
        z, y = blob_data(n_per=80)
        a = train(z, y, TrainConfig(lr=0.3, epochs=8, batch_size=25, rng_seed=3))
        b = train(z, y, TrainConfig(lr=0.3, epochs=8, batch_size=25, rng_seed=4))
        assert not np.array_equal(a.W, b.W)

    def test_loss_history_decreases(self):
        z, y = blob_data()
        history = []
        train(z, y, TrainConfig(lr=0.5, epochs=20, batch_size=32, rng_seed=1), history)
        assert len(history) == 20
        assert np.mean(history[-3:]) < 0.5 * np.mean(history[:3])

    def test_divergence_is_loud(self):
        z, y = blob_data(n_per=40)
        cfg = TrainConfig(lr=1e150, epochs=5, batch_size=32, weight_decay=1.0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train(z, y, cfg)

    def test_normalize_flag_projects_features(self):
        z, y = blob_data(n_per=60)
        cfg = TrainConfig(lr=0.3, epochs=6, batch_size=20, rng_seed=2, normalize=True)
        a = train(z, y, cfg)
        b = train(3.0 * z, y, cfg)
        # normalization of 3z vs z differs by an ulp, nothing more
        assert_allclose(b.W, a.W, rtol=1e-12)
        assert_allclose(b.b, a.b, rtol=1e-12, atol=1e-15)

    def test_adjusted_mode_trains(self):
        z, y = blob_data()
        cfg = TrainConfig(lr=0.5, epochs=30, batch_size=32, mode="logit_adjusted")
        clf = train(z, y, cfg)
        assert np.mean(predict_linear(clf, z) == y) >= 0.99

    def test_weight_decay_shrinks_weights(self):
        z, y = blob_data()
        plain = train(z, y, TrainConfig(lr=0.5, epochs=20, batch_size=32))
        decayed = train(
            z, y, TrainConfig(lr=0.5, epochs=20, batch_size=32, weight_decay=0.1)
        )
        assert np.linalg.norm(decayed.W) < np.linalg.norm(plain.W)

    def test_explicit_class_count_keeps_empty_trailing_classes(self):
        z, y = blob_data(n_per=10)
        k = int(y.max()) + 1
        for mode in ("softmax", "logit_adjusted"):
            cfg = TrainConfig(lr=0.3, epochs=3, batch_size=8, mode=mode)
            clf = train(z, y, cfg, n_classes=k + 2)
            assert clf.W.shape == (k + 2, z.shape[1])
            assert np.all(np.isfinite(clf.W))
        with pytest.raises(ValueError):
            train(z, y, TrainConfig(lr=0.1, epochs=1, batch_size=4), n_classes=k - 1)

    def test_input_validation(self):
        z, y = blob_data(n_per=10)
        with pytest.raises(ValueError):
            train(z, y[:-1], TrainConfig(lr=0.1, epochs=1, batch_size=4))
        with pytest.raises(ValueError):
            train(z, np.zeros(30, dtype=int), TrainConfig(lr=0.1, epochs=1, batch_size=4))
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1, epochs=1, batch_size=4)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.1, epochs=0, batch_size=4)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.1, epochs=1, batch_size=4, momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.1, epochs=1, batch_size=4, mode="hinge")
        with pytest.raises(ValueError):
            TrainConfig(lr=0.1, epochs=1, batch_size=4, temperature=0.0)


class TestPredictLinear:
    def test_tie_breaks_to_lowest_index(self):
        clf = LinearClassifier(np.zeros((3, 2)), np.zeros(3))
        assert predict_linear(clf, np.array([1.0, 0.0])) == 0
        assert_array_equal(predict_linear(clf, unit_rows(4, 2, 12)), 0)

    def test_bias_matters(self):
        clf = LinearClassifier(np.zeros((2, 2)), np.array([0.0, 1.0]))
        assert predict_linear(clf, np.array([1.0, 0.0])) == 1


class TestMinorityCollapse:
    def test_identical_rows_collapse_to_one(self):
        w = np.tile(np.array([0.3, -0.4, 0.5]), (4, 1))
        clf = LinearClassifier(w, np.zeros(4))
        assert_allclose(minority_collapse_metric(clf, [0, 1, 2, 3]), 1.0, atol=1e-15)

    def test_orthogonal_rows_score_zero(self):
        clf = LinearClassifier(np.eye(3, 5) * 2.7, np.zeros(3))
        assert_allclose(minority_collapse_metric(clf, [0, 1, 2]), 0.0, atol=1e-15)

    def test_equiangular_rows_score_minus_one_over_k_minus_one(self):
        vecs = build_etf(4, 8, 0).vectors
        clf = LinearClassifier(vecs * 1.3, np.zeros(4))
        assert_allclose(minority_collapse_metric(clf, range(4)), -1.0 / 3.0, atol=1e-9)

    def test_subset_selection(self):
        w = np.vstack([np.eye(2, 4), np.tile(np.array([0.0, 0.0, 1.0, 0.0]), (2, 1))])
        clf = LinearClassifier(w, np.zeros(4))
        assert_allclose(minority_collapse_metric(clf, [2, 3]), 1.0, atol=1e-15)
        assert_allclose(minority_collapse_metric(clf, [0, 1]), 0.0, atol=1e-15)

    def test_validation(self):
        clf = LinearClassifier(np.eye(3, 4), np.zeros(3))
        with pytest.raises(ValueError):
            minority_collapse_metric(clf, [1])
        with pytest.raises(ValueError):
            minority_collapse_metric(clf, [0, 5])
        zero_row = LinearClassifier(np.vstack([np.eye(2, 3), np.zeros((1, 3))]), np.zeros(3))
        with pytest.raises(ValueError):
            minority_collapse_metric(zero_row, [0, 2])


class TestNormReport:
    def test_unit_case(self):
        clf = LinearClassifier(np.eye(3, 4), np.zeros(3))
        z = unit_rows(30, 4, 13)
        y = np.arange(30) % 3
        rows = norm_report(clf, z, y)
        assert [r["class"] for r in rows] == [0, 1, 2]
        assert all(r["count"] == 10 for r in rows)
        assert_allclose([r["weight_feature_norm"] for r in rows], 1.0, atol=1e-12)

    def test_homogeneous_in_weights(self):
        clf = LinearClassifier(unit_rows(3, 4, 14), np.zeros(3))
        doubled = LinearClassifier(2.0 * clf.W, clf.b)
        z = unit_rows(12, 4, 15)
        y = np.arange(12) % 3
        a = [r["weight_feature_norm"] for r in norm_report(clf, z, y)]
        b = [r["weight_feature_norm"] for r in norm_report(doubled, z, y)]
        assert_allclose(b, np.array(a) * 2.0, rtol=1e-12)

    def test_absent_class_reports_zero(self):
        clf = LinearClassifier(np.eye(3, 4), np.zeros(3))
        z = unit_rows(8, 4, 16)
        y = np.zeros(8, dtype=int)
        rows = norm_report(clf, z, y)
        assert rows[1]["count"] == 0
        assert rows[1]["weight_feature_norm"] == 0.0


class TestJson:
    def test_round_trip_is_bitwise(self):
        z, y = blob_data(n_per=60)
        clf = train(z, y, TrainConfig(lr=0.4, epochs=6, batch_size=20, rng_seed=5))
        back = linear_from_json(linear_to_json(clf))
        assert_array_equal(back.W, clf.W)
        assert_array_equal(back.b, clf.b)

    def test_document_shape(self):
        clf = LinearClassifier(np.eye(3, 4), np.array([0.1, 0.2, 1.0 / 3.0]))
        doc = json.loads(linear_to_json(clf))
        assert doc["p"] == 4 and doc["K"] == 3
        assert doc["b"][2] == 1.0 / 3.0

    def test_malformed_documents(self):
        with pytest.raises(ValueError):
            linear_from_json('{"p": 2, "K": 2, "W": [[1, 0]], "b": [0, 0]}')
        with pytest.raises(ValueError):
            linear_from_json('{"p": 2, "K": 2}')
        with pytest.raises(ValueError):
            linear_from_json("broken{")
