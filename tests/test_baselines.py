"""Tests for the gradient-trained linear baselines and their diagnostics."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp as scipy_logsumexp

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
    _linear_norms,
    _train_heads,
    predict_linear,
    train,
)
from spherebayes.classifier import ClassPriors
from spherebayes.harness import ExperimentConfig, _load_data
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

    def test_float_labels_are_rejected(self):
        clf = LinearClassifier(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="labels must be integers"):
            ce_loss(clf, unit_rows(2, 3, 9), np.array([0.0, 1.0]))


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

    def test_float_label_is_rejected(self):
        clf = LinearClassifier(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="labels must be integers"):
            ce_loss_grad(clf, np.eye(3)[0], 1.0)

    def test_unknown_mode_is_rejected(self):
        clf = LinearClassifier(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="unknown mode 'focal'"):
            ce_loss_grad(clf, np.eye(3)[0], 1, mode="focal")


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

    @pytest.mark.parametrize("key, value", [
        ("weight_decay", math.nan), ("weight_decay", math.inf), ("temperature", math.inf), ("temperature", math.nan),
    ])
    def test_non_finite_weight_decay_and_temperature_are_rejected(self, key, value):
        # A nan weight decay used to diverge at the first loss check, and an
        # infinite temperature trained to a silent no-op (W stayed at its
        # initialization).
        with pytest.raises(ValueError, match=f"{key} must be .* and finite"):
            TrainConfig(**{"lr": 0.1, "epochs": 2, "batch_size": 4, key: value})

    @pytest.mark.parametrize("key", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, True, np.float64(2.0)])
    def test_integer_fields_reject_other_numbers(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            TrainConfig(**{"lr": 0.1, "epochs": 2, "batch_size": 4, key: value})

    def test_a_batch_above_the_row_count_is_one_batch_of_every_row(self):
        # Its per-step buffers are sized by the rows, not by batch_size: a
        # batch_size of 10**6 on 108 rows made them 38 MiB.
        z, y = blob_data(n_per=36)
        history, expected = [], []
        one_batch = train(z, y, TrainConfig(lr=0.3, epochs=3, batch_size=108, rng_seed=2), expected)
        tracemalloc.start()
        try:
            clf = train(z, y, TrainConfig(lr=0.3, epochs=3, batch_size=10**6, rng_seed=2), history)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_array_equal(clf.W, one_batch.W)
        assert_array_equal(clf.b, one_batch.b)
        assert history == expected
        assert peak < 2**20

    def test_integer_fields_take_numpy_integers(self):
        z, y = blob_data(n_per=10)
        cfg = TrainConfig(lr=0.1, epochs=np.int64(2), batch_size=np.int32(4))
        assert_array_equal(train(z, y, cfg).W, train(z, y, TrainConfig(lr=0.1, epochs=2, batch_size=4)).W)


def sorted_labels(n, k, seed):
    """n labels over k classes, every class present, sorted as generated data's are."""
    y = np.sort(substream(seed, 61).integers(0, k, n))
    y[:k] = np.arange(k)
    return np.sort(y)


def reference_heads(z, y, k, schedule, heads):
    """The stacked SGD loop as it was before the bias-augmented rows, written
    plainly: a gather, an out-of-place log-softmax (scipy's logsumexp), W and
    b updated apart with a separate bias reduction, and a momentum update per
    batch, a finite-loss check after every step and a finite-weights check
    after the last. `_train_heads` is close to it, not bitwise equal.
    Returns (W, b, histories) per head."""
    z = np.asarray(z, dtype=float)
    if schedule.normalize:
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    n, p = z.shape
    modes = [mode for mode, _ in heads]
    scale = np.array([s for _, s in heads])[:, np.newaxis, np.newaxis]
    counts = np.bincount(y, minlength=k)
    log_pi = np.stack([
        ClassPriors.from_counts(counts).log() if mode == "logit_adjusted" else np.zeros(k) for mode in modes
    ])[:, np.newaxis, :]
    w = substream(schedule.rng_seed, 0).standard_normal((k, p)) / np.sqrt(p)
    w = np.repeat(w[np.newaxis], len(heads), axis=0)
    b = np.zeros((len(heads), 1, k))
    vel_w = np.zeros_like(w)
    vel_b = np.zeros_like(b)
    shuffler = substream(schedule.rng_seed, 1)
    row_offsets = np.arange(schedule.batch_size) * k
    histories = np.zeros((schedule.epochs, len(heads)))
    with np.errstate(all="ignore"):
        for epoch in range(schedule.epochs):
            lr = schedule.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / schedule.epochs))
            order = shuffler.permutation(n)
            for start in range(0, n, schedule.batch_size):
                idx = order[start : start + schedule.batch_size]
                zb, yb = z[idx], y[idx]
                s = (zb @ w.transpose(0, 2, 1) + b) / schedule.temperature + log_pi
                lp = s - scipy_logsumexp(s, axis=-1, keepdims=True)
                target = row_offsets[: len(idx)] + yb
                loss = -(np.take(lp.reshape(len(heads), -1), target, axis=1).sum(axis=1) / len(idx))
                finite = np.isfinite(loss)
                if not finite.all():
                    mode = modes[int(np.argmin(finite))]
                    raise TrainingDivergedError(
                        f"{mode} head: non-finite loss at epoch {epoch}, sample offset {start} (lr={lr:.3g})", mode=mode
                    )
                histories[epoch] += loss * len(idx)
                g = np.exp(lp)
                g.reshape(len(heads), -1)[:, target] -= 1.0
                g /= len(idx) * schedule.temperature
                gw = scale * (g.transpose(0, 2, 1) @ zb) + schedule.weight_decay * w
                gb = scale * g.sum(axis=1, keepdims=True)
                vel_w = schedule.momentum * vel_w - lr * gw
                vel_b = schedule.momentum * vel_b - lr * gb
                w = w + vel_w
                b = b + vel_b
    finite = np.isfinite(w).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
    if not finite.all():
        mode = modes[int(np.argmin(finite))]
        raise TrainingDivergedError(f"{mode} head: non-finite weights after the last step", mode=mode)
    histories /= n
    return [(w[h], b[h, 0], histories[:, h].tolist()) for h in range(len(heads))]


def augmented_reference_heads(z, y, k, schedule, heads):
    """The stacked SGD loop as it was before the class-major logits, written
    plainly. The rows carry a trailing 1, so each head's [W | b] is one
    (K, p + 1) matrix, and a batch's logits are held row-major, as (H, m, K);
    per batch come a gather, an out-of-place max-shifted softmax (shift, exp,
    numpy's pairwise row sums over K, divide), p - onehot divided by m T, and
    a momentum update, with a finite-loss check after every step; a
    finite-weights check follows the last. `_train_heads` is close to it, not
    bitwise equal, and diverges with its messages. Returns (W, b, histories)
    per head."""
    z = np.asarray(z, dtype=float)
    if schedule.normalize:
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    n, p = z.shape
    rows = np.hstack([z, np.ones((n, 1))])
    modes = [mode for mode, _ in heads]
    scale = np.array([s for _, s in heads])[:, np.newaxis, np.newaxis]
    counts = np.bincount(y, minlength=k)
    log_pi = np.stack([
        ClassPriors.from_counts(counts).log() if mode == "logit_adjusted" else np.zeros(k) for mode in modes
    ])[:, np.newaxis, :]
    theta = np.zeros((len(heads), k, p + 1))
    theta[:, :, :p] = substream(schedule.rng_seed, 0).standard_normal((k, p)) / np.sqrt(p)
    vel = np.zeros_like(theta)
    shuffler = substream(schedule.rng_seed, 1)
    row_offsets = np.arange(schedule.batch_size) * k
    histories = np.zeros((schedule.epochs, len(heads)))
    with np.errstate(all="ignore"):
        for epoch in range(schedule.epochs):
            lr = schedule.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / schedule.epochs))
            order = shuffler.permutation(n)
            for start in range(0, n, schedule.batch_size):
                idx = order[start : start + schedule.batch_size]
                zb, yb, m = rows[idx], y[idx], len(idx)
                s = (zb @ theta.transpose(0, 2, 1)) / schedule.temperature + log_pi
                shifted = s - s.max(axis=-1, keepdims=True)
                e = np.exp(shifted)
                total = e.sum(axis=-1)
                target = row_offsets[:m] + yb
                logp = np.take(shifted.reshape(len(heads), -1), target, axis=1) - np.log(total)
                loss = -(logp.sum(axis=1) / m)
                finite = np.isfinite(loss)
                if not finite.all():
                    mode = modes[int(np.argmin(finite))]
                    raise TrainingDivergedError(
                        f"{mode} head: non-finite loss at epoch {epoch}, sample offset {start} (lr={lr:.3g})", mode=mode
                    )
                histories[epoch] += loss * m
                g = e / total[:, :, np.newaxis]
                g.reshape(len(heads), -1)[:, target] -= 1.0
                g /= m * schedule.temperature
                grad = scale * (g.transpose(0, 2, 1) @ zb)
                grad[:, :, :p] += schedule.weight_decay * theta[:, :, :p]
                vel = schedule.momentum * vel - lr * grad
                theta = theta + vel
    finite = np.isfinite(theta).all(axis=(1, 2))
    if not finite.all():
        mode = modes[int(np.argmin(finite))]
        raise TrainingDivergedError(f"{mode} head: non-finite weights after the last step", mode=mode)
    histories /= n
    return [(theta[h, :, :p], theta[h, :, p], histories[:, h].tolist()) for h in range(len(heads))]


def class_major_reference_heads(z, y, k, schedule, heads):
    """The arithmetic of `_train_heads` written plainly. Each head's [W | b]
    is one (K, p + 1) matrix on rows that carry a trailing 1, and a batch's
    logits are held class-major, as (H, K, m). Per batch come a gather, an
    out-of-place max-shifted softmax whose row sums reduce the class axis
    (the K rows added in class order; numpy sums a one-row batch pairwise),
    the gradient (p - onehot)/(m T) taken as e/(row sum * m T) less 1/(m T)
    at the targets, and a momentum update, with a finite-loss check after
    every step; a finite-weights check follows the last. Returns
    (W, b, histories) per head."""
    z = np.asarray(z, dtype=float)
    if schedule.normalize:
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    n, p = z.shape
    rows = np.hstack([z, np.ones((n, 1))])
    modes = [mode for mode, _ in heads]
    scale = np.array([s for _, s in heads])[:, np.newaxis, np.newaxis]
    counts = np.bincount(y, minlength=k)
    log_pi = np.stack([
        ClassPriors.from_counts(counts).log() if mode == "logit_adjusted" else np.zeros(k) for mode in modes
    ])[:, :, np.newaxis]
    theta = np.zeros((len(heads), k, p + 1))
    theta[:, :, :p] = substream(schedule.rng_seed, 0).standard_normal((k, p)) / np.sqrt(p)
    vel = np.zeros_like(theta)
    shuffler = substream(schedule.rng_seed, 1)
    histories = np.zeros((schedule.epochs, len(heads)))
    with np.errstate(all="ignore"):
        for epoch in range(schedule.epochs):
            lr = schedule.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / schedule.epochs))
            order = shuffler.permutation(n)
            for start in range(0, n, schedule.batch_size):
                idx = order[start : start + schedule.batch_size]
                zb, yb, m = rows[idx], y[idx], len(idx)
                s = (theta @ zb.T) / schedule.temperature + log_pi
                shifted = s - s.max(axis=1, keepdims=True)
                e = np.exp(shifted)
                total = e.sum(axis=1)
                target = yb * m + np.arange(m)
                logp = np.take(shifted.reshape(len(heads), -1), target, axis=1) - np.log(total)
                loss = -(logp.sum(axis=1) / m)
                finite = np.isfinite(loss)
                if not finite.all():
                    mode = modes[int(np.argmin(finite))]
                    raise TrainingDivergedError(
                        f"{mode} head: non-finite loss at epoch {epoch}, sample offset {start} (lr={lr:.3g})", mode=mode
                    )
                histories[epoch] += loss * m
                g = e / (total[:, np.newaxis, :] * (m * schedule.temperature))
                g.reshape(len(heads), -1)[:, target] -= 1.0 / (m * schedule.temperature)
                grad = scale * (g @ zb)
                grad[:, :, :p] += schedule.weight_decay * theta[:, :, :p]
                vel = schedule.momentum * vel - lr * grad
                theta = theta + vel
    finite = np.isfinite(theta).all(axis=(1, 2))
    if not finite.all():
        mode = modes[int(np.argmin(finite))]
        raise TrainingDivergedError(f"{mode} head: non-finite weights after the last step", mode=mode)
    histories /= n
    return [(theta[h, :, :p], theta[h, :, p], histories[:, h].tolist()) for h in range(len(heads))]


class TestTrainHeads:
    """The stacked loop that trains several heads at once."""

    @pytest.mark.parametrize("k, p, batch_size", [(2, 3, 17), (7, 5, 64), (20, 32, 64), (5, 4, 13)])
    @pytest.mark.parametrize("eta, temperature, weight_decay", [
        pytest.param(0.0, 0.7, 1e-3, id="0.0"),
        pytest.param(0.5, 0.7, 1e-3, id="0.5"),
        pytest.param(2.0, 0.7, 1e-3, id="2.0"),
        # lt-default's settings, where the loop skips the division by the
        # temperature, the grad_scale multiply and the weight decay term
        pytest.param(1.0, 1.0, 0.0, id="1.0-identity"),
    ])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_bitwise_equal_to_the_reference_loop(self, k, p, batch_size, eta, temperature, weight_decay, normalize):
        # n = 6k + 37 is no multiple of 17 or 64 (the last batch is short),
        # but is of 13 at k = 5; two empty trailing classes get -inf
        # log-priors in the adjusted head; the features are not unit rows.
        n = 6 * k + 37
        z, y = 1.7 * unit_rows(n, p, k + p) + 0.1, sorted_labels(n, k, p)
        cfg = TrainConfig(lr=0.5, epochs=3, batch_size=batch_size, temperature=temperature,
                          weight_decay=weight_decay, rng_seed=5, normalize=normalize)
        heads = [("softmax", 1.0), ("logit_adjusted", eta)]
        for (clf, history), (w, b, expected) in zip(_train_heads(z, y, k + 2, cfg, heads),
                                                   class_major_reference_heads(z, y, k + 2, cfg, heads)):
            assert_array_equal(clf.W, w)
            assert_array_equal(clf.b, b)
            assert np.array_equal(history, expected)
            assert np.signbit(history).tolist() == np.signbit(expected).tolist()

    @pytest.mark.parametrize("batch_size, n", [(1, 40), (8, 33), (64, 129)])
    def test_one_row_batches_are_bitwise_the_reference_loop(self, batch_size, n):
        # A batch of one row sums its K softmax terms over a contiguous axis,
        # the only case where numpy's reduction runs pairwise; here every
        # batch, or only the last, has one row.
        k, p = 20, 4
        z, y = 1.7 * unit_rows(n, p, 3) + 0.1, sorted_labels(n, k, p)
        cfg = TrainConfig(lr=0.5, epochs=3, batch_size=batch_size, temperature=0.7, weight_decay=1e-3, rng_seed=5)
        heads = [("softmax", 1.0), ("logit_adjusted", 0.5)]
        for (clf, history), (w, b, expected) in zip(_train_heads(z, y, k + 2, cfg, heads),
                                                   class_major_reference_heads(z, y, k + 2, cfg, heads)):
            assert_array_equal(clf.W, w)
            assert_array_equal(clf.b, b)
            assert np.array_equal(history, expected)

    # Each run diverges after its first step, all but two part-way through
    # an epoch (the loop runs on to the epoch's end before it checks); the
    # full message, epoch and sample offset included, is the reference's.
    # The no-decay runs skip the weight decay term, and at eta = 1 the
    # grad_scale multiply too. The last run's losses are all finite: only
    # its second and last update overflows, which the weights check names.
    @pytest.mark.parametrize("lr, eta, batch_size, epochs, weight_decay", [
        pytest.param(1e150, 1.0, 7, 5, 1.0, id="1e+150-1.0-7-5"),
        pytest.param(1e200, 1.0, 64, 3, 1.0, id="1e+200-1.0-64-3"),
        pytest.param(3e5, 1.0, 7, 4, 1.0, id="300000.0-1.0-7-4"),
        pytest.param(1e308, 0.0, 64, 6, 1.0, id="1e+308-0.0-64-6"),
        pytest.param(1e300, 1e300, 7, 2, 1.0, id="1e+300-1e+300-7-2"),
        pytest.param(1e300, 1e300, 7, 2, 0.0, id="1e+300-1e+300-7-2-no-decay"),
        pytest.param(1e308, 0.0, 64, 6, 0.0, id="1e+308-0.0-64-6-no-decay"),
        pytest.param(1e307, 2.0, 13, 8, 0.0, id="1e+307-2.0-13-8-no-decay"),
        pytest.param(1e308, 1.0, 13, 8, 0.0, id="1e+308-1.0-13-8-no-decay"),
        pytest.param(1e300, 1.0, 64, 1, 1.0, id="1e+300-1.0-64-1-last-step"),
    ])
    def test_divergence_message_is_the_reference_loops(self, lr, eta, batch_size, epochs, weight_decay):
        z, y = blob_data(n_per=40)
        z = 3.0 * z
        cfg = TrainConfig(lr=lr, epochs=epochs, batch_size=batch_size, weight_decay=weight_decay)
        heads = [("softmax", 1.0), ("logit_adjusted", eta)]
        with pytest.raises(TrainingDivergedError) as expected:
            augmented_reference_heads(z, y, 3, cfg, heads)
        assert "epoch 0, sample offset 0 " not in str(expected.value)
        with pytest.raises(TrainingDivergedError) as err:
            _train_heads(z, y, None, cfg, heads)
        assert str(err.value) == str(expected.value)
        assert err.value.mode == expected.value.mode

    @pytest.mark.parametrize("temperature, weight_decay", [(0.7, 1e-3), (1.0, 0.0)])
    @pytest.mark.parametrize("zero_rows", [slice(None, None, 5), slice(None)], ids=["some", "all"])
    def test_tied_maxima_and_empty_classes_stay_finite(self, temperature, weight_decay, zero_rows):
        # An all-zero feature row scores b on every class, a K-way tie in the
        # softmax head at the initialization (b = 0); with every row zero the
        # tie holds in every row of the first step. Two empty trailing
        # classes get -inf log-priors in the adjusted head, which must not
        # reach its parameters.
        k, p = 5, 4
        n = 6 * k + 37
        z, y = 1.7 * unit_rows(n, p, 9) + 0.1, sorted_labels(n, k, p)
        z[zero_rows] = 0.0
        cfg = TrainConfig(lr=0.5, epochs=3, batch_size=16, temperature=temperature, weight_decay=weight_decay,
                          rng_seed=5)
        heads = [("softmax", 1.0), ("logit_adjusted", 0.5)]
        assert np.isneginf(ClassPriors.from_counts(np.bincount(y, minlength=k + 2)).log()[k:]).all()
        fused = _train_heads(z, y, k + 2, cfg, heads)
        for (clf, history), (w, b, expected) in zip(fused, class_major_reference_heads(z, y, k + 2, cfg, heads)):
            assert np.isfinite(clf.W).all() and np.isfinite(clf.b).all() and np.isfinite(history).all()
            assert_array_equal(clf.W, w)
            assert_array_equal(clf.b, b)
            assert np.array_equal(history, expected)

    def test_close_to_the_pre_augmented_loop(self):
        # The loop before the bias-augmented rows took b's gradient by its own
        # reduction over the batch and a logsumexp-based log-softmax, so the
        # two agree up to rounding only. On lt-default's seed-3 data and
        # settings (30 epochs) the measured gap is 2.0e-16 of max|W| in W,
        # 2.4e-16 of max|b| in b and 1.7e-16 relative in the loss history.
        cfg = ExperimentConfig(seeds=(3,), n_classes=20, dim=32, head_size=500, gamma=100.0, epochs=30)
        train_ds, _, _ = _load_data(cfg, 3)
        schedule = TrainConfig(lr=cfg.lr, epochs=cfg.epochs, batch_size=cfg.batch_size, rng_seed=3)
        heads = [("softmax", 1.0), ("logit_adjusted", cfg.eta)]
        args = (train_ds.features, train_ds.labels, cfg.n_classes, schedule, heads)
        for (clf, history), (w, b, expected) in zip(_train_heads(*args), reference_heads(*args)):
            assert_allclose(clf.W, w, rtol=0, atol=1e-14 * np.abs(w).max())
            assert_allclose(clf.b, b, rtol=0, atol=1e-14 * np.abs(b).max())
            assert_allclose(history, expected, rtol=1e-14)

    def test_close_to_the_row_major_loop(self):
        # The row-major loop summed each row's K softmax terms in numpy's
        # pairwise order and scaled p - onehot by 1/(m T) in a pass of its
        # own, so the two agree up to rounding only. On lt-default's seed-3
        # data and settings (30 epochs) the measured gap is 3.0e-16 of
        # max|W| in W, 1.2e-16 of max|b| in b and 1.7e-16 relative in the
        # loss history.
        cfg = ExperimentConfig(seeds=(3,), n_classes=20, dim=32, head_size=500, gamma=100.0, epochs=30)
        train_ds, _, _ = _load_data(cfg, 3)
        schedule = TrainConfig(lr=cfg.lr, epochs=cfg.epochs, batch_size=cfg.batch_size, rng_seed=3)
        heads = [("softmax", 1.0), ("logit_adjusted", cfg.eta)]
        args = (train_ds.features, train_ds.labels, cfg.n_classes, schedule, heads)
        for (clf, history), (w, b, expected) in zip(_train_heads(*args), augmented_reference_heads(*args)):
            assert_allclose(clf.W, w, rtol=0, atol=1e-14 * np.abs(w).max())
            assert_allclose(clf.b, b, rtol=0, atol=1e-14 * np.abs(b).max())
            assert_allclose(history, expected, rtol=1e-14)

    @pytest.mark.parametrize("k, p", [(20, 32), (50, 64), (100, 128), (7, 5)])
    @pytest.mark.parametrize("eta, temperature, weight_decay", [
        pytest.param(0.5, 0.7, 1e-3, id="0.5"),
        pytest.param(1.0, 0.7, 1e-3, id="1.0"),
        pytest.param(2.0, 0.7, 1e-3, id="2.0"),
        # lt-default's settings, whose identity operations the loop skips
        pytest.param(1.0, 1.0, 0.0, id="1.0-identity"),
    ])
    def test_bitwise_equal_to_one_head_calls(self, k, p, eta, temperature, weight_decay):
        # n is no multiple of the batch size, so the last batch is short;
        # two empty trailing classes get -inf log-priors in the adjusted head.
        n = 6 * k + 37
        z, y = unit_rows(n, p, k + p), sorted_labels(n, k, p)
        shared = dict(lr=0.5, epochs=3, batch_size=64, temperature=temperature, weight_decay=weight_decay,
                      rng_seed=5)
        heads = [("softmax", 1.0), ("logit_adjusted", eta)]
        fused = _train_heads(z, y, k + 2, TrainConfig(**shared), heads)
        for (mode, scale), (clf, history) in zip(heads, fused):
            alone_history = []
            alone = train(z, y, TrainConfig(mode=mode, grad_scale=scale, **shared), alone_history, n_classes=k + 2)
            assert_array_equal(clf.W, alone.W)
            assert_array_equal(clf.b, alone.b)
            assert history == alone_history
            assert len(history) == 3

    @pytest.mark.parametrize("k, p, batch_size, n", [(5, 4, 13, 40), (7, 5, 17, 69), (20, 32, 64, 129)])
    @pytest.mark.parametrize("eta", [0.5, 2.0])
    def test_one_row_last_batch_is_bitwise_both_references(self, k, p, batch_size, n, eta):
        # n % batch_size == 1, so the step operands built for each batch
        # size (the log-priors broadcast to (H, K, m), m T and 1/(m T)) are
        # built for m = 1 as well; two empty trailing classes get -inf
        # log-priors in the adjusted head.
        assert n % batch_size == 1
        z, y = 1.7 * unit_rows(n, p, k + p) + 0.1, sorted_labels(n, k, p)
        shared = dict(lr=0.5, epochs=3, batch_size=batch_size, temperature=0.7, weight_decay=1e-3, rng_seed=5)
        heads = [("softmax", 1.0), ("logit_adjusted", eta)]
        fused = _train_heads(z, y, k + 2, TrainConfig(**shared), heads)
        for (clf, history), (w, b, expected) in zip(fused, class_major_reference_heads(z, y, k + 2,
                                                                                       TrainConfig(**shared), heads)):
            assert_array_equal(clf.W, w)
            assert_array_equal(clf.b, b)
            assert np.array_equal(history, expected)
        for (mode, scale), (clf, history) in zip(heads, fused):
            alone_history = []
            alone = train(z, y, TrainConfig(mode=mode, grad_scale=scale, **shared), alone_history, n_classes=k + 2)
            assert_array_equal(clf.W, alone.W)
            assert_array_equal(clf.b, alone.b)
            assert history == alone_history

    # The divergence tests run without an np.errstate wrapper: under the
    # error::RuntimeWarning filter any leaked warning fails them.
    def test_softmax_head_diverges_alone(self):
        # eta = 0 freezes the adjusted head at its initialization, while the
        # softmax head's steps of ~lr overflow within a few epochs.
        z, y = blob_data(n_per=40)
        with pytest.raises(TrainingDivergedError, match="softmax head: non-finite loss") as err:
            _train_heads(z, y, None, TrainConfig(lr=1e308, epochs=6, batch_size=64),
                         [("softmax", 1.0), ("logit_adjusted", 0.0)])
        assert err.value.mode == "softmax"

    def test_adjusted_head_diverges_alone(self):
        z, y = blob_data(n_per=40)
        with pytest.raises(TrainingDivergedError, match="logit_adjusted head: non-finite loss") as err:
            _train_heads(z, y, None, TrainConfig(lr=1e300, epochs=2, batch_size=64),
                         [("softmax", 1.0), ("logit_adjusted", 1e300)])
        assert err.value.mode == "logit_adjusted"

    def test_overflow_on_the_last_step_is_divergence(self):
        # One batch, one epoch: the only loss is taken at the initialization,
        # and the one update overflows the scaled head.
        z, y = blob_data(n_per=10)
        with pytest.raises(TrainingDivergedError, match="logit_adjusted head: non-finite weights") as err:
            _train_heads(z, y, None, TrainConfig(lr=1.7e308, epochs=1, batch_size=64),
                         [("softmax", 1.0), ("logit_adjusted", 1e10)])
        assert err.value.mode == "logit_adjusted"

    def test_train_names_its_mode(self):
        z, y = blob_data(n_per=40)
        cfg = TrainConfig(lr=1e300, epochs=2, batch_size=64, mode="logit_adjusted", grad_scale=1e300)
        with pytest.raises(TrainingDivergedError, match="logit_adjusted head"):
            train(z, y, cfg)


class TestTrainInputs:
    def test_float_labels_are_rejected(self):
        z, y = blob_data(n_per=10)
        with pytest.raises(ValueError, match="labels must be integers"):
            train(z, y.astype(float), TrainConfig(lr=0.1, epochs=1, batch_size=8))

    def test_unsigned_64_bit_labels_train_as_signed_ones(self):
        # uint64 labels times the int64 batch offsets promoted to float64,
        # which the targets' take rejected with a TypeError.
        z, y = blob_data(n_per=10)
        config = TrainConfig(lr=0.1, epochs=2, batch_size=8)
        expected = train(z, y, config)
        for dtype in (np.uint64, np.uint8, np.int32):
            got = train(z, y.astype(dtype), config)
            assert_array_equal(got.W, expected.W)
            assert_array_equal(got.b, expected.b)

    def test_zero_row_under_normalize_is_named(self):
        z = unit_rows(30, 4, 21)
        z[3] = 0.0
        y = np.arange(30) % 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row 3 has zero norm"):
                train(z, y, TrainConfig(lr=0.1, epochs=2, batch_size=8, normalize=True))
        # As given, a zero row is just an input with zero logits.
        train(z, y, TrainConfig(lr=0.1, epochs=2, batch_size=8))
        # Rows of zero width have zero norms too (the blocked norms divide by the width).
        with pytest.raises(ValueError, match="row 0 has zero norm"):
            train(np.zeros((30, 0)), y, TrainConfig(lr=0.1, epochs=2, batch_size=8, normalize=True))
        # The rule itself, as `eval` and `compare` call it.
        with pytest.raises(ValueError, match="row 3 has zero norm"):
            _linear_norms(z, True)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_object_and_string_rows_train_as_their_float64_values(self, normalize):
        z = unit_rows(30, 4, 22) * 3.0
        y = np.arange(30) % 3
        config = TrainConfig(lr=0.1, epochs=2, batch_size=8, normalize=normalize)
        expected = train(z, y, config)
        for rows in (z.astype(object), z.astype(str)):
            got = train(rows, y, config)
            assert_array_equal(got.W, expected.W)
            assert_array_equal(got.b, expected.b)


class TestLinearNorms:
    """Every linear head's rows are z divided by `_linear_norms(z, normalize)`."""

    @staticmethod
    def rows(dtype):
        if dtype is np.int64:  # 2**62 + 1 and 2**53 + 1 round on conversion to float64
            return np.array([[0, -3, 2**62 + 1], [2**53 + 1, -(2**63), 7], [1, 2, 3]], dtype=dtype)
        # -0.0, a float32 subnormal, and +-3.4e38, whose float32 squares overflow.
        z = np.array([[-0.0, 1.5, -2.25], [1e-45, -3.4e38, 3.4e38], [7.0, -0.0, -1e-3]], dtype=dtype)
        assert z[1, 0] != 0.0
        return z

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_as_given_is_bitwise_the_float64_rows(self, dtype):
        z = self.rows(dtype)
        got = z / _linear_norms(z, False)[:, np.newaxis]
        assert got.dtype == np.float64
        assert_array_equal(got.view(np.int64), np.asarray(z, dtype=float).view(np.int64))  # -0.0 stays -0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_normalize_is_bitwise_the_projection(self, dtype):
        z = self.rows(dtype)
        rows = np.asarray(z, dtype=float)
        got = z / _linear_norms(z, True)[:, np.newaxis]
        assert_array_equal(got.view(np.int64), (rows / np.linalg.norm(rows, axis=1, keepdims=True)).view(np.int64))


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
        with pytest.raises(ValueError, match="zero weight row"):
            minority_collapse_metric(LinearClassifier(zero_row.W * 1e-200, np.zeros(3)), [0, 2])

    # The squares of these rows overflow or underflow; the error::RuntimeWarning
    # filter fails the test on any overflow warning.
    @pytest.mark.parametrize("factor", [1e300, 1e-200])
    def test_scale_invariant_at_extreme_weights(self, factor):
        w = substream(8, 0).standard_normal((4, 6))
        plain = minority_collapse_metric(LinearClassifier(w, np.zeros(4)), range(4))
        scaled = minority_collapse_metric(LinearClassifier(w * factor, np.zeros(4)), range(4))
        assert abs(scaled - plain) <= 1e-15
        mixed = w.copy()
        mixed[1] *= factor
        assert abs(minority_collapse_metric(LinearClassifier(mixed, np.zeros(4)), range(4)) - plain) <= 1e-15


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

    # The squares of these rows overflow or underflow; the error::RuntimeWarning
    # filter fails the test on any overflow warning.
    @pytest.mark.parametrize("factor", [1e300, 1e-200])
    def test_extreme_weights_scale_the_report(self, factor):
        w = np.random.default_rng(1).standard_normal((3, 4))
        z = unit_rows(12, 4, 17)
        y = np.arange(12) % 3
        plain = [r["weight_feature_norm"] for r in norm_report(LinearClassifier(w, np.zeros(3)), z, y)]
        scaled = [r["weight_feature_norm"] for r in norm_report(LinearClassifier(w * factor, np.zeros(3)), z, y)]
        assert_allclose(scaled, np.array(plain) * factor, rtol=1e-15)

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
