"""Tests for the experiment runner: splits, configs, m0 gradients, reports."""

import csv
import gc
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp

from spherebayes.baselines import LinearClassifier, TrainConfig, _train_heads, predict_linear, train
from spherebayes.classifier import (
    AdjustmentPolicy,
    BayesClassifier,
    ClassPriors,
    _degenerate_aware_concentrations,
    adjust,
    class_stats,
    log_posterior,
    log_softmax,
    logits,
    predict,
)
from spherebayes.datagen import (
    Dataset,
    LongTailSpec,
    generate,
    make_truth,
    read_features,
    sample_dataset,
    write_features,
)
from spherebayes.estimation import ClassStats, PosteriorSpec, class_posteriors, map_estimate, update_stats
from spherebayes.harness import (
    METHODS,
    ExperimentConfig,
    ExperimentError,
    ReportRow,
    _BLOCK,
    _blocks,
    _m0_gradients,
    emit_report,
    m0_loss_gradients,
    run_experiment,
    split_accuracy,
)
from spherebayes.priors import EtfFrame, build_etf, grad_step_m0
from spherebayes.special import log_vmf_normalizer, mean_resultant_ratio
from spherebayes.vmf import as_unit_vector, substream


class TestSplitAccuracy:
    def test_hand_counted_case(self):
        train_counts = [150, 50, 5]  # many, medium, few
        labels = np.array([0, 0, 1, 1, 2, 2])
        preds = np.array([0, 0, 1, 1, 2, 0])  # one miss, on a few-shot sample
        out = split_accuracy(preds, labels, train_counts)
        assert_allclose(out["all"], 5.0 / 6.0, atol=0)
        assert out["many"] == 1.0
        assert out["medium"] == 1.0
        assert out["few"] == 0.5

    def test_boundary_counts(self):
        # thresholds (20, 100): many is >100, medium is 20..100, few is <20
        train_counts = [101, 100, 20, 19]
        labels = np.array([0, 1, 2, 3])
        preds = np.array([0, 1, 2, 0])
        out = split_accuracy(preds, labels, train_counts)
        assert out["many"] == 1.0
        assert out["medium"] == 1.0
        assert out["few"] == 0.0

    def test_empty_splits_are_none(self):
        out = split_accuracy(np.array([0, 1]), np.array([0, 1]), [500, 600])
        assert out["all"] == 1.0
        assert out["many"] == 1.0
        assert out["medium"] is None
        assert out["few"] is None

    def test_perfect_predictor(self):
        labels = np.arange(4)
        out = split_accuracy(labels, labels, [500, 50, 5, 5])
        assert out == {"all": 1.0, "many": 1.0, "medium": 1.0, "few": 1.0}

    def test_custom_thresholds(self):
        out = split_accuracy(
            np.array([0, 1]), np.array([0, 1]), [10, 3], thresholds=(2, 5)
        )
        assert out["many"] == 1.0  # 10 > 5
        assert out["medium"] == 1.0  # 2 <= 3 <= 5
        assert out["few"] is None

    def test_empty_evaluation_set(self):
        with pytest.raises(ValueError, match="evaluation set is empty"):
            split_accuracy(np.array([], dtype=int), np.array([], dtype=int), [5, 5])

    def test_validation(self):
        with pytest.raises(ValueError):
            split_accuracy(np.array([0]), np.array([0, 1]), [5, 5])
        with pytest.raises(ValueError):
            split_accuracy(np.array([0]), np.array([0]), [5], thresholds=(100, 20))
        with pytest.raises(ValueError):
            split_accuracy(np.array([0]), np.array([0]), [5], thresholds=(0, 20))


class TestExperimentConfig:
    def test_round_trips_through_json(self):
        cfg = ExperimentConfig(seeds=(1, 2), n_classes=5, gamma=10.0)
        back = ExperimentConfig.from_json(
            json.dumps({"seeds": [1, 2], "n_classes": 5, "gamma": 10.0})
        )
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"seeds": [0], "learning_rate": 0.5})

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("bape", "svm"))
        with pytest.raises(ValueError):
            ExperimentConfig(methods=())
        with pytest.raises(ValueError):
            ExperimentConfig(train_file="x.bin")
        with pytest.raises(ValueError):
            ExperimentConfig(train_file="x.bin", test_file="y.bin")  # oracle in defaults
        with pytest.raises(ValueError):
            ExperimentConfig(estimation="paper")
        with pytest.raises(ValueError):
            ExperimentConfig(eta=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(thresholds=(100, 20))
        with pytest.raises(ValueError):
            ExperimentConfig(m0_steps=-1)
        # integer values load for real-valued keys and pairs
        ExperimentConfig.from_dict({"gamma": 100, "eta": 0, "kappa_range": [5, 50], "thresholds": [20, 100]})
        # files are fine once the oracle is dropped
        ExperimentConfig(
            train_file="x.bin", test_file="y.bin", methods=("bape", "softmax")
        )


    @pytest.mark.parametrize("key, value", [
        ("seeds", [0.5]),
        ("seeds", [True]),
        ("n_classes", 2.5),
        ("dim", 32.0),
        ("head_size", 2.5),
        ("test_per_class", "200"),
        ("m0_steps", True),
        ("epochs", 2.5),
        ("batch_size", False),
    ])
    def test_integer_fields_reject_other_values(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            ExperimentConfig.from_dict({key: value})

    def test_integer_fields_take_numpy_integers(self):
        cfg = ExperimentConfig(seeds=(np.int64(3),), epochs=np.int32(4))
        assert cfg.seeds == (3,) and type(cfg.seeds[0]) is int
        with pytest.raises(ValueError, match="seeds must be a list"):
            ExperimentConfig.from_dict({"seeds": 3})


class TestM0Gradients:
    """Central finite differences over an independent reimplementation of the
    fit-then-score pipeline, treating the prior directions as free ambient
    vectors."""

    def _setup(self, seed=5):
        truth = make_truth(3, 4, (8.0, 20.0), center_mode="random", seed=seed)
        ds = sample_dataset(truth, [30, 12, 7], seed)
        feats = np.asarray(ds.features, dtype=float)
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        stats = [
            update_stats(ClassStats.empty(4), feats[ds.labels == j]) for j in range(3)
        ]
        priors = ClassPriors.from_counts(ds.class_counts)
        frame = build_etf(3, 4, 11)
        return frame, stats, priors, feats, ds.labels

    def _reference_loss(self, vectors, stats, priors, feats, labels, alpha_hat, beta_hat, mode):
        k, p = vectors.shape
        log_norm = np.empty(k)
        kappas = np.empty(k)
        ms = np.empty((k, p))
        for j in range(k):
            n_j = stats[j].count
            beta0 = beta_hat * n_j
            alpha = alpha_hat * n_j + n_j
            v = beta0 * vectors[j] + stats[j].resultant
            beta = np.linalg.norm(v)
            ms[j] = v / beta
            r = beta / alpha
            if mode == "approx":
                kappas[j] = p * r / (1.0 - r * r)
            else:
                kappas[j] = map_estimate(
                    PosteriorSpec(alpha=alpha, beta=beta, m=ms[j]), mode="exact"
                ).kappa
            log_norm[j] = log_vmf_normalizer(p, kappas[j])
        s = priors.log() - log_norm + (feats @ ms.T) * kappas
        lp = s - logsumexp(s, axis=1, keepdims=True)
        return float(np.mean(-lp[np.arange(len(labels)), labels]))

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_matches_finite_differences(self, mode):
        frame, stats, priors, feats, labels = self._setup()
        alpha_hat, beta_hat = 2.0, 0.5
        grads = m0_loss_gradients(
            frame, stats, alpha_hat, beta_hat, priors, feats, labels, mode=mode
        )
        h = 1e-6
        fd = np.empty_like(grads)
        for j in range(3):
            for d in range(4):
                bump = np.zeros((3, 4))
                bump[j, d] = h
                hi = self._reference_loss(
                    frame.vectors + bump, stats, priors, feats, labels, alpha_hat, beta_hat, mode
                )
                lo = self._reference_loss(
                    frame.vectors - bump, stats, priors, feats, labels, alpha_hat, beta_hat, mode
                )
                fd[j, d] = (hi - lo) / (2 * h)
        assert_allclose(grads, fd, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    @pytest.mark.parametrize("degenerate", ["empty", "singleton"])
    def test_degenerate_class_is_excluded(self, mode, degenerate):
        # A fourth class the final fit would exclude: an empty one (beta = 0)
        # or a single sample on its own prior direction under alpha_hat =
        # beta_hat (beta/alpha = 1, unbounded kappa). Its gradient is zero,
        # and the other classes get those of the problem without it and its
        # samples (scaled by the sample count, since the loss is a mean).
        frame, stats, priors, feats, labels = self._setup()
        extra = np.eye(4)[:1]
        wide = EtfFrame(np.vstack([frame.vectors, extra]))
        n = len(labels)
        if degenerate == "empty":
            extra_stats, wide_feats, wide_labels = ClassStats.empty(4), feats, labels
        else:
            extra_stats = ClassStats(1, extra[0])
            wide_feats, wide_labels = np.vstack([feats, extra]), np.append(labels, 3)
        counts = [st.count for st in stats] + [extra_stats.count]
        grads = m0_loss_gradients(wide, stats + [extra_stats], 0.5, 0.5, ClassPriors.from_counts(counts),
                                  wide_feats, wide_labels, mode=mode)
        assert np.all(grads[3] == 0.0)
        expected = m0_loss_gradients(frame, stats, 0.5, 0.5, priors, feats, labels, mode=mode)
        assert_allclose(grads[:3], expected * n / len(wide_labels), rtol=1e-12, atol=0)

    @staticmethod
    def _log_posterior_gradient(frame, stats, alpha_hat, beta_hat, priors, feats, labels, mode):
        # The gradient scored through a BayesClassifier and log_posterior,
        # with A_p(kappa) one class at a time.
        p = frame.dim
        counts = np.array([st.count for st in stats])
        alphas, betas, ms, beta0 = class_posteriors(
            counts, np.stack([st.resultant for st in stats]), alpha_hat, beta_hat, frame.vectors
        )
        kappas, excluded = _degenerate_aware_concentrations(p, alphas, betas, mode, "exclude")
        keep = ~excluded
        a_vals = np.array([mean_resultant_ratio(p, float(kp)) for kp in kappas])
        alpha, beta, a_val = alphas[keep], betas[keep], a_vals[keep]
        dk_db = np.zeros(len(stats))
        if mode == "approx":
            dk_db[keep] = p * alpha * (alpha**2 + beta**2) / (alpha**2 - beta**2) ** 2
        else:
            dk_db[keep] = 1.0 / (alpha * (1.0 - a_val * a_val - (p - 1) * a_val / kappas[keep]))
        if excluded.any():
            pi = np.where(excluded, 0.0, priors.pi)
            priors = ClassPriors(pi / pi.sum(), allow_zero=True)
        clf = BayesClassifier(mus=np.where(excluded[:, np.newaxis], np.eye(p)[0], ms), kappas=kappas,
                              priors=priors, excluded=tuple(np.flatnonzero(excluded)))
        probs = np.exp(log_posterior(clf, feats))
        probs[np.arange(len(labels)), labels] -= 1.0
        probs[excluded[labels]] = 0.0
        beta_coef = np.einsum("nk,nk->k", probs, feats @ ms.T - a_vals) * dk_db
        zsum = probs.T @ feats
        scale = np.divide(kappas, betas, out=np.zeros(len(stats)), where=keep)
        tangent = (zsum - np.einsum("kp,kp->k", zsum, ms)[:, np.newaxis] * ms) * scale[:, np.newaxis]
        return (beta_coef[:, np.newaxis] * ms + tangent) * (beta0 / len(labels))[:, np.newaxis]

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    @pytest.mark.parametrize("with_excluded", [False, True])
    def test_matches_log_posterior_route(self, mode, with_excluded):
        frame, stats, priors, feats, labels = self._setup()
        if with_excluded:  # a fourth, empty class: beta = 0
            frame = EtfFrame(np.vstack([frame.vectors, np.eye(4)[:1]]))
            stats = stats + [ClassStats.empty(4)]
            priors = ClassPriors.from_counts([st.count for st in stats])
        args = (frame, stats, 2.0, 0.5, priors, feats, labels)
        got = m0_loss_gradients(*args, mode=mode)
        expected = self._log_posterior_gradient(*args, mode)
        if with_excluded:
            assert np.all(got[3] == 0.0)
        assert_allclose(got, expected, rtol=1e-12, atol=1e-15)

    @staticmethod
    def _out_of_place_gradient(frame, counts, resultants, alpha_hat, beta_hat, priors, z, labels, mode):
        # `_m0_gradients` as first written: a fresh array for each step of
        # the posteriors, and the excluded rows zeroed unconditionally.
        p = frame.dim
        alphas, betas, ms, beta0 = class_posteriors(counts, resultants, alpha_hat, beta_hat, frame.vectors)
        kappas, excluded = _degenerate_aware_concentrations(p, alphas, betas, mode, "exclude")
        keep = ~excluded
        a_vals = mean_resultant_ratio(p, kappas)
        alpha, beta, a_val = alphas[keep], betas[keep], a_vals[keep]
        dk_db = np.zeros(len(kappas))
        if mode == "approx":
            dk_db[keep] = p * alpha * (alpha**2 + beta**2) / (alpha**2 - beta**2) ** 2
        else:
            dk_db[keep] = 1.0 / (alpha * (1.0 - a_val * a_val - (p - 1) * a_val / kappas[keep]))
        if excluded.any():
            pi = np.where(excluded, 0.0, priors.pi)
            priors = ClassPriors(pi / pi.sum(), allow_zero=True)
        b = priors.log() - log_vmf_normalizer(p, kappas)
        zm = z @ ms.T
        probs = np.exp(log_softmax(zm * kappas + b))
        probs[np.arange(len(labels)), labels] -= 1.0
        probs[excluded[labels]] = 0.0
        beta_coef = np.einsum("nk,nk->k", probs, zm - a_vals) * dk_db
        zsum = probs.T @ z
        scale = np.divide(kappas, betas, out=np.zeros(len(kappas)), where=keep)
        tangent = (zsum - np.einsum("kp,kp->k", zsum, ms)[:, np.newaxis] * ms) * scale[:, np.newaxis]
        return (beta_coef[:, np.newaxis] * ms + tangent) * (beta0 / len(labels))[:, np.newaxis]

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    @pytest.mark.parametrize("with_excluded, scale", [
        pytest.param(False, 1, id="False"),
        pytest.param(True, 1, id="True"),
        # 4200 or 4202 rows: two full blocks and a partial one
        pytest.param(False, 25, id="False-blocks"),
        pytest.param(True, 25, id="True-blocks"),
    ])
    def test_bitwise_equal_to_out_of_place_formula(self, mode, with_excluded, scale):
        truth = make_truth(6, 9, (8.0, 40.0), center_mode="random", seed=12)
        sizes = [90 * scale, 40 * scale, 25 * scale, 9 * scale, 4 * scale, 0 if with_excluded else 2]
        ds = sample_dataset(truth, sizes, 12)
        feats = as_unit_vector(ds.features)
        counts, resultants = class_stats(feats, ds.labels, 6)
        priors = ClassPriors.from_counts(counts)
        args = (build_etf(6, 9, 13), counts, resultants, 1.0, 0.5, priors, feats, ds.labels, mode)
        assert (ds.n > 2 * _BLOCK and ds.n % _BLOCK) if scale > 1 else ds.n < _BLOCK
        got = _m0_gradients(*args)
        if with_excluded:
            assert np.all(got[5] == 0.0)
        assert_array_equal(got, self._out_of_place_gradient(*args))

    def test_bitwise_equal_to_out_of_place_formula_on_lt_exact_m0_data(self):
        # The lt-exact-m0 benchmark shape on seed 11 (K = 100, p = 128,
        # 10899 rows: five full blocks and a partial one), through the three
        # prior-direction steps its fit takes, each block's product written
        # in place into its rows of the full one.
        seed = 11
        train, _ = generate(LongTailSpec(100, 500, 100.0), 128, (20.0, 200.0), "random", seed)
        feats = as_unit_vector(train.features)
        counts, resultants = class_stats(feats, train.labels, 100)
        priors = ClassPriors.from_counts(counts)
        frame = build_etf(100, 128, int(substream(seed, 4).integers(2**63 - 1)))
        assert train.n > 5 * _BLOCK and train.n % _BLOCK
        for _ in range(3):
            args = (frame, counts, resultants, 1.0, 0.5, priors, feats, train.labels, "exact")
            got = _m0_gradients(*args)
            assert_array_equal(got, self._out_of_place_gradient(*args))
            frame = grad_step_m0(frame, got, 0.1)

    def test_rows_off_the_sphere_raise(self):
        frame, stats, priors, feats, labels = self._setup()
        with pytest.raises(ValueError, match="off the unit sphere"):
            m0_loss_gradients(frame, stats, 2.0, 0.5, priors, feats * 1.01, labels)

    def test_gradient_step_reduces_the_loss(self):
        frame, stats, priors, feats, labels = self._setup()
        alpha_hat, beta_hat = 4.0, 3.5  # strong directional prior: m0 matters
        before = self._reference_loss(
            frame.vectors, stats, priors, feats, labels, alpha_hat, beta_hat, "approx"
        )
        g = m0_loss_gradients(
            frame, stats, alpha_hat, beta_hat, priors, feats, labels, mode="approx"
        )
        stepped = frame.vectors - 0.05 * g
        stepped /= np.linalg.norm(stepped, axis=1, keepdims=True)
        after = self._reference_loss(
            stepped, stats, priors, feats, labels, alpha_hat, beta_hat, "approx"
        )
        assert after < before


@pytest.mark.parametrize("n, p, k", [(20000, 128, 100), (4000, 32, 20), (2 * _BLOCK + 5, 6, 3)])
def test_blocked_product_is_bitwise_the_full_product(n, p, k):
    # The scoring pass and the m0 gradient take z @ W.T a block of rows at a
    # time. BLAS does not promise that a block's rows equal those rows of
    # the full product; every shape here ends in a partial block.
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, p))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    w = 30.0 * rng.standard_normal((k, p))
    assert_array_equal(np.concatenate([z[rows] @ w.T for rows in _blocks(n)]), z @ w.T)


def small_config(**overrides):
    base = dict(
        seeds=(0,),
        n_classes=4,
        dim=6,
        head_size=40,
        gamma=10.0,
        kappa_range=(8.0, 25.0),
        test_per_class=50,
        epochs=5,
        batch_size=32,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_all_methods_produce_rows(self):
        rows = run_experiment(small_config())
        assert [r.method for r in rows] == sorted(METHODS)
        for r in rows:
            assert 0.0 <= r.acc_all <= 1.0
            assert r.seed == 0
            assert r.wall_time >= 0.0
        by_method = {r.method: r for r in rows}
        # one shared test set: every row carries the same oracle score
        oracle_scores = {r.oracle_accuracy for r in rows}
        assert len(oracle_scores) == 1
        assert by_method["oracle"].acc_all == by_method["oracle"].oracle_accuracy
        # train profile 40/19/9/4 has no class over 100 samples
        assert all(r.acc_many is None for r in rows)
        assert by_method["oracle"].minority_collapse is None
        assert by_method["ensemble"].minority_collapse is None
        assert by_method["softmax"].minority_collapse is not None

    def test_rows_sorted_by_method_then_seed(self):
        cfg = small_config(seeds=(1, 0), methods=("softmax", "bape"))
        rows = run_experiment(cfg)
        assert [(r.method, r.seed) for r in rows] == [
            ("bape", 0),
            ("bape", 1),
            ("softmax", 0),
            ("softmax", 1),
        ]

    def test_deterministic_up_to_wall_time(self):
        cfg = small_config(seeds=(2,), epochs=3)
        a = [r.as_dict() for r in run_experiment(cfg)]
        b = [r.as_dict() for r in run_experiment(cfg)]
        for d in a + b:
            d.pop("wall_time")
        assert a == b

    def test_leaves_no_reference_cycles(self):
        # A cycle through the per-seed model cache would keep each seed's
        # datasets and classifiers alive until the cyclic collector runs.
        gc.collect()
        gc.disable()
        try:
            run_experiment(small_config(seeds=(0, 1), epochs=1))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_eta_zero_freezes_logit_adjusted_at_init(self, tmp_path):
        train_ds, truth = generate(LongTailSpec(4, 60, 10.0), 6, seed=3)
        test_ds = sample_dataset(truth, [40] * 4, seed=3, stream=3)
        train_path, test_path = str(tmp_path / "tr.bin"), str(tmp_path / "te.bin")
        write_features(train_path, train_ds)
        write_features(test_path, test_ds)
        cfg = ExperimentConfig(
            seeds=(3,),
            methods=("softmax", "logit_adjusted"),
            train_file=train_path,
            test_file=test_path,
            eta=0.0,
            epochs=5,
        )
        rows = {r.method: r for r in run_experiment(cfg)}
        frozen = train(
            train_ds.features,
            train_ds.labels,
            TrainConfig(lr=0.0, epochs=1, batch_size=64, rng_seed=3),
        )
        init_preds = predict_linear(frozen, np.asarray(test_ds.features, dtype=float))
        init_acc = split_accuracy(init_preds, test_ds.labels, train_ds.class_counts)
        assert rows["logit_adjusted"].acc_all == init_acc["all"]
        # the softmax baseline does not depend on eta
        cfg_eta1 = ExperimentConfig.from_dict({**cfg.__dict__, "eta": 1.0})
        rows_eta1 = {r.method: r for r in run_experiment(cfg_eta1)}
        assert rows["softmax"].acc_all == rows_eta1["softmax"].acc_all
        assert rows_eta1["logit_adjusted"].acc_all != rows["logit_adjusted"].acc_all

    def test_eta_does_not_touch_bape(self):
        for eta in (0.0, 1.0):
            rows = run_experiment(
                small_config(seeds=(4,), methods=("bape", "bape+adjust"), eta=eta)
            )
            if eta == 0.0:
                baseline = [(r.method, r.acc_all, r.acc_few) for r in rows]
            else:
                assert [(r.method, r.acc_all, r.acc_few) for r in rows] == baseline

    def test_m0_refinement_runs(self):
        cfg = small_config(
            seeds=(5,),
            methods=("bape",),
            alpha_hat=40.0,
            beta_hat=8.0,
            m0_steps=2,
            m0_lr=0.05,
        )
        rows = run_experiment(cfg)
        assert len(rows) == 1 and 0.0 <= rows[0].acc_all <= 1.0

    def test_closed_form_predictions_equal_predict_on_raw_rows(self, monkeypatch):
        # The test rows are validated once per seed and scored through the
        # linear head; each closed-form method's predictions must be bitwise
        # what predict() gives on the raw rows.
        import spherebayes.harness as harness

        seen = {}

        def record(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] = out = fn(*args, **kwargs)
                return out
            monkeypatch.setattr(harness, fn.__name__, wrapper)

        record("data", harness._load_data)
        record("bape", harness._fit_bape)
        record("bape+adjust", harness.adjust)
        preds = []

        def scored(predictions, *args, **kwargs):
            preds.append(predictions)
            return split_accuracy(predictions, *args, **kwargs)

        monkeypatch.setattr(harness, "split_accuracy", scored)
        methods = ("bape", "bape+adjust", "oracle")
        run_experiment(small_config(seeds=(3,), methods=methods, alpha_hat=2.0, beta_hat=0.5,
                                    estimation="exact", m0_steps=1))
        train_ds, test_ds, truth = seen["data"]
        raw = np.asarray(test_ds.features, dtype=float)
        oracle = truth.classifier(ClassPriors.from_counts(test_ds.class_counts))
        assert len(preds) == 3
        for got, clf in zip(preds, (seen["bape"], seen["bape+adjust"], oracle)):
            assert_array_equal(got, predict(clf, raw))

    @pytest.mark.parametrize("methods, heads", [
        (("softmax",), [("softmax", 1.0)]),
        (("ensemble",), [("logit_adjusted", 0.5)]),
        (("bape", "logit_adjusted", "softmax", "ensemble"), [("softmax", 1.0), ("logit_adjusted", 0.5)]),
        (("bape", "oracle"), None),
    ])
    def test_trains_the_heads_the_run_needs_once(self, monkeypatch, methods, heads):
        import spherebayes.harness as harness

        calls = []

        def counted(z, y, k, schedule, heads):
            calls.append(list(heads))
            return _train_heads(z, y, k, schedule, heads)

        monkeypatch.setattr(harness, "_train_heads", counted)
        run_experiment(small_config(methods=methods, eta=0.5))
        assert calls == ([heads] if heads else [])

    def test_linear_rows_equal_one_head_train_calls(self, monkeypatch):
        import spherebayes.harness as harness

        preds = []

        def scored(predictions, *args, **kwargs):
            preds.append(predictions)
            return split_accuracy(predictions, *args, **kwargs)

        monkeypatch.setattr(harness, "split_accuracy", scored)
        cfg = small_config(seeds=(2,), methods=("logit_adjusted", "softmax"), eta=2.0, temperature=0.7,
                           weight_decay=1e-3, lr=0.3, epochs=4, batch_size=16)
        run_experiment(cfg)
        train_ds, test_ds, _ = harness._load_data(cfg, 2)
        for got, mode, scale in zip(preds, ("logit_adjusted", "softmax"), (2.0, 1.0)):
            alone = train(train_ds.features, train_ds.labels, TrainConfig(
                lr=0.3, epochs=4, batch_size=16, weight_decay=1e-3, mode=mode, temperature=0.7,
                rng_seed=2, grad_scale=scale), n_classes=train_ds.n_classes)
            assert_array_equal(got, predict_linear(alone, np.asarray(test_ds.features, dtype=float)))

    def test_normalize_scores_the_projected_test_rows(self, tmp_path, monkeypatch):
        # Rows scaled off the sphere: under normalize each linear head trains
        # on rows / ||rows||, so it must score the test rows projected the
        # same way, not as given.
        import spherebayes.harness as harness

        train_ds, truth = generate(LongTailSpec(4, 60, 10.0), 6, (8.0, 25.0), seed=3)
        test_ds = sample_dataset(truth, [50] * 4, seed=3, stream=3)
        paths = [str(tmp_path / "tr.bin"), str(tmp_path / "te.bin")]
        for key, (path, ds) in enumerate(zip(paths, (train_ds, test_ds))):
            scale = substream(99, key).uniform(0.2, 5.0, (ds.n, 1))
            write_features(path, Dataset(ds.features * scale, ds.labels, ds.class_counts))
        preds = []

        def scored(predictions, *args, **kwargs):
            preds.append(predictions)
            return split_accuracy(predictions, *args, **kwargs)

        monkeypatch.setattr(harness, "split_accuracy", scored)
        run_experiment(ExperimentConfig(seeds=(3,), methods=("logit_adjusted", "softmax"), train_file=paths[0],
                                        test_file=paths[1], normalize=True, eta=0.5, epochs=5))
        train_ds, test_ds = read_features(paths[0]), read_features(paths[1])
        rows = np.asarray(test_ds.features, dtype=float)
        projected = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        for got, mode, scale in zip(preds, ("logit_adjusted", "softmax"), (0.5, 1.0)):
            alone = train(train_ds.features, train_ds.labels, TrainConfig(
                lr=0.5, epochs=5, batch_size=64, mode=mode, rng_seed=3, normalize=True, grad_scale=scale),
                n_classes=train_ds.n_classes)
            assert_array_equal(got, predict_linear(alone, projected))

    @pytest.mark.parametrize("kappa_mode, fixed_kappa", [("keep", None), ("shared_mean", None), ("fixed", 12.0)])
    def test_bape_adjust_shares_bape_product_under_keep(self, monkeypatch, kappa_mode, fixed_kappa):
        # bape scores its product plus b, bitwise its own logits. Under
        # "keep" bape+adjust's W is bape's own array, and it adds its b to the
        # same product, bitwise its own logits too. The other modes change W
        # and score with their own call. The pass sees one array per block
        # (three here, the last partial), in method order with the oracle
        # last; each method's blocks are compared concatenated.
        import spherebayes.harness as harness

        calls, own_calls = [], []
        monkeypatch.setattr(harness, "top_class", lambda s: calls.append(s) or s.argmax(axis=-1))
        monkeypatch.setattr(harness, "logits", lambda head, z: own_calls.append(head) or logits(head, z))
        cfg = small_config(seeds=(4,), methods=("bape", "bape+adjust", "ensemble"), kappa_mode=kappa_mode,
                           fixed_kappa=fixed_kappa, alpha_hat=1.0, beta_hat=0.5, m0_steps=1, test_per_class=1100)
        run_experiment(cfg)
        n_blocks = len(calls) // 4
        assert n_blocks == 3 and len(calls) == 4 * n_blocks
        scores = [np.concatenate(calls[i::4]) for i in range(4)]
        train_ds, test_ds, _ = harness._load_data(cfg, 4)
        bape = harness._fit_bape(train_ds, cfg, 4)
        adjusted = adjust(bape, AdjustmentPolicy(ClassPriors.uniform(train_ds.n_classes), kappa_mode, fixed_kappa))
        unit_z = as_unit_vector(test_ds.features)
        assert_array_equal(scores[0], logits(bape, unit_z))
        assert_array_equal(scores[1], logits(adjusted, unit_z))
        # Own calls, per block: bape+adjust's outside "keep", the ensemble's
        # linear half, and the oracle that scores last.
        own_heads = [BayesClassifier] * (kappa_mode != "keep") + [LinearClassifier, BayesClassifier]
        assert [type(head) for head in own_calls] == own_heads * n_blocks
        linear = harness._fit_linear(train_ds, cfg, ("logit_adjusted",), 4)["logit_adjusted"]
        expected = 0.5 * (log_softmax(logits(bape, unit_z)) + log_softmax(logits(linear, np.asarray(
            test_ds.features, dtype=float))))
        assert_array_equal(scores[2], expected)

    def test_ensemble_linear_half_scores_the_projected_rows(self, monkeypatch):
        import spherebayes.harness as harness

        seen = []
        monkeypatch.setattr(harness, "logits", lambda head, z: seen.append((head, z)) or logits(head, z))
        cfg = small_config(seeds=(2,), methods=("ensemble",), normalize=True, test_per_class=600)
        run_experiment(cfg)
        rows = np.asarray(harness._load_data(cfg, 2)[1].features, dtype=float)
        blocks = [z for head, z in seen if isinstance(head, LinearClassifier)]
        assert len(blocks) == 2  # one per block of the 2400 rows
        linear_z = np.concatenate(blocks)
        assert not np.array_equal(linear_z, rows)  # the float32 rows are off the sphere in their last bits
        assert_array_equal(linear_z, rows / np.linalg.norm(rows, axis=1, keepdims=True))

    @pytest.mark.parametrize("test_per_class", [1, 1100])
    def test_blocked_predictions_equal_full_array_scores(self, monkeypatch, test_per_class):
        # One row per class, and 4400 rows: two full blocks and a partial one.
        # Each method's predictions must be the argmax of its own logits
        # taken on all the rows at once.
        import spherebayes.harness as harness

        preds = {}

        def scored(predictions, *args, **kwargs):
            preds[len(preds)] = predictions
            return split_accuracy(predictions, *args, **kwargs)

        monkeypatch.setattr(harness, "split_accuracy", scored)
        cfg = small_config(seeds=(6,), methods=METHODS, test_per_class=test_per_class, alpha_hat=1.0, beta_hat=0.5,
                           m0_steps=1, temperature=0.8, epochs=2)
        run_experiment(cfg)
        train_ds, test_ds, truth = harness._load_data(cfg, 6)
        assert test_ds.n == 4 * test_per_class
        bape = harness._fit_bape(train_ds, cfg, 6)
        linear = harness._fit_linear(train_ds, cfg, ("softmax", "logit_adjusted"), 6)
        unit_z = as_unit_vector(test_ds.features)
        raw = np.asarray(test_ds.features, dtype=float)
        full = {
            "bape": logits(bape, unit_z),
            "bape+adjust": logits(adjust(bape, AdjustmentPolicy(ClassPriors.uniform(4))), unit_z),
            "softmax": logits(linear["softmax"], raw),
            "logit_adjusted": logits(linear["logit_adjusted"], raw),
            "oracle": logits(truth.classifier(ClassPriors.from_counts(test_ds.class_counts)), unit_z),
        }
        full["ensemble"] = 0.5 * (log_softmax(full["bape"]) + log_softmax(full["logit_adjusted"] / 0.8))
        for i, method in enumerate(METHODS):
            assert_array_equal(preds[i], full[method].argmax(axis=1))

    def test_scoring_holds_no_full_size_scores(self, monkeypatch):
        # K=100, p=128 and 200 test rows per class, the closed-form methods:
        # one (n_test, K) float64 array is 16 MB, so scores held at full size
        # fail this. The blocked pass rises about 9 MB above what it starts with.
        import spherebayes.harness as harness

        scoring = harness._predictions
        rises = []

        def measured(built, methods, config, features, seed):
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = scoring(built, methods, config, features, seed)
            rises.append(tracemalloc.get_traced_memory()[1] - held)
            return out

        monkeypatch.setattr(harness, "_predictions", measured)
        cfg = ExperimentConfig(seeds=(0,), methods=("bape", "bape+adjust", "oracle"), n_classes=100, dim=128,
                               head_size=60, gamma=10.0, kappa_range=(20.0, 200.0), test_per_class=200)
        tracemalloc.start()
        try:
            run_experiment(cfg)
        finally:
            tracemalloc.stop()
        (rise,) = rises
        assert 0 < rise < 20000 * 100 * 8

    # No np.errstate wrapper below: a leaked RuntimeWarning would fail them.
    @pytest.mark.parametrize("methods, culprit", [
        (("softmax", "ensemble"), "ensemble"),
        (("softmax", "logit_adjusted", "ensemble"), "logit_adjusted"),
        (("ensemble", "logit_adjusted"), "logit_adjusted"),
    ])
    def test_adjusted_head_divergence_names_its_method(self, methods, culprit):
        cfg = small_config(methods=methods, eta=1e300, lr=1e300)
        with pytest.raises(ExperimentError, match=rf"^method '{culprit}', seed 0: logit_adjusted head: non-finite"):
            run_experiment(cfg)

    @pytest.mark.parametrize("methods", [("ensemble", "softmax"), ("logit_adjusted", "softmax")])
    def test_softmax_head_divergence_names_softmax(self, methods):
        # eta = 0 freezes the adjusted head; the softmax head overflows.
        cfg = small_config(methods=methods, eta=0.0, lr=1e308, epochs=6, batch_size=64)
        with pytest.raises(ExperimentError, match=r"^method 'softmax', seed 0: softmax head: non-finite"):
            run_experiment(cfg)

    def test_failures_carry_method_and_seed(self, tmp_path):
        train_ds, truth = generate(LongTailSpec(3, 30, 5.0), 4, seed=0)
        other_ds, _ = generate(LongTailSpec(3, 30, 5.0), 5, seed=0)  # wrong width
        train_path, test_path = str(tmp_path / "tr.bin"), str(tmp_path / "te.bin")
        write_features(train_path, train_ds)
        write_features(test_path, other_ds)
        cfg = ExperimentConfig(
            seeds=(7,),
            methods=("bape",),
            train_file=train_path,
            test_file=test_path,
        )
        with pytest.raises(ExperimentError, match=r"'bape', seed 7"):
            run_experiment(cfg)


class TestEmitReport:
    def _rows(self):
        return [
            ReportRow(
                method="bape",
                seed=0,
                acc_all=0.9125,
                acc_many=1.0,
                acc_medium=None,
                acc_few=0.8143,
                oracle_accuracy=0.95,
                minority_collapse=-0.31,
                wall_time=0.125,
            ),
            ReportRow(
                method="oracle",
                seed=0,
                acc_all=0.95,
                acc_many=1.0,
                acc_medium=None,
                acc_few=0.9,
                oracle_accuracy=0.95,
                minority_collapse=None,
                wall_time=0.002,
            ),
        ]

    def test_json_shape_and_nulls(self):
        text = emit_report(self._rows(), fmt="json")
        doc = json.loads(text)
        assert len(doc) == 2
        assert doc[0]["method"] == "bape"
        assert doc[0]["acc_medium"] is None
        assert doc[1]["minority_collapse"] is None
        assert doc[0]["acc_all"] == 0.9125

    def test_json_is_byte_stable(self):
        assert emit_report(self._rows()) == emit_report(self._rows())

    def test_csv_layout(self):
        text = emit_report(self._rows(), fmt="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "method",
            "seed",
            "acc_all",
            "acc_many",
            "acc_medium",
            "acc_few",
            "oracle_accuracy",
            "minority_collapse",
            "wall_time",
        ]
        assert len(rows) == 3
        assert rows[1][0] == "bape"
        assert rows[1][4] == ""  # None renders as an empty cell
        assert float(rows[1][2]) == 0.9125

    def test_empty_rows(self):
        assert json.loads(emit_report([], fmt="json")) == []
        assert emit_report([], fmt="csv").strip() == ",".join(
            [
                "method",
                "seed",
                "acc_all",
                "acc_many",
                "acc_medium",
                "acc_few",
                "oracle_accuracy",
                "minority_collapse",
                "wall_time",
            ]
        )

    def test_writes_to_path(self, tmp_path):
        path = tmp_path / "report.json"
        text = emit_report(self._rows(), fmt="json", path=path)
        assert path.read_text() == text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self._rows(), fmt="yaml")
