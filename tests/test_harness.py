"""Tests for the experiment runner: splits, configs, m0 gradients, reports."""

import csv
import gc
import io
import json
import math
import re
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp

from spherebayes.baselines import LinearClassifier, TrainConfig, _train_heads, predict_linear, train
from spherebayes.classifier import (
    AdjustmentPolicy,
    BayesClassifier,
    ClassPriors,
    _fit_stats,
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
    MixtureGroundTruth,
    _fill_draw,
    class_sizes,
    generate,
    make_truth,
    read_features,
    sample_dataset,
    write_features,
)
from spherebayes.estimation import (
    ClassStats,
    PosteriorSpec,
    class_posteriors,
    concentrations,
    map_estimate,
    update_stats,
)
from spherebayes.harness import (
    METHODS,
    ExperimentConfig,
    ExperimentError,
    ExperimentMemoryError,
    ReportRow,
    _BLOCK,
    _HAND_OFF_VALUES,
    _Scratch,
    _blocks,
    _m0_gradients,
    _predictions,
    emit_report,
    m0_loss_gradients,
    run_experiment,
    split_accuracy,
)
from spherebayes.cli import main
from spherebayes.priors import EtfFrame, build_etf, grad_step_m0
from spherebayes.special import log_vmf_normalizer, mean_resultant_ratio
from spherebayes.vmf import _unit_norms, as_unit_vector, substream


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
        # The adjustment settings and the centre mode are checked at load,
        # whatever the methods: a bogus kappa_mode failed only after the data
        # and the bape fit, and only with bape+adjust listed.
        for bad, message in [
            ({"methods": ["bape"], "kappa_mode": "bogus"}, "unknown kappa_mode 'bogus'"),
            ({"kappa_mode": "keep", "fixed_kappa": 5}, "fixed_kappa is only meaningful"),
            ({"kappa_mode": "shared_mean", "fixed_kappa": 5.0}, "fixed_kappa is only meaningful"),
            ({"kappa_mode": "fixed"}, "requires 0 < fixed_kappa <= 1e[+]06, got None"),
            ({"kappa_mode": "fixed", "fixed_kappa": 0.0}, "requires 0 < fixed_kappa"),
            ({"kappa_mode": "fixed", "fixed_kappa": math.inf}, "requires 0 < fixed_kappa"),
            ({"kappa_mode": "fixed", "fixed_kappa": 2e6}, "requires 0 < fixed_kappa"),
            ({"kappa_mode": "fixed", "fixed_kappa": math.nan}, "requires 0 < fixed_kappa"),
            ({"center_mode": "grid"}, "unknown center_mode 'grid'"),
        ]:
            with pytest.raises(ValueError, match=message):
                ExperimentConfig.from_dict(bad)
        ExperimentConfig.from_dict({"kappa_mode": "fixed", "fixed_kappa": 5, "center_mode": "etf"})
        # integer values load for real-valued keys and pairs
        ExperimentConfig.from_dict({"gamma": 100, "eta": 0, "kappa_range": [5, 50], "thresholds": [20, 100]})
        # files are fine once the oracle is dropped
        ExperimentConfig(
            train_file="x.bin", test_file="y.bin", methods=("bape", "softmax")
        )


    def test_domains_are_checked_only_where_they_apply(self):
        # m0_lr is read only by the m0 steps, and kappa_range only by the
        # generator; a seed of any size works, so only counts are bounded.
        ExperimentConfig(m0_steps=0, m0_lr=math.nan)
        ExperimentConfig(train_file="x.bin", test_file="y.bin", methods=("bape",), kappa_range=(5.0, 2e6))
        ExperimentConfig(seeds=(10**20,))
        with pytest.raises(ValueError, match="m0_lr must be positive and finite when m0_steps > 0, got nan"):
            ExperimentConfig(m0_steps=1, m0_lr=math.nan)
        with pytest.raises(ValueError, match="kappa_range must satisfy 0 < lo <= hi"):
            ExperimentConfig(kappa_range=(5.0, 2e6))
        with pytest.raises(ValueError, match="n_classes must be below 2[*][*]63"):
            ExperimentConfig(n_classes=2**63)

    def test_test_per_class_is_checked_for_generated_data_only(self):
        # File-backed configs never read test_per_class; a value of the
        # wrong kind still fails, since every key's kind is checked.
        cfg = ExperimentConfig(train_file="a", test_file="b", methods=("bape",), test_per_class=0)
        assert cfg.test_per_class == 0
        with pytest.raises(ValueError, match="test_per_class must be >= 1, got 0"):
            ExperimentConfig(methods=("bape",), test_per_class=0)
        with pytest.raises(ValueError, match="test_per_class must be an integer"):
            ExperimentConfig(train_file="a", test_file="b", methods=("bape",), test_per_class=2.5)

    def test_real_fields_load_as_floats(self):
        cfg = ExperimentConfig.from_dict({"gamma": 10**20, "eta": 1, "fixed_kappa": 5, "kappa_mode": "fixed",
                                          "kappa_range": [5, 50]})
        assert (cfg.gamma, cfg.eta, cfg.fixed_kappa, cfg.kappa_range) == (1e20, 1.0, 5.0, (5.0, 50.0))
        assert all(type(v) is float for v in (cfg.gamma, cfg.eta, cfg.fixed_kappa, *cfg.kappa_range))
        with pytest.raises(ValueError, match="eta must be within the float range"):
            ExperimentConfig(eta=10**400)

    # What a value of another kind is told, for each key that holds no integer.
    WRONG_KIND = {
        "methods": "methods must be a string, got 5",
        "gamma": "gamma must be a real number, got '100'",
        "kappa_range": "kappa_range must be a pair of real numbers, got '5,50'",
        "center_mode": "center_mode must be a string, got ['etf']",
        "train_file": "train_file must be a file path, got 5",
        "test_file": "test_file must be a file path, got True",
        "alpha_hat": "alpha_hat must be a real number, got '0'",
        "beta_hat": "beta_hat must be a real number, got [0.5]",
        "estimation": "estimation must be a string, got ['exact']",
        "kappa_mode": "kappa_mode must be a string, got ['keep']",
        "fixed_kappa": "fixed_kappa must be a real number, got '5'",
        "m0_lr": "m0_lr must be a real number, got '0.1'",
        "eta": "eta must be a real number, got '1'",
        "lr": "lr must be a real number, got '0.5'",
        "weight_decay": "weight_decay must be a real number, got '0'",
        "temperature": "temperature must be a real number, got '1'",
        "normalize": "normalize must be true or false, got 1",
        "thresholds": "thresholds must be a pair of real numbers, got '20,100'",
    }

    # A value of the wrong kind for every key.
    KIND_CASES = [
        ("seeds", [0.5]),
        ("seeds", [True]),
        ("n_classes", 2.5),
        ("dim", 32.0),
        ("head_size", 2.5),
        ("test_per_class", "200"),
        ("m0_steps", True),
        ("epochs", 2.5),
        ("batch_size", False),
        ("methods", ["bape", 5]),
        ("gamma", "100"),
        ("kappa_range", "5,50"),
        ("center_mode", ["etf"]),
        ("train_file", 5),
        ("test_file", True),
        ("alpha_hat", "0"),
        ("beta_hat", [0.5]),
        ("estimation", ["exact"]),
        ("kappa_mode", ["keep"]),
        ("fixed_kappa", "5"),
        ("m0_lr", "0.1"),
        ("eta", "1"),
        ("lr", "0.5"),
        ("weight_decay", "0"),
        ("temperature", "1"),
        ("normalize", 1),
        ("thresholds", "20,100"),
    ]

    @pytest.mark.parametrize("key, value", KIND_CASES)
    def test_integer_fields_reject_other_values(self, key, value, tmp_path, capsys, monkeypatch):
        # Every key's kind is checked at load, before any data is drawn.
        import spherebayes.datagen as datagen
        import spherebayes.harness as harness

        message = self.WRONG_KIND.get(key, f"{key} must be an integer")
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict({key: value})

        def no_data(*args):
            raise AssertionError("data generated for an invalid config")

        for module in (datagen, harness):
            monkeypatch.setattr(module, "generate", no_data)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_every_key_has_a_kind_case(self):
        assert {key for key, _ in self.KIND_CASES} == {f.name for f in fields(ExperimentConfig)}

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
        excluded = betas == 0.0
        kappas = concentrations(p, np.divide(betas, alphas, out=np.zeros(len(betas)), where=~excluded), mode)
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
        excluded = betas == 0.0
        kappas = concentrations(p, np.divide(betas, alphas, out=np.zeros(len(betas)), where=~excluded), mode)
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
        # 4200 or 4202 rows: eight full blocks and a partial one
        pytest.param(False, 25, id="False-blocks"),
        pytest.param(True, 25, id="True-blocks"),
    ])
    def test_close_to_out_of_place_formula(self, mode, with_excluded, scale):
        truth = make_truth(6, 9, (8.0, 40.0), center_mode="random", seed=12)
        sizes = [90 * scale, 40 * scale, 25 * scale, 9 * scale, 4 * scale, 0 if with_excluded else 2]
        ds = sample_dataset(truth, sizes, 12)
        feats = as_unit_vector(ds.features)
        counts, resultants = class_stats(feats, ds.labels, 6, np.ones(ds.n))
        priors = ClassPriors.from_counts(counts)
        args = (build_etf(6, 9, 13), counts, resultants, 1.0, 0.5, priors, feats, ds.labels, mode)
        assert (ds.n > 8 * _BLOCK and ds.n % _BLOCK) if scale > 1 else ds.n < _BLOCK
        got = self._fitted_gradient(*args)
        if with_excluded:
            assert np.all(got[5] == 0.0)
        self._assert_close(got, self._out_of_place_gradient(*args))

    @staticmethod
    def _fitted_gradient(frame, counts, resultants, alpha_hat, beta_hat, priors, z, labels, mode):
        # `_m0_gradients` of the classifier fitted at `frame`, whose priors
        # are those the references are given.
        fitted = _fit_stats(counts, resultants, alpha_hat, beta_hat, frame.vectors, mode, "exclude")
        assert_array_equal(fitted.priors.pi, priors.pi)
        return _m0_gradients(fitted, beta_hat, z, np.ones(len(labels)), labels, mode)

    @staticmethod
    def _assert_close(got, expected):
        # The blocked pass sums over rows in another order than the full-size
        # formula and reaches the beta route through m_k.T zsum_k - A_k psum_k:
        # the same gradient up to rounding, within 1e-12 of its largest entry.
        assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @staticmethod
    def _lt_exact_m0_args():
        # The lt-exact-m0 benchmark shape on seed 11 (K = 100, p = 128,
        # 10899 rows: 21 full blocks and a partial one) and its first frame.
        seed = 11
        train, _ = generate(LongTailSpec(100, 500, 100.0), 128, (20.0, 200.0), "random", seed)
        feats = as_unit_vector(train.features)
        counts, resultants = class_stats(feats, train.labels, 100, np.ones(train.n))
        frame = build_etf(100, 128, int(substream(seed, 4).integers(2**63 - 1)))
        assert train.n > 21 * _BLOCK and train.n % _BLOCK
        return frame, counts, resultants, 1.0, 0.5, ClassPriors.from_counts(counts), feats, train.labels, "exact"

    def test_close_to_out_of_place_formula_on_lt_exact_m0_data(self):
        # Through the three prior-direction steps the benchmark's fit takes.
        frame, *rest = self._lt_exact_m0_args()
        for _ in range(3):
            got = self._fitted_gradient(frame, *rest)
            self._assert_close(got, self._out_of_place_gradient(frame, *rest))
            frame = grad_step_m0(frame, got, 0.1)

    def test_holds_no_full_size_array(self):
        # One (n_train, K) float64 array is 8.7 MB at this shape; the blocked
        # pass keeps O(block * (p + K)) scratch and peaks near 1.5 MB.
        frame, counts, resultants, alpha_hat, beta_hat, _, z, labels, mode = self._lt_exact_m0_args()
        fitted = _fit_stats(counts, resultants, alpha_hat, beta_hat, frame.vectors, mode, "exclude")
        tracemalloc.start()
        try:
            _m0_gradients(fitted, beta_hat, z, np.ones(len(labels)), labels, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(labels) * 100 * 8

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    @pytest.mark.parametrize("with_excluded", [False, True])
    def test_float32_rows_and_norms_equal_the_unit_copy(self, mode, with_excluded):
        # `_fit_bape` passes the float32 training rows and their norms; each
        # block divided into the pass's buffer is bitwise those rows of
        # as_unit_vector's copy, so the gradient is bitwise its gradient.
        truth = make_truth(6, 9, (8.0, 40.0), center_mode="random", seed=12)
        ds = sample_dataset(truth, [2250, 1000, 625, 225, 100, 0 if with_excluded else 50], 12)
        norms, feats = _unit_norms(ds.features), as_unit_vector(ds.features)
        counts, resultants = class_stats(ds.features, ds.labels, 6, norms)
        assert ds.features.dtype == np.float32 and ds.n > 2 * _BLOCK and ds.n % _BLOCK
        assert np.array_equal(resultants, class_stats(feats, ds.labels, 6, np.ones(ds.n))[1])
        fitted = _fit_stats(counts, resultants, 1.0, 0.5, build_etf(6, 9, 13).vectors, mode, "exclude")
        assert fitted.excluded == ((5,) if with_excluded else ())
        got = _m0_gradients(fitted, 0.5, ds.features, norms, ds.labels, mode)
        assert np.array_equal(got, _m0_gradients(fitted, 0.5, feats, np.ones(ds.n), ds.labels, mode))

    def test_fit_makes_no_float64_copy_of_the_training_rows(self):
        # The lt-exact-m0 benchmark's fit: K = 100, p = 128, 10899 rows and
        # three exact m0 steps. A float64 copy of the rows is 11.2 MB; the
        # fit reads them a block at a time and peaks near 2.0 MB.
        import spherebayes.harness as harness

        cfg = ExperimentConfig(methods=("bape",), n_classes=100, dim=128, head_size=500, gamma=100.0,
                               kappa_range=(20.0, 200.0), alpha_hat=1.0, beta_hat=0.5, estimation="exact",
                               m0_steps=3, seeds=(11,))
        train = harness._load_data(cfg, 11)[0]
        tracemalloc.start()
        try:
            harness._fit_bape(train, cfg, 11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < train.n * train.dim * 8

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_each_step_differentiates_the_fit_at_its_frame(self, monkeypatch, mode):
        # `_fit_bape` is a loop of fit, gradient, step: each m0 step gets the
        # very classifier `_fit_stats` returned at the frame it moves, and the
        # fit at the last frame is the one returned.
        import spherebayes.harness as harness

        fits, steps, moved = [], [], []

        def fit_stats(*args, **kwargs):  # args[4] holds the prior directions
            fits.append((args[4], _fit_stats(*args, **kwargs)))
            return fits[-1][1]

        def gradients(fitted, *args):
            steps.append(fitted)
            return _m0_gradients(fitted, *args)

        def step(frame, *args):  # the frame each gradient moves
            moved.append(frame)
            return grad_step_m0(frame, *args)

        monkeypatch.setattr(harness, "_fit_stats", fit_stats)
        monkeypatch.setattr(harness, "_m0_gradients", gradients)
        monkeypatch.setattr(harness, "grad_step_m0", step)
        cfg = small_config(seeds=(6,), methods=("bape",), alpha_hat=1.0, beta_hat=0.5, m0_steps=3, estimation=mode)
        train_ds = harness._load_data(cfg, 6)[0]
        fitted = harness._fit_bape(train_ds, cfg, 6)
        assert len(fits) == 4 and len(steps) == 3 and len(moved) == 3
        for (directions, fit), stepped, frame in zip(fits, steps, moved):
            assert stepped is fit and directions is frame.vectors
        assert fitted is fits[-1][1]
        assert not np.array_equal(fits[-1][0], fits[0][0])

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


@pytest.mark.parametrize("n, p, k", [(20000, 128, 100), (4000, 32, 20), (8 * _BLOCK + 5, 6, 3)])
def test_blocked_product_is_bitwise_the_full_product(n, p, k):
    # The scoring pass and the m0 gradient take z @ W.T a block of rows at a
    # time, in blocks of their own sizes. BLAS does not promise that a
    # block's rows equal those rows of the full product; every shape here
    # ends in a partial gradient block, and the first two in a partial
    # scoring block (299 and 1365 rows).
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, p))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    w = 30.0 * rng.standard_normal((k, p))
    assert_array_equal(np.concatenate([z[rows] @ w.T for rows in _blocks(n)]), z @ w.T)
    block = _Scratch(0, p, k, 1).block
    assert_array_equal(np.concatenate([z[start:start + block] @ w.T for start in range(0, n, block)]), z @ w.T)


def _scoring_rise(monkeypatch, config: ExperimentConfig) -> int:
    """How far traced memory rises above its start in the scoring pass of a
    one-seed run of `config`."""
    import spherebayes.harness as harness

    scoring = harness._predictions
    rises = []

    def measured(built, methods, temperature, features, charged, pool):
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = scoring(built, methods, temperature, features, charged, pool)
        rises.append(tracemalloc.get_traced_memory()[1] - held)
        return out

    monkeypatch.setattr(harness, "_predictions", measured)
    tracemalloc.start()
    try:
        run_experiment(config)
    finally:
        tracemalloc.stop()
    (rise,) = rises
    return rise


# K=100, p=128 and 200 test rows per class, the closed-form methods.
_CLOSED_FORM_SCORING = dict(seeds=(0,), methods=("bape", "bape+adjust", "oracle"), n_classes=100, dim=128,
                            head_size=60, gamma=10.0, kappa_range=(20.0, 200.0), test_per_class=200)


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


def wide_dim(rows: int) -> int:
    """The smallest dim at which a step over `rows` rows reaches _HAND_OFF_VALUES:
    a draw of `rows` rows, and a scoring pass of as many test rows, is then
    shared with the worker."""
    return -(-_HAND_OFF_VALUES // rows)


def handed_off(**overrides):
    """small_config with a test draw, and so a scoring pass, wide enough to be
    shared with the worker: 4 * test_per_class rows of 64 values."""
    return small_config(**{"dim": 64, "test_per_class": -(-_HAND_OFF_VALUES // (4 * 64)), **overrides})


# The rows of split_config's training draw.
_SPLIT_TRAIN_ROWS = sum(class_sizes(LongTailSpec(8, 1500, 10.0)))


def split_config(**overrides):
    """A config whose every step is shared with the worker: a training draw of
    4966 rows and a test draw of 8 * test_per_class rows, each wide enough to
    reach _HAND_OFF_VALUES."""
    dim = wide_dim(_SPLIT_TRAIN_ROWS)
    return small_config(**{"n_classes": 8, "dim": dim, "head_size": 1500,
                           "test_per_class": -(-_HAND_OFF_VALUES // (8 * dim)), "epochs": 2, **overrides})


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
        train_ds, draw_test, truth = seen["data"]
        test_ds = draw_test()
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
        train_ds, draw_test, _ = harness._load_data(cfg, 2)
        test_ds = draw_test()
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
        # and score with their own call. The rows are just wide enough for
        # the pass to be shared with the worker. The pass sees one array per
        # block (four per half of the rows here, the last partial), in method
        # order with the oracle last; each method's blocks are compared
        # concatenated, this thread's half first. Only the scoring pass is
        # spied on: the m0 step of the fit scores with its own call too.
        import spherebayes.harness as harness

        calls, own_calls = [], []
        scoring_pass = harness._predictions

        def spied_scoring_pass(*args):
            with monkeypatch.context() as spy:
                spy.setattr(harness, "logits", lambda head, z, **kw: own_calls.append(
                    (threading.get_ident(), head)) or logits(head, z, **kw))
                return scoring_pass(*args)

        monkeypatch.setattr(harness, "top_class", lambda s: calls.append(
            (threading.get_ident(), s.copy())) or s.argmax(axis=-1))
        monkeypatch.setattr(harness, "_predictions", spied_scoring_pass)
        dim = wide_dim(12000) - 4
        cfg = small_config(seeds=(4,), methods=("bape", "bape+adjust", "ensemble"), kappa_mode=kappa_mode,
                           fixed_kappa=fixed_kappa, alpha_hat=1.0, beta_hat=0.5, m0_steps=1, test_per_class=3000,
                           dim=dim)
        run_experiment(cfg)
        # Each thread's calls in its own order, this thread's first.
        calls, own_calls = ([call for _, call in sorted(seen, key=lambda c: c[0] != threading.get_ident())]
                            for seen in (calls, own_calls))
        n_blocks = len(calls) // 4
        assert n_blocks == 2 * math.ceil(6000 / _Scratch(6000, dim, 4, 2).block) == 8 and len(calls) == 4 * n_blocks
        scores = [np.concatenate(calls[i::4]) for i in range(4)]
        train_ds, draw_test, _ = harness._load_data(cfg, 4)
        test_ds = draw_test()
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
        monkeypatch.setattr(harness, "logits", lambda head, z, **kw: seen.append(
            (threading.get_ident(), head, z.copy())) or logits(head, z, **kw))
        dim = wide_dim(12000) - 4  # just wide enough for the pass to be shared with the worker
        cfg = small_config(seeds=(2,), methods=("ensemble",), normalize=True, test_per_class=3000, dim=dim)
        run_experiment(cfg)
        rows = np.asarray(harness._load_data(cfg, 2)[1]().features, dtype=float)
        seen.sort(key=lambda call: call[0] != threading.get_ident())  # this thread's half first
        blocks = [z for _, head, z in seen if isinstance(head, LinearClassifier)]
        assert len({ident for ident, head, _ in seen if isinstance(head, LinearClassifier)}) == 2
        assert len(blocks) == 2 * math.ceil(6000 / _Scratch(6000, dim, 4, 2).block) == 8  # four per half of 12000 rows
        linear_z = np.concatenate(blocks)
        assert not np.array_equal(linear_z, rows)  # the float32 rows are off the sphere in their last bits
        assert_array_equal(linear_z, rows / np.linalg.norm(rows, axis=1, keepdims=True))

    @pytest.mark.parametrize("test_per_class, wide", [
        pytest.param(1, False, id="1"), pytest.param(1100, False, id="1100"), pytest.param(3000, False, id="3000"),
        pytest.param(1100, True, id="1100-halves"), pytest.param(3000, True, id="3000-halves")])
    def test_blocked_predictions_equal_full_array_scores(self, monkeypatch, test_per_class, wide):
        # One row per class; 4400 rows; and 12000 rows. At small_config's
        # width all are scored on this thread, 4400 rows in one partial block
        # and 12000 in two full blocks and a partial one. Widened just enough
        # for the pass to reach the rule, each is scored in two halves, one
        # per thread, each ending in a partial block.
        # Each method's predictions must be the argmax of its own logits
        # taken on all the rows at once.
        import spherebayes.harness as harness

        preds = {}

        def scored(predictions, *args, **kwargs):
            preds[len(preds)] = predictions
            return split_accuracy(predictions, *args, **kwargs)

        monkeypatch.setattr(harness, "split_accuracy", scored)
        n = 4 * test_per_class
        dim = wide_dim(n) - 4 if wide else 6
        cfg = small_config(seeds=(6,), methods=METHODS, test_per_class=test_per_class, alpha_hat=1.0, beta_hat=0.5,
                           m0_steps=1, temperature=0.8, epochs=2, dim=dim)
        assert harness._hand_off(n, dim + 4) == wide
        rows = (n + 1) // 2 if wide else n  # the rows of each part
        assert rows % _Scratch(rows, dim, 4, 2).block  # each part ends in a partial block
        run_experiment(cfg)
        train_ds, draw_test, truth = harness._load_data(cfg, 6)
        test_ds = draw_test()
        assert test_ds.n == n
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
        # fail this. The blocked pass rises about 6 MB above what it starts with.
        assert 0 < _scoring_rise(monkeypatch, ExperimentConfig(**_CLOSED_FORM_SCORING)) < 20000 * 100 * 8

    def test_scoring_keeps_only_the_scores_a_method_reads(self, monkeypatch):
        # The same pass. Each thread holds one rows buffer, bape's product and
        # one score buffer (no method here has two heads) for a block of 299
        # rows, 0.8 MB; the predictions take 0.5 MB, and the pass rises about
        # 2.2 MiB. A pass that kept every head's scores for the block rose
        # 8.8 MiB in blocks of 1024 rows.
        assert 0 < _scoring_rise(monkeypatch, ExperimentConfig(**_CLOSED_FORM_SCORING)) < 3 * 2**20

    @pytest.mark.parametrize("temperature", [1.0, 0.5])
    def test_ensemble_scores_in_place(self, monkeypatch, temperature):
        # lt-default's shape: K=20, p=32, all six methods and 4000 test rows,
        # too few to share with the worker, so this thread scores them in
        # blocks of 1068. The pass may hold its scratch (786 KB), the
        # predictions (192 KB), one logsumexp's transient, as measured here
        # (285 KB with scipy 1.17), and a margin of 64 KiB for Python objects
        # and allocator noise: 1.33 MB. The pass rises about 1.27 MB; each
        # (block, K) float64 temporary of an ensemble scored out of place
        # would add 171 KB, so the margin must stay below that.
        cfg = ExperimentConfig(seeds=(0,), epochs=2, temperature=temperature)
        n, p, k = cfg.n_classes * cfg.test_per_class, cfg.dim, cfg.n_classes
        assert n * (p + k) < _HAND_OFF_VALUES
        scratch = _Scratch(n, p, k, 2)
        held = sum(a.nbytes for a in (scratch.rows, scratch.product, *scratch.scores))
        preds = len(METHODS) * n * np.dtype(np.intp).itemsize
        block = np.zeros((scratch.block, k))
        log_softmax(block, out=block)
        tracemalloc.start()
        try:
            log_softmax(block, out=block)
            _, logsumexp_transient = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < _scoring_rise(monkeypatch, cfg) < held + preds + logsumexp_transient + 64 * 1024

    def test_scoring_scratch_is_sized_in_bytes(self):
        # K=1000, p=256 and 4096 test rows, one bape head. Blocks of 1024
        # rows held 2 x 1024 x (256 + 2000) float64 on the two threads, 37
        # MB; blocks sized to about 768 KiB of scratch are 128 rows here, and
        # the pass peaks near 4.9 MB.
        rng = np.random.default_rng(26)
        mus = rng.standard_normal((1000, 256))
        clf = BayesClassifier(mus / np.linalg.norm(mus, axis=1, keepdims=True), rng.uniform(20.0, 200.0, 1000),
                              ClassPriors.uniform(1000))
        z = rng.standard_normal((4096, 256))
        z = (z / np.linalg.norm(z, axis=1, keepdims=True)).astype(np.float32)
        built = {"bape": clf, "unit": _unit_norms(z)}
        assert _Scratch(2048, 256, 1000, 1).block == 128
        with ThreadPoolExecutor(max_workers=1) as pool:
            tracemalloc.start()
            try:
                preds, _ = _predictions(built, ("bape",), 1.0, z, nullcontext, pool)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert_array_equal(preds["bape"], logits(clf, as_unit_vector(z)).argmax(axis=1))
        assert peak < 6e6

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

    def test_out_of_memory_in_a_fit_is_both_a_memory_and_an_experiment_error(self):
        # numpy refuses 10**18 epochs' schedule at once, so nothing is allocated.
        cfg = ExperimentConfig(seeds=(0,), methods=("softmax",), n_classes=3, dim=4, head_size=5,
                               test_per_class=1, epochs=10**18)
        with pytest.raises(ExperimentMemoryError, match=r"^method 'softmax', seed 0: ") as info:
            run_experiment(cfg)
        assert isinstance(info.value, ExperimentError) and isinstance(info.value, MemoryError)
        assert isinstance(info.value.__cause__, MemoryError)

    def test_head_is_built_before_its_test_rows_are_checked(self, tmp_path):
        # One sample per class under alpha_hat = 0 leaves every kappa
        # unbounded, and the test rows are off the sphere: the fit fails
        # first. (The rows were checked first, and the run reported them.)
        train_ds, _ = generate(LongTailSpec(3, 1, 1.0), 4, seed=0)
        test_ds, _ = generate(LongTailSpec(3, 10, 1.0), 4, seed=1)
        train_path, test_path = str(tmp_path / "tr.bin"), str(tmp_path / "te.bin")
        write_features(train_path, train_ds)
        write_features(test_path, Dataset(2.0 * test_ds.features, test_ds.labels, test_ds.class_counts))
        for methods in (("bape",), ("ensemble",)):
            cfg = ExperimentConfig(methods=methods, train_file=train_path, test_file=test_path, epochs=2)
            with pytest.raises(ExperimentError, match=rf"^method '{methods[0]}', seed 0: every class is degenerate"):
                run_experiment(cfg)
        cfg = ExperimentConfig(methods=("bape",), train_file=train_path, test_file=test_path, alpha_hat=1.0)
        with pytest.raises(ExperimentError, match=r"^method 'bape', seed 0: vector is off the unit sphere"):
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


class InlineExecutor:
    """ThreadPoolExecutor's stand-in: runs each call when it is submitted, on
    the calling thread, as the run did before it had a worker."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class TestTestSetDraw:
    """A test set of at least _HAND_OFF_VALUES values is drawn on a worker
    thread while the heads are fitted; a smaller one on the calling thread,
    before them."""

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(seeds=(1,), methods=("bape", "bape+adjust", "oracle"), n_classes=100, dim=128,
                         head_size=500, kappa_range=(20.0, 200.0), alpha_hat=1.0, beta_hat=0.5,
                         estimation="exact", m0_steps=3),
        ExperimentConfig(seeds=(1,), n_classes=20, dim=32, head_size=500, epochs=30),
        small_config(seeds=(3, 1, 4), alpha_hat=1.0, beta_hat=0.5, m0_steps=2),
        split_config(seeds=(3, 1, 4), alpha_hat=1.0, beta_hat=0.5, m0_steps=2),  # each training draw split
        # Test rows just wide enough to be drawn and scored with the worker:
        small_config(test_per_class=100, dim=wide_dim(400)),  # 400 rows: a full 128-row block and a partial one a half
        small_config(n_classes=3, test_per_class=683, dim=wide_dim(2049)),  # 2049 rows: this thread's half a row longer
        small_config(test_per_class=768, dim=wide_dim(3072)),  # 3072 rows: three blocks per half
        # and one value narrower: all on this thread.
        small_config(test_per_class=768, dim=wide_dim(3072) - 5),  # 3072 rows of p + K values, one short of a share
        split_config(test_per_class=1, dim=wide_dim(_SPLIT_TRAIN_ROWS) - 1),  # a training draw one short of a split
    ], ids=["lt-exact-m0", "lt-default", "three-seeds", "three-split-seeds", "partial-block", "odd-half-blocks",
            "three-half-blocks", "pass-on-one-thread", "training-draw-on-one-thread"])
    def test_reports_equal_an_inline_draw(self, monkeypatch, cfg):
        import spherebayes.harness as harness

        threads = []

        def fill(*args):
            threads.append(threading.current_thread())
            return _fill_draw(*args)

        monkeypatch.setattr(harness, "_fill_draw", fill)
        threaded = run_experiment(cfg)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlineExecutor)
        inline = run_experiment(cfg)
        n = len(cfg.seeds)
        assert len(threads) == 2 * n
        if cfg.n_classes * cfg.test_per_class * cfg.dim >= _HAND_OFF_VALUES:
            assert threading.current_thread() not in threads[:n]
        else:
            assert threads[:n] == [threading.current_thread()] * n
        assert threads[n:] == [threading.current_thread()] * n
        assert emit_report([replace(r, wall_time=0.0) for r in threaded]) == emit_report(
            [replace(r, wall_time=0.0) for r in inline])

    def test_no_worker_outlives_the_run(self, monkeypatch):
        import spherebayes.harness as harness

        before = set(threading.enumerate())
        run_experiment(small_config(seeds=(0, 1)))
        assert set(threading.enumerate()) <= before
        run_experiment(split_config(seeds=(0, 1)))  # each training draw split, each test set scored in halves
        assert set(threading.enumerate()) <= before
        for cfg in (small_config(methods=("bape",), head_size=1), handed_off(methods=("bape",), head_size=1)):
            with pytest.raises(ExperimentError, match="every class is degenerate"):
                run_experiment(cfg)
            assert set(threading.enumerate()) <= before
        monkeypatch.setattr(harness, "_fill_draw", lambda *args: 1 / 0)
        for cfg in (small_config(), handed_off()):
            with pytest.raises(ZeroDivisionError):
                run_experiment(cfg)
            assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("cfg", [ExperimentConfig(seeds=(0, 1), epochs=2), small_config(seeds=(0, 1))],
                             ids=["lt-default", "small"])
    def test_a_run_of_small_steps_starts_no_thread(self, monkeypatch, cfg):
        # lt-default's steps: a training draw of 2,304 x 32 values, a test
        # draw of 4,000 x 32 and a pass of 4,000 x (32 + 20), each at least
        # twice as small as _HAND_OFF_VALUES.
        import spherebayes.harness as harness

        train_rows = sum(class_sizes(LongTailSpec(cfg.n_classes, cfg.head_size, cfg.gamma)))
        test_rows = cfg.n_classes * cfg.test_per_class
        assert 2 * max(train_rows * cfg.dim, test_rows * (cfg.dim + cfg.n_classes)) <= _HAND_OFF_VALUES
        before, during = threading.enumerate(), []
        score_rows = harness._score_rows
        monkeypatch.setattr(harness, "_score_rows", lambda *args: during.append(threading.enumerate()) or score_rows(
            *args))
        threaded = run_experiment(cfg)
        assert during == [before] * len(cfg.seeds) and threading.enumerate() == before

        class NoSubmit(InlineExecutor):
            def submit(self, fn, *args):
                raise AssertionError("a step was handed to the worker")

        monkeypatch.setattr(harness, "ThreadPoolExecutor", NoSubmit)
        inline = run_experiment(cfg)
        assert [replace(r, wall_time=0.0) for r in inline] == [replace(r, wall_time=0.0) for r in threaded]

    def test_a_failed_fit_waits_for_the_draw(self, monkeypatch):
        import spherebayes.harness as harness

        drawn = []

        def slow_fill(*args):
            time.sleep(0.2)
            drawn.append(_fill_draw(*args))
            return drawn[-1]

        monkeypatch.setattr(harness, "_fill_draw", slow_fill)
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(ExperimentError, match="every class is degenerate"):
                harness._run_seed(handed_off(methods=("bape",), head_size=1), 0, pool)
            assert len(drawn) == 1

    def test_the_wait_for_the_draw_is_charged_to_no_method(self, monkeypatch):
        # bape's fit of these few rows takes milliseconds, the draw half a second.
        import spherebayes.harness as harness

        def slow_fill(*args):
            time.sleep(0.5)
            return _fill_draw(*args)

        monkeypatch.setattr(harness, "_fill_draw", slow_fill)
        started = time.perf_counter()
        (row,) = run_experiment(handed_off(methods=("bape",)))
        assert time.perf_counter() - started >= 0.5
        assert row.wall_time < 0.25


class TestWorkOnTwoThreads:
    """A scoring pass, and a training draw, of at least _HAND_OFF_VALUES
    values are split between the calling thread and the run's worker."""

    def test_one_test_row_equals_an_inline_run(self, tmp_path, monkeypatch):
        import spherebayes.harness as harness

        train_ds, truth = generate(LongTailSpec(4, 60, 10.0), 6, seed=3)
        test_ds = sample_dataset(truth, [1, 0, 0, 0], seed=3, stream=3)
        paths = [str(tmp_path / "tr.bin"), str(tmp_path / "te.bin")]
        write_features(paths[0], train_ds)
        write_features(paths[1], test_ds)
        cfg = ExperimentConfig(methods=METHODS[:-1], train_file=paths[0], test_file=paths[1], epochs=2)
        threaded = run_experiment(cfg)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlineExecutor)
        inline = run_experiment(cfg)
        assert emit_report([replace(r, wall_time=0.0) for r in threaded]) == emit_report(
            [replace(r, wall_time=0.0) for r in inline])

    def test_each_half_is_scored_on_its_own_thread(self, monkeypatch):
        import spherebayes.harness as harness

        halves = []
        score_rows = harness._score_rows

        def recorded(*args):
            halves.append((threading.current_thread(), args[6]))
            return score_rows(*args)

        monkeypatch.setattr(harness, "_score_rows", recorded)
        run_experiment(small_config(test_per_class=501, dim=wide_dim(2004) - 4))  # 2004 rows of p + K values
        here = threading.current_thread()
        (first, first_rows), (second, second_rows) = sorted(halves, key=lambda half: half[1].start)
        assert first is here and second is not here
        assert (first_rows, second_rows) == (range(0, 1002), range(1002, 2004))

    @pytest.mark.parametrize("methods", [("bape",), ("softmax", "ensemble"), ("bape+adjust", "oracle")])
    def test_the_oracle_is_built_once_before_the_pass(self, monkeypatch, methods):
        # An unlisted oracle is scored for oracle_accuracy: it and the unit
        # norms it reads are built on this thread, before either half runs.
        import spherebayes.harness as harness

        builds, norms = [], []
        classifier = MixtureGroundTruth.classifier
        monkeypatch.setattr(MixtureGroundTruth, "classifier",
                            lambda truth, priors=None: builds.append(threading.current_thread()) or classifier(
                                truth, priors))
        monkeypatch.setattr(harness, "_unit_norms",
                            lambda features: norms.append((threading.current_thread(), len(features)))
                            or _unit_norms(features))
        run_experiment(small_config(methods=methods, test_per_class=600, dim=wide_dim(2400) - 4))
        # Each of these runs fits bape, which takes its training rows' norms
        # once, on this thread; every other call is counted.
        norms.remove((threading.current_thread(), sum(class_sizes(LongTailSpec(4, 40, 10.0)))))
        builds += [thread for thread, _ in norms]
        assert builds == [threading.current_thread()] * 2

    @pytest.mark.parametrize("methods, failures, culprit", [
        (METHODS, (("oracle", 1500),), ("oracle", "oracle", 1500)),  # the second half only
        (METHODS, (("logit_adjusted", 100),), ("logit_adjusted", "logit_adjusted", 100)),  # the first half only
        (METHODS, (("bape", 1500), ("oracle", 100)), ("oracle", "oracle", 100)),  # both: the first half's first
        (METHODS, (("bape", 100), ("bape+adjust", 100)), ("bape", "bape", 100)),  # one block: method order
        (("bape", "ensemble", "logit_adjusted"), (("logit_adjusted", 1500),),  # the first method to read it
         ("ensemble", "logit_adjusted", 1500)),
    ])
    def test_an_error_in_either_half_names_the_serial_method(self, monkeypatch, methods, failures, culprit):
        # 2200 test rows: this thread scores rows 0-1099, the worker 1100-2199.
        # The worker's half is slowed down; the error waits for it.
        import spherebayes.harness as harness

        head_scores, score_rows, ended = harness._head_scores, harness._score_rows, []

        def failing(head, built, features, block, *args):
            for failed, row in failures:
                if head == failed and block.start <= row < block.stop:
                    raise ValueError(f"{head} fails on row {row}")
            return head_scores(head, built, features, block, *args)

        def slow_worker(*args):
            try:
                return score_rows(*args)
            finally:
                if threading.current_thread() is not here:
                    time.sleep(0.2)
                ended.append(args[6])

        here = threading.current_thread()
        monkeypatch.setattr(harness, "_head_scores", failing)
        monkeypatch.setattr(harness, "_score_rows", slow_worker)
        cfg = small_config(methods=methods, test_per_class=550, dim=wide_dim(2200) - 4)
        message = rf"^method '{culprit[0]}', seed 0: {culprit[1]} fails on row {culprit[2]}$"
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(ExperimentError, match=message):
                harness._run_seed(cfg, 0, pool)
            assert sorted(ended, key=lambda rows: rows.start) == [range(0, 1100), range(1100, 2200)]
        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlineExecutor)
        with pytest.raises(ExperimentError, match=message):
            run_experiment(cfg)

    def test_a_split_training_draw_equals_sample_dataset(self, monkeypatch):
        import spherebayes.harness as harness

        fills, fill = [], harness._fill_classes
        monkeypatch.setattr(harness, "_fill_classes",
                            lambda *args: fills.append((threading.current_thread(), args[-1])) or fill(*args))
        cfg = split_config()
        with ThreadPoolExecutor(max_workers=1) as pool:
            train_ds, _, truth = harness._load_data(cfg, 5, pool)
        expected, _ = generate(LongTailSpec(8, 1500, 10.0), cfg.dim, cfg.kappa_range, cfg.center_mode, 5)
        assert train_ds.n == expected.n and train_ds.n * cfg.dim >= _HAND_OFF_VALUES
        assert_array_equal(train_ds.features, expected.features)
        assert_array_equal(train_ds.labels, expected.labels)
        assert_array_equal(train_ds.class_counts, expected.class_counts)
        # This thread fills the head classes and the worker the tail classes
        # that hold the second half of the rows.
        (own, head), (worker, tail) = sorted(fills, key=lambda fill: fill[1].start)
        assert own is threading.current_thread() and worker is not own
        assert head == range(0, head.stop) and tail == range(head.stop, 8)
        rows = np.cumsum(train_ds.class_counts)
        assert rows[head.stop - 2] < train_ds.n / 2 <= rows[head.stop - 1]

    def test_a_small_or_poolless_training_draw_is_serial(self, monkeypatch):
        import spherebayes.harness as harness

        class NoPool:
            def submit(self, *args):
                raise AssertionError("a small draw was split")

        monkeypatch.setattr(harness, "_fill_classes", lambda *args: pytest.fail("the draw was split"))
        expected, _ = generate(LongTailSpec(4, 40, 10.0), 6, (8.0, 25.0), "random", 2)
        train_ds, _, _ = harness._load_data(small_config(), 2, NoPool())
        assert_array_equal(train_ds.features, expected.features)
        # Many tiny tail classes: K=100, p=64 and 4,357 rows filled 8-11% slower split.
        cfg = ExperimentConfig(n_classes=100, dim=64, head_size=200)
        train_ds, _, _ = harness._load_data(cfg, 2, NoPool())
        assert train_ds.n == 4357 and train_ds.n * cfg.dim < _HAND_OFF_VALUES
        before = set(threading.enumerate())
        harness._load_data(split_config(), 2)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("failing, culprit", [((1,), 1), ((6,), 6), ((1, 6), 1)],
                             ids=["head-range", "tail-range", "both"])
    def test_a_failing_class_reports_its_own_error(self, monkeypatch, failing, culprit):
        # Classes 0-1 hold the first half of the 4966 rows, 2-7 the second.
        # A failure in the worker's range is slowed down; the error waits for it.
        import spherebayes.datagen as datagen
        import spherebayes.harness as harness

        cfg = split_config()
        _, truth = datagen._long_tail_truth(LongTailSpec(8, 1500, 10.0), cfg.dim, cfg.kappa_range, cfg.center_mode, 5)
        kappas, sample, failed = [c.kappa for c in truth.components], datagen.sample, []

        def failing_sample(params, n, rng):
            j = kappas.index(params.kappa)
            if j in failing:
                if j > 1:
                    time.sleep(0.2)
                failed.append(j)
                raise ValueError(f"class {j} fails")
            return sample(params, n, rng)

        monkeypatch.setattr(datagen, "sample", failing_sample)
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(ValueError, match=rf"^class {culprit} fails$"):
                harness._load_data(cfg, 5, pool)
            assert sorted(failed) == sorted(failing)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match=rf"^class {culprit} fails$"):
            run_experiment(split_config(seeds=(5,)))
        assert set(threading.enumerate()) <= before

    def test_split_work_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            run_experiment(split_config(seeds=(0, 1), epochs=1))
            assert gc.collect() == 0
        finally:
            gc.enable()

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
