"""Tests for the experiment runner: splits, configs, m0 gradients, reports."""

import csv
import gc
import io
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp

from spherebayes.baselines import TrainConfig, predict_linear, train
from spherebayes.classifier import ClassPriors
from spherebayes.datagen import (
    LongTailSpec,
    generate,
    make_truth,
    sample_dataset,
    write_features,
)
from spherebayes.estimation import ClassStats, PosteriorSpec, map_estimate, update_stats
from spherebayes.harness import (
    METHODS,
    ExperimentConfig,
    ExperimentError,
    ReportRow,
    emit_report,
    m0_loss_gradients,
    run_experiment,
    split_accuracy,
)
from spherebayes.priors import build_etf
from spherebayes.special import log_vmf_normalizer
from spherebayes.vmf import substream


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
        # files are fine once the oracle is dropped
        ExperimentConfig(
            train_file="x.bin", test_file="y.bin", methods=("bape", "softmax")
        )


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
