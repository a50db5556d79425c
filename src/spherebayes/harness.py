"""Experiment runner: fit every method on a shared dataset, score split accuracies.

One experiment = a long-tailed training set and a balanced test set drawn
from the same mixture, per seed. Methods:

  bape            explicit Bayes classifier fitted by conjugate MAP
  bape+adjust     same parameters with test-time prior/kappa substitution
  softmax         gradient-trained linear baseline, plain cross-entropy
  logit_adjusted  gradient-trained baseline with prior-shifted training loss;
                  its gradients are scaled by eta, the weight of this loss
                  term inside the joint objective (eta=0 freezes it at init)
  ensemble        argmax of the averaged log-posteriors of bape and the
                  logit_adjusted baseline (a naive combination rule)
  oracle          the true-parameter Bayes rule (generated data only)

Accuracy is reported overall and over class-frequency splits: many-shot
(train count > 100), medium-shot (20..100), few-shot (< 20).

Optionally the prior directions m0 receive full-batch gradient steps on the
bape training loss before the final fit (the explicit-classifier half of the
joint objective; feature extraction is fixed here, so that is the only place
its gradient can flow).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, fields

import numpy as np

from .baselines import LinearClassifier, TrainConfig, minority_collapse_metric, predict_linear, train
from .classifier import (
    AdjustmentPolicy,
    BayesClassifier,
    ClassPriors,
    _fit_stats,
    adjust,
    class_stats,
    log_posterior,
    log_softmax,
    predict,
    top_class,
)
from .datagen import Dataset, LongTailSpec, generate, read_features, sample_dataset
from .estimation import ClassStats, DegeneratePosteriorError, class_posteriors, concentrations
from .priors import EtfFrame, build_etf, grad_step_m0
from .special import mean_resultant_ratio
from .vmf import as_unit_vector, substream

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "ReportRow",
    "ExperimentError",
    "split_accuracy",
    "run_experiment",
    "emit_report",
    "m0_loss_gradients",
]

METHODS = ("bape", "bape+adjust", "softmax", "logit_adjusted", "ensemble", "oracle")

_REPORT_FIELDS = (
    "method",
    "seed",
    "acc_all",
    "acc_many",
    "acc_medium",
    "acc_few",
    "oracle_accuracy",
    "minority_collapse",
    "wall_time",
)


class ExperimentError(RuntimeError):
    """A module error, annotated with the method and seed it occurred under."""


@dataclass(frozen=True)
class ReportRow:
    """One method on one seed. Split accuracies are None when the split is empty;
    minority_collapse is None for methods without weight directions (oracle,
    ensemble) or when fewer than two tail classes exist."""

    method: str
    seed: int
    acc_all: float
    acc_many: float | None
    acc_medium: float | None
    acc_few: float | None
    oracle_accuracy: float | None
    minority_collapse: float | None
    wall_time: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _REPORT_FIELDS}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one `run_experiment` call needs; JSON-loadable for the CLI.

    Data comes either from the generator (n_classes/dim/head_size/gamma/
    kappa_range/center_mode, balanced test of test_per_class per class) or
    from feature files (train_file + test_file; the oracle method is then
    unavailable). eta weighs the logit_adjusted loss inside the joint
    objective. m0_steps > 0 turns on gradient refinement of the prior
    directions (requires beta_hat > 0 to have any effect).
    """

    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = METHODS
    # generated data source
    n_classes: int = 20
    dim: int = 32
    head_size: int = 500
    gamma: float = 100.0
    kappa_range: tuple[float, float] = (5.0, 50.0)
    center_mode: str = "random"
    test_per_class: int = 200
    # file data source (overrides the generator when set)
    train_file: str | None = None
    test_file: str | None = None
    # explicit-classifier settings
    alpha_hat: float = 0.0
    beta_hat: float = 0.0
    estimation: str = "approx"
    kappa_mode: str = "keep"
    fixed_kappa: float | None = None
    m0_steps: int = 0
    m0_lr: float = 0.1
    # baseline settings
    eta: float = 1.0
    lr: float = 0.5
    epochs: int = 30
    batch_size: int = 64
    weight_decay: float = 0.0
    temperature: float = 1.0
    normalize: bool = False
    # split thresholds: few < thresholds[0] <= medium <= thresholds[1] < many
    thresholds: tuple[int, int] = (20, 100)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "kappa_range", tuple(self.kappa_range))
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        if not self.seeds:
            raise ValueError("seeds list must not be empty")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if not self.methods:
            raise ValueError("methods list must not be empty")
        if self.eta < 0.0 or not np.isfinite(self.eta):
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if len(self.thresholds) != 2 or not 0 < self.thresholds[0] <= self.thresholds[1]:
            raise ValueError(f"thresholds must be an ordered pair, got {self.thresholds}")
        if (self.train_file is None) != (self.test_file is None):
            raise ValueError("train_file and test_file must be given together")
        if self.train_file is not None and "oracle" in self.methods:
            raise ValueError("the oracle method needs generated data (no ground truth in files)")
        if self.estimation not in ("approx", "exact"):
            raise ValueError(f"unknown estimation mode {self.estimation!r}")
        if self.m0_steps < 0:
            raise ValueError("m0_steps must be >= 0")
        if self.test_per_class < 1:
            raise ValueError("test_per_class must be >= 1")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def split_accuracy(predictions, labels, class_counts, thresholds=(20, 100)) -> dict:
    """Accuracy overall and per class-frequency split.

    class_counts are the TRAINING counts that define the splits; labels and
    predictions belong to the evaluation set. Splits with no evaluation
    samples are reported as None.
    """
    lo, hi = thresholds
    if not 0 < lo <= hi:
        raise ValueError(f"thresholds must be an ordered pair, got {thresholds}")
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    class_counts = np.asarray(class_counts)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    if labels.size and labels.max() >= len(class_counts):
        raise ValueError(f"evaluation labels span {labels.max() + 1} classes, the training counts {len(class_counts)}")
    counts = class_counts[labels]
    hit = predictions == labels
    out = {"all": float(hit.mean())}
    for name, mask in (
        ("many", counts > hi),
        ("medium", (counts >= lo) & (counts <= hi)),
        ("few", counts < lo),
    ):
        out[name] = float(hit[mask].mean()) if mask.any() else None
    return out


def _tail_collapse(weights: np.ndarray, train_counts, threshold: int) -> float | None:
    tail = np.flatnonzero(np.asarray(train_counts) < threshold)
    if tail.size < 2:
        return None
    return minority_collapse_metric(LinearClassifier(weights, np.zeros(len(weights))), tail)


def m0_loss_gradients(
    frame: EtfFrame,
    stats: list[ClassStats],
    alpha_hat: float,
    beta_hat: float,
    priors: ClassPriors,
    features: np.ndarray,
    labels: np.ndarray,
    mode: str = "approx",
) -> np.ndarray:
    """Gradient of the mean bape training loss with respect to each prior direction.

    The chain runs m0 -> (beta, m) -> (kappa, mu) -> logits. With v =
    beta0*m0 + resultant: d beta/d v = m, d m/d v = (I - m m^T)/beta, and the
    logit of class k moves by (m_k.T z - A_p(kappa_k)) dkappa/dbeta against
    beta and by kappa_k z against m_k. Returned gradients live in the ambient
    space; the renormalization in the update step kills radial components.
    """
    p = frame.dim
    counts = np.array([st.count for st in stats])
    resultants = np.stack([st.resultant for st in stats])
    alphas, betas, ms, beta0 = class_posteriors(counts, resultants, alpha_hat, beta_hat, frame.vectors)
    if np.any(betas == 0.0):
        raise DegeneratePosteriorError(f"class {np.argmin(betas)} has no defined mean direction")
    kappas = concentrations(p, betas / alphas, mode)
    a_vals = np.array([mean_resultant_ratio(p, kp) for kp in kappas])
    if mode == "approx":
        dk_db = p * alphas * (alphas**2 + betas**2) / (alphas**2 - betas**2) ** 2
    else:
        # dkappa/dbeta = 1 / (alpha A'(kappa)), A' = 1 - A^2 - (p-1)A/kappa;
        # beta > 0 here, so kappa > 0.
        dk_db = 1.0 / (alphas * (1.0 - a_vals * a_vals - (p - 1) * a_vals / kappas))

    clf = BayesClassifier(mus=ms, kappas=kappas, priors=priors)
    z = np.asarray(features, dtype=float)
    probs = np.exp(log_posterior(clf, z))
    probs[np.arange(len(labels)), labels] -= 1.0  # d loss / d logit_k
    # beta route: per class, a scalar times the fixed direction m_k.
    beta_coef = np.einsum("nk,nk->k", probs, z @ ms.T - a_vals) * dk_db
    # m route: kappa_k * (I - m_k m_k^T) z / beta_k, summed over samples.
    zsum = probs.T @ z
    tangent = (zsum - np.einsum("kp,kp->k", zsum, ms)[:, np.newaxis] * ms) * (kappas / betas)[:, np.newaxis]
    return (beta_coef[:, np.newaxis] * ms + tangent) * (beta0 / len(labels))[:, np.newaxis]


def _fit_bape(train: Dataset, config: ExperimentConfig, seed: int) -> BayesClassifier:
    """Conjugate MAP fit, with the prior frame seeded from `seed` when beta_hat > 0
    and refined by config.m0_steps gradient steps."""
    feats = as_unit_vector(train.features)
    k = train.n_classes
    counts, resultants = class_stats(feats, train.labels, k)
    frame = None
    if config.beta_hat > 0.0:
        # Prior frame seeded independently of the data-generating streams.
        frame_seed = int(substream(seed, 4).integers(2**63 - 1))
        frame = build_etf(k, train.dim, frame_seed)
        if config.m0_steps > 0:
            stats = [ClassStats(n, s) for n, s in zip(counts, resultants)]
            priors = ClassPriors.from_counts(counts)
            for _ in range(config.m0_steps):
                g = m0_loss_gradients(frame, stats, config.alpha_hat, config.beta_hat, priors,
                                      feats, train.labels, mode=config.estimation)
                frame = grad_step_m0(frame, g, config.m0_lr)
    directions = frame.vectors if frame is not None else None
    return _fit_stats(counts, resultants, config.alpha_hat, config.beta_hat, directions,
                      config.estimation, on_degenerate="exclude")


def _fit_linear(train_ds: Dataset, config: ExperimentConfig, mode: str, seed: int) -> LinearClassifier:
    """SGD baseline; eta scales the gradients of the logit_adjusted loss only."""
    schedule = TrainConfig(
        lr=config.lr,
        epochs=config.epochs,
        batch_size=config.batch_size,
        weight_decay=config.weight_decay,
        mode=mode,
        temperature=config.temperature,
        rng_seed=seed,
        normalize=config.normalize,
        grad_scale=config.eta if mode == "logit_adjusted" else 1.0,
    )
    return train(train_ds.features, train_ds.labels, schedule, n_classes=train_ds.n_classes)


def _load_data(config: ExperimentConfig, seed: int):
    if config.train_file is not None:
        return read_features(config.train_file), read_features(config.test_file), None
    spec = LongTailSpec(config.n_classes, config.head_size, config.gamma)
    train_ds, truth = generate(
        spec, config.dim, config.kappa_range, config.center_mode, seed
    )
    test_counts = np.full(config.n_classes, config.test_per_class)
    test_ds = sample_dataset(truth, test_counts, seed, stream=3)
    return train_ds, test_ds, truth


def run_experiment(config: ExperimentConfig) -> list[ReportRow]:
    """All configured methods on all seeds; rows sorted by (method, seed)."""
    rows = []
    for seed in config.seeds:
        rows.extend(_run_seed(config, seed))
    rows.sort(key=lambda r: (r.method, r.seed))
    return rows


class _BuiltOnFirstUse(dict):
    """Values made on first lookup by the builder of their key, which gets
    this mapping to look up what it depends on. (Builders closing over a
    cache that holds them would form a reference cycle, keeping every
    seed's data alive until the cyclic collector runs.)"""

    def __init__(self, builders: dict):
        super().__init__()
        self.builders = builders

    def __missing__(self, key):
        value = self[key] = self.builders[key](self)
        return value


def _run_seed(config: ExperimentConfig, seed: int) -> list[ReportRow]:
    train_ds, test_ds, truth = _load_data(config, seed)
    test_z = np.asarray(test_ds.features, dtype=float)
    tail_at = config.thresholds[0]

    # What each method scores with, built on first use and shared after:
    # bape+adjust and ensemble reuse the bape fit, ensemble the
    # logit_adjusted one. The oracle entry holds its predictions, which
    # also give every row's oracle_accuracy.
    built = _BuiltOnFirstUse({
        "bape": lambda _: _fit_bape(train_ds, config, seed),
        "bape+adjust": lambda deps: adjust(
            deps["bape"],
            AdjustmentPolicy(
                target_priors=ClassPriors.uniform(train_ds.n_classes),
                kappa_mode=config.kappa_mode,
                fixed_kappa=config.fixed_kappa,
            ),
        ),
        "softmax": lambda _: _fit_linear(train_ds, config, "softmax", seed),
        "logit_adjusted": lambda _: _fit_linear(train_ds, config, "logit_adjusted", seed),
        "oracle": lambda _: predict(
            truth.classifier(ClassPriors.from_counts(test_ds.class_counts)), test_z
        ),
    })

    # Each scorer returns (predictions, minority_collapse). bape's collapse
    # is taken on mus, not W: W rows of kappa=0 classes have no direction.
    def bayes(name):
        clf = built[name]
        return predict(clf, test_z), _tail_collapse(clf.mus, train_ds.class_counts, tail_at)

    def linear(name):
        clf = built[name]
        return predict_linear(clf, test_z), _tail_collapse(clf.W, train_ds.class_counts, tail_at)

    def ensemble(_):
        lin = built["logit_adjusted"]
        lp_lin = log_softmax((test_z @ lin.W.T + lin.b) / config.temperature)
        return top_class(0.5 * (log_posterior(built["bape"], test_z) + lp_lin)), None

    scorers = {
        "bape": bayes,
        "bape+adjust": bayes,
        "softmax": linear,
        "logit_adjusted": linear,
        "ensemble": ensemble,
        "oracle": lambda name: (built[name], None),
    }

    scored = []
    for method in config.methods:
        started = time.perf_counter()
        try:
            preds, collapse = scorers[method](method)
        except Exception as exc:
            raise ExperimentError(f"method {method!r}, seed {seed}: {exc}") from exc
        acc = split_accuracy(preds, test_ds.labels, train_ds.class_counts, config.thresholds)
        scored.append((method, acc, collapse, time.perf_counter() - started))
    oracle_acc = float(np.mean(built["oracle"] == test_ds.labels)) if truth is not None else None
    return [
        ReportRow(
            method=method,
            seed=seed,
            **{f"acc_{split}": value for split, value in acc.items()},
            oracle_accuracy=oracle_acc,
            minority_collapse=collapse,
            wall_time=wall_time,
        )
        for method, acc, collapse, wall_time in scored
    ]


def emit_report(rows: list[ReportRow], fmt: str = "json", path=None) -> str:
    """Render rows as JSON (array of objects) or CSV; write to path if given.

    Floats keep full precision (shortest round-trip decimal form); absent
    values are null in JSON and empty cells in CSV.
    """
    if fmt == "json":
        text = json.dumps([r.as_dict() for r in rows], indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_REPORT_FIELDS)
        for r in rows:
            d = r.as_dict()
            writer.writerow(["" if d[f] is None else repr(d[f]) if isinstance(d[f], float) else d[f] for f in _REPORT_FIELDS])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
