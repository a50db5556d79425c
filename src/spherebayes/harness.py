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

Each head scores the test rows in the form it was fitted on: the Bayes heads
the rows validated as unit vectors, the linear heads the rows their SGD loop
saw (projected onto the sphere under `normalize`, as given otherwise).
Every head is fitted and every test row checked before any row is scored;
scoring is then one pass over the test rows in row blocks, which keeps its
scratch memory at O(block * K) and each prediction bitwise that of the
full-size arrays.

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
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .baselines import (
    LinearClassifier,
    TrainConfig,
    TrainingDivergedError,
    _projection_norms,
    _train_heads,
    minority_collapse_metric,
)
from .classifier import (
    AdjustmentPolicy,
    BayesClassifier,
    ClassPriors,
    _fit_stats,
    adjust,
    class_stats,
    log_softmax,
    logits,
    top_class,
)
from .datagen import Dataset, LongTailSpec, _check_row_total, _kappa_bounds, generate, read_features, sample_dataset
from .estimation import ClassStats, _check_rates, concentration_slopes
from .priors import EtfFrame, build_etf, grad_step_m0
from .special import MAX_DIM, mean_resultant_ratio
from .vmf import _unit_norms, as_unit_vector, substream

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

# The heads each method scores with. Every method but the ensemble is its one
# head; the ensemble averages the log-posteriors of its two.
_HEADS = {
    "bape": ("bape",),
    "bape+adjust": ("bape+adjust",),
    "softmax": ("softmax",),
    "logit_adjusted": ("logit_adjusted",),
    "ensemble": ("logit_adjusted", "bape"),
    "oracle": ("oracle",),
}
# The heads trained by SGD. Each scores the rows its loop saw, the "linear"
# rows; every other head scores the "unit" rows.
_SGD_HEADS = ("softmax", "logit_adjusted")
METHODS = tuple(_HEADS)


def _heads_of(methods) -> set:
    return {head for method in methods for head in _HEADS[method]}


def _rows_of(head: str) -> str:
    return "linear" if head in _SGD_HEADS else "unit"


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
        """The report columns, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ExperimentConfig fields that count something; seeds holds a list of them.
_INTEGER_FIELDS = ("seeds", "n_classes", "dim", "head_size", "test_per_class", "m0_steps", "epochs", "batch_size")
# Fields that hold a real number (fixed_kappa may also be None), and fields
# that hold a pair of them.
_REAL_FIELDS = ("gamma", "alpha_hat", "beta_hat", "fixed_kappa", "m0_lr", "eta", "lr", "weight_decay", "temperature")
_PAIR_FIELDS = ("kappa_range", "thresholds")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_float(key: str, value) -> float:
    """float(value), or a ValueError naming key for an integer past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} must be within the float range, got {value}") from None


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
        if not isinstance(self.seeds, (list, tuple)):
            raise ValueError(f"seeds must be a list of integers, got {self.seeds!r}")
        if not (isinstance(self.methods, (list, tuple)) and all(isinstance(m, str) for m in self.methods)):
            raise ValueError(f"methods must be a list of strings, got {self.methods!r}")
        for key in _INTEGER_FIELDS:
            for value in self.seeds if key == "seeds" else (getattr(self, key),):
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(f"{key} must be an integer, got {value!r}")
                # A count past int64 fails in numpy; a seed of any size works
                # (a negative one fails below).
                if key != "seeds" and value >= 2**63:
                    raise ValueError(f"{key} must be below 2**63, got {value}")
        for key in _REAL_FIELDS:
            value = getattr(self, key)
            if not (_is_real(value) or value is None and key == "fixed_kappa"):
                raise ValueError(f"{key} must be a real number, got {value!r}")
            if value is not None:
                object.__setattr__(self, key, _as_float(key, value))
        for key in _PAIR_FIELDS:
            value = getattr(self, key)
            if not (isinstance(value, (list, tuple, np.ndarray)) and len(value) == 2 and all(map(_is_real, value))):
                raise ValueError(f"{key} must be a pair of real numbers, got {value!r}")
        if not isinstance(self.normalize, bool):
            raise ValueError(f"normalize must be true or false, got {self.normalize!r}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "kappa_range", tuple(_as_float("kappa_range", v) for v in self.kappa_range))
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        if not self.seeds:
            raise ValueError("seeds list must not be empty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if not self.methods:
            raise ValueError("methods list must not be empty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must be distinct, got {list(self.methods)}")
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
        if self.center_mode not in ("etf", "random"):
            raise ValueError(f"unknown center_mode {self.center_mode!r}")
        AdjustmentPolicy(kappa_mode=self.kappa_mode, fixed_kappa=self.fixed_kappa)  # checks the pair
        if self.m0_steps < 0:
            raise ValueError("m0_steps must be >= 0")
        # Checked at load: the run would meet these only after generating the data.
        _check_rates(self.alpha_hat, self.beta_hat)
        if self.m0_steps > 0 and not 0.0 < self.m0_lr < np.inf:
            raise ValueError(f"m0_lr must be positive and finite when m0_steps > 0, got {self.m0_lr}")
        heads = _heads_of(self.methods)
        if self.train_file is None:
            _kappa_bounds(self.kappa_range, "kappa_range")
            LongTailSpec(self.n_classes, self.head_size, self.gamma)  # its errors name these keys
            _check_row_total(self.n_classes * self.test_per_class, "n_classes and test_per_class")
            if not 2 <= self.dim <= MAX_DIM:
                raise ValueError(f"dim must be in [2, {MAX_DIM}], got {self.dim}")
            # An equiangular frame of K directions, the class centres under
            # "etf" or bape's prior frame, needs K - 1 dimensions.
            frame = self.center_mode == "etf" or self.beta_hat > 0.0 and heads & {"bape", "bape+adjust"}
            if self.dim < self.n_classes - 1 and frame:
                raise ValueError(f"dim must be >= n_classes - 1 = {self.n_classes - 1} for an equiangular frame, "
                                 f"got {self.dim}")
        if heads & set(_SGD_HEADS):
            _schedule(self, 0)
        if self.test_per_class < 1:
            raise ValueError("test_per_class must be >= 1")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
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
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    counts = _training_counts(labels, class_counts)
    hit = predictions == labels
    out = {"all": float(hit.mean())}
    for name, mask in (
        ("many", counts > hi),
        ("medium", (counts >= lo) & (counts <= hi)),
        ("few", counts < lo),
    ):
        out[name] = float(hit[mask].mean()) if mask.any() else None
    return out


def _training_counts(labels: np.ndarray, class_counts) -> np.ndarray:
    """The training count of each evaluation label's class; an empty
    evaluation set, or a label past the training classes, raises ValueError."""
    class_counts = np.asarray(class_counts)
    if labels.size == 0:
        raise ValueError("evaluation set is empty")
    if labels.max() >= len(class_counts):
        raise ValueError(f"evaluation labels span {labels.max() + 1} classes, the training counts {len(class_counts)}")
    return class_counts[labels]


# Rows per block of the scoring pass over the test rows and of the m0
# gradient's pass over the training rows; each makes its (n, K) scratch one
# block at a time.
_BLOCK = 2048


def _blocks(n: int):
    """Slices of _BLOCK consecutive rows covering n rows, the last one partial."""
    return (slice(start, start + _BLOCK) for start in range(0, n, _BLOCK))


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

    The loss, and the posterior (alpha, beta, m) the chain runs through, are
    those of the classifier `fit` returns at `frame`, under `priors` as
    `adjust` applies them. Classes it excludes (beta = 0, or an unbounded
    kappa) get a zero gradient; their samples add nothing to the mean.

    The sum over samples is one pass over blocks of rows, so the scratch
    memory is O(block * K) whatever the number of rows.
    """
    z = as_unit_vector(features, dim=frame.dim)
    counts = np.array([st.count for st in stats])
    resultants = np.stack([st.resultant for st in stats])
    fitted = _fit_stats(counts, resultants, alpha_hat, beta_hat, frame.vectors, mode, "exclude")
    fitted = adjust(fitted, AdjustmentPolicy(priors))
    return _m0_gradients(fitted, beta_hat, z, labels, mode)


def _m0_gradients(fitted, beta_hat, z, labels, mode):
    """`m0_loss_gradients` of `fitted`, a classifier `_fit_stats` returned, through the posterior
    it carries (alphas, betas, mus) with beta0 = beta_hat * counts, on validated unit rows z.
    One pass over blocks of rows sums g = d loss / d logit (zero on the rows of excluded
    classes) into zsum_k = sum_n g_nk z_n and psum_k = sum_n g_nk, all that both routes need."""
    p, alphas, betas = fitted.dim, fitted.alphas, fitted.betas
    kappas, ms = fitted.kappas, fitted.mus
    excluded = np.isin(np.arange(len(kappas)), fitted.excluded)
    keep = ~excluded
    a_vals = mean_resultant_ratio(p, kappas)
    dk_db = np.zeros(len(kappas))
    dk_db[keep] = concentration_slopes(p, alphas[keep], betas[keep], kappas[keep], a_vals[keep], mode)
    # Excluded classes score -inf. Each block's softmax is its logits shifted
    # by the row maxima, exponentiated and divided by the row sums.
    zsum = np.zeros_like(ms)
    psum = np.zeros(len(kappas))
    for rows in _blocks(len(labels)):
        block = logits(fitted, z[rows])
        block -= block.max(axis=1, keepdims=True)
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)
        block[np.arange(len(block)), labels[rows]] -= 1.0
        block[excluded[labels[rows]]] = 0.0
        zsum += block.T @ z[rows]
        psum += block.sum(axis=0)
    proj = np.einsum("kp,kp->k", zsum, ms)
    # beta route: sum_n g_nk (m_k.T z_n - A_k) = m_k.T zsum_k - A_k psum_k, times dkappa/dbeta, along m_k.
    beta_coef = (proj - a_vals * psum) * dk_db
    # m route: kappa_k * (I - m_k m_k^T) zsum_k / beta_k.
    scale = np.divide(kappas, betas, out=np.zeros(len(kappas)), where=keep)
    tangent = (zsum - proj[:, np.newaxis] * ms) * scale[:, np.newaxis]
    return (beta_coef[:, np.newaxis] * ms + tangent) * (beta_hat * fitted.counts / len(labels))[:, np.newaxis]


def _fit_bape(train: Dataset, config: ExperimentConfig, seed: int) -> BayesClassifier:
    """Conjugate MAP fit, with the prior frame seeded from `seed` when beta_hat > 0
    and refined by config.m0_steps gradient steps, each on the loss of the
    classifier fitted at the frame it moves."""
    feats = as_unit_vector(train.features)
    counts, resultants = class_stats(feats, train.labels, train.n_classes)
    frame, steps = None, 0
    if config.beta_hat > 0.0:
        # Prior frame seeded independently of the data-generating streams.
        frame_seed = int(substream(seed, 4).integers(2**63 - 1))
        frame, steps = build_etf(train.n_classes, train.dim, frame_seed), config.m0_steps
    for step in range(steps + 1):
        if step:
            g = _m0_gradients(fitted, config.beta_hat, feats, train.labels, config.estimation)
            frame = grad_step_m0(frame, g, config.m0_lr)
        fitted = _fit_stats(counts, resultants, config.alpha_hat, config.beta_hat,
                            None if frame is None else frame.vectors, config.estimation, on_degenerate="exclude")
    return fitted


def _schedule(config: ExperimentConfig, seed: int) -> TrainConfig:
    """The SGD schedule of the linear heads; its checks name each malformed key."""
    return TrainConfig(lr=config.lr, epochs=config.epochs, batch_size=config.batch_size,
                       weight_decay=config.weight_decay, temperature=config.temperature, rng_seed=seed,
                       normalize=config.normalize)


def _fit_linear(train_ds: Dataset, config: ExperimentConfig, modes, seed: int) -> dict[str, LinearClassifier]:
    """The SGD baselines of the given modes, trained together in one loop;
    eta scales the gradients of the logit_adjusted loss only."""
    heads = [(mode, config.eta if mode == "logit_adjusted" else 1.0) for mode in modes]
    fitted = _train_heads(train_ds.features, train_ds.labels, train_ds.n_classes, _schedule(config, seed), heads)
    return {mode: clf for mode, (clf, _) in zip(modes, fitted)}


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


# The weight directions each method's minority collapse is taken on. bape's
# are mus, not W: W rows of kappa=0 classes have no direction. The oracle and
# the ensemble have none.
_COLLAPSE_ON = {"bape": "mus", "bape+adjust": "mus", "softmax": "W", "logit_adjusted": "W"}


def _head_scores(head: str, built, features: np.ndarray, block: slice, cache: dict) -> np.ndarray:
    """`head`'s class scores on one block of test rows, made once per block in
    `cache`, as is each kind of rows they need.

    Each head scores the rows it was fitted on. Those are the float64
    features divided by the norms that `built` holds for their kind (none for
    linear rows taken as given), bitwise those rows of the full-size
    as_unit_vector or _linear_rows result. Every head whose W *is* bape's
    (bape+adjust under kappa_mode "keep") adds its own b to one product of
    the unit rows with that W.
    """
    if head not in cache:
        kind, clf = _rows_of(head), built[head]
        if kind not in cache:
            rows, norms = features[block], built[kind]
            cache[kind] = np.asarray(rows, dtype=float) if norms is None else np.divide(rows, norms[block, np.newaxis])
        if "bape" in built and clf.W is built["bape"].W:
            if "bape_product" not in cache:
                cache["bape_product"] = cache[kind] @ clf.W.T
            cache[head] = cache["bape_product"] + clf.b
        else:
            cache[head] = logits(clf, cache[kind])
    return cache[head]


def _predictions(built, methods, config: ExperimentConfig, features: np.ndarray, seed: int):
    """Each method's predicted class on every test row, from one pass over the
    rows in blocks of _BLOCK, and the seconds each method spent in the pass.

    Each method scores with its heads in `_HEADS`, whose scores on a block
    are made once and shared by every method of the block; the ensemble
    scores the mean of the bape and logit_adjusted log-posteriors, the latter
    at the training temperature. Scores live for one block, so the scratch
    is a few (_BLOCK, K) arrays whatever the number of rows.
    """
    preds = {method: np.empty(len(features), dtype=np.intp) for method in methods}
    seconds = dict.fromkeys(methods, 0.0)
    for block in _blocks(len(features)):
        cache = {}
        for method in methods:
            started = time.perf_counter()
            with _charged_to(method, seed, methods):
                scores = [_head_scores(head, built, features, block, cache) for head in _HEADS[method]]
                if method == "ensemble":
                    linear, bape = scores
                    scores = [0.5 * (log_softmax(bape) + log_softmax(linear / config.temperature))]
                preds[method][block] = top_class(scores[0])
            seconds[method] += time.perf_counter() - started
    return preds, seconds


@contextmanager
def _charged_to(method: str, seed: int, methods):
    """Re-raise any error as an ExperimentError naming the method and seed; a
    diverging linear head is charged to its own method if listed, else to the
    first of `methods` that scores with it, not to the first user of the
    stack it was trained in."""
    try:
        yield
    except Exception as exc:
        if isinstance(exc, TrainingDivergedError):
            method = next(m for m in sorted(methods, key=lambda m: m != exc.mode) if exc.mode in _HEADS[m])
        raise ExperimentError(f"method {method!r}, seed {seed}: {exc}") from exc


def _tail_collapse(built, method: str, train_counts, threshold: int) -> float | None:
    tail = np.flatnonzero(np.asarray(train_counts) < threshold)
    if method not in _COLLAPSE_ON or tail.size < 2:
        return None
    weights = getattr(built[method], _COLLAPSE_ON[method])
    return minority_collapse_metric(LinearClassifier(weights, np.zeros(len(weights))), tail)


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
    with _charged_to(config.methods[0], seed, config.methods):  # where it would surface otherwise
        if test_ds.dim != train_ds.dim:
            raise ValueError(f"test features have dimension {test_ds.dim}, training features {train_ds.dim}")
    # The linear heads this run needs, trained together on the first use of either.
    heads = tuple(head for head in _SGD_HEADS if head in _heads_of(config.methods))
    features = test_ds.features

    # The heads and the norms of each kind of test rows, built on first use
    # and shared after: bape+adjust reuses the bape fit. The norms are taken
    # and checked once, straight from the float32 features: as unit vectors
    # for the unit rows, and as nonzero under normalize for the linear rows.
    built = _BuiltOnFirstUse({
        "unit": lambda _: _unit_norms(features),
        "linear": lambda _: _projection_norms(features) if config.normalize else None,
        "bape": lambda _: _fit_bape(train_ds, config, seed),
        "bape+adjust": lambda deps: adjust(
            deps["bape"],
            AdjustmentPolicy(
                target_priors=ClassPriors.uniform(train_ds.n_classes),
                kappa_mode=config.kappa_mode,
                fixed_kappa=config.fixed_kappa,
            ),
        ),
        "sgd": lambda _: _fit_linear(train_ds, config, heads, seed),
        "softmax": lambda deps: deps["sgd"]["softmax"],
        "logit_adjusted": lambda deps: deps["sgd"]["logit_adjusted"],
        "oracle": lambda _: truth.classifier(ClassPriors.from_counts(test_ds.class_counts)),
    })

    # Every head is fitted, and then its test rows checked, in method order
    # before any row is scored: each error names the method that meets it first.
    seconds, collapse = {}, {}
    for method in config.methods:
        started = time.perf_counter()
        with _charged_to(method, seed, config.methods):
            for head in _HEADS[method]:
                built[head]
                built[_rows_of(head)]
            collapse[method] = _tail_collapse(built, method, train_ds.class_counts, config.thresholds[0])
        seconds[method] = time.perf_counter() - started
    _training_counts(test_ds.labels, train_ds.class_counts)  # the split check, before any row is scored
    scored = config.methods
    if truth is not None and "oracle" not in scored:  # its predictions give every row's oracle_accuracy
        scored += ("oracle",)
    preds, pass_seconds = _predictions(built, scored, config, features, seed)
    oracle_acc = float(np.mean(preds["oracle"] == test_ds.labels)) if truth is not None else None
    rows = []
    for method in config.methods:
        started = time.perf_counter()
        acc = split_accuracy(preds[method], test_ds.labels, train_ds.class_counts, config.thresholds)
        rows.append(ReportRow(
            method=method,
            seed=seed,
            **{f"acc_{split}": value for split, value in acc.items()},
            oracle_accuracy=oracle_acc,
            minority_collapse=collapse[method],
            wall_time=seconds[method] + pass_seconds[method] + time.perf_counter() - started,
        ))
    return rows


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
        writer.writerow(f.name for f in fields(ReportRow))
        for r in rows:
            writer.writerow("" if v is None else repr(v) if isinstance(v, float) else v for v in r.as_dict().values())
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
