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

Each head scores the test rows in the form it was fitted on: the features
divided by the norms of its kind of rows, the unit norms for the Bayes heads
and `_linear_norms` for the linear heads (ones unless `normalize`).
Each run may use one worker thread beside the calling thread, for a step
that holds at least _HAND_OFF_VALUES values (`_hand_off`): it fills the tail
classes of a generated training draw of rows x p values that large, draws a
test set that large while the heads are fitted (the test rows are waited
for at their first use), and scores the second half of a scoring pass of
test rows x (p + K) values that large. A smaller step runs on the calling
thread, and a run whose steps are all smaller never starts the worker.
Every head is fitted and every test row checked before any row is scored.
The pass scores its rows, or each half of them, in row blocks sized to
about _SCORE_BYTES of float64 scratch per thread, which keeps each
prediction bitwise that of the full-size arrays.
The pass takes a temperature and an error-context factory, not a config and
seed, so `spherebayes eval` scores its one head through it too.

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
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .baselines import (
    LinearClassifier,
    TrainConfig,
    TrainingDivergedError,
    _linear_norms,
    _train_heads,
    minority_collapse_metric,
)
from .classifier import (
    _BLOCK,
    KAPPA_MODES,
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
from .datagen import (
    Dataset,
    LongTailSpec,
    _allocate_draw,
    _check_row_total,
    _drawn,
    _fill_classes,
    _fill_draw,
    _kappa_bounds,
    _long_tail_truth,
    class_sizes,
    generate,
    read_features,
)
from .estimation import ESTIMATION_MODES, ClassStats, _check_rates, concentration_slopes
from .priors import EtfFrame, build_etf, grad_step_m0
from .special import MAX_DIM, mean_resultant_ratio
from .vmf import _float_rows, _unit_norms, substream

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "ReportRow",
    "ExperimentError",
    "ExperimentMemoryError",
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
    """A module error, annotated with the method and seed it occurred under.
    A method's MemoryError is raised as an ExperimentMemoryError, which is
    both an ExperimentError and a MemoryError."""


class ExperimentMemoryError(ExperimentError, MemoryError):
    """A method's MemoryError, annotated with the method and seed."""


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


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _failure(tests, value) -> str | None:
    """'must be <what>, got <value>' for the first (holds, what) of `tests` that value fails."""
    return next((f"must be {what}, got {value!r}" for holds, what in tests if not holds(value)), None)


_INTEGER = (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer")
# Each kind's tests, in order, and the conversion of a value that passes
# them. A count past int64 fails in numpy; a seed of any size works, but the
# random streams take only non-negative ones.
_KINDS = {
    "count": ([_INTEGER, (lambda v: v < 2**63, "below 2**63")], int),
    "seed": ([_INTEGER, (lambda v: v >= 0, ">= 0")], int),
    "real": ([(_is_real, "a real number")], float),
    "pair": ([(lambda v: isinstance(v, (list, tuple, np.ndarray)) and len(v) == 2 and all(map(_is_real, v)),
               "a pair of real numbers")], lambda v: (float(v[0]), float(v[1]))),
    "choice": ([(lambda v: isinstance(v, str), "a string")], str),
    "bool": ([(lambda v: isinstance(v, bool), "true or false")], bool),
    "path": ([(lambda v: isinstance(v, str), "a file path")], str),
}


@dataclass(frozen=True)
class _Row:
    """One ExperimentConfig key: its default, kind and domain, and the flags that set it."""

    default: object
    kind: str  # a key of _KINDS
    domain: tuple | None = None  # (holds, what) of a value of the kind, a list's on the whole list
    applies: str = "always"  # when the domain is checked: always, for "generated" data, or when "m0_steps" > 0
    choices: tuple = ()
    many: bool = False  # a non-empty list of values of the kind
    generate: str | None = None  # the flag of `spherebayes generate` that sets the key
    fit: str | None = None  # and of `spherebayes fit`
    help: str | None = None

    def load(self, name: str, value):
        """value as stored; a ValueError naming `name` unless it is of the row's kind
        (or None, where that is the default)."""
        if value is None and self.default is None:
            return None
        if not self.many:
            return self._one(name, value)
        if not (isinstance(value, (list, tuple)) and value):
            raise ValueError(f"{name} must be a list of one or more values, got {value!r}")
        return tuple(self._one(name, v) for v in value)

    def _one(self, name: str, value):
        tests, convert = _KINDS[self.kind]
        if failed := _failure(tests, value):
            raise ValueError(f"{name} {failed}")
        if self.choices and value not in self.choices:
            raise ValueError(f"unknown {name} {value!r}")
        try:
            return convert(value)
        except OverflowError:
            raise ValueError(f"{name} must be within the float range, got {value!r}") from None

    def check(self, name: str, value) -> None:
        """A ValueError naming `name` if value is outside the row's domain."""
        if self.domain and (failed := _failure([self.domain], value)):
            raise ValueError(f"{name} {failed}")


def _key(default, *row, **rest):
    return field(default=default, metadata={"row": _Row(default, *row, **rest)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one `run_experiment` call needs; JSON-loadable for the CLI.

    Data comes either from the generator (n_classes/dim/head_size/gamma/
    kappa_range/center_mode, balanced test of test_per_class per class) or
    from feature files (train_file + test_file; the oracle method is then
    unavailable). eta weighs the logit_adjusted loss inside the joint
    objective. m0_steps > 0 turns on gradient refinement of the prior
    directions (requires beta_hat > 0 to have any effect).

    Each key's row (`_key`) gives its default, kind, own domain and flags.
    Library checks cover several keys at once: LongTailSpec n_classes,
    head_size and gamma, _kappa_bounds kappa_range, _check_rates the prior
    rates, AdjustmentPolicy kappa_mode with fixed_kappa, and TrainConfig the
    SGD settings.
    """

    seeds: tuple[int, ...] = _key((0,), "seed", many=True, generate="--seed", fit="--seed")
    methods: tuple[str, ...] = _key(METHODS, "choice", (lambda v: len(set(v)) == len(v), "distinct"), many=True,
                                    choices=METHODS)
    # generated data source
    n_classes: int = _key(20, "count", generate="--classes")
    dim: int = _key(32, "count", (lambda v: 2 <= v <= MAX_DIM, f"in [2, {MAX_DIM}]"), "generated", generate="--dim")
    head_size: int = _key(500, "count", generate="--head-size")
    gamma: float = _key(100.0, "real", generate="--gamma")
    kappa_range: tuple[float, float] = _key((5.0, 50.0), "pair", generate="--kappa-range",
                                            help="log-uniform range 'lo,hi'")
    center_mode: str = _key("random", "choice", choices=("etf", "random"), generate="--center-mode")
    test_per_class: int = _key(200, "count", (lambda v: v >= 1, ">= 1"), "generated",
                               generate="--test-per-class")
    # file data source (overrides the generator when set)
    train_file: str | None = _key(None, "path")
    test_file: str | None = _key(None, "path")
    # explicit-classifier settings
    alpha_hat: float = _key(0.0, "real", fit="--alpha-hat")
    beta_hat: float = _key(0.0, "real", fit="--beta-hat")
    estimation: str = _key("approx", "choice", choices=ESTIMATION_MODES, fit="--estimation")
    kappa_mode: str = _key("keep", "choice", choices=KAPPA_MODES)
    fixed_kappa: float | None = _key(None, "real")
    m0_steps: int = _key(0, "count", (lambda v: v >= 0, ">= 0"))
    m0_lr: float = _key(0.1, "real", (lambda v: 0.0 < v < np.inf, "positive and finite when m0_steps > 0"), "m0_steps")
    # baseline settings
    eta: float = _key(1.0, "real", (lambda v: 0.0 <= v < np.inf, ">= 0"), fit="--eta",
                      help="gradient scale of the logit_adjusted loss")
    lr: float = _key(0.5, "real", fit="--lr")
    epochs: int = _key(30, "count", fit="--epochs")
    batch_size: int = _key(64, "count", fit="--batch-size")
    weight_decay: float = _key(0.0, "real", fit="--weight-decay")
    temperature: float = _key(1.0, "real", fit="--temperature")
    normalize: bool = _key(False, "bool", fit="--normalize", help="renormalize features to the sphere")
    # split thresholds: few < thresholds[0] <= medium <= thresholds[1] < many
    thresholds: tuple[float, float] = _key((20, 100), "pair", (lambda v: 0 < v[0] <= v[1], "an ordered pair"))

    def __post_init__(self):
        for key, row in _ROWS.items():
            object.__setattr__(self, key, row.load(key, getattr(self, key)))
        generated = self.train_file is None
        applies = {"always": True, "generated": generated, "m0_steps": self.m0_steps > 0}
        for key, row in _ROWS.items():
            if applies[row.applies]:
                row.check(key, getattr(self, key))
        if generated != (self.test_file is None):
            raise ValueError("train_file and test_file must be given together")
        if not generated and "oracle" in self.methods:
            raise ValueError("the oracle method needs generated data (no ground truth in files)")
        AdjustmentPolicy(kappa_mode=self.kappa_mode, fixed_kappa=self.fixed_kappa)  # checks the pair
        _check_rates(self.alpha_hat, self.beta_hat)
        heads = _heads_of(self.methods)
        if generated:
            _kappa_bounds(self.kappa_range, "kappa_range")
            LongTailSpec(self.n_classes, self.head_size, self.gamma)  # its errors name these keys
            _check_row_total(self.n_classes * self.test_per_class, "n_classes and test_per_class")
            # An equiangular frame of K directions, the class centres under
            # "etf" or bape's prior frame, needs K - 1 dimensions.
            frame = self.center_mode == "etf" or self.beta_hat > 0.0 and heads & {"bape", "bape+adjust"}
            if self.dim < self.n_classes - 1 and frame:
                raise ValueError(f"dim must be >= n_classes - 1 = {self.n_classes - 1} for an equiangular frame, "
                                 f"got {self.dim}")
        if heads & set(_SGD_HEADS):
            _schedule(self, 0)

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


# Each key's row, in field order.
_ROWS = {f.name: f.metadata["row"] for f in fields(ExperimentConfig)}


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


def _blocks(n: int):
    """Slices of _BLOCK consecutive rows covering n rows, the last one partial:
    the blocks of the fit's passes over the training rows (see `classifier`)."""
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

    The sum over samples is one pass over blocks of 512 rows, so the scratch
    memory is O(block * (p + K)) whatever the number of rows.
    """
    features = _float_rows(features)
    norms = _unit_norms(features, dim=frame.dim)
    counts = np.array([st.count for st in stats])
    resultants = np.stack([st.resultant for st in stats])
    fitted = _fit_stats(counts, resultants, alpha_hat, beta_hat, frame.vectors, mode, "exclude")
    fitted = adjust(fitted, AdjustmentPolicy(priors))
    return _m0_gradients(fitted, beta_hat, features, norms, labels, mode)


def _m0_gradients(fitted, beta_hat, features, norms, labels, mode):
    """`m0_loss_gradients` of `fitted`, a classifier `_fit_stats` returned, through the posterior
    it carries (alphas, betas, mus) with beta0 = beta_hat * counts, on the unit rows: `features`
    divided by their validated `norms`.
    One pass over blocks of rows sums g = d loss / d logit (zero on the rows of excluded
    classes) into zsum_k = sum_n g_nk z_n and psum_k = sum_n g_nk, all that both routes need.
    Each block's unit rows and logits are written into one buffer each of _BLOCK (512) rows.
    Every transpose product is of the full buffers, a partial block's unused rows zeroed (rows
    of zero gradient): the product of a partial block's rows alone rounded differently under
    one and two BLAS threads."""
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
    unit, scores = np.empty((_BLOCK, p)), np.empty((_BLOCK, len(kappas)))
    for rows in _blocks(len(labels)):
        y = labels[rows]
        z = np.divide(features[rows], norms[rows, np.newaxis], out=unit[: len(y)])
        block = logits(fitted, z, out=scores[: len(y)])
        block -= block.max(axis=1, keepdims=True)
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)
        block[np.arange(len(y)), y] -= 1.0
        block[excluded[y]] = 0.0
        unit[len(y) :] = 0.0
        scores[len(y) :] = 0.0
        zsum += scores.T @ unit
        psum += block.sum(axis=0)
    proj = np.einsum("kp,kp->k", zsum, ms)
    # beta route: sum_n g_nk (m_k.T z_n - A_k) = m_k.T zsum_k - A_k psum_k, times dkappa/dbeta, along m_k.
    beta_coef = (proj - a_vals * psum) * dk_db
    # m route: kappa_k * (I - m_k m_k^T) zsum_k / beta_k.
    scale = np.divide(kappas, betas, out=np.zeros(len(kappas)), where=keep)
    tangent = (zsum - proj[:, np.newaxis] * ms) * scale[:, np.newaxis]
    return (beta_coef[:, np.newaxis] * ms + tangent) * (beta_hat * fitted.counts / len(labels))[:, np.newaxis]


def _check_prior_frame(train: Dataset, beta_hat: float, name: str) -> None:
    """A ValueError naming `name`, where beta_hat was set, when beta_hat > 0 and
    the training rows' dimension cannot hold bape's prior frame: an equiangular
    frame of one direction per class needs K - 1 dimensions."""
    k = train.n_classes
    if beta_hat > 0.0 and train.dim < k - 1:
        raise ValueError(f"{name} > 0 builds an equiangular prior frame of {k} directions, which needs "
                         f"training features of dimension >= {k - 1}, got {train.dim}")


def _fit_bape(train: Dataset, config: ExperimentConfig, seed: int) -> BayesClassifier:
    """Conjugate MAP fit, with the prior frame seeded from `seed` when beta_hat > 0
    and refined by config.m0_steps gradient steps, each on the loss of the
    classifier fitted at the frame it moves. The training rows' norms are
    taken once; the statistics and each gradient pass divide the rows by them
    a block at a time, so no float64 copy of the rows is made."""
    norms = _unit_norms(train.features)
    counts, resultants = class_stats(train.features, train.labels, train.n_classes, norms)
    frame, steps = None, 0
    if config.beta_hat > 0.0:
        # Prior frame seeded independently of the data-generating streams.
        frame_seed = int(substream(seed, 4).integers(2**63 - 1))
        frame, steps = build_etf(train.n_classes, train.dim, frame_seed), config.m0_steps
    for step in range(steps + 1):
        if step:
            g = _m0_gradients(fitted, config.beta_hat, train.features, norms, train.labels, config.estimation)
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


def _load_data(config: ExperimentConfig, seed: int, pool: ThreadPoolExecutor | None = None):
    """The training set, a zero-argument call that returns the test set, and
    the ground truth (None for files).

    Both files are read, and their dimensions checked, here. A generated
    training set of rows x p values is drawn on two threads when `pool` is
    given and `_hand_off(rows, p)` holds, rows x p >= _HAND_OFF_VALUES (see
    its comment): its worker fills the tail classes that hold the second
    half of the rows while this thread fills the rest. Generated test rows
    are checked and allocated here, after the training draw, and drawn by
    the call, which `_run_seed` runs on the worker while the heads are
    fitted when the test set is as large.
    """
    if config.train_file is not None:
        train_ds, test_ds = read_features(config.train_file), read_features(config.test_file)
        with _charged_to(config.methods[0], seed, config.methods):  # where it would surface otherwise
            if test_ds.dim != train_ds.dim:
                raise ValueError(f"test features have dimension {test_ds.dim}, training features {train_ds.dim}")
        # The config checks the frame rule on generated data only; here the
        # frame has the files' K and p. The first method to fit bape meets it.
        bape = [m for m in config.methods if {"bape", "bape+adjust"} & set(_HEADS[m])]
        if bape:
            with _charged_to(bape[0], seed, config.methods):
                _check_prior_frame(train_ds, config.beta_hat, "beta_hat")
        return train_ds, lambda: test_ds, None
    spec = LongTailSpec(config.n_classes, config.head_size, config.gamma)
    if pool is None or not _hand_off(sum(class_sizes(spec)), config.dim):
        train_ds, truth = generate(spec, config.dim, config.kappa_range, config.center_mode, seed)
    else:
        sizes, truth = _long_tail_truth(spec, config.dim, config.kappa_range, config.center_mode, seed)
        counts, features = _allocate_draw(truth, sizes)
        classes = range(truth.n_classes)
        split = int(np.searchsorted(np.cumsum(counts), len(features) / 2)) + 1
        _on_both_threads(pool, partial(_fill_classes, truth, counts, features, seed, 2, classes[:split]),
                         partial(_fill_classes, truth, counts, features, seed, 2, classes[split:]))
        train_ds = _drawn(truth, counts, features)
    test_counts, test_features = _allocate_draw(truth, np.full(config.n_classes, config.test_per_class))
    return train_ds, partial(_fill_draw, truth, test_counts, test_features, seed, 3), truth


# The fewest values a step must hold, rows times row width, before the worker
# takes a share of it: the training draw's rows x p, the test draw's rows x p
# and the scoring pass's test rows x (p + K). Threaded against serial, in
# process on 2 vCPUs (median paired ratio, 21 pairs), the split training draw
# broke even at 279k values (K=100, p=64, 4,357 rows of many tiny classes) and
# gained 0.82 at 558k; the test draw on the worker gained nothing up to 640k
# and 0.83 at 768k. The scoring pass alone gained at every size tried (0.74 at
# lt-default's 208k), but in a run whose steps are all small it is kept on one
# thread, so the run never starts the worker and spares its thread's memory:
# lt-default's peak RSS fell 1.2%, its op time within its spread. A small pass
# in a run whose draw has started the worker gives that gain up for nothing;
# no benchmark workload has that shape. lt-default's steps (74k, 128k and 208k
# values) stay on one thread and lt-exact-m0's (1.4M, 2.6M and 4.6M) on two,
# each at least twice as far from 2**19 = 524,288.
_HAND_OFF_VALUES = 2**19


def _hand_off(rows: int, width: int) -> bool:
    """Whether a step over `rows` rows of `width` values is large enough to
    share with the worker: a smaller one runs on the calling thread."""
    return rows * width >= _HAND_OFF_VALUES


def _on_both_threads(pool: ThreadPoolExecutor, own, other):
    """The results of own(), run on this thread, and of other(), run on
    `pool`'s worker at the same time, once both have ended. An error of
    own() is raised before one of other(), and either only once both have
    ended. Only the thread that owns `pool` may call this: its one worker
    must never wait for itself."""
    theirs = pool.submit(other)
    try:
        mine = own()
    finally:
        wait((theirs,))
    return mine, theirs.result()


# The weight directions each method's minority collapse is taken on. bape's
# are mus, not W: W rows of kappa=0 classes have no direction. The oracle and
# the ensemble have none.
_COLLAPSE_ON = {"bape": "mus", "bape+adjust": "mus", "softmax": "W", "logit_adjusted": "W"}


# The float64 scratch each scoring thread's block holds, in bytes. At K=20,
# p=32 with the ensemble listed this gives blocks of 1068 rows: in blocks of
# 256 rows the small per-block numpy calls, held by the GIL, made those runs
# about 7% slower. A block is never cut below _SCORE_MIN_ROWS rows, where
# the cost of each product call starts to show: on 2 vCPUs, 10,000 rows
# times a (1000, 256) W took 86 ms in blocks of 128 rows and 137 ms in
# blocks of 64.
_SCORE_BYTES = 768 * 1024
_SCORE_MIN_ROWS = 128


class _Scratch:
    """One thread's buffers for scoring `n` test rows a block of `block` rows
    at a time: one rows buffer, which holds the kind of rows last made,
    bape's product, and one score buffer per head of the method with the
    most `heads`. A block is sized to fill about _SCORE_BYTES with these
    buffers, and the buffers hold at most `n` rows. Made by the thread that
    runs the pass: a buffer the worker made would stay in the worker's
    malloc arena."""

    def __init__(self, n: int, dim: int, n_classes: int, heads: int):
        self.block = max(_SCORE_MIN_ROWS, _SCORE_BYTES // (8 * (dim + n_classes * (1 + heads))))
        size = min(self.block, n)
        self.rows = np.empty((size, dim))
        self.product = np.empty((size, n_classes))
        self.scores = [np.empty((size, n_classes)) for _ in range(heads)]


def _head_scores(head: str, built, features: np.ndarray, block: slice, scratch: _Scratch, cache: dict,
                 out: np.ndarray) -> np.ndarray:
    """`head`'s class scores on one block of test rows, written into `out`;
    `cache` records which kind of rows `scratch.rows` holds for this block,
    and bape's product once it is made.

    Each head scores the rows it was fitted on: the features divided by the
    norms that `built` holds for their kind, bitwise those rows of the
    full-size division. Every head whose W *is* bape's (bape+adjust under
    kappa_mode "keep") adds its own b to one product of the unit rows with
    that W.
    """
    clf, kind, n = built[head], _rows_of(head), block.stop - block.start
    shared = "bape" in built and clf.W is built["bape"].W
    # Once bape's product is made, a head that shares it needs no rows.
    if not (shared and "product" in cache) and cache.get("rows") != kind:
        np.divide(features[block], built[kind][block, np.newaxis], out=scratch.rows[:n])
        cache["rows"] = kind
    if not shared:
        return logits(clf, scratch.rows[:n], out=out[:n])
    if "product" not in cache:
        cache["product"] = np.matmul(scratch.rows[:n], clf.W.T, out=scratch.product[:n])
    return np.add(cache["product"], clf.b, out=out[:n])


def _predictions(built, methods, temperature: float, features: np.ndarray, charged, pool: ThreadPoolExecutor):
    """Each method's predicted class on every test row, and the seconds each
    method spent scoring them, summed over the threads that scored them.

    When `_hand_off(rows, p + K)` holds, rows x (p + K) >= _HAND_OFF_VALUES
    (see its comment), this thread scores the first half of the rows while
    `pool`'s worker scores the second; otherwise this thread scores them
    all, and `pool` is not used, so a run whose steps are all small never
    starts the worker. Each thread scores in blocks sized by `_Scratch` to
    about _SCORE_BYTES of scratch, unless K and p are so large that the
    block is at its floor of _SCORE_MIN_ROWS rows. Every head and kind of
    rows the methods read must be in `built` already: the threads only read
    it. Each method scores with its heads in `_HEADS`, whose scores on a
    block live only while that method is scored; the ensemble scores the
    mean of the bape and logit_adjusted log-posteriors, the latter at the
    training `temperature`, each taken in place in the thread's score
    buffers, so the only (block, K) array a block makes is the one each
    logsumexp holds while it runs. Each method is scored inside
    `charged(method)`: `_charged_to` in `compare`,
    `contextlib.nullcontext` in `eval`. An error
    of the first half is raised before one of the second, each once both
    halves have ended.
    """
    n = len(features)
    preds = {method: np.empty(n, dtype=np.intp) for method in methods}
    heads = max(len(_HEADS[method]) for method in methods)
    n_classes = len(built[_HEADS[methods[0]][0]].b)
    dim = features.shape[1]
    parts = [range(0, (n + 1) // 2), range((n + 1) // 2, n)] if _hand_off(n, dim + n_classes) else [range(n)]
    score = [partial(_score_rows, built, methods, temperature, features, charged, preds, rows,
                     _Scratch(len(rows), dim, n_classes, heads)) for rows in parts]
    seconds = _on_both_threads(pool, *score) if len(score) == 2 else [score[0]()]
    return preds, {method: sum(part[method] for part in seconds) for method in methods}


def _score_rows(built, methods, temperature: float, features: np.ndarray, charged, preds: dict, rows: range,
                scratch: _Scratch) -> dict:
    """Each method's predictions on `rows`, written into `preds`, a block of
    `scratch.block` rows at a time, each method inside `charged(method)`;
    returns the seconds each method spent."""
    seconds = dict.fromkeys(methods, 0.0)
    for start in range(rows.start, rows.stop, scratch.block):
        block, cache = slice(start, min(start + scratch.block, rows.stop)), {}
        for method in methods:
            started = time.perf_counter()
            with charged(method):
                scores = [_head_scores(head, built, features, block, scratch, cache, out)
                          for head, out in zip(_HEADS[method], scratch.scores)]
                if method == "ensemble":
                    linear, bape = scores
                    if temperature != 1.0:  # x / 1.0 is x: skipping it changes no score
                        with np.errstate(over="ignore"):
                            linear /= temperature
                        # Two reductions, not a (block, K) mask: finite at both ends is finite throughout.
                        if not (np.isfinite(linear.max()) and np.isfinite(linear.min())):
                            raise ValueError(f"temperature {temperature} takes the logit_adjusted scores "
                                             "past the float range")
                    log_softmax(bape, out=bape)
                    bape += log_softmax(linear, out=linear)
                    bape *= 0.5
                    scores = [bape]
                preds[method][block] = top_class(scores[0])
            seconds[method] += time.perf_counter() - started
    return seconds


@contextmanager
def _charged_to(method: str, seed: int, methods):
    """Re-raise any error as an ExperimentError naming the method and seed, a
    MemoryError as an ExperimentMemoryError; a diverging linear head
    is charged to its own method if listed, else to the first of `methods`
    that scores with it, not to the first user of the stack it was trained
    in."""
    try:
        yield
    except Exception as exc:
        if isinstance(exc, TrainingDivergedError):
            method = next(m for m in sorted(methods, key=lambda m: m != exc.mode) if exc.mode in _HEADS[m])
        error = ExperimentMemoryError if isinstance(exc, MemoryError) else ExperimentError
        raise error(f"method {method!r}, seed {seed}: {exc}") from exc


def _tail_collapse(built, method: str, train_counts, threshold: int) -> float | None:
    tail = np.flatnonzero(np.asarray(train_counts) < threshold)
    if method not in _COLLAPSE_ON or tail.size < 2:
        return None
    weights = getattr(built[method], _COLLAPSE_ON[method])
    return minority_collapse_metric(LinearClassifier(weights, np.zeros(len(weights))), tail)


def run_experiment(config: ExperimentConfig) -> list[ReportRow]:
    """All configured methods on all seeds; rows sorted by (method, seed).

    One worker thread, which lives for this call, works beside the calling
    thread on each seed's steps of at least _HAND_OFF_VALUES values: it fills
    the tail classes of such a training draw, draws such a test set while the
    heads are fitted, and scores the second half of such a scoring pass. It
    is started at the first such step, so a run of smaller steps starts no
    thread. Each class draws from its own substream and each row's scores
    depend on that row alone, so no value depends on the threads' timing.
    """
    rows = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        for seed in config.seeds:
            rows.extend(_run_seed(config, seed, pool))
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


def _run_seed(config: ExperimentConfig, seed: int, pool: ThreadPoolExecutor) -> list[ReportRow]:
    """One seed's report rows. A test set of at least _HAND_OFF_VALUES values,
    rows x p (see its comment), is drawn on `pool` while the heads are
    fitted, and a failed draw's error is raised in place of any fit's; a
    smaller one, or a test file's, is drawn here before any head is fitted.
    Either way a draw's error names no method."""
    train_ds, draw_test, truth = _load_data(config, seed, pool)
    if truth is None or not _hand_off(config.n_classes * config.test_per_class, config.dim):
        test_ds = draw_test()  # raised here, its error comes before every fit's and names no method
        return _seed_rows(config, seed, train_ds, lambda: test_ds, truth, pool)
    drawn = pool.submit(draw_test)
    try:
        return _seed_rows(config, seed, train_ds, drawn.result, truth, pool)
    finally:
        # The draw comes before every fit, so once it has ended a failed
        # draw's own error is the one raised.
        error = drawn.exception()  # waits for the draw
        if error is not None:
            raise error from None


def _seed_rows(config: ExperimentConfig, seed: int, train_ds: Dataset, test_set, truth,
               pool: ThreadPoolExecutor) -> list[ReportRow]:
    """One seed's report rows; `test_set()` returns the test set, waiting for
    its draw, and `pool`'s worker scores half of a large pass's test rows."""
    # The linear heads this run needs, trained together on the first use of either.
    heads = tuple(head for head in _SGD_HEADS if head in _heads_of(config.methods))
    waited = []  # the one wait for the test set, which no method is charged

    def joined(_):
        started = time.perf_counter()
        test_ds = test_set()
        waited.append(time.perf_counter() - started)
        return test_ds

    # The test set, the heads and the norms of each kind of test rows, built
    # on first use and shared after: bape+adjust reuses the bape fit. The
    # norms are taken and checked once, straight from the float32 features:
    # as unit vectors for the unit rows, and as nonzero under normalize for
    # the linear rows.
    built = _BuiltOnFirstUse({
        "test": joined,
        "unit": lambda deps: _unit_norms(deps["test"].features),
        "linear": lambda deps: _linear_norms(deps["test"].features, config.normalize),
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
        "oracle": lambda deps: truth.classifier(ClassPriors.from_counts(deps["test"].class_counts)),
    })

    scored = config.methods
    if truth is not None and "oracle" not in scored:  # its predictions give every row's oracle_accuracy
        scored += ("oracle",)
    # Every head is fitted, and then its test rows checked, in method order
    # before any row is scored: each error names the method that meets it
    # first. The scoring threads then only read `built`.
    seconds, collapse = {}, {}
    for method in scored:
        started = time.perf_counter()
        with _charged_to(method, seed, config.methods):
            for head in _HEADS[method]:
                built[head]
                built[_rows_of(head)]
            collapse[method] = _tail_collapse(built, method, train_ds.class_counts, config.thresholds[0])
        seconds[method] = time.perf_counter() - started - (waited.pop() if waited else 0.0)
    test_ds = built["test"]
    _training_counts(test_ds.labels, train_ds.class_counts)  # the split check, before any row is scored
    charged = partial(_charged_to, seed=seed, methods=scored)
    preds, pass_seconds = _predictions(built, scored, config.temperature, test_ds.features, charged, pool)
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
