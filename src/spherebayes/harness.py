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
Each run has one worker thread beside the calling thread. It fills the tail
classes of a generated training set of at least two _BLOCKs of rows, then
draws the test rows while the heads are fitted; they are waited for at their
first use. Every head is fitted and every test row checked before any row is
scored. The scoring then splits the test rows in two halves, one per thread,
each scored in row blocks, which keeps the scratch memory at O(block * K)
and each prediction bitwise that of the full-size arrays.

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
    _projection_norms,
    _train_heads,
    minority_collapse_metric,
)
from .classifier import (
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
    test_per_class: int = _key(200, "count", (lambda v: v >= 1, ">= 1"), generate="--test-per-class")
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


# Rows per block of the m0 gradient's pass over the training rows, and per
# pair of blocks, one on each thread, of the scoring pass over the test rows;
# each makes its (n, K) scratch one block at a time.
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


def _load_data(config: ExperimentConfig, seed: int, pool: ThreadPoolExecutor | None = None):
    """The training set, a zero-argument call that returns the test set, and
    the ground truth (None for files).

    Both files are read, and their dimensions checked, here. A generated
    training set of at least two _BLOCKs of rows is drawn on two threads
    when `pool` is given: its worker fills the tail classes that hold the
    second half of the rows while this thread fills the rest. Generated test
    rows are checked and allocated here, after the training draw, and drawn
    by the call, which may run on another thread while the heads are fitted.
    """
    if config.train_file is not None:
        train_ds, test_ds = read_features(config.train_file), read_features(config.test_file)
        with _charged_to(config.methods[0], seed, config.methods):  # where it would surface otherwise
            if test_ds.dim != train_ds.dim:
                raise ValueError(f"test features have dimension {test_ds.dim}, training features {train_ds.dim}")
        return train_ds, lambda: test_ds, None
    spec = LongTailSpec(config.n_classes, config.head_size, config.gamma)
    if pool is None or sum(class_sizes(spec)) < 2 * _BLOCK:
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


def _score_slots(methods) -> dict:
    """The score buffer each head of `methods` is written into. A head keeps
    its buffer from the first method that reads it to the last; a buffer
    freed then goes to the next head scored."""
    last = {head: i for i, method in enumerate(methods) for head in _HEADS[method]}
    slots, free = {}, []
    for i, method in enumerate(methods):
        for head in _HEADS[method]:
            if head not in slots:
                slots[head] = free.pop() if free else len(set(slots.values()))
        free += [slots[head] for head in _HEADS[method] if last[head] == i]
    return slots


class _Scratch:
    """One thread's buffers for scoring blocks of up to `size` test rows: one
    rows buffer, which holds the kind of rows last made, bape's product, and
    the score buffers of `slots`. Made by the thread that runs the pass: a
    buffer the worker made would stay in the worker's malloc arena."""

    def __init__(self, size: int, dim: int, n_classes: int, slots: dict):
        self.rows = np.empty((size, dim))
        self.product = np.empty((size, n_classes))
        self.scores = [np.empty((size, n_classes)) for _ in range(max(slots.values()) + 1)]
        self.slots = slots


def _head_scores(head: str, built, features: np.ndarray, block: slice, scratch: _Scratch, cache: dict) -> np.ndarray:
    """`head`'s class scores on one block of test rows, written once per block
    into its buffer in `scratch`, as are the rows they need; `cache` records
    what the buffers hold for this block.

    Each head scores the rows it was fitted on. Those are the float64
    features divided by the norms that `built` holds for their kind (none for
    linear rows taken as given), bitwise those rows of the full-size
    as_unit_vector or _linear_rows result. Every head whose W *is* bape's
    (bape+adjust under kappa_mode "keep") adds its own b to one product of
    the unit rows with that W.
    """
    if head not in cache:
        kind, clf, n = _rows_of(head), built[head], block.stop - block.start
        rows = scratch.rows[:n]
        if cache.get("rows") != kind:
            norms = built[kind]
            if norms is None:
                np.copyto(rows, features[block])
            else:
                np.divide(features[block], norms[block, np.newaxis], out=rows)
            cache["rows"] = kind
        out = scratch.scores[scratch.slots[head]][:n]
        if "bape" in built and clf.W is built["bape"].W:
            if "bape_product" not in cache:
                cache["bape_product"] = np.matmul(rows, clf.W.T, out=scratch.product[:n])
            cache[head] = np.add(cache["bape_product"], clf.b, out=out)
        else:
            cache[head] = logits(clf, rows, out=out)
    return cache[head]


def _predictions(built, methods, config: ExperimentConfig, features: np.ndarray, seed: int,
                 pool: ThreadPoolExecutor):
    """Each method's predicted class on every test row, and the seconds each
    method spent scoring them, summed over both threads.

    This thread scores the first half of the rows while `pool`'s worker
    scores the second, each in blocks of _BLOCK // 2 rows, so both threads
    together hold the scratch of one _BLOCK. Every head and kind of rows the
    methods read must be in `built` already: the threads only read it. Each
    method scores with its heads in `_HEADS`, whose scores on a block are
    made once and kept while a later method of the block reads them; the
    ensemble scores the mean of the bape and logit_adjusted log-posteriors,
    the latter at the training temperature. An error of the first half is
    raised before one of the second, each once both halves have ended.
    """
    n, slots = len(features), _score_slots(methods)
    preds = {method: np.empty(n, dtype=np.intp) for method in methods}
    n_classes = len(built[next(iter(slots))].b)
    halves = [range(0, (n + 1) // 2), range((n + 1) // 2, n)]
    score = [partial(_score_rows, built, methods, config, features, seed, preds, rows,
                     _Scratch(min(_BLOCK // 2, len(rows)), features.shape[1], n_classes, slots)) for rows in halves]
    seconds = _on_both_threads(pool, *score)
    return preds, {method: seconds[0][method] + seconds[1][method] for method in methods}


def _score_rows(built, methods, config: ExperimentConfig, features: np.ndarray, seed: int, preds: dict, rows: range,
                scratch: _Scratch) -> dict:
    """Each method's predictions on `rows`, written into `preds`, a block of
    _BLOCK // 2 rows at a time; returns the seconds each method spent."""
    seconds = dict.fromkeys(methods, 0.0)
    for start in range(rows.start, rows.stop, _BLOCK // 2):
        block, cache = slice(start, min(start + _BLOCK // 2, rows.stop)), {}
        for method in methods:
            started = time.perf_counter()
            with _charged_to(method, seed, methods):
                scores = [_head_scores(head, built, features, block, scratch, cache) for head in _HEADS[method]]
                if method == "ensemble":
                    linear, bape = scores
                    scores = [0.5 * (log_softmax(bape) + log_softmax(linear / config.temperature))]
                preds[method][block] = top_class(scores[0])
            seconds[method] += time.perf_counter() - started
    return seconds


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
    """All configured methods on all seeds; rows sorted by (method, seed).

    One worker thread, which lives for this call, works beside the calling
    thread on each seed: it fills the tail classes of a large training draw,
    draws the test set while the heads are fitted, and scores the second half
    of the test rows. Each class draws from its own substream and each row's
    scores depend on that row alone, so no value depends on the threads'
    timing.
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
    """One seed's report rows; its test set is drawn on `pool` while the heads are fitted."""
    train_ds, draw_test, truth = _load_data(config, seed, pool)
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
    its draw, and `pool`'s worker scores half the test rows."""
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
        "linear": lambda deps: _projection_norms(deps["test"].features) if config.normalize else None,
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
    preds, pass_seconds = _predictions(built, scored, config, test_ds.features, seed, pool)
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
