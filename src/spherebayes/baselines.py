"""Gradient-trained linear baselines: softmax cross-entropy and logit adjustment.

These estimate the decision rule implicitly through W and b instead of
through distribution parameters. The logit-adjusted mode trains against the
prior-weighted softmax

    p(y|z) = pi_y exp(s_y) / sum_k pi_k exp(s_k),    s = (Wz + b)/tau,

which is plain cross-entropy with ln pi added to the logits. Also houses the
minority-collapse diagnostic (tail classifier directions crowding together).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .classifier import ClassPriors, _check_labels, log_softmax, logits, top_class
from .special import logsumexp
from .vmf import _norms, substream

__all__ = [
    "LinearClassifier",
    "TrainConfig",
    "TrainingDivergedError",
    "ce_loss",
    "ce_loss_grad",
    "train",
    "predict_linear",
    "minority_collapse_metric",
    "norm_report",
    "linear_to_json",
    "linear_from_json",
]


class TrainingDivergedError(RuntimeError):
    """The training loss left the finite range; mode names the head that did."""

    def __init__(self, message: str, mode: str | None = None):
        super().__init__(message)
        self.mode = mode


@dataclass(frozen=True)
class LinearClassifier:
    """Plain linear scorer: logits = W z + b."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.W, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError(f"inconsistent shapes W{w.shape}, b{b.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite classifier parameters")
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "b", b)

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch gradient descent schedule for the linear baselines.

    mode "softmax" is plain cross-entropy; "logit_adjusted" adds ln pi to the
    logits inside the loss (training-time adjustment), with pi taken from the
    training label frequencies. grad_scale multiplies every gradient: it is
    the weight of this loss inside a larger objective (0 freezes training at
    the initialization). Features are consumed as given unless normalize=True
    projects them onto the unit sphere first; `compare` then scores its linear
    heads, the ensemble's included, on test rows projected the same way.
    """

    lr: float
    epochs: int
    batch_size: int
    weight_decay: float = 0.0
    mode: str = "softmax"
    temperature: float = 1.0
    rng_seed: int = 0
    momentum: float = 0.9
    normalize: bool = False
    grad_scale: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.lr) or self.lr < 0.0:
            raise ValueError(f"lr must be >= 0 and finite, got {self.lr}")
        for key in ("epochs", "batch_size"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not np.isfinite(self.weight_decay) or self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.mode not in ("softmax", "logit_adjusted"):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if not np.isfinite(self.temperature) or not self.temperature > 0.0:
            raise ValueError(f"temperature must be > 0 and finite, got {self.temperature}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not np.isfinite(self.grad_scale) or self.grad_scale < 0.0:
            raise ValueError("grad_scale must be >= 0 and finite")


def _adjusted_logits(clf, z, mode, priors, temperature):
    if mode not in ("softmax", "logit_adjusted"):
        raise ValueError(f"unknown mode {mode!r}")
    s = logits(clf, z) / temperature
    if mode == "logit_adjusted":
        if priors is None:
            raise ValueError("logit_adjusted mode needs class priors")
        s = s + priors.log()
    return s


def ce_loss(
    clf: LinearClassifier,
    z,
    y,
    mode: str = "softmax",
    priors: ClassPriors | None = None,
    temperature: float = 1.0,
) -> float | np.ndarray:
    """Cross-entropy of the (optionally prior-weighted) softmax; scalar or batch."""
    z = np.asarray(z, dtype=float)
    y = _check_labels(y, clf.n_classes)
    logp = log_softmax(_adjusted_logits(clf, z, mode, priors, temperature))
    if logp.ndim == 1:
        return float(-logp[int(y)])
    return -logp[np.arange(logp.shape[0]), y]


def ce_loss_grad(
    clf: LinearClassifier,
    z,
    y,
    mode: str = "softmax",
    priors: ClassPriors | None = None,
    temperature: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dW, db) of ce_loss at a single point: outer((p - onehot)/tau, z)."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError("gradient is defined for a single input vector")
    y = int(_check_labels(y, clf.n_classes))
    p = np.exp(log_softmax(_adjusted_logits(clf, z, mode, priors, temperature)))
    p[y] -= 1.0
    p /= temperature
    return np.outer(p, z), p


def train(
    features,
    labels,
    config: TrainConfig,
    loss_history: list | None = None,
    n_classes: int | None = None,
) -> LinearClassifier:
    """Mini-batch gradient descent with momentum and per-epoch cosine lr decay.

    Deterministic for a fixed config.rng_seed (initialization and shuffling
    use separate named substreams). Weight decay applies to W only. If
    loss_history is given, the mean training loss of each epoch is appended.
    n_classes defaults to max(label)+1; pass it when the highest classes may
    have no training samples (their rows then see no cross-entropy signal).
    """
    (clf, history), = _train_heads(features, labels, n_classes, config, [(config.mode, config.grad_scale)])
    if loss_history is not None:
        loss_history.extend(history)
    return clf


def _train_heads(z, y, k, schedule: TrainConfig, heads) -> list[tuple[LinearClassifier, list[float]]]:
    """The SGD loop of `train`, run for several heads at once.

    heads are (mode, grad_scale) pairs; every other setting comes from
    schedule, whose own mode and grad_scale are not read. The heads share
    the initialization, the shuffle order and the lr schedule, so they are
    stacked as one (H, K, p) problem: each step runs one batched product,
    one log-softmax and one batched gradient for all of them. Each head adds
    its own log-prior row (0 for softmax, ln pi for logit_adjusted) and its
    own grad_scale, and its arithmetic is that of a one-head run, so its W,
    b and loss history are bitwise those of `train` in its mode.

    The step is bound by numpy call overhead at the sizes used here, so it
    saves calls and temporaries wherever that changes no bit:
    - W and b are views of one flat parameter buffer, with a gradient buffer
      and a velocity buffer of the same layout. The two gradient products
      write into the gradient's views, and the lr scaling, the momentum
      update and the parameter update each run once over the whole buffer.
    - Identity operations are skipped: the division by a temperature of 1,
      the grad_scale multiply when every head's scale is 1, and the weight
      decay term when it is 0.
    - The log-softmax runs in place on per-batch-size scratch buffers, with
      the one-maximum form of `special.logsumexp` written inline; a batch
      with a tied or nan maximum in any row calls `logsumexp` itself.
    - The flat true-class indices are gathered once per epoch, each batch
      takes a slice of them, and each step's true-class log-probabilities
      are kept, to be summed into per-step mean losses once per epoch.
    The losses are checked for non-finite values once per epoch; a
    divergence raises TrainingDivergedError naming the first step and head
    that went non-finite, as a per-step check would.
    Returns one (classifier, per-epoch mean losses) pair per head.
    """
    z = np.asarray(z, dtype=float)
    y = _check_labels(y, None)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError("features must be a nonempty (n, p) array")
    if y.shape != (z.shape[0],):
        raise ValueError("labels length does not match features")
    n, p = z.shape
    k = int(y.max()) + 1 if k is None else int(k)
    if k < 2:
        raise ValueError("need at least 2 classes present")
    _check_labels(y, k)
    z = _linear_rows(z, schedule.normalize)
    h = len(heads)
    modes = [mode for mode, _ in heads]
    scales = np.array([s for _, s in heads], dtype=float)
    counts = np.bincount(y, minlength=k)
    log_pi = np.stack([
        ClassPriors.from_counts(counts).log() if mode == "logit_adjusted" else np.zeros(k) for mode in modes
    ])[:, np.newaxis, :]

    # params holds every head's W, then every head's b; grad and vel match it.
    params = np.zeros(h * k * (p + 1))
    grad = np.empty_like(params)
    vel = np.zeros_like(params)
    w, gw = (a[: h * k * p].reshape(h, k, p) for a in (params, grad))
    b, gb = (a[h * k * p :].reshape(h, 1, k) for a in (params, grad))
    w[...] = substream(schedule.rng_seed, 0).standard_normal((k, p)) / np.sqrt(p)
    wt = w.transpose(0, 2, 1)  # a view: params is only ever updated in place
    # Each element's grad_scale, or None when multiplying by it would change nothing.
    scale = None if (scales == 1.0).all() else np.concatenate([np.repeat(scales, k * p), np.repeat(scales, k)])
    temperature = schedule.temperature
    weight_decay = schedule.weight_decay
    shuffler = substream(schedule.rng_seed, 1)
    size = schedule.batch_size
    starts = range(0, n, size)
    batch_sizes = np.diff([*starts, n], prepend=0)[:, np.newaxis]  # row i + 1: step i's m; row 0: 0
    # Scratch for a batch of m rows; only the last batch can have m < size.
    scratch = {m: _step_scratch(h, m, k, p) for m in set(batch_sizes[1:, 0].tolist())}
    # Each sample's flat index in the (H, m, K) logits of its batch of m
    # rows, less its label: head h's block starts at h*m*K, and the sample's
    # row at (i % size)*K.
    position = np.arange(n)
    batch_of = np.where(position < starts[-1], size, n - starts[-1])
    offsets = np.arange(h)[:, np.newaxis] * batch_of * k + position % size * k
    # Row i holds step i's (H, m) true-class log-probabilities in its first
    # m columns, C-contiguous per head so that each head's sum runs as over
    # a one-head (m,) vector.
    picked = np.empty((len(starts), h, size))
    full = n // size  # the steps with m = size
    # Row 0 stays 0, the start of each epoch's running total of loss * m;
    # row i + 1 takes step i's mean loss.
    losses = np.zeros((len(starts) + 1, h))
    histories = np.zeros((schedule.epochs, h))

    # Divergence ends in inf or nan, which the finite checks below report;
    # the rest of a diverging epoch runs on, silently, before the check.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(schedule.epochs):
            lr = schedule.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / schedule.epochs))
            order = shuffler.permutation(n)
            # The true-class indices are gathered once per epoch. The features
            # are not: a shuffled copy of z per epoch measured no faster than
            # the per-batch gathers and held about 1 MB more at peak.
            targets = offsets + y[order]
            for step, start in enumerate(starts):
                target = targets[:, start : start + size]
                m = target.shape[1]
                zb, s, terms, at_top, top, total, arg, row_start, hit = scratch[m]
                # mode="clip" skips take's buffered bounds check: every index
                # here is in range by construction.
                z.take(order[start : start + size], axis=0, out=zb, mode="clip")
                np.matmul(zb, wt, out=s)
                s += b
                if temperature != 1.0:
                    s /= temperature
                s += log_pi
                # log_softmax in place: s - logsumexp(s), with the one-maximum
                # form of logsumexp written out. top is each row's first
                # maximum (nan in a row holding one), found at flat index arg.
                # The test below passes only when every row has exactly one
                # entry equal to its maximum; a nan row has none, and the nan
                # check keeps it from hiding a tie in another row. (argmax and
                # a gather measured faster than a maximum reduction over K.)
                s.reshape(-1, k).argmax(axis=1, out=arg)
                arg += row_start
                s.take(arg, out=top.reshape(-1), mode="clip")
                np.equal(s, top, out=at_top)
                if np.count_nonzero(at_top) == top.size and not np.count_nonzero(np.isnan(top)):
                    np.subtract(s, top, out=terms)
                    np.exp(terms, out=terms)
                    terms.put(arg, 0.0)
                    np.add.reduce(terms, axis=-1, keepdims=True, out=total)
                    np.log1p(total, out=total)
                    total += top
                    s -= total
                else:
                    s -= logsumexp(s, axis=-1, keepdims=True)
                logp = s.take(target, out=picked[step, :, :m], mode="clip")
                g = np.exp(s, out=s)
                np.exp(logp, out=hit)
                hit -= 1.0
                g.put(target, hit, mode="clip")  # p - onehot at the true classes
                g /= m * temperature
                np.matmul(g.transpose(0, 2, 1), zb, out=gw)
                np.add.reduce(g, axis=1, keepdims=True, out=gb)
                if scale is not None:
                    grad *= scale
                if weight_decay != 0.0:
                    gw += weight_decay * w
                grad *= lr
                vel *= schedule.momentum
                vel -= grad
                params += vel
            np.add.reduce(picked[:full], axis=-1, out=losses[1 : full + 1])
            if full < len(starts):
                np.add.reduce(picked[-1, :, : batch_sizes[-1, 0]], axis=-1, out=losses[-1])
            np.divide(losses[1:], -batch_sizes[1:], out=losses[1:])
            finite = np.isfinite(losses)
            if not finite.all():
                row = int(np.argmin(finite.all(axis=1)))  # the losses row of the first step to diverge
                raise _diverged(
                    finite[row], modes, f"non-finite loss at epoch {epoch}, sample offset {starts[row - 1]} (lr={lr:.3g})"
                )
            # Added in step order, as a running total of loss * m would be.
            histories[epoch] = np.add.accumulate(losses * batch_sizes)[-1]
    finite = np.isfinite(w).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
    if not finite.all():
        raise _diverged(finite, modes, "non-finite weights after the last step")
    histories /= n
    return [(LinearClassifier(w[i], b[i, 0]), histories[:, i].tolist()) for i in range(h)]


def _step_scratch(h: int, m: int, k: int, p: int) -> tuple[np.ndarray, ...]:
    """Buffers for one `_train_heads` step on a batch of m rows: the rows;
    their (H, m, K) logits; the log-softmax's exp terms and maxima mask, of
    the same shape; each row's maximum and the sum of its terms, (H, m, 1);
    the flat index of each row's maximum and of its start, (H*m,); and the
    gradient's (H, m) true-class entries."""
    s = np.empty((h, m, k))
    return (np.empty((m, p)), s, np.empty_like(s), np.empty(s.shape, dtype=bool), np.empty((h, m, 1)),
            np.empty((h, m, 1)), np.empty(h * m, dtype=np.intp), np.arange(h * m) * k, np.empty((h, m)))


def _linear_rows(z: np.ndarray, normalize: bool) -> np.ndarray:
    """The rows a linear head is trained and scored on: z as given, or under
    normalize z projected onto the sphere; a zero row raises ValueError."""
    if not normalize:
        return z
    return z / _projection_norms(z)[:, np.newaxis]


def _projection_norms(z: np.ndarray) -> np.ndarray:
    """The float64 norms that `_linear_rows` divides z's rows by under
    normalize; a zero row raises ValueError."""
    norms = _norms(z)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"row {zero[0]} has zero norm and cannot be normalized")
    return norms


def _diverged(finite, modes, what) -> TrainingDivergedError:
    """The error for the first head whose entry of finite is False."""
    mode = modes[int(np.argmin(finite))]
    return TrainingDivergedError(f"{mode} head: {what}", mode=mode)


def predict_linear(clf: LinearClassifier, z) -> int | np.ndarray:
    """Argmax of W z + b; ties break to the lowest index."""
    return top_class(logits(clf, np.asarray(z, dtype=float)))


_MIN_NORMAL_NORM = np.sqrt(np.finfo(float).tiny)  # a smaller norm's sum of squares is subnormal


def _row_norms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Euclidean norm as scale * norm. Where the sum of squares
    overflows or leaves the normal range, the norm is that of the row divided
    by its largest |entry|, its scale; other rows, zero rows too, have scale 1."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    scale = np.ones(len(rows))
    lost = np.flatnonzero((norms < _MIN_NORMAL_NORM) | (norms == np.inf))
    peak = np.abs(rows[lost]).max(axis=1, initial=0.0)
    lost, peak = lost[peak > 0.0], peak[peak > 0.0]
    scale[lost] = peak
    norms[lost] = np.linalg.norm(rows[lost] / peak[:, np.newaxis], axis=1)
    return scale, norms


def minority_collapse_metric(clf: LinearClassifier, tail_classes) -> float:
    """Mean pairwise cosine similarity among the tail-class weight rows.

    Near 1 means the tail classifiers have collapsed onto one direction;
    an equiangular arrangement of all K rows would give -1/(K-1).
    """
    tail = sorted(set(int(i) for i in tail_classes))
    if len(tail) < 2:
        raise ValueError("need at least 2 tail classes")
    if tail[0] < 0 or tail[-1] >= clf.n_classes:
        raise ValueError("tail class index out of range")
    rows = clf.W[tail]
    scale, norms = _row_norms(rows)
    if np.any(norms == 0.0):
        raise ValueError("zero weight row has no direction")
    unit = rows / scale[:, np.newaxis] / norms[:, np.newaxis]
    cos = unit @ unit.T
    m = len(tail)
    return float((cos.sum() - m) / (m * (m - 1)))


def norm_report(clf: LinearClassifier, features, labels) -> list[dict]:
    """Per-class rows of (class, count, ||w_y|| * mean feature norm of the class)."""
    z = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    weight_norms = np.multiply(*_row_norms(clf.W))
    rows = []
    for c in range(clf.n_classes):
        zc = z[y == c]
        mean_norm = float(np.linalg.norm(zc, axis=1).mean()) if len(zc) else 0.0
        rows.append({"class": c, "count": int(len(zc)), "weight_feature_norm": float(weight_norms[c]) * mean_norm})
    return rows


def linear_to_json(clf: LinearClassifier, normalize: bool = False) -> str:
    """Serialize as {p, K, W, b} with full-precision floats, plus
    "normalize": true when the head was trained on rows projected onto the
    sphere (see `TrainConfig`), so that its scorer projects its rows too."""
    doc = {"p": clf.dim, "K": clf.n_classes, "W": clf.W.tolist(), "b": clf.b.tolist()}
    if normalize:
        doc["normalize"] = True
    return json.dumps(doc, indent=2)


def linear_from_json(text: str) -> LinearClassifier:
    doc = json.loads(text)
    try:
        w = np.asarray(doc["W"], dtype=float)
        b = np.asarray(doc["b"], dtype=float)
        if w.shape != (int(doc["K"]), int(doc["p"])):
            raise ValueError("declared shape does not match W")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed classifier document: {exc}") from None
    return LinearClassifier(w, b)
