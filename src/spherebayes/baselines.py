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
from .vmf import _float_rows, _norms, _row_norms, substream

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
    stacked as one (H, K, p + 1) problem: each head's [W | b] is one block of
    a flat parameter buffer, and the training rows carry a trailing column of
    ones, so one batched product gives W z + b and one gives [dW | db] for
    all heads. Each head adds its own log-prior vector (0 for softmax, ln pi for
    logit_adjusted; after the temperature, so that the -inf of an empty class
    stays out of the parameters) and its own grad_scale, and its arithmetic
    is that of a one-head run, so its W, b and loss history are bitwise those
    of `train` in its mode.

    The step is bound by numpy call overhead at the sizes used here, so it
    makes its ufunc and BLAS calls and nothing else: every operand a step
    takes (its row and target slices, scratch buffers and their views, and
    the floats m*T and 1/(m*T)) is built once per run, in one tuple per
    step, and the step skips identity operations (the division by a
    temperature of 1, the grad_scale multiply when every head's scale is 1,
    and a weight decay of 0). The log-priors are broadcast once per batch
    size to a contiguous (H, K, m) array, so that adding them is one flat
    pass. A batch of m rows has class-major (H, K, m) logits, theta @ zb.T,
    one (K, p + 1) x (p + 1, m) product per head as in a one-head run: one
    (H*K, p + 1) product would sum in another order and change bits
    against `train`, and so would a contiguous copy of zb.T. Each sample's maximum
    and softmax sum then reduce over K contiguous runs of m values, which
    numpy does as a few long vector operations. The softmax is shifted by
    each sample's maximum and exponentiated; dividing by its sums times m*T
    and subtracting 1/(m*T) at the targets gives (p - onehot)/(m*T) in one
    pass over the logits. Each step keeps its shifted true-class logits and
    its row sums, which become per-step mean losses once per epoch, in
    buffers made once. The
    losses are checked for non-finite values once per epoch; a divergence
    raises TrainingDivergedError naming the first step and head that went
    non-finite, as a per-step check would.
    Returns one (classifier, per-epoch mean losses) pair per head.
    """
    z = _float_rows(z)
    y = _check_labels(y, None)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError("features must be a nonempty (n, p) array")
    if y.shape != (z.shape[0],):
        raise ValueError("labels length does not match features")
    n, p = z.shape
    k = int(y.max()) + 1 if k is None else int(k)
    if k < 2:
        raise ValueError("need at least 2 classes present")
    y = _check_labels(y, k).astype(np.intp, copy=False)  # in range, so exact; the targets are intp too
    # The training rows with a trailing 1, the only float64 copy of z.
    rows = np.empty((n, p + 1))
    rows[:, p] = 1.0
    np.divide(z, _linear_norms(z, schedule.normalize)[:, np.newaxis], out=rows[:, :p])
    h = len(heads)
    modes = [mode for mode, _ in heads]
    scales = np.array([s for _, s in heads], dtype=float)
    counts = np.bincount(y, minlength=k)
    log_pi = np.stack([
        ClassPriors.from_counts(counts).log() if mode == "logit_adjusted" else np.zeros(k) for mode in modes
    ])[:, :, np.newaxis]

    # theta holds each head's [W | b]; grad and vel share params' layout.
    params = np.zeros(h * k * (p + 1))
    grad = np.empty_like(params)
    vel = np.zeros_like(params)
    theta, gtheta = (a.reshape(h, k, p + 1) for a in (params, grad))
    theta[:, :, :p] = substream(schedule.rng_seed, 0).standard_normal((k, p)) / np.sqrt(p)
    # Each element's grad_scale, or None when multiplying by it would change nothing.
    scale = None if (scales == 1.0).all() else np.repeat(scales, k * (p + 1))
    temperature = schedule.temperature
    weight_decay = schedule.weight_decay
    momentum = schedule.momentum
    shuffler = substream(schedule.rng_seed, 1)
    size = min(schedule.batch_size, n)  # a batch never holds more than the n rows
    starts = range(0, n, size)
    batch_sizes = np.diff([*starts, n], prepend=0)[:, np.newaxis]  # row i + 1: step i's m; row 0: 0
    # Each sample's flat index in the (H, K, m) logits of its batch of m
    # rows is h*K*m + y*m + i % size; offsets holds all but the y*m term.
    position = np.arange(n)
    batch_of = np.where(position < starts[-1], size, n - starts[-1])
    offsets = np.arange(h)[:, np.newaxis] * k * batch_of + position % size
    # Each epoch shuffles `order` in place (as permutation(n) shuffles a
    # fresh arange) and writes its targets into `targets`, so that every
    # step's slices of both are views made once.
    order = np.empty_like(position)
    targets = np.empty_like(offsets)
    # Step i keeps its (H, m) shifted true-class logits and row sums in the
    # first m columns of row i, C-contiguous per head so that each head's
    # sum runs as over a one-head (m,) vector; the unused columns of a short
    # last step stay 0 and 1.
    shifted = np.zeros((len(starts), h, size))
    sums = np.ones((len(starts), h, size))
    # Scratch for a batch of m rows (only the last batch can have m < size):
    # the rows, their (H, K, m) logits, and each sample's maximum and its
    # softmax sum times m*T, both (H, 1, m); and the log-priors broadcast to
    # a C-contiguous (H, K, m) array, whose add runs as one flat pass where
    # a (H, K, 1) operand's would be strided, with the same sums.
    scratch = {m: (np.empty((m, p + 1)), np.empty((h, k, m)), np.empty((h, 1, m)), np.empty((h, 1, m)),
                   np.broadcast_to(log_pi, (h, k, m)).copy())
               for m in set(batch_sizes[1:, 0].tolist())}
    # One tuple per step, holding every operand its calls take.
    steps = []
    for i, (start, m) in enumerate(zip(starts, batch_sizes[1:, 0].tolist())):
        zb, s, top, denom, log_pi_m = scratch[m]
        steps.append((order[start : start + m], targets[:, start : start + m], zb, zb.T, s, s.reshape(-1), top,
                      denom, log_pi_m, shifted[i, :, :m], sums[i, :, np.newaxis, :m], m * temperature,
                      1.0 / (m * temperature)))
    w, gw = theta[:, :, :p], gtheta[:, :, :p]
    decay = np.empty_like(w)
    full = n // size  # the steps with m = size
    # Row 0 stays 0, the start of each epoch's running total of loss * m;
    # row i + 1 takes step i's mean loss.
    losses = np.zeros((len(starts) + 1, h))
    step_losses, full_losses = losses[1:], losses[1 : full + 1]
    logp = np.empty_like(shifted)
    full_logp, last_logp = logp[:full], logp[-1, :, : batch_sizes[-1, 0]]
    neg_batch_sizes = -batch_sizes[1:]
    finite, weighted, running = np.empty(losses.shape, dtype=bool), np.empty_like(losses), np.empty_like(losses)
    histories = np.zeros((schedule.epochs, h))
    # The step's callables, bound once.
    take, matmul, exp = rows.take, np.matmul, np.exp
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    max_reduce, sum_reduce, subtract_at = np.maximum.reduce, np.add.reduce, np.subtract.at
    divided, scaled, decayed = temperature != 1.0, scale is not None, weight_decay != 0.0

    # Divergence ends in inf or nan, which the finite checks below report;
    # the rest of a diverging epoch runs on, silently, before the check.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(schedule.epochs):
            lr = schedule.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / schedule.epochs))
            np.copyto(order, position)
            shuffler.shuffle(order)
            add(offsets, y[order] * batch_of, out=targets)
            for order_b, target, zb, zb_t, s, s_flat, top, denom, log_pi_m, true_logits, row_sums, mt, inv_mt in steps:
                # mode="clip" skips take's buffered bounds check: every index
                # here is in range by construction.
                take(order_b, axis=0, out=zb, mode="clip")
                matmul(theta, zb_t, out=s)
                if divided:
                    divide(s, temperature, out=s)
                add(s, log_pi_m, out=s)
                # Each sample's maximum, nan where one of its logits is.
                max_reduce(s, axis=1, keepdims=True, out=top)
                subtract(s, top, out=s)
                s_flat.take(target, out=true_logits, mode="clip")
                exp(s, out=s)
                sum_reduce(s, axis=1, keepdims=True, out=row_sums)
                # (p - onehot) / (m T), with one division over the logits.
                multiply(row_sums, mt, out=denom)
                divide(s, denom, out=s)
                subtract_at(s_flat, target, inv_mt)
                matmul(s, zb, out=gtheta)
                if scaled:
                    multiply(grad, scale, out=grad)
                if decayed:
                    add(gw, multiply(weight_decay, w, out=decay), out=gw)
                multiply(grad, lr, out=grad)
                multiply(vel, momentum, out=vel)
                subtract(vel, grad, out=vel)
                add(params, vel, out=params)
            subtract(shifted, np.log(sums, out=logp), out=logp)
            sum_reduce(full_logp, axis=-1, out=full_losses)
            if full < len(starts):
                sum_reduce(last_logp, axis=-1, out=losses[-1])
            divide(step_losses, neg_batch_sizes, out=step_losses)
            np.isfinite(losses, out=finite)
            if not finite.all():
                row = int(np.argmin(finite.all(axis=1)))  # the losses row of the first step to diverge
                raise _diverged(
                    finite[row], modes, f"non-finite loss at epoch {epoch}, sample offset {starts[row - 1]} (lr={lr:.3g})"
                )
            # Added in step order, as a running total of loss * m would be.
            histories[epoch] = np.add.accumulate(multiply(losses, batch_sizes, out=weighted), axis=0, out=running)[-1]
    finite = np.isfinite(theta).all(axis=(1, 2))
    if not finite.all():
        raise _diverged(finite, modes, "non-finite weights after the last step")
    histories /= n
    # W and b leave as contiguous copies of their columns of theta.
    return [(LinearClassifier(theta[i, :, :p].copy(), theta[i, :, p].copy()), histories[:, i].tolist()) for i in range(h)]


def _linear_norms(z: np.ndarray, normalize: bool) -> np.ndarray:
    """The float64 norms a linear head's rows are divided by, in training and
    scoring alike: under normalize the rows' norms, which project them onto
    the sphere (a zero row raises ValueError), otherwise ones, which leave
    them bitwise as given."""
    if not normalize:
        return np.ones(len(z))
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
    # The sum of every pairwise cosine, sum_ij u_i.u_j = ||sum_i u_i||^2, in
    # one order that no BLAS thread count changes.
    total = np.add.reduce(unit, axis=0)
    m = len(tail)
    return float((np.add.reduce(total * total) - m) / (m * (m - 1)))


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
