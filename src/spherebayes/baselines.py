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
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .classifier import ClassPriors, log_softmax, top_class
from .vmf import substream

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
    """The training loss left the finite range."""


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
    projects them onto the unit sphere first.
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
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        if self.mode not in ("softmax", "logit_adjusted"):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not np.isfinite(self.grad_scale) or self.grad_scale < 0.0:
            raise ValueError("grad_scale must be >= 0 and finite")


def _adjusted_logits(clf, z, mode, priors, temperature):
    s = (z @ clf.W.T + clf.b) / temperature
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
    if mode not in ("softmax", "logit_adjusted"):
        raise ValueError(f"unknown mode {mode!r}")
    z = np.asarray(z, dtype=float)
    y = np.asarray(y)
    if np.any(y < 0) or np.any(y >= clf.n_classes):
        raise ValueError(f"label out of range [0, {clf.n_classes})")
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
    p = np.exp(log_softmax(_adjusted_logits(clf, z, mode, priors, temperature)))
    p[int(y)] -= 1.0
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
    z = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError("features must be a nonempty (n, p) array")
    if y.shape != (z.shape[0],):
        raise ValueError("labels length does not match features")
    n, p = z.shape
    k = int(y.max()) + 1 if n_classes is None else int(n_classes)
    if k < 2:
        raise ValueError("need at least 2 classes present")
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    if config.normalize:
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    priors = ClassPriors.from_counts(np.bincount(y, minlength=k)) if config.mode == "logit_adjusted" else None
    log_pi = priors.log() if priors is not None else 0.0

    w = substream(config.rng_seed, 0).standard_normal((k, p)) / np.sqrt(p)
    b = np.zeros(k)
    vel_w = np.zeros_like(w)
    vel_b = np.zeros_like(b)
    shuffler = substream(config.rng_seed, 1)
    onehot_rows = np.arange(config.batch_size)

    for epoch in range(config.epochs):
        lr = config.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / config.epochs))
        order = shuffler.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            zb, yb = z[idx], y[idx]
            s = (zb @ w.T + b) / config.temperature + log_pi
            logz = logsumexp(s, axis=1, keepdims=True)
            loss = float(np.mean(logz[:, 0] - s[onehot_rows[: len(idx)], yb]))
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, sample offset {start} (lr={lr:.3g})"
                )
            epoch_loss += loss * len(idx)
            g = np.exp(s - logz)
            g[onehot_rows[: len(idx)], yb] -= 1.0
            g /= len(idx) * config.temperature
            gw = config.grad_scale * (g.T @ zb) + config.weight_decay * w
            gb = config.grad_scale * g.sum(axis=0)
            vel_w = config.momentum * vel_w - lr * gw
            vel_b = config.momentum * vel_b - lr * gb
            w = w + vel_w
            b = b + vel_b
        if loss_history is not None:
            loss_history.append(epoch_loss / n)
    return LinearClassifier(w, b)


def predict_linear(clf: LinearClassifier, z) -> int | np.ndarray:
    """Argmax of W z + b; ties break to the lowest index."""
    return top_class(np.asarray(z, dtype=float) @ clf.W.T + clf.b)


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
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero weight row has no direction")
    unit = rows / norms[:, np.newaxis]
    cos = unit @ unit.T
    m = len(tail)
    return float((cos.sum() - m) / (m * (m - 1)))


def norm_report(clf: LinearClassifier, features, labels) -> list[dict]:
    """Per-class rows of (class, count, ||w_y|| * mean feature norm of the class)."""
    z = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    rows = []
    for c in range(clf.n_classes):
        zc = z[y == c]
        mean_norm = float(np.linalg.norm(zc, axis=1).mean()) if len(zc) else 0.0
        rows.append(
            {
                "class": c,
                "count": int(len(zc)),
                "weight_feature_norm": float(np.linalg.norm(clf.W[c])) * mean_norm,
            }
        )
    return rows


def linear_to_json(clf: LinearClassifier) -> str:
    """Serialize as {p, K, W, b} with full-precision floats."""
    return json.dumps(
        {"p": clf.dim, "K": clf.n_classes, "W": clf.W.tolist(), "b": clf.b.tolist()},
        indent=2,
    )


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
