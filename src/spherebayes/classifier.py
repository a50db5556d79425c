"""Explicit Bayes classifier over unit-sphere features with vMF class conditionals.

Class y scores input z with the logit

    s_y = ln pi_y - ln C_p(kappa_y) + kappa_y * mu_y.T z,

so the posterior is the softmax of s and prediction is its argmax: a linear
classifier whose weights are explicit distribution parameters. Because the
parameters are explicit, test-time distribution shift is handled by editing
them (swap the priors, optionally re-pool the concentrations) instead of
retraining; see `adjust`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .estimation import (
    ConcentrationOverflowError,
    DegeneratePosteriorError,
    class_posteriors,
    concentrations,
)
from .special import MAX_KAPPA, log_vmf_normalizer, logsumexp
from .vmf import _float_rows, _unit_norms, as_unit_vector

# The concentration policies of AdjustmentPolicy.
KAPPA_MODES = ("keep", "shared_mean", "fixed")

__all__ = [
    "ClassPriors",
    "BayesClassifier",
    "AdjustmentPolicy",
    "NotFittedError",
    "log_posterior",
    "predict",
    "bape_loss",
    "bape_loss_grad_z",
    "chain_through_normalization",
    "adjust",
    "kappa_report",
    "fit",
    "to_json",
    "from_json",
]


class NotFittedError(RuntimeError):
    """The classifier carries no training counts (built directly or deserialized)."""


@dataclass(frozen=True)
class ClassPriors:
    """Class prior probabilities: positive entries summing to 1.

    Zero entries are allowed only via `allow_zero=True`, the escape hatch used
    for degenerate classes that were excluded at fit time (they carry no
    posterior mass by construction).
    """

    pi: np.ndarray
    allow_zero: bool = False

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 1 or pi.shape[0] < 2:
            raise ValueError(f"priors must be a vector of length >= 2, got shape {pi.shape}")
        if not np.all(np.isfinite(pi)):
            raise ValueError("priors contain non-finite entries")
        floor = 0.0 if self.allow_zero else np.finfo(float).tiny
        if np.any(pi < floor):
            raise ValueError("priors must be strictly positive")
        if abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError(f"priors sum to {pi.sum()!r}, expected 1")
        object.__setattr__(self, "pi", pi)

    @classmethod
    def uniform(cls, n_classes: int) -> "ClassPriors":
        return cls(np.full(int(n_classes), 1.0 / int(n_classes)))

    @classmethod
    def from_counts(cls, counts) -> "ClassPriors":
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError("counts must have positive total")
        return cls(counts / total, allow_zero=bool(np.any(counts == 0)))

    def log(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.pi)


@dataclass(frozen=True)
class AdjustmentPolicy:
    """Test-time parameter edit: new priors and a concentration policy.

    kappa_mode is one of "keep" (leave each class's kappa alone),
    "shared_mean" (replace every kappa with the unweighted mean of the fitted
    ones), or "fixed" (set all to `fixed_kappa`).
    """

    target_priors: ClassPriors | None = None
    kappa_mode: str = "keep"
    fixed_kappa: float | None = None

    def __post_init__(self):
        if self.kappa_mode not in KAPPA_MODES:
            raise ValueError(f"unknown kappa_mode {self.kappa_mode!r}")
        if self.kappa_mode == "fixed":
            if self.fixed_kappa is None or not 0.0 < self.fixed_kappa <= MAX_KAPPA:
                raise ValueError(f"fixed kappa_mode requires 0 < fixed_kappa <= {MAX_KAPPA:g}, got {self.fixed_kappa}")
        elif self.fixed_kappa is not None:
            raise ValueError(f"fixed_kappa is only meaningful with kappa_mode='fixed'")


def _per_class(name: str, values, k: int, dtype=float) -> np.ndarray:
    """values as a (k,) array of dtype; a ValueError naming it unless all are finite and >= 0."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != (k,) or not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError(f"{name} must be K finite values >= 0")
    return values


@dataclass(frozen=True)
class BayesClassifier:
    """Per-class vMF parameters plus class priors; immutable after construction.

    A classifier fitted from data also carries its fit: `counts` holds the
    per-class training sample counts, and `alphas` and `betas` the conjugate
    posterior of each class (pseudo-count alpha and resultant length beta,
    whose direction m is `mus`). They are None for hand-built or
    deserialized instances. `excluded` lists classes that were degenerate at
    fit time (no samples, no prior): they keep placeholder parameters and
    never receive posterior mass.
    """

    mus: np.ndarray
    kappas: np.ndarray
    priors: ClassPriors
    counts: np.ndarray | None = None
    excluded: tuple[int, ...] = ()
    alphas: np.ndarray | None = None
    betas: np.ndarray | None = None
    _log_norm: np.ndarray = field(init=False, repr=False, compare=False)
    W: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mus = as_unit_vector(self.mus)
        if mus.ndim != 2:
            raise ValueError("mus must be a (K, p) array")
        k, p = mus.shape
        if k < 2:
            raise ValueError(f"need at least 2 classes, got {k}")
        kappas = _per_class("kappas", self.kappas, k)
        if self.priors.pi.shape[0] != k:
            raise ValueError("priors length does not match class count")
        excluded = tuple(sorted(int(i) for i in self.excluded))
        if any(i < 0 or i >= k for i in excluded):
            raise ValueError("excluded class index out of range")
        if any(self.priors.pi[i] != 0.0 for i in excluded):
            raise ValueError("excluded classes must carry zero prior mass")
        for name, dtype in (("counts", int), ("alphas", float), ("betas", float)):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, _per_class(name, values, k, dtype))
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "kappas", kappas)
        object.__setattr__(self, "excluded", excluded)
        log_norm = log_vmf_normalizer(p, kappas)
        object.__setattr__(self, "_log_norm", log_norm)
        # The linear head: logits = W z + b, derived once from the parameters.
        object.__setattr__(self, "W", kappas[:, np.newaxis] * mus)
        object.__setattr__(self, "b", self.priors.log() - log_norm)

    @property
    def n_classes(self) -> int:
        return self.mus.shape[0]

    @property
    def dim(self) -> int:
        return self.mus.shape[1]


def logits(head, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """z @ W.T + b: the logits of a BayesClassifier's or a LinearClassifier's head.

    The bias is added in place, so the product is the only (n, K) array made,
    and none is made when it is written into `out`.
    """
    s = np.matmul(z, head.W.T, out=out)
    s += head.b
    return s


def log_softmax(s: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis: logits to log class posteriors."""
    return s - logsumexp(s, axis=-1, keepdims=True)


def top_class(s: np.ndarray) -> int | np.ndarray:
    """Argmax over the last axis; ties break to the lowest index."""
    idx = np.argmax(s, axis=-1)
    return int(idx) if idx.ndim == 0 else idx


def log_posterior(clf: BayesClassifier, z) -> np.ndarray:
    """Log class posterior(s): log-softmax of the per-class logits.

    Accepts one unit vector (returns shape (K,)) or a batch (n, p) (returns
    (n, K)). Rows exponentiate to probability vectors summing to 1.
    """
    return log_softmax(logits(clf, as_unit_vector(z, dim=clf.dim)))


def predict(clf: BayesClassifier, z) -> int | np.ndarray:
    """Most probable class; ties break to the lowest index."""
    return top_class(logits(clf, as_unit_vector(z, dim=clf.dim)))


def _check_labels(y, n_classes: int | None) -> np.ndarray:
    """y as integer labels in [0, n_classes); n_classes None checks the dtype only."""
    y = np.asarray(y)
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {y.dtype}")
    if n_classes is not None and (np.any(y < 0) or np.any(y >= n_classes)):
        raise ValueError(f"label out of range [0, {n_classes})")
    return y


def bape_loss(clf: BayesClassifier, z, y) -> float | np.ndarray:
    """Negative log posterior of the true class; scalar or per-sample batch."""
    y = _check_labels(y, clf.n_classes)
    lp = log_posterior(clf, z)
    if lp.ndim == 1:
        return float(-lp[int(y)])
    return -lp[np.arange(lp.shape[0]), y]


def bape_loss_grad_z(clf: BayesClassifier, z, y) -> np.ndarray:
    """Gradient of bape_loss with respect to z (single input).

    Returns -(kappa_y mu_y - sum_k p(k|z) kappa_k mu_k), the raw gradient in
    the embedding space. If z is produced by normalizing some vector v, chain
    through `chain_through_normalization` before applying it to v.
    """
    z = as_unit_vector(z, dim=clf.dim)
    if z.ndim != 1:
        raise ValueError("gradient is defined for a single input vector")
    y = int(_check_labels(y, clf.n_classes))
    probs = np.exp(log_posterior(clf, z))
    return probs @ clf.W - clf.W[y]


def chain_through_normalization(v, grad_z) -> np.ndarray:
    """Convert a gradient in z = v/||v|| into a gradient in v.

    Multiplies by the Jacobian (I - z z^T)/||v||: the radial component dies
    (moving along v does not move z) and the rest rescales by 1/||v||.
    """
    v = np.asarray(v, dtype=float)
    grad_z = np.asarray(grad_z, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("normalization gradient undefined at the origin")
    z = v / norm
    return (grad_z - (grad_z @ z) * z) / norm


def adjust(clf: BayesClassifier, policy: AdjustmentPolicy) -> BayesClassifier:
    """New classifier with priors replaced and kappas re-pooled per policy.

    The input classifier is untouched. Classes excluded at fit time stay
    excluded (their parameters are unknown), keeping zero posterior mass even
    under the new priors. Under kappa_mode "keep" only the priors change: the
    result holds the input's own mus and W arrays, not renormalized copies,
    so its logits are bitwise the input's product W z plus its new b. The
    fit the input carries (counts, alphas, betas) passes through under every
    kappa_mode: it describes the training data, which a test-time edit leaves
    as it was.
    """
    target = policy.target_priors or ClassPriors.uniform(clf.n_classes)
    if target.pi.shape[0] != clf.n_classes:
        raise ValueError("target priors length does not match classifier")
    pi = target.pi
    if clf.excluded:
        pi = pi.copy()
        pi[list(clf.excluded)] = 0.0
        pi = pi / pi.sum()
    if policy.kappa_mode == "keep":
        kappas = clf.kappas
    elif policy.kappa_mode == "shared_mean":
        kappas = np.full(clf.n_classes, np.delete(clf.kappas, clf.excluded).mean())
    else:
        kappas = np.full(clf.n_classes, float(policy.fixed_kappa))
    adjusted = BayesClassifier(
        mus=clf.mus,
        kappas=kappas,
        priors=ClassPriors(pi, allow_zero=bool(clf.excluded)),
        counts=clf.counts,
        excluded=clf.excluded,
        alphas=clf.alphas,
        betas=clf.betas,
    )
    if policy.kappa_mode == "keep":
        object.__setattr__(adjusted, "mus", clf.mus)
        object.__setattr__(adjusted, "W", clf.W)
    return adjusted


def kappa_report(clf: BayesClassifier) -> list[dict]:
    """Per-class diagnostic rows: class, training count, kappa, ||mu||.

    Only defined for classifiers fitted from data (training counts present).
    """
    if clf.counts is None:
        raise NotFittedError("kappa_report needs a classifier fitted from data")
    return [
        {
            "class": i,
            "count": int(clf.counts[i]),
            "kappa": float(clf.kappas[i]),
            "mu_norm": float(np.linalg.norm(clf.mus[i])),
        }
        for i in range(clf.n_classes)
    ]


# Rows per block of the passes that read training rows: `class_stats` and
# the m0 gradient's pass, which each divide one block at a time into their
# float64 scratch, (512, p + K) at most. The order of the m0 gradient's sums
# depends on it, so it is fixed in rows: a block sized from p and K instead
# (431 rows at K=100, p=128) made a gradient differ by an ulp between one
# and two BLAS threads, where blocks of 512 and 1024 rows did not.
_BLOCK = 512


def class_stats(features: np.ndarray, labels: np.ndarray, n_classes: int,
                norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class sufficient statistics of a labelled batch of rows: counts
    (K,) and resultants (K, p) of the unit rows, each row divided by its
    entry of `norms`.

    The rows are read class by class (a stable sort keeps their order), a
    _BLOCK at a time, into one float64 scratch buffer. A class's first block
    is summed alone; every later one is summed with the running sum in the
    row before it, which continues the same row-by-row sum. So every
    resultant is bitwise the sum of the unit rows of its class as one call
    over all of them takes it, and no float64 copy of all the rows is made.
    Labels that are already non-decreasing, as every generated dataset's
    are, need no gather.
    """
    counts = np.bincount(labels, minlength=n_classes)
    order = None if np.all(labels[1:] >= labels[:-1]) else np.argsort(labels, kind="stable")
    ends = np.cumsum(counts)
    resultants = np.zeros((n_classes, features.shape[1]))
    scratch = np.empty((min(_BLOCK, len(labels)) + 1, features.shape[1]))
    for y in np.flatnonzero(counts):
        first = ends[y] - counts[y]
        for start in range(first, ends[y], _BLOCK):
            stop = min(start + _BLOCK, ends[y])
            rows = slice(start, stop) if order is None else order[start:stop]
            block = scratch[1 : stop - start + 1]
            np.divide(features[rows], norms[rows, np.newaxis], out=block)
            if start > first:
                scratch[0] = resultants[y]
                block = scratch[: stop - start + 1]
            np.add.reduce(block, axis=0, out=resultants[y])
    return counts, resultants


def fit(
    features,
    labels,
    n_classes: int,
    alpha_hat: float = 0.0,
    beta_hat: float = 0.0,
    prior_directions=None,
    mode: str = "approx",
    on_degenerate: str = "error",
) -> BayesClassifier:
    """Fit the Bayes classifier: accumulate per-class stats, take MAP estimates.

    Per-class priors scale with class size (alpha0 = alpha_hat*N_y, beta0 =
    beta_hat*N_y, direction from `prior_directions` row y, e.g. an EtfFrame).
    Class priors are the training frequencies. A class with no samples and no
    directional prior has no defined mean, and one with beta/alpha near 1 (a
    single sample under alpha_hat = 0) has unbounded kappa: with
    on_degenerate="error" (the default) fitting fails loudly, naming the
    class; with "exclude" the class is dropped from the posterior (flagged in
    `excluded`, zero prior mass) and the rest renormalized.

    The rows are checked as `as_unit_vector` checks them, and their norms
    taken once; `class_stats` divides them a block at a time, so float32
    rows are never converted as a whole.
    """
    features = _float_rows(features)
    norms = _unit_norms(features)
    if features.ndim != 2:
        raise ValueError("features must be an (n, p) array")
    k = int(n_classes)
    labels = _check_labels(labels, k)
    if labels.shape != (features.shape[0],):
        raise ValueError("labels length does not match features")
    counts, resultants = class_stats(features, labels, k, norms)
    return _fit_stats(counts, resultants, alpha_hat, beta_hat, prior_directions, mode, on_degenerate)


def _fit_stats(counts, resultants, alpha_hat, beta_hat, prior_directions, mode, on_degenerate):
    """`fit` from per-class statistics (see `class_stats`)."""
    if on_degenerate not in ("error", "exclude"):
        raise ValueError(f"unknown on_degenerate {on_degenerate!r}")
    k, p = resultants.shape
    if prior_directions is not None:
        prior_directions = as_unit_vector(prior_directions, dim=p)
        if prior_directions.shape[0] != k:
            raise ValueError("prior_directions must supply one row per class")
    elif beta_hat > 0.0:
        raise ValueError("beta_hat > 0 requires prior_directions")

    alphas, betas, mus, _ = class_posteriors(counts, resultants, alpha_hat, beta_hat, prior_directions)
    # Degenerate classes: beta = 0 (no mean direction) or an unbounded kappa
    # (a singleton under alpha_hat = 0). Under "error" either kind raises,
    # naming the class; under "exclude" it gets kappa 0.
    excluded = betas == 0.0
    if excluded.any() and on_degenerate == "error":
        raise DegeneratePosteriorError(f"class {np.argmax(excluded)} has no samples and no directional prior")
    ratios = np.divide(betas, alphas, out=np.zeros(k), where=~excluded)
    try:
        kappas = concentrations(p, ratios, mode)
    except ConcentrationOverflowError as exc:
        if on_degenerate == "error":
            raise ConcentrationOverflowError(f"classes {list(exc.classes)}: {exc}", exc.classes) from None
        excluded[list(exc.classes)] = True
        kappas = concentrations(p, np.where(excluded, 0.0, ratios), mode)
    if excluded.all():
        empty = int(np.count_nonzero(betas == 0.0))
        raise DegeneratePosteriorError(
            f"every class is degenerate ({empty} with no samples and no directional prior, "
            f"{k - empty} with an unbounded kappa): no class is left to fit"
        )
    mus[excluded] = np.eye(p)[0]  # placeholder geometry; excluded classes carry no mass
    return BayesClassifier(
        mus=mus,
        kappas=kappas,
        priors=ClassPriors.from_counts(np.where(excluded, 0, counts)),
        counts=counts,
        excluded=tuple(np.flatnonzero(excluded)),
        alphas=alphas,
        betas=betas,
    )


def to_json(clf: BayesClassifier) -> str:
    """Serialize as {p, K, priors, classes:[{kappa, mu}]} with full-precision floats.

    Floats use Python's shortest round-trip representation, which preserves
    every bit (at most 17 significant digits). The fit (counts, alphas,
    betas) is lifecycle data and is not serialized.
    """
    doc = {
        "p": clf.dim,
        "K": clf.n_classes,
        "priors": clf.priors.pi.tolist(),
        "classes": [
            {"kappa": float(clf.kappas[i]), "mu": clf.mus[i].tolist()}
            for i in range(clf.n_classes)
        ],
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> BayesClassifier:
    """Inverse of to_json. Classes with zero prior are marked excluded."""
    doc = json.loads(text)
    try:
        p, k = int(doc["p"]), int(doc["K"])
        pi = np.asarray(doc["priors"], dtype=float)
        classes = doc["classes"]
        kappas = np.array([float(c["kappa"]) for c in classes])
        mus = np.array([np.asarray(c["mu"], dtype=float) for c in classes])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed classifier document: {exc}") from None
    if len(classes) != k or mus.shape != (k, p):
        raise ValueError("classifier document is inconsistent with its declared shape")
    excluded = tuple(np.flatnonzero(pi == 0.0))
    # Placeholder geometry for classes that carry no mass anyway.
    mus[list(excluded)] = np.eye(p)[0]
    kappas[list(excluded)] = 0.0
    return BayesClassifier(
        mus=mus,
        kappas=kappas,
        priors=ClassPriors(pi, allow_zero=bool(excluded)),
        excluded=excluded,
    )
