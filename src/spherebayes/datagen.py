"""Synthetic long-tailed datasets from vMF mixtures, plus feature-file I/O.

Class sizes follow the exponential profile N_j = N * lambda^j with
lambda = gamma^(-1/(K-1)), so the head class has N samples and the tail class
N/gamma. Ground-truth mixture parameters are recorded so experiments can be
scored against the true-parameter Bayes rule.

Feature files: binary (magic "BAPF", little-endian u32 version=1, n, p, K,
then n*p float32 features row-major, then n u32 labels) or CSV with header
`label,f0,...,f{p-1}`. Features are carried as float32 so file round-trips
are bit-exact.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .classifier import BayesClassifier, ClassPriors, predict
from .priors import build_etf
from .special import MAX_KAPPA
from .vmf import VmfParams, sample, substream

__all__ = [
    "LongTailSpec",
    "Dataset",
    "MixtureGroundTruth",
    "FeatureFileError",
    "MagicMismatchError",
    "VersionMismatchError",
    "TruncatedFileError",
    "LabelRangeError",
    "class_sizes",
    "make_truth",
    "sample_dataset",
    "generate",
    "oracle_accuracy",
    "write_features",
    "read_features",
]

_MAGIC = b"BAPF"
_VERSION = 1


class FeatureFileError(Exception):
    """Base class for feature-file format violations."""


class MagicMismatchError(FeatureFileError):
    pass


class VersionMismatchError(FeatureFileError):
    pass


class TruncatedFileError(FeatureFileError):
    pass


class LabelRangeError(FeatureFileError):
    pass


@dataclass(frozen=True)
class LongTailSpec:
    """Exponential class-size profile: head size N, imbalance factor gamma."""

    n_classes: int
    head_size: int
    gamma: float

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.head_size < 1:
            raise ValueError(f"head_size must be >= 1, got {self.head_size}")
        if not np.isfinite(self.gamma) or self.gamma < 1.0:
            raise ValueError(f"gamma (the imbalance factor) must be finite and >= 1, got {self.gamma}")
        _check_row_total(sum(class_sizes(self)), "n_classes and head_size")

    @property
    def decay(self) -> float:
        """Per-class decay lambda = gamma^(-1/(K-1)); size_j = N * lambda^j."""
        return float(self.gamma ** (-1.0 / (self.n_classes - 1)))


def _check_row_total(total: int, names: str) -> int:
    """total, or a ValueError naming what gave it if that many rows would
    overflow numpy's int64 counts (which wrap silently)."""
    if total >= 2**63:
        raise ValueError(f"{names} give {total} rows in total, which must be below 2**63")
    return total


def class_sizes(spec: LongTailSpec) -> list[int]:
    """Per-class sample counts, rounded half-up with a floor of one sample."""
    lam = spec.decay
    return [max(1, int(np.floor(spec.head_size * lam**j + 0.5))) for j in range(spec.n_classes)]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (float32), integer labels, and per-class counts."""

    features: np.ndarray
    labels: np.ndarray
    class_counts: np.ndarray

    def __post_init__(self):
        f = np.ascontiguousarray(self.features, dtype=np.float32)
        y = np.asarray(self.labels, dtype=np.int64)
        c = np.asarray(self.class_counts, dtype=np.int64)
        if f.ndim != 2 or y.shape != (f.shape[0],) or c.ndim != 1:
            raise ValueError("inconsistent dataset shapes")
        # Checked in blocks of rows, so the check's scratch stays near 64 KB
        # (not one bool per value) whatever the number of rows.
        step = max(1, 2**16 // max(f.shape[1], 1))
        if not all(np.isfinite(f[start : start + step]).all() for start in range(0, f.shape[0], step)):
            raise ValueError("features contain non-finite values")
        if y.size and (y.min() < 0 or y.max() >= c.shape[0]):
            raise ValueError("label out of range of class_counts")
        if not np.array_equal(np.bincount(y, minlength=c.shape[0]), c):
            raise ValueError("class_counts do not match labels")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "class_counts", c)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.class_counts.shape[0]


@dataclass(frozen=True)
class MixtureGroundTruth:
    """The vMF parameters and mixing priors a dataset was drawn from."""

    components: tuple[VmfParams, ...]
    priors: ClassPriors

    def __post_init__(self):
        if len(self.components) != self.priors.pi.shape[0]:
            raise ValueError("one component per prior entry required")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise ValueError("components must share one dimension")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def n_classes(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def classifier(self, priors: ClassPriors | None = None) -> BayesClassifier:
        """The true-parameter Bayes classifier, optionally under different priors."""
        return BayesClassifier(
            mus=np.stack([c.mu for c in self.components]),
            kappas=np.array([c.kappa for c in self.components]),
            priors=priors if priors is not None else self.priors,
        )


def _kappa_bounds(kappa_range, name: str = "kappa range") -> tuple[float, float]:
    """kappa_range as floats (lo, hi); a ValueError naming it unless 0 < lo <= hi <= MAX_KAPPA."""
    lo, hi = float(kappa_range[0]), float(kappa_range[1])
    if not 0.0 < lo <= hi <= MAX_KAPPA:
        raise ValueError(f"{name} must satisfy 0 < lo <= hi <= {MAX_KAPPA:g}, got ({lo}, {hi})")
    return lo, hi


def make_truth(
    n_classes: int,
    dim: int,
    kappa_range: tuple[float, float],
    center_mode: str = "etf",
    seed: int = 0,
    priors: ClassPriors | None = None,
) -> MixtureGroundTruth:
    """Draw mixture ground truth: centers (equiangular frame or uniform random)
    and per-class concentrations log-uniform over kappa_range, which must
    satisfy 0 < lo <= hi <= MAX_KAPPA."""
    lo, hi = _kappa_bounds(kappa_range)
    if center_mode == "etf":
        centers = build_etf(n_classes, dim, seed).vectors
    elif center_mode == "random":
        g = substream(seed, 0).standard_normal((n_classes, dim))
        centers = g / np.linalg.norm(g, axis=1, keepdims=True)
    else:
        raise ValueError(f"unknown center_mode {center_mode!r}")
    kappas = np.exp(substream(seed, 1).uniform(np.log(lo), np.log(hi), size=n_classes))
    components = tuple(VmfParams(mu=centers[j], kappa=float(kappas[j])) for j in range(n_classes))
    return MixtureGroundTruth(components, priors or ClassPriors.uniform(n_classes))


def sample_dataset(truth: MixtureGroundTruth, counts, seed: int, stream: int = 2) -> Dataset:
    """Stratified draw: exactly counts[j] samples from component j.

    Each class uses its own substream (seed, stream, j), so per-class streams
    are independent and the draw for class j does not depend on the other
    counts. Distinct `stream` tags give independent datasets under one seed
    (e.g. train vs test).
    """
    counts, features = _allocate_draw(truth, counts)
    return _fill_draw(truth, counts, features, seed, stream)


def _allocate_draw(truth: MixtureGroundTruth, counts) -> tuple[np.ndarray, np.ndarray]:
    """The checked int64 counts of a `sample_dataset` draw and its uninitialized
    float32 feature matrix; a MemoryError if the matrix cannot be addressed."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (truth.n_classes,) or np.any(counts < 0):
        raise ValueError("counts must give one non-negative size per class")
    if not counts.any():
        raise ValueError("counts are all zero: a dataset needs at least one sample")
    n = _check_row_total(sum(counts.tolist()), "counts")
    if 4 * n * truth.dim >= 2**63:  # numpy would call it "too big", not out of memory
        raise MemoryError(f"{n} rows of {truth.dim} float32 features take {4 * n * truth.dim} bytes")
    return counts, np.empty((n, truth.dim), dtype=np.float32)


def _fill_draw(truth: MixtureGroundTruth, counts: np.ndarray, features: np.ndarray, seed: int,
               stream: int) -> Dataset:
    """The dataset of `sample_dataset`, drawn into the matrix `_allocate_draw` made for counts.

    Touches nothing but `features` and its own substreams, so it may run on
    another thread while the caller goes on."""
    _fill_classes(truth, counts, features, seed, stream, range(truth.n_classes))
    return _drawn(truth, counts, features)


def _fill_classes(truth: MixtureGroundTruth, counts: np.ndarray, features: np.ndarray, seed: int, stream: int,
                  classes: range) -> None:
    """Draw the rows of a consecutive range of classes into their rows of `features`.

    Each class j draws from its own substream (seed, stream, j) into its own
    rows, so two threads may fill disjoint ranges of one matrix at once."""
    # Each block is cast to float32 as it is written, bitwise as astype would.
    sizes = counts.tolist()
    start = sum(sizes[: classes.start])
    for j in classes:
        cnt = sizes[j]
        if cnt:
            features[start : start + cnt] = sample(truth.components[j], cnt, substream(seed, stream, j))
            start += cnt


def _drawn(truth: MixtureGroundTruth, counts: np.ndarray, features: np.ndarray) -> Dataset:
    """The dataset of a filled draw: each class's rows in class order."""
    return Dataset(
        features=features,
        labels=np.repeat(np.arange(truth.n_classes, dtype=np.int64), counts),
        class_counts=counts,
    )


def _long_tail_truth(spec: LongTailSpec, dim: int, kappa_range, center_mode: str, seed: int):
    """The class sizes of `spec` and the ground truth `generate` draws them from."""
    sizes = np.array(class_sizes(spec), dtype=np.int64)
    truth = make_truth(spec.n_classes, dim, kappa_range, center_mode, seed, priors=ClassPriors.from_counts(sizes))
    return sizes, truth


def generate(
    spec: LongTailSpec,
    dim: int,
    kappa_range: tuple[float, float] = (5.0, 50.0),
    center_mode: str = "etf",
    seed: int = 0,
) -> tuple[Dataset, MixtureGroundTruth]:
    """Long-tailed dataset plus the ground truth it was drawn from.

    The recorded priors are the realized long-tail proportions, so the truth
    object doubles as the train-time Bayes oracle.
    """
    sizes, truth = _long_tail_truth(spec, dim, kappa_range, center_mode, seed)
    return sample_dataset(truth, sizes, seed), truth


def oracle_accuracy(truth: MixtureGroundTruth, test: Dataset) -> float:
    """Accuracy of the true-parameter Bayes rule on the test set.

    The rule conditions on the test set's own label proportions (sampling is
    stratified, so those are the exact mixing weights it was drawn with).
    """
    if test.dim != truth.dim:
        raise ValueError(f"dimension mismatch: truth {truth.dim}, test {test.dim}")
    clf = truth.classifier(ClassPriors.from_counts(test.class_counts))
    pred = predict(clf, test.features)
    return float(np.mean(pred == test.labels))


def write_features(path, ds: Dataset) -> None:
    """Write a feature file; format chosen by suffix (.csv is CSV, else binary)."""
    path = str(path)
    if path.endswith(".csv"):
        with open(path, "w") as fh:
            fh.write("label," + ",".join(f"f{i}" for i in range(ds.dim)) + "\n")
            for y, row in zip(ds.labels, ds.features):
                fh.write(str(int(y)) + "," + ",".join(str(v) for v in row) + "\n")
        return
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", _VERSION, ds.n, ds.dim, ds.n_classes))
        fh.write(np.ascontiguousarray(ds.features, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(ds.labels, dtype="<u4").tobytes())


def _read_exact(fh, size: int, what: str) -> bytes:
    buf = fh.read(size)
    if len(buf) != size:
        raise TruncatedFileError(f"file ends inside {what} ({len(buf)}/{size} bytes)")
    return buf


def read_features(path) -> Dataset:
    """Read a feature file written by write_features (either format)."""
    path = str(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == _MAGIC:
            version, n, p, k = struct.unpack("<IIII", _read_exact(fh, 16, "header"))
            if version != _VERSION:
                raise VersionMismatchError(f"unsupported version {version}")
            # Checked before reading, so a corrupt header cannot force a huge allocation.
            size, needed = os.fstat(fh.fileno()).st_size, 20 + 4 * n * (p + 1)
            if size < needed:
                raise TruncatedFileError(
                    f"header declares n={n}, p={p} ({needed} bytes); file holds {size}"
                )
            feats = np.frombuffer(
                _read_exact(fh, 4 * n * p, "feature block"), dtype="<f4"
            ).reshape(n, p)
            labels = np.frombuffer(
                _read_exact(fh, 4 * n, "label block"), dtype="<u4"
            ).astype(np.int64)
            if labels.size and labels.max() >= k:
                raise LabelRangeError(f"label {labels.max()} outside [0, {k})")
            return Dataset(feats, labels, np.bincount(labels, minlength=k))
        if head.startswith(b"labe"):
            return _read_csv(path)
    raise MagicMismatchError(f"not a feature file (leading bytes {head!r})")


def _read_csv(path: str) -> Dataset:
    with open(path) as fh:
        header = fh.readline().strip()
        p = len(header.split(",")) - 1
        if p < 1 or not header.startswith("label,"):
            raise MagicMismatchError(f"unrecognized CSV header {header!r}")
        labels, rows = [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != p + 1:
                raise TruncatedFileError(f"row {lineno} has {len(parts) - 1} features, expected {p}")
            try:
                labels.append(int(parts[0]))
            except ValueError:
                raise FeatureFileError(f"{path}: row {lineno} has label {parts[0]!r}, not an integer") from None
            if not 0 <= labels[-1] < 2**32:  # the u32 label field of the binary format
                raise LabelRangeError(f"{path}: row {lineno} has label {labels[-1]}, outside [0, 2**32)")
            try:
                rows.append(np.array(parts[1:], dtype=np.float32))
            except ValueError as exc:
                raise FeatureFileError(f"{path}: row {lineno} has a feature that is not a number ({exc})") from None
    if not rows:
        raise TruncatedFileError("CSV has a header but no rows")
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(np.stack(rows), labels, np.bincount(labels))
