"""Conjugate MAP estimation of vMF parameters from streaming per-class statistics.

A class is summarized by (count n, resultant vector s = sum of its unit
features). A conjugate prior with pseudo-count alpha0, pseudo-resultant
length beta0 and direction m0 combines with the statistics into a posterior

    alpha = alpha0 + n,    beta = ||beta0*m0 + s||,    m = (beta0*m0 + s)/beta,

and the MAP point estimate is mu = m together with the concentration kappa
solving A_p(kappa) = beta/alpha (exact mode, by safeguarded Newton) or its
closed-form approximation kappa = p*beta*alpha / (alpha^2 - beta^2) (approx
mode, the default).
`class_posteriors` and `concentrations` run this update for all K classes of
a fit at once; the spec types below are its one-class form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import MAX_KAPPA, mean_resultant_ratio
from .vmf import VmfParams, as_unit_vector

# How a MAP kappa is found: the closed-form approximation, or a solve of A_p(kappa) = r.
ESTIMATION_MODES = ("approx", "exact")

__all__ = [
    "ClassStats",
    "PriorSpec",
    "PosteriorSpec",
    "DegeneratePosteriorError",
    "ConcentrationOverflowError",
    "update_stats",
    "posterior",
    "map_estimate",
    "scale_prior",
]


class DegeneratePosteriorError(ValueError):
    """The combined pseudo-resultant is the zero vector, so the mean direction is undefined."""


class ConcentrationOverflowError(ValueError):
    """beta/alpha is too close to 1 (or the implied kappa too large) to represent.
    `classes` indexes the offending entries of the array given to `concentrations`."""

    def __init__(self, message: str, classes=()):
        super().__init__(message)
        self.classes = tuple(int(i) for i in classes)


@dataclass(frozen=True)
class ClassStats:
    """Streaming sufficient statistics of one class: sample count and resultant sum."""

    count: int
    resultant: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "count", int(self.count))
        r = np.asarray(self.resultant, dtype=float)
        if r.ndim != 1 or r.shape[0] < 2:
            raise ValueError(f"resultant must be a vector of dimension >= 2, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("resultant has non-finite components")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        norm = float(np.linalg.norm(r))
        # A sum of `count` unit vectors can be at most `count` long.
        if norm > self.count + 1e-6:
            raise ValueError(f"resultant norm {norm:.6g} exceeds count {self.count}")
        object.__setattr__(self, "resultant", r)

    @classmethod
    def empty(cls, dim: int) -> "ClassStats":
        return cls(0, np.zeros(int(dim)))

    @property
    def dim(self) -> int:
        return self.resultant.shape[0]

    @property
    def mean(self) -> np.ndarray:
        """The running mean resultant/count (the online per-class mean)."""
        if self.count == 0:
            raise ValueError("mean of empty statistics is undefined")
        return self.resultant / self.count


def update_stats(stats: ClassStats, batch) -> ClassStats:
    """Fold a batch of unit vectors into the statistics; returns a new ClassStats."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim == 1:
        batch = batch[np.newaxis, :]
    if batch.shape[0] == 0:
        return stats
    batch = as_unit_vector(batch, dim=stats.dim)
    return ClassStats(stats.count + batch.shape[0], stats.resultant + batch.sum(axis=0))


@dataclass(frozen=True)
class PriorSpec:
    """Conjugate prior: alpha0 pseudo-observations with resultant beta0*m0.

    m0 may be omitted only when beta0 = 0 (the prior then carries no
    directional information at all).
    """

    alpha0: float
    beta0: float
    m0: np.ndarray | None = None

    def __post_init__(self):
        a, b = float(self.alpha0), float(self.beta0)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("prior parameters must be finite")
        if a < 0.0 or b < 0.0:
            raise ValueError(f"prior parameters must be >= 0, got alpha0={a}, beta0={b}")
        # The resultant of alpha0 unit pseudo-observations cannot exceed alpha0.
        if b > a:
            raise ValueError(f"beta0={b} exceeds alpha0={a}")
        object.__setattr__(self, "alpha0", a)
        object.__setattr__(self, "beta0", b)
        if self.m0 is None:
            if b > 0.0:
                raise ValueError("m0 is required when beta0 > 0")
        else:
            object.__setattr__(self, "m0", as_unit_vector(self.m0))


@dataclass(frozen=True)
class PosteriorSpec:
    """Posterior pseudo-count alpha, pseudo-resultant length beta, direction m.

    m may be omitted only when beta = 0 (uniform: no preferred direction), in
    which case `dim` must be supplied explicitly.
    """

    alpha: float
    beta: float
    m: np.ndarray | None = None
    dim: int = 0

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if not (np.isfinite(a) and np.isfinite(b)) or b < 0.0:
            raise ValueError(f"invalid posterior parameters alpha={a}, beta={b}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        if self.m is None:
            if b > 0.0:
                raise ValueError("m is required when beta > 0")
            if self.dim < 2:
                raise ValueError("dim must be given (>= 2) when m is omitted")
            object.__setattr__(self, "dim", int(self.dim))
        else:
            m = as_unit_vector(self.m)
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "dim", m.shape[0])


def posterior(prior: PriorSpec, stats: ClassStats) -> PosteriorSpec:
    """Combine prior and statistics: alpha = alpha0 + n, beta*m = beta0*m0 + resultant."""
    if prior.m0 is not None and prior.m0.shape[0] != stats.dim:
        raise ValueError(f"dimension mismatch: prior has {prior.m0.shape[0]}, stats {stats.dim}")
    v = stats.resultant.copy()
    if prior.beta0 > 0.0:
        v += prior.beta0 * prior.m0
    beta = float(np.linalg.norm(v))
    if beta == 0.0:
        raise DegeneratePosteriorError(
            "combined resultant is the zero vector; the mean direction is undefined"
        )
    return PosteriorSpec(prior.alpha0 + stats.count, beta, v / beta)


def _newton_concentrations(p: int, r: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of A_p(kappa) = r for an array of r > 0, by safeguarded Newton.

    Each root lies in [max(r(p-2)/(1-r^2), 0), hi], hi the approx-mode
    value, and the iteration starts from the Banerjee et al. (2005) value
    r(p - r^2)/(1 - r^2), clipped into that bracket. Every A evaluation
    moves one end of its entry's bracket, by the sign of A - r. A Newton
    step on A' = 1 - A^2 - (p-1)A/kappa that would leave the bracket, or
    that is not half the step before it, is replaced by bisection (the
    rule of Numerical Recipes' rtsafe). An entry stops at the point it last
    evaluated, so its residual is known, once its Newton step is a few ulps
    or once the steps stall with the residual at the rounding noise of A
    (64 ulps of r; A's measured worst error is ~1.5e-15, about 7 ulps).
    """
    lo = np.maximum(r * (p - 2) / (1.0 - r * r), 0.0)
    kappa = np.clip(r * (p - r * r) / (1.0 - r * r), lo, hi)
    ratios, roots, residuals = r, np.empty_like(r), np.empty_like(r)
    idx = np.arange(r.size)
    step = hi - lo
    for _ in range(100):  # bisection alone gets to an ulp in about 60
        a = mean_resultant_ratio(p, kappa)
        f = a - r
        lo = np.where(f < 0.0, kappa, lo)
        hi = np.where(f > 0.0, kappa, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = f / (1.0 - a * a - (p - 1) * a / kappa)
            slow = ~((kappa - newton > lo) & (kappa - newton < hi)) | (np.abs(newton) > 0.5 * np.abs(step))
            done = (
                (np.abs(newton) <= 4.0 * np.finfo(float).eps * kappa)
                | (f == 0.0)
                | (slow & (np.abs(f) <= 64.0 * np.finfo(float).eps * r))
            )
        roots[idx[done]], residuals[idx[done]] = kappa[done], f[done]
        step = np.where(slow, kappa - (lo + 0.5 * (hi - lo)), newton)
        keep = ~done
        if not keep.any():
            break
        idx, r, lo, hi, step = idx[keep], r[keep], lo[keep], hi[keep], step[keep]
        kappa = kappa[keep] - step
    else:
        roots[idx], residuals[idx] = kappa, mean_resultant_ratio(p, kappa) - r
    bad = np.abs(residuals) > 1e-10
    if bad.any():
        raise RuntimeError(f"concentration solve did not converge at p={p}, ratio={ratios[bad][0]}")
    return roots


def concentrations(p: int, r, mode: str) -> np.ndarray:
    """MAP kappa per class from r = beta/alpha. Mode "approx" takes p*r/(1 - r^2)
    (= p*beta*alpha/(alpha^2 - beta^2)), which lands at or above the exact root,
    badly so at small p; mode "exact" solves A_p(kappa) = r for all classes at
    once by safeguarded Newton below that value (residual below 1e-10). r = 0
    gives kappa = 0. Classes whose kappa is unbounded (r >= 1 by float slop) or
    above MAX_KAPPA raise one ConcentrationOverflowError that lists them all."""
    if mode not in ESTIMATION_MODES:
        raise ValueError(f"unknown estimation mode {mode!r}")
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        kappa = p * r / (1.0 - r * r)
    unbounded = ~((kappa >= 0.0) & (kappa <= MAX_KAPPA))
    if unbounded.any():
        raise ConcentrationOverflowError(
            f"beta/alpha = {r[unbounded][0]} is too close to 1: kappa is unbounded or above {MAX_KAPPA:g}",
            np.flatnonzero(unbounded),
        )
    if mode == "exact":
        pos = r > 0.0
        if pos.any():
            kappa[pos] = _newton_concentrations(p, r[pos], kappa[pos])
    return kappa


def concentration_slopes(p: int, alpha, beta, kappa, a, mode: str) -> np.ndarray:
    """dkappa/dbeta at fixed alpha of `concentrations`' kappa at beta/alpha > 0, given that
    kappa and a = A_p(kappa). Mode "approx" differentiates p*beta*alpha/(alpha^2 - beta^2);
    mode "exact" takes 1/(alpha A'(kappa)), A' = 1 - a^2 - (p-1)a/kappa."""
    if mode not in ESTIMATION_MODES:
        raise ValueError(f"unknown estimation mode {mode!r}")
    if mode == "approx":
        return p * alpha * (alpha**2 + beta**2) / (alpha**2 - beta**2) ** 2
    return 1.0 / (alpha * (1.0 - a * a - (p - 1) * a / kappa))


def map_estimate(post: PosteriorSpec, mode: str = "approx") -> VmfParams:
    """MAP vMF parameters from a posterior: mu = m, kappa from beta/alpha by
    `concentrations`. With beta = 0 the class is uniform (kappa = 0) and mu is
    a placeholder, since the direction never enters the density."""
    if post.alpha <= 0.0:
        raise ValueError(f"posterior pseudo-count must be positive, got {post.alpha}")
    kappa = concentrations(post.dim, [post.beta / post.alpha], mode)[0]
    return VmfParams(mu=post.m if post.m is not None else np.eye(post.dim)[0], kappa=kappa)


def _check_rates(alpha_hat: float, beta_hat: float) -> tuple[float, float]:
    a, b = float(alpha_hat), float(beta_hat)
    if not (np.isfinite(a) and np.isfinite(b)) or a < 0.0 or b < 0.0:
        raise ValueError(f"prior rates alpha_hat and beta_hat must be finite and >= 0, got {a}, {b}")
    if b > a:
        raise ValueError(f"beta_hat={b} exceeds alpha_hat={a}")
    return a, b


def class_posteriors(counts, resultants, alpha_hat: float, beta_hat: float, m0=None):
    """The conjugate update of K classes with priors scaled to class size n:
    alpha = alpha_hat*n + n, beta*m = beta_hat*n*m0 + resultant. Returns the
    arrays (alpha, beta, m, beta0); rows of m are 0 where beta = 0 (mean
    direction undefined). m0 (K, p) may be omitted when beta_hat = 0."""
    a, b = _check_rates(alpha_hat, beta_hat)
    counts = np.asarray(counts, dtype=float)
    beta0 = b * counts
    v = np.array(resultants, dtype=float)
    if m0 is not None:
        v += beta0[:, np.newaxis] * m0
    beta = np.linalg.norm(v, axis=1)
    m = np.divide(v, beta[:, np.newaxis], out=np.zeros_like(v), where=beta[:, np.newaxis] > 0.0)
    return a * counts + counts, beta, m, beta0


def scale_prior(alpha_hat: float, beta_hat: float, m0, class_count: float) -> PriorSpec:
    """Per-class prior scaled to class size: alpha0 = alpha_hat*N, beta0 = beta_hat*N.

    The per-sample rates must satisfy beta_hat <= alpha_hat (checked here, at
    configuration time) so the resulting PriorSpec invariant holds for any N.
    """
    a, b = _check_rates(alpha_hat, beta_hat)
    n = float(class_count)
    if n < 0:
        raise ValueError(f"class count must be >= 0, got {class_count}")
    return PriorSpec(a * n, b * n, m0)
