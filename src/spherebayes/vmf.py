"""The von Mises-Fisher distribution as a value type: log-density and sampling.

The density on the unit sphere S^(p-1) is

    f_p(z | mu, kappa) = exp(kappa * mu.T z) / C_p(kappa),

with mean direction mu and concentration kappa >= 0 (kappa = 0 is uniform).
The normalizer only ever appears through its log (see `special`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .special import _check_kappa, log_vmf_normalizer

__all__ = ["UNIT_NORM_TOL", "as_unit_vector", "substream", "VmfParams", "log_density", "sample"]

# Vectors whose norm deviates from 1 by no more than this are silently
# renormalized (float drift); larger deviations are treated as caller bugs.
UNIT_NORM_TOL = 1e-6


def as_unit_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and renormalize a unit vector (or a batch, rows as vectors).

    Accepts norm deviations up to `UNIT_NORM_TOL` and rescales; anything
    further off the sphere raises ValueError, as does a dimension mismatch
    when `dim` is given. The result is bitwise v / ||v||, one float64 array
    divided out of v's rows, which are never converted as a whole.
    """
    u = _float_rows(v)
    norms = _unit_norms(u, dim)
    return np.divide(u, norms[:, np.newaxis] if u.ndim == 2 else norms, dtype=float)


def _float_rows(v) -> np.ndarray:
    """v as an array whose rows, divided by their `_unit_norms`, are bitwise
    as_unit_vector(v): float32, float64 and integer arrays as they are, since
    numpy converts each of their values to float64 as as_unit_vector's copy
    does, so float32 rows are never converted as a whole; any other dtype
    (objects, strings, float128) converted as as_unit_vector converts it."""
    u = np.asarray(v)
    return u if np.can_cast(u.dtype, float) else np.asarray(v, dtype=float)


def _unit_norms(u: np.ndarray, dim: int | None = None) -> np.ndarray:
    """The float64 norms of a float array's rows, validated as `as_unit_vector`
    validates them, so that as_unit_vector(u, dim) is bitwise u divided by
    them; float32 rows are never converted as a whole."""
    if u.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a batch of vectors, got ndim={u.ndim}")
    if u.shape[-1] < 2:
        raise ValueError(f"unit vectors must have dimension >= 2, got {u.shape[-1]}")
    if dim is not None and u.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {u.shape[-1]}")
    norms = _norms(u)
    # A nan or inf component makes its norm nan or inf, which fails this test.
    if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):
        if not np.all(np.isfinite(u)):
            raise ValueError("unit vector has non-finite components")
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(f"vector is off the unit sphere by {worst:.3e} (> {UNIT_NORM_TOL:.0e})")
    return norms


# Entries per block of `_norms`: 512 KiB of float64 squares at a time.
_NORM_BLOCK = 1 << 16


def _norms(u: np.ndarray) -> np.ndarray:
    """np.linalg.norm(u, axis=-1) in float64, taken a block of rows at a time
    so that neither the squares nor a float64 copy of float32 rows fills a
    full-size temporary; each row's norm is the same reduction over the same
    row, so bitwise the one-call result."""
    rows = max(1, _NORM_BLOCK // max(1, u.shape[-1]))  # zero-width rows have zero norms
    if u.ndim == 1 or u.shape[0] <= rows:
        return np.linalg.norm(np.asarray(u, dtype=float), axis=-1)
    norms = np.empty(u.shape[0])
    for start in range(0, u.shape[0], rows):
        norms[start : start + rows] = np.linalg.norm(np.asarray(u[start : start + rows], dtype=float), axis=-1)
    return norms


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


def substream(seed: int, *key: int) -> np.random.Generator:
    """Named RNG stream: a PCG64 generator keyed by (seed, *key).

    This is the library-wide stream-splitting rule. Every consumer that needs
    independent randomness under one experiment seed derives its generator as
    substream(seed, tag...) -- e.g. one sub-stream per class when sampling a
    mixture -- which makes runs reproducible across machines and immune to
    reordering of the consumers.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))


@dataclass(frozen=True)
class VmfParams:
    """Parameters of one vMF distribution: mean direction, concentration, dimension."""

    mu: np.ndarray
    kappa: float
    dim: int = field(default=0)

    def __post_init__(self):
        mu = as_unit_vector(self.mu)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "dim", int(self.dim) if self.dim else mu.shape[0])
        if self.dim != mu.shape[0]:
            raise ValueError(f"mu has dimension {mu.shape[0]}, declared dim={self.dim}")
        object.__setattr__(self, "kappa", _check_kappa(self.kappa))


def log_density(params: VmfParams, z) -> float | np.ndarray:
    """log f_p(z | mu, kappa) = kappa * mu.T z - ln C_p(kappa).

    `z` may be a single unit vector or an (n, p) batch; the result is a
    scalar or an array of n values accordingly.
    """
    z = as_unit_vector(z, dim=params.dim)
    dots = z @ params.mu
    out = params.kappa * dots - log_vmf_normalizer(params.dim, params.kappa)
    return float(out) if np.isscalar(dots) or dots.ndim == 0 else out


def _sample_cosines(kappa: float, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values of w = mu.T z by rejection from the marginal (Wood 1994)."""
    d = p - 1
    b = d / (np.sqrt(4.0 * kappa * kappa + d * d) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + d * np.log1p(-x0 * x0)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(n - filled, 32)
        z = rng.beta(d / 2.0, d / 2.0, size=m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=m)
        ok = kappa * w + d * np.log1p(-x0 * w) - c >= np.log(u)
        take = min(int(ok.sum()), n - filled)
        out[filled:filled + take] = w[ok][:take]
        filled += take
    return out


def sample(params: VmfParams, n: int, rng: int | np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. samples, returned as an (n, p) array of unit rows.

    `rng` is either a Generator (e.g. from `substream`) or an integer seed.
    Fixed seeds give bitwise-identical streams. Sampling is Wood-style
    rejection for the cosine against mu, a uniform direction in the
    orthogonal complement, then a Householder reflection taking e_1 onto mu.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if not isinstance(rng, np.random.Generator):
        rng = substream(int(rng))
    p = params.dim
    if params.kappa == 0.0:
        g = rng.standard_normal((n, p))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return g
    w = _sample_cosines(params.kappa, p, n, rng)
    v = rng.standard_normal((n, p - 1))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    x = np.empty((n, p))
    x[:, 0] = w
    np.multiply(np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, np.newaxis], v, out=x[:, 1:])
    # Reflect e_1 onto mu: H = I - 2 u u^T / (u^T u) with u = e_1 - mu.
    u = -params.mu.copy()
    u[0] += 1.0
    uu = float(u @ u)
    if uu > 1e-24:
        reflected = np.multiply.outer(x @ u, u)
        reflected *= 2.0 / uu
        x -= reflected
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x
