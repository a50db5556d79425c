"""Simplex equiangular tight frames for prior mean directions.

The frame packs K unit vectors into dimension p >= K-1 so that every pairwise
inner product is exactly -1/(K-1), the most mutually repellent arrangement
possible. Columns are

    M = sqrt(K/(K-1)) * U * (I_K - (1/K) 1 1^T)

with U a (seeded) random p x K matrix with orthonormal columns restricted to
the simplex hyperplane; the centering projector removes the all-ones
direction, which is why only K-1 orthonormal directions are actually needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vmf import _row_norms, substream

__all__ = ["EtfFrame", "build_etf", "grad_step_m0"]


@dataclass(frozen=True)
class EtfFrame:
    """K unit vectors of dimension p, one per class, stored as rows of `vectors`."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"expected a (K, p) array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("frame has non-finite entries")
        norms = np.linalg.norm(v, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("frame rows must be unit vectors")
        object.__setattr__(self, "vectors", v)

    @property
    def n_classes(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def gram(self) -> np.ndarray:
        return self.vectors @ self.vectors.T


def _simplex_basis(k: int) -> np.ndarray:
    """Orthonormal basis (k x (k-1)) of the hyperplane orthogonal to the all-ones vector."""
    # Helmert-style construction: column j has j+1 entries 1/sqrt((j+1)(j+2))
    # followed by -(j+1)/sqrt((j+1)(j+2)).
    basis = np.zeros((k, k - 1))
    for j in range(k - 1):
        scale = 1.0 / np.sqrt((j + 1.0) * (j + 2.0))
        basis[: j + 1, j] = scale
        basis[j + 1, j] = -(j + 1.0) * scale
    return basis


def build_etf(n_classes: int, dim: int, rng_seed: int) -> EtfFrame:
    """Seeded equiangular tight frame of n_classes unit vectors in dimension dim.

    Requires dim >= n_classes - 1; smaller dimensions cannot hold K directions
    at mutual inner product -1/(K-1) and are rejected. Different seeds give
    frames related by an orthogonal rotation (identical Gram matrices).
    """
    k, p = int(n_classes), int(dim)
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    if p < k - 1:
        raise ValueError(f"dimension {p} cannot hold a {k}-class equiangular frame (need >= {k - 1})")
    # Haar-random orthonormal (p, k-1): QR of a Gaussian, sign-fixed so the
    # factorization (hence the frame) is unique and seed-reproducible.
    g = substream(int(rng_seed), 0).standard_normal((p, k - 1))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    vectors = np.sqrt(k / (k - 1.0)) * (q @ _simplex_basis(k).T).T
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return EtfFrame(vectors)


def grad_step_m0(frame: EtfFrame, grads, lr: float) -> EtfFrame:
    """One gradient step on the prior directions: move each by -lr*grad, renormalize.

    Radial gradient components are no-ops (renormalization cancels them) and
    the equiangular structure is generally NOT preserved by the step; the
    frame is only the starting point of the trajectory.
    """
    if lr <= 0.0 or not np.isfinite(lr):
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    grads = np.asarray(grads, dtype=float)
    if grads.shape != frame.vectors.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match frame {frame.vectors.shape}")
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradients")
    with np.errstate(over="ignore"):
        step = lr * grads
    if not np.all(np.isfinite(step)):
        raise ValueError(f"learning rate {lr} times the gradients overflows the float range")
    moved = frame.vectors - step
    # The squares of a row past ~1e154 would overflow a plain norm.
    scale, norms = _row_norms(moved)
    if np.any(norms == 0.0):
        raise ValueError("gradient step collapsed a direction to the origin")
    return EtfFrame(moved / scale[:, np.newaxis] / norms[:, np.newaxis])
