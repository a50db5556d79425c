"""Log-domain modified Bessel functions of the first kind and the vMF normalizer.

Everything here is kept in log space: the normalizer C_p(kappa) overflows
float64 around kappa ~ 700 already, so no caller ever sees it exponentiated.
Three regimes cover orders nu in [0, 2048] and arguments x in [0, 1e6]:

* ascending series, summed with log-sum-exp, for x <= max(50, nu);
* a Debye-style uniform asymptotic expansion in w = hypot(nu, x) above that
  (the expansion parameter is 1/w, so it holds for small nu at large x too);
* the ratio I_{nu+1}/I_nu gets its own Gauss continued fraction up to
  max(50, nu), an analytically differenced form of the asymptotic above, and
  its leading series term x/(2nu+2) where x is so small that the next term
  is below half an ulp.

`log_vmf_normalizer` takes one kappa or an array of them (one per class);
an array runs each regime once over all of its entries, through the same
kernel that serves the scalar `log_bessel_i`. `mean_resultant_ratio` takes
an array too: each ratio regime runs once over its entries, each entry
bitwise equal to the scalar call. `logsumexp` is a numpy
rendering of scipy's real-float algorithm, without scipy's per-call
array-API dispatch, which dominates at the batch sizes used here.

Accuracy was tuned against 60-digit mpmath references: worst observed errors
are ~2e-15 (series), ~5e-16 (asymptotic), and for the ratio ~1.5e-15
(continued fraction) and ~7e-16 (differenced asymptotic). Past x = 50 the
continued fraction's rounding grows, to ~8e-15 at small nu near x = 2e4,
which is why the asymptotic takes over there.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

__all__ = [
    "logsumexp",
    "log_bessel_i",
    "bessel_ratio",
    "mean_resultant_ratio",
    "log_vmf_normalizer",
    "log_sphere_area",
    "MAX_DIM",
    "MAX_KAPPA",
]

# Supported domain. The estimation contracts below are only validated here.
MAX_DIM = 4096
MAX_KAPPA = 1.0e6

_SERIES_MAX_X = 50.0   # series (ratio: continued fraction) for x <= max(this, nu)
_DEBYE_TERMS = 10      # correction terms kept in the asymptotic expansion


def _debye_polynomials(kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of the Debye polynomials u_k(t), generated exactly.

    u_0 = 1 and u_{k+1}(t) = t^2 (1 - t^2) u_k'(t) / 2
    + (1/8) * integral_0^t (1 - 5 s^2) u_k(s) ds.

    Returned flat for evaluation at t = nu / w, as the arrays (k, d, c) over
    the nonzero terms of u_1..u_kmax (d runs over k, k+2, ..., 3k) and the
    index where each order k starts, so that the k-th correction term is
    sum_d c_d * nu^(d-k) / w^d over the entries of order k.
    """
    polys = [[Fraction(1)]]
    for _ in range(kmax):
        u = polys[-1]
        du = [i * c for i, c in enumerate(u)][1:] or [Fraction(0)]
        half_du = [c / 2 for c in du]
        term = [Fraction(0)] * 2 + half_du
        quart = [Fraction(0)] * 4 + half_du
        mixed = list(u) + [Fraction(0)] * 2
        for i, c in enumerate(u):
            mixed[i + 2] -= 5 * c
        integ = [Fraction(0)] + [c / (8 * (i + 1)) for i, c in enumerate(mixed)]
        n = max(len(term), len(quart), len(integ))
        nxt = [Fraction(0)] * n
        for i, c in enumerate(term):
            nxt[i] += c
        for i, c in enumerate(quart):
            nxt[i] -= c
        for i, c in enumerate(integ):
            nxt[i] += c
        polys.append(nxt)
    terms = [(k, d, float(c)) for k, poly in enumerate(polys[1:], 1) for d, c in enumerate(poly) if c != 0]
    orders, degs, coefs = (np.array(col, dtype=float) for col in zip(*terms))
    return orders, degs, coefs, np.flatnonzero(np.diff(orders, prepend=0.0))


_DEBYE = _debye_polynomials(_DEBYE_TERMS)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """ln sum exp(a) over one axis, bitwise equal to scipy.special.logsumexp
    on real floats: the maxima are split off the sum, so

        top + ln n + log1p(sum_{a < top} exp(a - top) / n),

    with n the number of entries equal to the maximum. Rows of -inf give
    -inf, rows holding +inf give +inf and rows holding nan give nan, all
    without floating-point warnings.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        top = np.maximum.reduce(a, axis=axis, keepdims=True)
        at_top = a == top
        terms = np.subtract(a, top)
        np.exp(terms, out=terms)
        terms[at_top] = 0.0
        total = np.add.reduce(terms, axis=axis, keepdims=True)
        n = np.add.reduce(at_top, axis=axis, keepdims=True, dtype=float)
        out = np.log1p(total / n)
        out += np.log(n)
        out += top
    return out if keepdims else np.squeeze(out, axis=axis)


def _check_order_arg(nu: float, x: float) -> tuple[float, float]:
    nu = float(nu)
    x = float(x)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"Bessel order must be finite and >= 0, got {nu}")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"Bessel argument must be finite and >= 0, got {x}")
    return nu, x


def _log_i_series(nu: float, x) -> np.ndarray:
    # Terms peak near i ~ x/2; by i = 3x they decay like exp(-4.7 x), so the
    # fixed bound keeps the truncation error far below float64 resolution.
    # Rows of an array x share one term matrix, padded with -inf past each
    # row's own bound.
    x = np.asarray(x, dtype=float)[..., np.newaxis]
    n = (3.0 * x).astype(int) + 30
    i = np.arange(n.max() + 1, dtype=float)
    log_terms = (2.0 * i + nu) * np.log(x / 2.0) - gammaln(i + 1.0) - gammaln(nu + i + 1.0)
    return logsumexp(np.where(i <= n, log_terms, -np.inf))


def _debye_correction(nu: float, w) -> np.ndarray:
    """sum_k u_k(nu/w) / nu^k, minus the leading 1, evaluated stably at nu=0."""
    orders, degs, coefs, starts = _DEBYE
    w = np.asarray(w, dtype=float)[..., np.newaxis]
    per_order = np.add.reduceat(coefs * nu ** (degs - orders) / w ** degs, starts, axis=-1)
    return np.cumsum(per_order, axis=-1)[..., -1]  # orders added in turn, k = 1 first


def _log_i_asymptotic(nu: float, x) -> np.ndarray:
    w = np.hypot(nu, x)
    body = w + nu * np.log(x / (nu + w)) - 0.5 * np.log(2.0 * math.pi * w)
    return body + np.log1p(_debye_correction(nu, w))


def _log_bessel_i(nu: float, x: np.ndarray) -> np.ndarray:
    """ln I_nu over a 1-D array of checked arguments: each regime runs once,
    over all of its entries."""
    out = np.full(x.shape, 0.0 if nu == 0.0 else -math.inf)  # the x = 0 entries
    switch = max(_SERIES_MAX_X, nu)
    series = (x > 0.0) & (x <= switch)
    asymptotic = x > switch
    if series.any():
        out[series] = _log_i_series(nu, x[series])
    if asymptotic.any():
        out[asymptotic] = _log_i_asymptotic(nu, x[asymptotic])
    return out


def log_bessel_i(nu: float, x: float) -> float:
    """Natural log of the modified Bessel function of the first kind I_nu(x).

    Parameters
    ----------
    nu : float
        Order, >= 0. Half-integer orders nu = p/2 - 1 are the common case.
    x : float
        Argument, >= 0.

    Returns
    -------
    float
        ln I_nu(x). At x = 0 this is 0 for nu = 0 and -inf for nu > 0.

    Raises
    ------
    ValueError
        If nu < 0, x < 0, or either is non-finite.
    """
    nu, x = _check_order_arg(nu, x)
    return float(_log_bessel_i(nu, np.array([x]))[0])


def _ratio_continued_fraction(nu: float, x: np.ndarray) -> np.ndarray:
    # Gauss CF: I_{nu+1}/I_nu = 1/(b_1 + 1/(b_2 + ...)), b_k = 2(nu+k)/x,
    # evaluated with the modified Lentz algorithm over a 1-D array of x > 0.
    # Each entry leaves the loop at its own convergence point, so its value
    # does not depend on the other entries; converged entries drop out of the
    # working arrays. Every b is positive, so c and d stay positive and
    # Lentz's zero guards are not needed. Convergence takes O(sqrt(x))
    # iterations (~860 at x = 2e4, measured), always < maxiter. The start
    # f = 1e-300 must be negligible next to the ratio, about x/(2nu+2), so
    # the router keeps tiny x away from here.
    out = np.empty(x.shape)
    idx = np.arange(x.size)
    f = np.full(x.shape, 1e-300)
    c = f.copy()
    d = np.zeros(x.shape)
    for k in range(1, 20000):
        b = 2.0 * (nu + k) / x
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        f *= delta
        done = np.abs(delta - 1.0) < 4e-16
        if done.any():
            out[idx[done]] = f[done]
            keep = ~done
            if not keep.any():
                return out
            idx, x, f, c, d = idx[keep], x[keep], f[keep], c[keep], d[keep]
    raise RuntimeError(f"Bessel ratio continued fraction failed to converge (nu={nu}, x={x[0]})")


def _ratio_differenced_asymptotic(nu: float, x) -> np.ndarray:
    # exp(ln I_{nu+1} - ln I_nu) with the difference assembled term by term so
    # that no two O(x)-sized quantities are ever subtracted; elementwise over x.
    w0 = np.hypot(nu, x)
    w1 = np.hypot(nu + 1.0, x)
    dw = (2.0 * nu + 1.0) / (w0 + w1)  # equals w1 - w0
    mid = nu * np.log1p(-(1.0 + dw) / (nu + 1.0 + w1)) + np.log(x / (nu + 1.0 + w1))
    pref = -0.25 * np.log1p((2.0 * nu + 1.0) / (w0 * w0))
    corr = np.log1p(_debye_correction(nu + 1.0, w1)) - np.log1p(_debye_correction(nu, w0))
    return np.exp(dw + mid + pref + corr)


def _bessel_ratio(nu: float, x: np.ndarray) -> np.ndarray:
    """I_{nu+1}/I_nu over a 1-D array of checked arguments: the leading series
    term x/(2nu+2) serves tiny entries (the x = 0 ones included), the
    continued fraction runs once over the entries up to max(50, nu), and the
    differenced asymptotic once over the ones above, where it is the more
    accurate of the two (the switch of `_log_bessel_i`)."""
    out = np.empty(x.shape)
    # The series' next term has relative size x^2/(4(nu+1)(nu+2)); below this
    # bound even twice that is under half an ulp. (The Lentz start of the
    # continued fraction is not negligible there, and subnormal x overflows it.)
    lead = x < 2.0**-26 * math.sqrt((nu + 1.0) * (nu + 2.0))
    out[lead] = x[lead] / (2.0 * nu + 2.0)
    asymptotic = x > max(_SERIES_MAX_X, nu)
    cf = ~(lead | asymptotic)
    if cf.any():
        out[cf] = _ratio_continued_fraction(nu, x[cf])
    if asymptotic.any():
        out[asymptotic] = _ratio_differenced_asymptotic(nu, x[asymptotic])
    return out


def bessel_ratio(nu: float, x: float) -> float:
    """The ratio I_{nu+1}(x) / I_nu(x), in [0, 1).

    Computed directly (continued fraction, or a differenced asymptotic form
    at very large x) rather than as a quotient of two log values, which would
    lose precision once both logs are large.
    """
    nu, x = _check_order_arg(nu, x)
    return float(_bessel_ratio(nu, np.array([x]))[0])


def _check_dim(p: int) -> int:
    if not float(p).is_integer() or p < 2:
        raise ValueError(f"dimension p must be an integer >= 2, got {p}")
    if p > MAX_DIM:
        raise ValueError(f"dimension p={p} exceeds the supported maximum {MAX_DIM}")
    return int(p)


def _check_kappa(kappa: float) -> float:
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa < 0.0:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if kappa > MAX_KAPPA:
        raise ValueError(f"kappa={kappa:g} exceeds the supported maximum {MAX_KAPPA:g}")
    return kappa


def _check_kappas(kappa) -> np.ndarray:
    """kappa as a float array, each entry checked as `_check_kappa` checks one."""
    k = np.asarray(kappa, dtype=float)
    out_of_range = ~((k >= 0.0) & (k <= MAX_KAPPA))
    if out_of_range.any():
        _check_kappa(k[out_of_range][0])  # raises, naming the first bad entry
    return k


def mean_resultant_ratio(p: int, kappa):
    """Mean resultant length A_p(kappa) = I_{p/2}(kappa) / I_{p/2-1}(kappa).

    Strictly increasing in kappa, with A_p(0) = 0 and A_p -> 1 as kappa grows.
    This is the expected length of the mean of unit vectors drawn with
    concentration kappa, and the quantity inverted for concentration fits.

    kappa is one value (a float is returned) or an array, e.g. one entry per
    class (an array of the same shape is returned, each entry bitwise equal
    to the scalar call). Both run through the kernel of `bessel_ratio`.
    """
    p = _check_dim(p)
    k = _check_kappas(kappa)
    out = _bessel_ratio(p / 2.0 - 1.0, k.ravel()).reshape(k.shape)
    return float(out) if k.ndim == 0 else out


def log_sphere_area(p: int) -> float:
    """ln of the surface area of the unit sphere S^(p-1) embedded in R^p."""
    p = _check_dim(p)
    return math.log(2.0) + (p / 2.0) * math.log(math.pi) - float(gammaln(p / 2.0))


def log_vmf_normalizer(p: int, kappa):
    """ln C_p(kappa), with C_p(kappa) = (2 pi)^(p/2) I_{p/2-1}(kappa) / kappa^(p/2-1).

    kappa is one value (a float is returned) or an array, e.g. one entry per
    class (an array of the same shape is returned). Continuous at kappa = 0,
    where it equals the log surface area of S^(p-1) (the density degenerates
    to the uniform one on the sphere).
    """
    p = _check_dim(p)
    k = np.atleast_1d(_check_kappas(kappa))
    out = np.full(k.shape, log_sphere_area(p))
    pos = k > 0.0
    if pos.any():
        nu = p / 2.0 - 1.0
        kp = k[pos]
        out[pos] = (p / 2.0) * math.log(2.0 * math.pi) + _log_bessel_i(nu, kp) - nu * np.log(kp)
    return float(out[0]) if np.ndim(kappa) == 0 else out
