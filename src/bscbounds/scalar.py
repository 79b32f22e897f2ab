"""Scalar information quantities on [0, 1/2]: binary entropy, its inverse,
the binary convolution of crossover probabilities, and a Taylor expansion of
entropy around the balanced point."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import check_int, check_range

__all__ = [
    "binary_entropy",
    "inv_binary_entropy",
    "binary_convolve",
    "entropy_taylor",
]

_BISECT_RTOL = 1e-12
_LN2 = math.log(2.0)
_LOG2E = math.log2(math.e)


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) bit, in bits. Zero at both endpoints.

    log1p(-p) keeps ln(1 - p) accurate for small p, where log2(1 - p)
    rounds to 0, so the result keeps full relative precision near 0.
    """
    return _h(check_range("p", p, 0.0, 1.0))


def _h(p: float) -> float:
    # binary_entropy for a float 0 <= p <= 1, unchecked: for callers that
    # checked or computed p themselves
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log1p(-p) / _LN2)


def _entropy_vec(p: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    # vectorized binary_entropy with the same endpoint convention: h goes to
    # `out`, and p and `scratch` are overwritten, all three float arrays of
    # one shape and distinct, so that it allocates no float array
    inner = (p > 0.0) & (p < 1.0)
    # -(p log2(p) + (1 - p) log1p(-p) / ln 2) inside (0, 1), 0 elsewhere
    np.log2(p, out=out, where=inner)
    np.multiply(p, out, out=out, where=inner)
    np.negative(p, out=scratch, where=inner)
    np.log1p(scratch, out=scratch, where=inner)
    np.subtract(1.0, p, out=p, where=inner)
    np.multiply(p, scratch, out=scratch, where=inner)
    np.divide(scratch, _LN2, out=scratch, where=inner)
    np.add(out, scratch, out=out, where=inner)
    np.negative(out, out=out, where=inner)
    out[~inner] = 0.0
    return out


def inv_binary_entropy(u: float) -> float:
    """The p in [0, 1/2] with binary_entropy(p) = u, to within 1e-12 of p
    itself, so small u keep their relative precision. Near u = 1, where h is
    flat, the rounding of h itself moves the root by more: up to 1e-10 of p
    at u = 1 - 1e-15.

    A safeguarded Newton search: Newton steps on h(p) - u, with
    h'(p) = log2((1-p)/p), stay inside a bisection bracket. A step that
    would leave the bracket, or that is not at most half the one before, is
    replaced by a bisection. Each step is pushed on by a quarter of the
    tolerance, so once Newton has converged the next point lands past the
    root and closes the bracket.
    """
    return _inv_h(check_range("u", u, 0.0, 1.0))


@functools.lru_cache(maxsize=4096)
def _inv_h(u: float) -> float:
    # inv_binary_entropy for a checked float u, memoized: several bounds
    # invert the same entropy (validate's sandwich sweep asks for each u nine
    # times), and a hit returns the float the search gave
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    # for u <= 1/2 right of the root, as h(p) > p log2(1/p), and near it for
    # small u; u itself where the quotient underflows
    p = min(u / -math.log2(u), 0.25) or u
    last = hi - lo
    while hi - lo > _BISECT_RTOL * hi:
        # 0 < p < 1/2: p starts there and only moves inside (lo, hi)
        h = _h(p)
        if h < u:
            lo = p
        else:
            hi = p
        step = (u - h) / math.log2((1.0 - p) / p)
        step += math.copysign(0.25 * _BISECT_RTOL * p, step)
        if lo < p + step < hi and abs(step) <= 0.5 * last:
            p += step
            last = abs(step)
        else:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                # only for subnormal p: the bracket is down to adjacent floats
                break
            last = mid - lo
            p = mid
    return 0.5 * (lo + hi)


def binary_convolve(a: float, b: float) -> float:
    """Crossover probability of two cascaded symmetric flips: a(1-b) + b(1-a)."""
    return _conv(check_range("a", a, 0.0, 1.0), check_range("b", b, 0.0, 1.0))


def _conv(a: float, b: float) -> float:
    # binary_convolve for floats in [0, 1], unchecked
    return a * (1.0 - b) + b * (1.0 - a)


def entropy_taylor(p: float, terms: int) -> float:
    """Partial sum of the expansion

        h(1/2 + p/2) = 1 - sum_{k>=1} log2(e) / (2k(2k-1)) * p^(2k)

    truncated after `terms` series terms. Converges for |p| <= 1; the series
    is alternating-free (every term is subtracted), so partial sums decrease
    monotonically toward the true value.
    """
    p = check_range("p", p, -1.0, 1.0)
    terms = check_int("terms", terms, 1)
    p2 = p * p
    power = 1.0
    total = 1.0
    for k in range(1, terms + 1):
        power *= p2
        total -= _LOG2E / (2 * k * (2 * k - 1)) * power
    return total
