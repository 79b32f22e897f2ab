"""Reference computations the benchmark checks the program's results against.

Nothing here imports bscbounds. Each quantity is recomputed from a raw weight
table with numpy by a different route than the package takes (dense channel
matrices and bincount over context keys instead of axis reshapes), so a
defect in the package cannot cancel out of a check.

Weight tables follow the package's layout: 2**n weights, and bit k of the
outcome index is coordinate k + 1.
"""

from __future__ import annotations

import numpy as np


def _n_of(w: np.ndarray) -> int:
    return int(w.size).bit_length() - 1


def _popcount(x: np.ndarray) -> np.ndarray:
    count = np.zeros_like(x)
    while np.any(x):
        count += x & 1
        x = x >> 1
    return count


def entropy_bits(w: np.ndarray) -> float:
    """Shannon entropy of a weight table, in bits."""
    pos = w[w > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def bsc(w: np.ndarray, alpha: float) -> np.ndarray:
    """Output law when every coordinate flips independently with rate alpha,
    as one dense 2**n x 2**n channel matrix indexed by Hamming distance."""
    n = _n_of(w)
    x = np.arange(w.size)
    d = _popcount(x[:, None] ^ x[None, :])
    return (alpha ** d * (1.0 - alpha) ** (n - d)) @ w


def xor_convolve(px: np.ndarray, pz: np.ndarray) -> np.ndarray:
    """Law of X xor Z for independent X and Z: p(y) = sum_x px(x) pz(x ^ y)."""
    x = np.arange(px.size)
    return pz[x[:, None] ^ x[None, :]] @ px


def conditional_variance(w: np.ndarray, target: int, given_mask: int) -> float:
    """E[Var(X_target | X_j for the coordinates j whose bit is in given_mask)]."""
    x = np.arange(w.size)
    key = x & given_mask
    one = ((x >> (target - 1)) & 1).astype(float)
    p1 = np.bincount(key, weights=w * one, minlength=w.size)
    tot = np.bincount(key, weights=w, minlength=w.size)
    live = tot > 0.0
    return float((p1[live] * (tot[live] - p1[live]) / tot[live]).sum())


def mmse_along(w: np.ndarray, order) -> float:
    """Chained prediction MMSE: the sum of each coordinate's conditional
    variance given the coordinates ordered before it."""
    total, mask = 0.0, 0
    for j in order:
        total += conditional_variance(w, int(j), mask)
        mask |= 1 << (int(j) - 1)
    return total


def worst_mmse(w: np.ndarray) -> float:
    """Largest chained MMSE over all prediction orders, by a dynamic program
    over the lattice of already-predicted subsets (O(2**n * n) variances)."""
    n = _n_of(w)
    best = np.full(1 << n, -np.inf)
    best[0] = 0.0
    for mask in range(1, 1 << n):
        for j in range(1, n + 1):
            bit = 1 << (j - 1)
            if mask & bit:
                prev = mask ^ bit
                cand = best[prev] + conditional_variance(w, j, prev)
                if cand > best[mask]:
                    best[mask] = cand
    return float(best[-1])
