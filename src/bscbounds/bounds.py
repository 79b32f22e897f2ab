"""Entropy bounds driven by MMSE predictability.

The scalar evaluators take already-computed summary quantities (a flip rate,
an entropy, an MMSE level) and apply the bound formulas. The vector
evaluators take an explicit joint law, find the optimal prediction order
exactly with the subset dynamic program of the dist module (up to its
EXHAUSTIVE_CAP coordinates; ties go to the lexicographically first order
whose every prefix is optimal), and report per-symbol values, with one
exception: the memory-noise bound reports total bits, because that is the
quantity the ordered sum actually bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dist import (
    ExplicitPmf,
    _along_order,
    _best_orders,
    _check_permutation,
    _check_pmf,
    _check_pmfs,
    _cost_table,
    _entropy_kernel,
    best_case_mmse_given_output_many,
    entropy,
    worst_case_mmse_many,
)
from .errors import DomainError, _as_real, check_range
from .scalar import _conv, _h, inv_binary_entropy

__all__ = [
    "BoundResult",
    "mgl_scalar",
    "scalar_mmse_gerber",
    "scalar_memory_noise",
    "scalar_upper",
    "vector_mmse_gerber",
    "vector_mmse_gerber_many",
    "vector_upper",
    "vector_upper_many",
    "conditional_vector_mmse_gerber",
    "noise_profile",
    "memory_noise_term",
    "vector_memory_noise",
    "sandwich_mgl",
    "sandwich_new",
]

_LEVEL_SLACK = 1e-12


@dataclass(frozen=True)
class BoundResult:
    """A named bound value plus the inputs that produced it.

    `value` is bits per symbol except for name "memory-noise", which is a
    total over all symbols. `inputs` records the search outcome (optimizing
    order, MMSE level) next to the parameters, so results are reproducible
    without rerunning the search.
    """

    name: str
    value: float
    inputs: dict
    variant: str | None = None


def _check_level(name: str, value: float, scale: float = 0.25) -> float:
    """Coerce to float and require 0 <= value <= scale, admitting and clamping
    a rounding excess of up to _LEVEL_SLACK at either end."""
    value = _as_real(name, value)
    if not (math.isfinite(value) and -_LEVEL_SLACK <= value <= scale + _LEVEL_SLACK):
        raise DomainError(f"{name} must lie in [0, {scale}], got {value!r}")
    return min(max(value, 0.0), scale)


def _lift(h: float, x: float) -> float:
    """The MMSE lemma h + (1 - h) x for x = 4 mmse, unchecked."""
    return h + (1.0 - h) * x


def mgl_scalar(alpha: float, entropy_in: float) -> float:
    """Classical convolution bound h(alpha * h^{-1}(H)) on the noisy entropy."""
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    entropy_in = check_range("entropy", entropy_in, 0.0, 1.0)
    return _h(_conv(alpha, inv_binary_entropy(entropy_in)))


def scalar_mmse_gerber(alpha: float, mmse: float) -> float:
    """Lower bound h(alpha) + (1 - h(alpha)) * 4 * mmse on the conditional
    entropy of a noisy bit whose prediction error is `mmse`."""
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    mmse = _check_level("mmse", mmse)
    return _lift(_h(alpha), 4.0 * mmse)


def scalar_memory_noise(noise_entropy: float, mmse: float) -> float:
    """One term of the memory-noise bound: H + (1 - H) * 4 * mmse where H is
    the noise bit's conditional entropy given the earlier noise bits."""
    noise_entropy = _check_level("noise_entropy", noise_entropy, 1.0)
    mmse = _check_level("mmse", mmse)
    return _lift(noise_entropy, 4.0 * mmse)


def scalar_upper(alpha: float, mmse: float) -> float:
    """Matching upper bound h(1/2 + (1 - 2 alpha)/2 * sqrt(1 - 4 * mmse))."""
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    mmse = _check_level("mmse", mmse)
    return _h(0.5 + (0.5 - alpha) * math.sqrt(1.0 - 4.0 * mmse))


def _order_result(name: str, bound, alpha: float, pmf: ExplicitPmf, found) -> BoundResult:
    """The BoundResult of a searched (mmse, order) at its per-symbol level."""
    mmse, order = found
    return BoundResult(name, bound(alpha, mmse / pmf.n),
                       {"alpha": alpha, "n": pmf.n, "mmse": mmse, "order": order})


def vector_mmse_gerber(pmf: ExplicitPmf, alpha: float) -> BoundResult:
    """Per-symbol lower bound on the noisy output entropy H(Y)/n, maximized
    over prediction orders of the clean source."""
    return vector_mmse_gerber_many([pmf], alpha)[0]


def vector_mmse_gerber_many(pmfs, alpha: float) -> list[BoundResult]:
    """vector_mmse_gerber of each pmf at one alpha, in input order and with
    the same results; the order searches run in lockstep."""
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    pmfs = _check_pmfs(pmfs)
    return [_order_result("mmse-gerber", scalar_mmse_gerber, alpha, pmf, found)
            for pmf, found in zip(pmfs, worst_case_mmse_many(pmfs))]


def vector_upper(pmf: ExplicitPmf, alpha: float) -> BoundResult:
    """Per-symbol upper bound on H(Y)/n from the best prediction order that
    sees only noisy observations of the earlier bits."""
    return vector_upper_many([pmf], alpha)[0]


def vector_upper_many(pmfs, alpha: float) -> list[BoundResult]:
    """vector_upper of each pmf at one alpha, in input order and with the
    same results; the order searches run in lockstep."""
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    pmfs = _check_pmfs(pmfs)
    return [_order_result("upper", scalar_upper, alpha, pmf, found)
            for pmf, found in zip(pmfs, best_case_mmse_given_output_many(pmfs, alpha))]


def conditional_vector_mmse_gerber(family, alpha: float) -> BoundResult:
    """Lower bound on the conditional noisy entropy H(Y | W)/n when the source
    law is a labeled mixture given as (weight, pmf) pairs.

    One shared prediction order maximizes the weighted MMSE sum, which is
    what the chain-rule argument supports.
    """
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    try:
        pairs = [(wt, pmf) for wt, pmf in family]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"the mixture family must hold (weight, pmf) pairs: {exc}") from exc
    members = [(_as_real("mixture weight", wt), _check_pmf("mixture member", pmf))
               for wt, pmf in pairs]
    if not members:
        raise DomainError("the mixture family must be nonempty")
    n = members[0][1].n
    if any(pmf.n != n for _, pmf in members):
        raise DomainError("all mixture members must share one coordinate count")
    wts = [wt for wt, _ in members]
    if not all(math.isfinite(wt) and wt >= 0.0 for wt in wts) or abs(sum(wts) - 1.0) > 1e-9:
        raise DomainError("mixture weights must form a probability vector")

    step = sum(wt * _cost_table(pmf) for wt, pmf in members)
    found = _best_orders(n, [step], pick_max=True)[0]
    return replace(_order_result("conditional-mmse-gerber", scalar_mmse_gerber, alpha,
                                 members[0][1], found), variant="shared")


def noise_profile(pmf_z: ExplicitPmf, order) -> list[float]:
    """Per-step conditional entropies H(Z_{order[i]} | earlier ordered bits),
    each >= 0 exactly and <= 1 only up to rounding (a step can read 1 + 4.4e-16)."""
    order = _check_permutation(_check_pmf("pmf_z", pmf_z), order)
    return _along_order(_cost_table(pmf_z, kernel=_entropy_kernel), order)


def _same_dimension(pmf_x: ExplicitPmf, pmf_z: ExplicitPmf) -> None:
    _check_pmf("pmf_x", pmf_x)
    _check_pmf("pmf_z", pmf_z)
    if pmf_x.n != pmf_z.n:
        raise DomainError(f"source has n={pmf_x.n} but noise has n={pmf_z.n}")


def _memory_noise_steps(pmf_x: ExplicitPmf, pmf_z: ExplicitPmf) -> np.ndarray:
    """step[mask, j-1] = 4 M (1 - H), M the clean MMSE of source bit j given
    the mask bits and H the matching noise entropy step."""
    return 4.0 * _cost_table(pmf_x) * (1.0 - _cost_table(pmf_z, kernel=_entropy_kernel))


def memory_noise_term(pmf_x: ExplicitPmf, pmf_z: ExplicitPmf, order) -> float:
    """Value of the ordered memory-noise bound for one specific order:

        H(Z) + 4 * sum_i M_i * (1 - H_i)

    in total bits, where M_i is the clean MMSE of source bit order[i] given
    the earlier ordered source bits and H_i the matching noise entropy step.
    """
    _same_dimension(pmf_x, pmf_z)
    order = _check_permutation(pmf_x, order)
    # a running sum in order, as the search adds its steps; sum() would
    # compensate on Python >= 3.12 and could differ in the last bit
    total = 0.0
    for v in _along_order(_memory_noise_steps(pmf_x, pmf_z), order):
        total += v
    return entropy(pmf_z) + total


def vector_memory_noise(pmf_x: ExplicitPmf, pmf_z: ExplicitPmf) -> BoundResult:
    """Lower bound on the total output entropy H(Y) for Y = X xor Z with the
    noise Z allowed its own memory, maximized over prediction orders.

    The order is the lexicographically first one whose every prefix is
    optimal, and memory_noise_term gives the same value at it. Reports total
    bits over all n symbols, not a per-symbol rate.
    """
    _same_dimension(pmf_x, pmf_z)
    best, best_order = _best_orders(pmf_x.n, [_memory_noise_steps(pmf_x, pmf_z)], pick_max=True)[0]
    hz = entropy(pmf_z)
    return BoundResult(
        "memory-noise",
        hz + best,
        {"n": pmf_x.n, "order": best_order, "noise_entropy": hz},
    )


def sandwich_mgl(alpha: float, x: float) -> tuple[float, float]:
    """Bracketing pair for the classical bound at normalized MMSE level x:

        h(alpha * h^{-1}(x)) <= classical value <= h(alpha * (1/2 + sqrt(1-x)/2)).
    """
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    x = check_range("x", x, 0.0, 1.0)
    lower = _h(_conv(alpha, inv_binary_entropy(x)))
    upper = _h(_conv(alpha, 0.5 + 0.5 * math.sqrt(1.0 - x)))
    return lower, upper


def sandwich_new(alpha: float, u: float) -> tuple[float, float]:
    """Bracketing pair for the MMSE bound at per-symbol input entropy u:

        h(a) + (1-h(a)) * 4 p (1-p) <= bound <= h(a) + (1-h(a)) * u,  p = h^{-1}(u).
    """
    alpha = check_range("alpha", alpha, 0.0, 0.5)
    u = check_range("u", u, 0.0, 1.0)
    ha = _h(alpha)
    p = inv_binary_entropy(u)
    return _lift(ha, 4.0 * p * (1.0 - p)), _lift(ha, u)
