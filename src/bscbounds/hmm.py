"""Symmetric Markov sources observed through a binary symmetric channel.

Closed-form MMSE terms and the dyadic-order series bound live alongside two
comparison baselines, the exact finite-window conditional entropy, and the
stationary belief machinery with its Monte Carlo entropy-rate oracle.

Conventions: q is the source flip rate and alpha the channel flip rate, both
at most 1/2. The belief analysis tracks W_i, the log odds of the current
source bit given all outputs seen so far; eta = (1 - alpha)/alpha is the
likelihood ratio of a single observation, and F = exp(f(W)) is the odds
carried forward through one Markov step, where f is the one-step log-odds
map propagate_llr.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import BoundResult
from .errors import DimensionError, DomainError, check_int, check_open, check_range
from .scalar import _conv, _entropy_vec, _h

__all__ = [
    "MarkovHmmParams",
    "McEstimate",
    "QuarticCoefficients",
    "disagreement_prob",
    "mmse_two_sided",
    "dyadic_permutation",
    "series_mmse",
    "markov_series_bound",
    "crossing_q",
    "small_q_ratio",
    "cover_thomas_ceiling",
    "rare_transition_baseline",
    "propagate_llr",
    "odds_cap",
    "mmse_given_odds",
    "quartic_coefficients",
    "stationary_odds",
    "minimizing_odds",
    "belief_bound",
    "entropy_rate_mc",
    "entropy_rate_mc_many",
    "exact_conditional_entropy",
]

# flip rates below this are routed to their exact zero-rate limits
_TINY_RATE = 1e-8

_RESIDUAL_TOL = 1e-9
# belief_bound's variants and the factor on its MMSE floor
_BELIEF_FACTORS = {"factor4": 4.0, "printed": 1.0}
# a Newton step this small (relative) ends a root search: the next one
# would move the root by rounding alone
_NEWTON_STOP = 4.0 * 2.0**-52
# crossing_q bisects its bracket down to this width in q
_CROSSING_WIDTH = 1e-6
_MAX_WINDOW = 20
# Powers (1-2q)^k = exp(k log1p(-2q)) cap k here, so k converts to a float.
# For q >= 2.1e-307, k log1p(-2q) at k = 2^1023 is below -37.4, where expm1
# rounds to -1 and tanh to 1, so a larger k changes no result there.
_MAX_POWER = 1 << 1023

# The Monte Carlo runs its rows in lockstep groups of at most _MC_ROWS. A
# group draws and simulates at most _MC_CHUNK steps at a time over all its
# rows, with the step flags packed 8 to a byte and each row's bytes scanned
# in blocks of at most _MC_BLOCK. The steps are read off their bytes' tables
# _MC_PIECE at a time over the group's rows, in 128 KB temporaries: pieces of
# 2^15 steps ran single rows 7% slower, and whole-chunk ones were mapped
# fresh by malloc each time and made this stage about 2.5x slower. A group's
# tables take 72 KB a row; groups of 6 to 12 rows ran fig3's 21 rows alike,
# and one group of 21 about 11% slower.
_MC_CHUNK = 1 << 16
_MC_PIECE = 1 << 14
_MC_BLOCK = 64
_MC_ROWS = 8
# bit k of _RUNNING_XOR[b] is the xor of bits 0..k of the byte b
_RUNNING_XOR = np.arange(256, dtype=np.uint8)
_RUNNING_XOR ^= _RUNNING_XOR << 1
_RUNNING_XOR ^= _RUNNING_XOR << 2
_RUNNING_XOR ^= _RUNNING_XOR << 4


@dataclass(frozen=True)
class MarkovHmmParams:
    """Source flip rate q and channel flip rate alpha, each in [0, 1/2]."""

    q: float
    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", check_range("q", self.q, 0.0, 0.5))
        object.__setattr__(self, "alpha", check_range("alpha", self.alpha, 0.0, 0.5))


class McEstimate(NamedTuple):
    estimate: float
    stderr: float


def disagreement_prob(k: int, q: float) -> float:
    """Pr(X_{m+k} != X_m) after k Markov steps: (1 - (1-2q)^k) / 2, taken as
    -expm1(k log1p(-2q)) / 2 to keep full relative precision at small q."""
    k = min(check_int("k", k, 0), _MAX_POWER)
    q = check_range("q", q, 0.0, 0.5)
    if q == 0.5:
        return 0.5 if k else 0.0
    return -0.5 * math.expm1(k * math.log1p(-2.0 * q))


def mmse_two_sided(gap: int, q: float) -> float:
    """MMSE of a source bit given both neighbors `gap` steps away.

    Closed form (1/4)(1 - r)/(1 + r) with r = (1-2q)^(2 gap), evaluated as
    (1/4) tanh(-gap log1p(-2q)) to keep full relative precision at small q,
    and cross-checked on every call against the posterior-ratio form
    (P_gap (1-P_gap))^2 / (P_{2 gap} (1-P_{2 gap})) built from
    disagreement_prob.
    """
    gap = min(check_int("gap", gap, 1), _MAX_POWER)
    q = check_range("q", q, 0.0, 0.5)
    if q == 0.0:
        return 0.0
    value = 0.25 if q == 0.5 else 0.25 * math.tanh(-gap * math.log1p(-2.0 * q))
    pg = disagreement_prob(gap, q)
    p2 = disagreement_prob(2 * gap, q)
    ratio_form = (pg * (1.0 - pg)) ** 2 / (p2 * (1.0 - p2))
    if abs(value - ratio_form) > 1e-12:
        raise AssertionError(
            f"two-sided MMSE forms disagree at gap={gap}, q={q}: "
            f"{value!r} vs {ratio_form!r}"
        )
    return value


def dyadic_permutation(n: int) -> tuple[int, ...]:
    """Prediction order that keeps halving the gaps: n first, then the odd
    multiples of each refinement step, so every later bit sees neighbors at
    equal distance on both sides."""
    n = check_int("n", n, 1)
    if n & (n - 1):
        raise DomainError(f"n must be a power of two, got {n!r}")
    order = [n]
    step = n
    while step > 1:
        step >>= 1
        order.extend(range(step, n, 2 * step))
    return tuple(order)


def series_mmse(q: float) -> float:
    """Per-symbol limit of four times the dyadic-order MMSE:

        sum_{t>=1} 2^(-t) (1 - (1-2q)^(2^t)) / (1 + (1-2q)^(2^t)).

    Terms are added until the bracket rounds to 1; every later term equals
    its weight, so that tail is added in closed form, which makes q = 1/2
    return exactly 1. At small q each earlier term is about q and there are
    about log2(1/q) of them, so none is dropped; with the powers taken
    through log1p/expm1 this keeps full relative precision as q -> 0.
    """
    q = check_range("q", q, 0.0, 0.5)
    if q == 0.0:
        return 0.0
    log_r = math.log1p(-2.0 * q) if q < 0.5 else -math.inf
    total = 0.0
    weight = 0.5
    t = 1
    while True:
        # ldexp, not (1 << t) * log_r: a subnormal q runs t past 1023
        a = math.ldexp(log_r, t)
        e = math.exp(a)
        bracket = -math.expm1(a) / (1.0 + e)
        if bracket == 1.0:
            return total + 2.0 * weight
        total += weight * bracket
        weight *= 0.5
        t += 1


def markov_series_bound(params: MarkovHmmParams) -> BoundResult:
    """Entropy-rate lower bound h(alpha) + (1 - h(alpha)) * series_mmse(q)."""
    ha = _h(params.alpha)
    value = ha + (1.0 - ha) * series_mmse(params.q)
    return BoundResult("theorem5", value, {"alpha": params.alpha, "q": params.q})


def crossing_q(alpha: float) -> float:
    """Smallest source flip rate at which the series bound stops beating the
    classical convolution bound h(alpha * q).

    The gap is prescanned on 512 points of [1e-6, 1/2 - 1e-6]; more than one
    sign change raises a RuntimeWarning and the first is used. The bracket
    is then bisected down to width _CROSSING_WIDTH.
    """
    alpha = check_open("alpha", alpha, 0.0, 0.5)
    ha = _h(alpha)

    def gap(q: float) -> float:
        return ha + (1.0 - ha) * series_mmse(q) - _h(_conv(alpha, q))

    grid = np.linspace(1e-6, 0.5 - 1e-6, 512)
    vals = [gap(float(q)) for q in grid]
    brackets = [
        i for i in range(len(grid) - 1) if (vals[i] > 0.0) != (vals[i + 1] > 0.0)
    ]
    if not brackets:
        raise DomainError(f"no sign change of the bound gap for alpha={alpha}")
    if len(brackets) > 1:
        warnings.warn(
            f"bound gap changes sign {len(brackets)} times for alpha={alpha}; "
            "returning the first crossing",
            RuntimeWarning,
        )
    i = brackets[0]
    lo, hi = float(grid[i]), float(grid[i + 1])
    glo = vals[i]
    while hi - lo > _CROSSING_WIDTH:
        mid = 0.5 * (lo + hi)
        gm = gap(mid)
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def small_q_ratio(q: float) -> float:
    """series_mmse(q) / h(q), the fraction of the source entropy the series
    retains; tends to 1 as q -> 0 and equals 1 at q = 1/2."""
    q = check_range("q", q, 0.0, 0.5)
    if q == 0.0:
        raise DomainError("q must be positive, the ratio is 0/0 at q=0")
    return series_mmse(q) / _h(q)


def cover_thomas_ceiling(params: MarkovHmmParams, m: int = 1) -> float:
    """h(q^(*m) * alpha) where q^(*m) is the m-step disagreement probability.

    This is the ceiling under which the order-m block upper bounds sit, not
    itself an upper bound on the entropy rate: it grows with m toward 1.
    """
    m = check_int("m", m, 1)
    return _h(_conv(disagreement_prob(m, params.q), params.alpha))


def rare_transition_baseline(params: MarkovHmmParams) -> float:
    """Comparison baseline h(alpha) - ((1-2 alpha)^2 / (1-alpha)) q log2(q),
    accurate in the rare-transition regime; continuous value h(alpha) at q=0."""
    q, alpha = params.q, params.alpha
    ha = _h(alpha)
    if q == 0.0:
        return ha
    return ha - ((1.0 - 2.0 * alpha) ** 2 / (1.0 - alpha)) * q * math.log2(q)


def propagate_llr(t: float, q: float) -> float:
    """Log odds surviving one Markov step:

        f(t) = ln((e^t (1-q) + q) / (q e^t + (1-q))).

    Odd in t and saturating at ln((1-q)/q). Taken as log1p of the ratio's
    excess (1-2q)(1 - e^-|t|)/(q + (1-q) e^-|t|), with expm1 for 1 - e^-|t|,
    so it keeps full relative precision as t -> 0 and stays finite for
    arbitrarily large inputs.
    """
    q = check_range("q", q, 0.0, 0.5)
    if q == 0.0:
        raise DomainError("q must be positive, the map is unbounded at q=0")
    try:
        t = float(t)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"t must be a real number, got {t!r}") from exc
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if q == 0.5 or t == 0.0:
        return 0.0
    e = math.exp(-abs(t))
    val = math.log1p((1.0 - 2.0 * q) * -math.expm1(-abs(t)) / (q + (1.0 - q) * e))
    return -val if t < 0.0 else val


def _positive_rates(params: MarkovHmmParams) -> tuple[float, float]:
    q, alpha = params.q, params.alpha
    if q <= 0.0 or alpha <= 0.0:
        raise DomainError("q and alpha must both be positive for the belief recursion")
    return q, alpha


def odds_cap(params: MarkovHmmParams) -> float:
    """Largest odds ratio exp(f(W)) the stationary recursion can reach,

        ((eta-1)(1-q) + sqrt(4 eta q^2 + (eta-1)^2 (1-q)^2)) / (2 eta q),

    the fixed point of one observation followed by one Markov step. Equals 1
    when either rate is 1/2.
    """
    q, alpha = _positive_rates(params)
    if q == 0.5 or alpha == 0.5:
        # exact here, where the formula below can round to 1 + 2**-52
        return 1.0
    eta = (1.0 - alpha) / alpha
    # eta - 1 as (1 - 2 alpha)/alpha, which does not cancel near alpha = 1/2
    gain = (1.0 - 2.0 * alpha) / alpha * (1.0 - q)
    disc = math.sqrt(4.0 * eta * q * q + gain * gain)
    return (gain + disc) / (2.0 * eta * q)


def mmse_given_odds(odds: float, params: MarkovHmmParams) -> float:
    """Conditional variance of the current source bit when the carried belief
    has odds ratio `odds`: a (1-m, m) mixture of x/(1+x)^2 evaluated at
    eta * odds and odds/eta, with m = alpha * q convolved."""
    q, alpha = _positive_rates(params)
    try:
        odds = float(odds)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"odds must be a real number, got {odds!r}") from exc
    if not (math.isfinite(odds) and odds > 0.0):
        raise DomainError(f"odds must be positive and finite, got {odds!r}")
    eta = (1.0 - alpha) / alpha
    m = _conv(alpha, q)
    hi = eta * odds
    lo = odds / eta
    return (1.0 - m) * hi / (1.0 + hi) ** 2 + m * lo / (1.0 + lo) ** 2


@dataclass(frozen=True)
class QuarticCoefficients:
    """Coefficients (descending degree) of the sign polynomial for the slope
    of the odds-conditioned MMSE, with eta kept for consistency checks."""

    c4: float
    c3: float
    c2: float
    c1: float
    c0: float
    eta: float

    def __call__(self, s: float) -> float:
        return (((self.c4 * s + self.c3) * s + self.c2) * s + self.c1) * s + self.c0

    def scaled_residual(self, s: float) -> float:
        """|p(s)| over the norm of the term vector (c4 s^4, ..., c0), a
        scale-free backward error for a claimed root."""
        terms = (self.c4 * s**4, self.c3 * s**3, self.c2 * s**2, self.c1 * s, self.c0)
        return abs(self(s)) / math.sqrt(sum(v * v for v in terms))


def quartic_coefficients(params: MarkovHmmParams) -> QuarticCoefficients:
    """Expand the slope sign of the odds-conditioned MMSE.

    With beta = (1-m)/m and m = alpha * q,

        sign(g'(s)) = sign((eta - s)(1 + eta s)^3 - beta (eta s - 1)(eta + s)^3),

    negated and collected so the returned quartic has positive leading
    coefficient and its sign is the opposite of the slope's:

        c4 = eta (beta + eta^2)
        c3 = 3 eta^2 / m - eta^4 - beta
        c2 = 3 eta (1 - 2m)/m (eta^2 - 1)
        c1 = beta eta^4 + 1 - 3 eta^2 / m
        c0 = -eta (1 + beta eta^2)
    """
    q, alpha = _positive_rates(params)
    m = _conv(alpha, q)
    eta = (1.0 - alpha) / alpha
    beta = (1.0 - m) / m
    c4 = eta * (beta + eta**2)
    c3 = 3.0 * eta**2 / m - eta**4 - beta
    c2 = 3.0 * eta * (1.0 - 2.0 * m) / m * (eta**2 - 1.0)
    c1 = beta * eta**4 + 1.0 - 3.0 * eta**2 / m
    c0 = -eta * (1.0 + beta * eta**2)
    return QuarticCoefficients(c4, c3, c2, c1, c0, eta)


def _horner(coeffs: tuple[float, ...], s: float) -> float:
    value = 0.0
    for c in coeffs:
        value = value * s + c
    return value


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a s^2 + b s + c with a != 0, ascending, by the form
    that does not cancel: t = -(b + sign(b) sqrt(b^2 - 4ac))/2, roots t/a
    and c/t."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    t = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if t == 0.0:
        return [0.0]
    return sorted((t / a, c / t))


def _monotone_root(coeffs: tuple[float, ...], slope: tuple[float, ...],
                   a: float, b: float, fa: float) -> float:
    """The root in (a, b) of the polynomial `coeffs` (descending degree),
    which is monotone there, has value fa at a and the opposite sign at b;
    `slope` holds its derivative's coefficients.

    Newton steps, each after moving the bracket end on the current point's
    side of the root to that point. A step that would not land strictly
    inside the bracket is replaced by bisection, so the bracket holds fewer
    floats after every step and the loop ends. The first point is the
    geometric midpoint of a positive bracket: the odds brackets span
    decades, and on 2,000 log-uniform rate pairs this took about 30% fewer
    steps than the midpoint.
    """
    x = math.sqrt(a) * math.sqrt(b) if a > 0.0 else 0.5 * (a + b)
    if not a < x < b:
        x = 0.5 * (a + b)
    while True:
        fx = _horner(coeffs, x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a = x
        else:
            b = x
        d = _horner(slope, x)
        step = x - fx / d if d else math.nan
        if abs(step - x) <= _NEWTON_STOP * abs(x):
            # a last step past the bracket is rounding, and would put a root
            # on or outside the interval searched
            return step if a <= step <= b else x
        if not a < step < b:
            step = 0.5 * (a + b)
            if not a < step < b:
                return x
        x = step


def _sign_change_roots(coeffs: tuple[float, ...], slope: tuple[float, ...],
                       knots: list[float], values: list[float]) -> list[float]:
    """One root for each pair of adjacent knots where `values`, the
    polynomial's values at the knots, change sign strictly, ascending; the
    polynomial must be monotone between adjacent knots."""
    return [_monotone_root(coeffs, slope, a, b, fa)
            for a, b, fa, fb in zip(knots, knots[1:], values, values[1:])
            if (fa < 0.0 < fb) or (fb < 0.0 < fa)]


def _roots_between(poly: QuarticCoefficients, lo: float, hi: float,
                   p_lo: float) -> list[float]:
    """Real roots of the quartic p in the open interval (lo, hi), ascending,
    isolated by its derivatives in plain floats. p_lo is p(lo), which a
    caller may know more exactly than the expanded sum gives it.

    The roots of p'' (closed form) cut the interval into pieces on which p'
    is monotone, so each sign change of p' on one is one turning point of p.
    The turning points cut it into pieces on which p is monotone, so each
    sign change of p on one is one root. A turning point where p's scaled
    residual is at most _RESIDUAL_TOL is a tangent (double) root: it is
    reported once and p is taken as 0 there, so that a pair of roots that
    rounding splits off beside it is not reported as well. A root at lo or
    hi itself is not reported.
    """
    c4, c3, c2, c1 = poly.c4, poly.c3, poly.c2, poly.c1
    quartic = (c4, c3, c2, c1, poly.c0)
    slope = (4.0 * c4, 3.0 * c3, 2.0 * c2, c1)
    bend = (12.0 * c4, 6.0 * c3, 2.0 * c2)
    knots = [lo, *(s for s in _quadratic_roots(*bend) if lo < s < hi), hi]
    turns = _sign_change_roots(slope, bend, knots, [_horner(slope, s) for s in knots])
    knots = [lo, *turns, hi]
    values = [p_lo, *(_horner(quartic, s) for s in knots[1:])]
    tangents = []
    for i, s in enumerate(turns, 1):
        if poly.scaled_residual(s) <= _RESIDUAL_TOL:
            values[i] = 0.0
            tangents.append(s)
    return sorted(tangents + _sign_change_roots(quartic, slope, knots, values))


def _real_roots(poly: QuarticCoefficients) -> list[float]:
    """Every real root of the quartic, ascending, each once, a tangent root
    included: those _roots_between finds on (-B, B) for the Cauchy bound
    B = 1 + max_k |c_k / c4|, strictly inside which every root lies."""
    bound = 1.0 + max(abs(c) for c in (poly.c3, poly.c2, poly.c1, poly.c0)) / abs(poly.c4)
    return _roots_between(poly, -bound, bound, poly(-bound))


def stationary_odds(params: MarkovHmmParams) -> tuple[float, ...]:
    """Roots of the slope quartic inside the open interval (1, odds_cap),
    ascending: the odds values where the conditioned MMSE turns around.

    They are isolated on that interval alone, in plain floats, by
    _roots_between, which reports a tangent root once. Every returned root
    must pass the scaled-residual check at 1e-9. The quartic at s = 1 must
    match its closed form (eta-1)(eta+1)^3 (1-2m)/m to 1e-9 of the
    coefficient norm. That value is positive (the MMSE always slopes down
    there) but can be smaller than the rounding of the expanded sum near
    rate 1/2, so the search takes the quartic's sign at s = 1 from the
    closed form: a root that rounding of the sum puts just above 1 is not
    reported.
    """
    cap = odds_cap(params)
    if not cap > 1.0:
        return ()
    poly = quartic_coefficients(params)
    coeffs = (poly.c4, poly.c3, poly.c2, poly.c1, poly.c0)
    eta = poly.eta
    m = _conv(params.alpha, params.q)
    at_one = (eta - 1.0) * (eta + 1.0) ** 3 * (1.0 - 2.0 * m) / m
    if abs(poly(1.0) - at_one) > _RESIDUAL_TOL * math.hypot(*coeffs):
        raise AssertionError(f"quartic at s=1 misses its closed form for {params!r}")
    roots = tuple(_roots_between(poly, 1.0, cap, at_one))
    for r in roots:
        if poly.scaled_residual(r) > _RESIDUAL_TOL:
            raise AssertionError(f"root {r!r} fails the residual check for {params!r}")
    return roots


def minimizing_odds(params: MarkovHmmParams) -> float:
    """Admissible odds value minimizing the conditioned MMSE: the best of the
    interior turning points and the cap itself."""
    cap = odds_cap(params)
    candidates = list(stationary_odds(params))
    candidates.append(cap)
    return min(candidates, key=lambda s: mmse_given_odds(s, params))


def belief_bound(params: MarkovHmmParams, variant: str = "factor4") -> BoundResult:
    """Entropy-rate lower bound from the stationary belief recursion.

    The MMSE of the current source bit given the carried belief never falls
    below the conditioned MMSE at the least favorable admissible odds value,
    so with m = alpha * q the rate is at least

        h(m) + (1 - h(m)) * 4 * mmse_given_odds(minimizing_odds, params).

    variant="printed" drops the factor 4 and is kept for comparison only; it
    is strictly weaker everywhere. Zero rates take their continuity limits,
    h(alpha) as q -> 0 and h(q) as alpha -> 0.
    """
    if variant not in _BELIEF_FACTORS:
        raise DomainError(f"variant must be 'factor4' or 'printed', got {variant!r}")
    q, alpha = params.q, params.alpha
    if q == 0.0 or alpha == 0.0:
        # m is alpha or q exactly, and the floor of 0 leaves h(m)
        star, floor = None, 0.0
    else:
        star = minimizing_odds(params)
        floor = mmse_given_odds(star, params)
    return _belief_result(params, star, floor, variant)


def _belief_result(params: MarkovHmmParams, star: float | None, floor: float,
                   variant: str) -> BoundResult:
    """belief_bound's result in `variant` from the minimizing odds and the
    MMSE floor there, so that both variants can share one root search."""
    q, alpha = params.q, params.alpha
    hm = _h(_conv(alpha, q))
    value = hm + (1.0 - hm) * _BELIEF_FACTORS[variant] * floor
    return BoundResult(
        "theorem6",
        value,
        {"alpha": alpha, "q": q, "odds": star, "mmse_floor": floor},
        variant=variant,
    )


def _chunked_draws(rng: np.random.Generator, total: int, chunk: int = _MC_CHUNK):
    """Yield the uniforms behind R and S, `chunk` steps at a time.

    They are the numbers, in order, of rng.random(total) for R followed by
    rng.random(total) for S: S comes from a copy of the bit generator moved
    past the R draws, by PCG64.advance where that skips whole doubles and by
    drawing otherwise. rng ends where those 2 * total draws leave it.
    """
    s_bits = type(rng.bit_generator)()
    s_bits.state = rng.bit_generator.state
    s_rng = np.random.Generator(s_bits)
    if isinstance(s_bits, (np.random.PCG64, np.random.PCG64DXSM)):
        s_bits.advance(total)
    else:
        for start in range(0, total, _MC_CHUNK):
            s_rng.random(min(_MC_CHUNK, total - start))
    for start in range(0, total, chunk):
        size = min(chunk, total - start)
        yield rng.random(size), s_rng.random(size)
    rng.bit_generator.state = s_bits.state


def _byte_maps(q, alpha) -> np.ndarray:
    """The odds maps of every flag byte and of each of its prefixes, for
    rates q and alpha (floats, or arrays of one shape, every pair in one
    broadcast pass), shape (4, *q's shape, 256, 8).

    A step takes the odds x = e^V to (a x + b)/(c x + d), the Moebius map of
    D Q, with Q the Markov matrix and D = diag(eta, 1), or diag(1, eta) on a
    flagged step (the same map as diag(1/eta, 1), without rounding 1/eta).
    Entries [:, ..., byte, k] hold (a, b, c, d) of steps 0..k of the byte,
    step j flagged by bit j (little-endian, as np.packbits(...,
    bitorder="little") packs them), scaled so that the largest is 1. Prefix k
    depends on the low k+1 bits only, so it is built on 2^(k+1) bytes and
    broadcast.

    All entries are positive, so the products lose nothing to cancellation.
    Unscaled they stay within [q^8, eta^8], inside 1e+-64 for any rate above
    _TINY_RATE, and scaled no entry is below 1e-32 of the largest, the square
    of a single step's ratio q/(eta (1-q)). The products are written out,
    not left to matmul, so that the table is exactly mirror-symmetric:
    complementing a byte's flags turns (a, b, c, d) into (d, c, b, a), as it
    swaps the two steps. Where V stays near 0 and hardly contracts (q small,
    alpha near 1/2), rounding errors then cancel between complementary bytes
    instead of adding up over a chunk as a bias.
    """
    shape = np.shape(q)
    q = np.asarray(q, dtype=float).reshape(-1, 1)
    alpha = np.asarray(alpha, dtype=float).reshape(-1, 1)
    rows = q.shape[0]
    eta = (1.0 - alpha) / alpha
    cq = 1.0 - q
    # steps[row, flag, i, j]: [[a, b], [c, d]] of the plain and the flagged step
    steps = np.hstack((eta * cq, eta * q, q, cq, cq, q, eta * q, eta * cq)).reshape(rows, 2, 2, 2)
    table = np.empty((4, rows, 256, 8))
    maps = np.eye(2)[None, None]
    for k in range(8):
        # step k after every prefix, its flag the high bit of the new index:
        # [i, j] = step[i, 0] prefix[0, j] + step[i, 1] prefix[1, j]
        maps = (steps[:, :, None, :, :1] * maps[:, None, :, None, 0]
                + steps[:, :, None, :, 1:] * maps[:, None, :, None, 1]).reshape(rows, 2 << k, 2, 2)
        table.reshape(4, rows, 128 >> k, 2 << k, 8)[..., k] = (
            maps.reshape(rows, 2 << k, 4).transpose(2, 0, 1)[:, :, None])
    table /= table.max(axis=0)
    return table.reshape(4, *shape, 256, 8)


def _row_tables(q: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tables of a lockstep group: the 8-step map [[a, b], [c, d]] of
    every flag byte, shape (2, 2, rows * 256), for _byte_odds, and the
    outcome tables of _entropy_terms, shape (4, rows * 256, 8); row r's bytes
    sit at r * 256.

    With m = alpha * q, the prefix map of step k applied to the odds x before
    its byte predicts the next output's two values with weights
    (1-m)(a x + b) + m (c x + d) and m (a x + b) + (1-m)(c x + d), which is
    (A1 x + B1, A2 x + B2) for the outcome entries
    (A1, B1, A2, B2) = ((1-m)a + mc, (1-m)b + md, ma + (1-m)c, mb + (1-m)d),
    written over the byte maps' prefix table in place.
    """
    table = _byte_maps(q, alpha)
    rows = q.size
    byte_maps = table[..., 7].reshape(2, 2, rows * 256).copy()
    m = (alpha * (1.0 - q) + q * (1.0 - alpha))[:, None, None]
    for u, v in ((table[0], table[2]), (table[1], table[3])):
        first = u * (1.0 - m)
        first += v * m
        v *= 1.0 - m
        v += u * m
        u[...] = first
    return byte_maps, table.reshape(4, rows * 256, 8)


def _scan(q: np.ndarray, alpha: np.ndarray, byte_maps: np.ndarray, total: int,
          rngs: list):
    """Run the belief recursion of every row from W_0 = 0 for `total` steps,
    the rows in lockstep, and yield each chunk as (start, n, flipped, index,
    odds): its first step and length, and for every flag byte the signs of
    sigma (bit j set where sigma = -1 at step start + 8 byte + j + 1), its
    entry in the group's tables (row * 256 + byte) and the odds x = e^V
    before it (_byte_odds).

    Since f is odd, V_i = sigma_i W_i, with sigma_i = S_1 ... S_i, obeys
    V_i = sigma_i R_i ln(eta) + f(V_{i-1}), one of two fixed steps, flagged
    where sigma_i R_i = -1. Chunks hold at most _MC_CHUNK steps over all
    rows, split evenly; each row draws from its own generator as
    _chunked_draws does. The flags are packed 8 to a byte, the last byte
    padded with steps that are never read. The odds and the parity of sigma
    are carried across chunks, the odds from the chunk's last step.
    """
    rows = len(rngs)
    chunks = -(-total // max(8, _MC_CHUNK // rows // 8 * 8))
    width = -(-total // (8 * chunks)) * 8
    draws = [_chunked_draws(rng, total, width) for rng in rngs]
    offsets = np.arange(0, 256 * rows, 256)[:, None]
    r_neg = np.empty((rows, width), dtype=bool)
    s_neg = np.empty((rows, width), dtype=bool)
    x = np.ones(rows)
    odd = np.zeros((rows, 1), dtype=bool)
    # Python floats: comparing with a numpy scalar costs several times more
    limits = list(zip(alpha.tolist(), q.tolist()))
    for start in range(0, total, width):
        n = min(width, total - start)
        for (r_u, s_u), (r_lim, s_lim), r_row, s_row in zip(map(next, draws), limits,
                                                            r_neg, s_neg):
            np.less(r_u, r_lim, out=r_row[:n])
            np.less(s_u, s_lim, out=s_row[:n])
        # sigma flips with every S flag: its sign bits are a running xor of
        # them, taken within each byte from a table and then across bytes
        # from the bytes' parities, bit 7 of their running xor
        flipped = _RUNNING_XOR.take(np.packbits(s_neg[:, :n], axis=1, bitorder="little"))
        ends = flipped >= 128
        parity = np.logical_xor.accumulate(np.hstack((odd, ends[:, :-1])), axis=1)
        odd = parity[:, -1:] ^ ends[:, -1:]
        flipped ^= parity.view(np.uint8) * np.uint8(255)
        codes = np.packbits(r_neg[:, :n], axis=1, bitorder="little") ^ flipped
        index = codes + offsets
        odds, x = _byte_odds(byte_maps, index, x)
        yield start, n, flipped, index, odds
    for draw in draws:
        next(draw, None)


def _byte_odds(byte_maps: np.ndarray, index: np.ndarray,
               x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The odds before every flag byte of a chunk, shape (rows, bytes), and
    after its last byte, from the odds x before its first; index holds each
    byte's entry in byte_maps ([[a, b], [c, d]] of each row's 256 bytes).

    The bytes of each row are cut into blocks of up to _MC_BLOCK, a power of
    two, the last padded by repeating its last byte; padded bytes are never
    read. All rows and blocks run side by side. Pass A multiplies out the
    maps of byte pairs, then of pairs of pairs, up to whole blocks, and
    keeps every level. Pass B composes the block maps into the map of blocks
    0..k for every k by doubling (Hillis-Steele), in log2(blocks) rounds,
    and reads the odds before every block off them. Pass C1 walks pass A's
    levels back down: the odds before a right half are the left half's map
    applied to the odds before the pair. No odds pass through more than
    about 2 log2(bytes) map products and applications, so rounding grows
    with the log of the chunk's length, not with the length itself.
    """
    rows, nbytes = index.shape
    size = min(_MC_BLOCK, 1 << (nbytes - 1).bit_length())
    blocks = -(-nbytes // size)
    pad = blocks * size - nbytes
    padded = np.pad(index, ((0, 0), (0, pad)), mode="edge") if pad else index
    # level[:, :, j] holds [[a, b], [c, d]] of part j of every block of every
    # row; m[:, :1] * p[:1] + m[:, 1:] * p[1:] is the matrix product m p
    level = byte_maps.take(padded.reshape(rows, blocks, size).transpose(2, 0, 1), axis=2)

    # pass A, each product rescaled so that its largest entry is 1
    levels = [level]
    while level.shape[2] > 1:
        later, earlier = level[:, :, 1::2], level[:, :, ::2]
        level = later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]
        level /= level.max(axis=(0, 1))
        levels.append(level)

    # pass B: round r turns the map of blocks k-2^r+1..k into that of blocks
    # k-2^(r+1)+1..k
    prefix = level[:, :, 0]
    shift = 1
    while shift < blocks:
        later, earlier = prefix[..., shift:], prefix[..., :-shift]
        joined = later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]
        joined /= joined.max(axis=(0, 1))
        prefix = np.concatenate((prefix[..., :shift], joined), axis=-1)
        shift *= 2
    x0 = x[:, None]
    num, den = prefix[:, 0, :, :-1] * x0 + prefix[:, 1, :, :-1]
    odds = np.hstack((x0, num / den))[None]

    # pass C1
    for level in reversed(levels[:-1]):
        num, den = level[:, 0, ::2] * odds + level[:, 1, ::2]
        odds = np.stack((odds, num / den), axis=1).reshape(-1, rows, blocks)
    last = size - 1 - pad
    num, den = levels[0][:, 0, last, :, -1] * odds[last, :, -1] + levels[0][:, 1, last, :, -1]
    return odds.transpose(1, 2, 0).reshape(rows, -1)[:, :nbytes], num / den


def _steps_odds(table: np.ndarray, codes: np.ndarray, starts: np.ndarray,
                lo: int, hi: int) -> np.ndarray:
    """Pass C2 for one row: the odds after steps lo..hi-1 of a chunk that
    _scan ran, each as its byte's prefix map in table (_byte_maps of the
    row) applied to the odds before the byte."""
    first = lo // 8
    part = codes[first:-(-hi // 8)]
    x = starts[first:first + part.size, None]
    num, den = table[0].take(part, axis=0), table[2].take(part, axis=0)
    num *= x
    num += table[1].take(part, axis=0)
    den *= x
    den += table[3].take(part, axis=0)
    num /= den
    return num.reshape(-1)[lo - 8 * first:hi - 8 * first]


def _entropy_terms(outcomes: np.ndarray, index: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pass C2 of the Monte Carlo: -h of the predicted next output at every
    step of the bytes `index` (rows, bytes) of _scan, from the odds x before
    each byte and the outcome tables of _row_tables, shape (rows, 8 bytes).
    The two weights' sum is the denominator, so no odds are formed; h is
    even in W, so which weight belongs to the likelier output is moot."""
    x = np.repeat(x, 8, axis=-1).reshape(*index.shape, 8)
    p = outcomes[0].take(index, axis=0)
    p *= x
    p += outcomes[1].take(index, axis=0)
    p_c = outcomes[2].take(index, axis=0)
    p_c *= x
    p_c += outcomes[3].take(index, axis=0)
    weight = p + p_c
    p /= weight
    p_c /= weight
    hv = np.log2(p)
    hv *= p
    p = np.log2(p_c)
    p *= p_c
    hv += p
    return hv.reshape(index.shape[0], -1)


def _odds_path(q: float, alpha: float, total: int, rng: np.random.Generator):
    """Yield (x, flipped) for steps 1 .. total of one row of _scan, in pieces
    of at most _MC_PIECE steps: x is the odds e^V of V_i = sigma_i W_i and
    flipped marks sigma_i = -1."""
    q, alpha = np.array([q]), np.array([alpha])
    table = _byte_maps(q, alpha)
    byte_maps = table[..., 7].reshape(2, 2, 256)
    for _, n, flipped, index, odds in _scan(q, alpha, byte_maps, total, [rng]):
        flipped = np.unpackbits(flipped[0], count=n, bitorder="little").view(bool)
        for lo in range(0, n, _MC_PIECE):
            hi = min(lo + _MC_PIECE, n)
            yield _steps_odds(table[:, 0], index[0], odds[0], lo, hi), flipped[lo:hi]


def _mc_rows(params_seq: list, samples: int, burnin: int, seeds: list) -> list[McEstimate]:
    """The Monte Carlo kernel behind entropy_rate_mc and entropy_rate_mc_many.

    Rows with a rate at or below _TINY_RATE shortcut to their exact limits,
    and rows with q or alpha exactly 1/2 to (1.0, 0.0), without simulating.
    The others run in lockstep groups of at most _MC_ROWS rows (_scan), and
    every kept step's -h term (_entropy_terms, _MC_PIECE steps over the
    group's rows at a time) is folded into each row's running mean and sum
    of squared deviations (the pairwise update of Chan, Golub & LeVeque).
    """
    samples = check_int("samples", samples, 1)
    burnin = check_int("burnin", burnin, 0)
    out: list[McEstimate | None] = []
    live = []
    for params, seed in zip(params_seq, seeds):
        if params.alpha <= _TINY_RATE:
            out.append(McEstimate(_h(params.q), 0.0))
        elif params.q <= _TINY_RATE:
            out.append(McEstimate(_h(params.alpha), 0.0))
        elif params.q == 0.5 or params.alpha == 0.5:
            # the output is i.i.d. fair bits
            out.append(McEstimate(1.0, 0.0))
        else:
            live.append((len(out), params, seed))
            out.append(None)
    total = burnin + samples
    groups = -(-len(live) // _MC_ROWS)
    for k in range(groups):
        group = live[k * len(live) // groups:(k + 1) * len(live) // groups]
        rows = len(group)
        q = np.array([params.q for _, params, _ in group])
        alpha = np.array([params.alpha for _, params, _ in group])
        byte_maps, outcomes = _row_tables(q, alpha)
        rngs = [np.random.default_rng(seed) for _, _, seed in group]
        piece = max(8, _MC_PIECE // rows)
        count, mean, sq_dev = 0, np.zeros(rows), np.zeros(rows)
        for start, n, _, index, odds in _scan(q, alpha, byte_maps, total, rngs):
            # each piece's size, sum and squared deviations from its mean
            sizes, sums, devs = [], [], []
            for lo in range(max(0, burnin - start), n, piece):
                hi = min(lo + piece, n)
                first, end = lo // 8, -(-hi // 8)
                hv = _entropy_terms(outcomes, index[:, first:end], odds[:, first:end])
                hv = hv[:, lo - 8 * first:hi - 8 * first]
                part = np.add.reduce(hv, axis=1)
                dev = hv - (part / (hi - lo))[:, None]
                sizes.append(hi - lo)
                sums.append(part)
                devs.append(np.einsum("ij,ij->i", dev, dev))
            if not sizes:
                continue
            # the chunk's pieces merged, then the chunk merged into the row's
            # running mean (of -h, negated below) and squared deviations
            kept = sum(sizes)
            weights = np.array(sizes, dtype=float)[:, None]
            part_mean = np.add.reduce(sums) / kept
            part_sq = np.add.reduce(devs) + np.add.reduce(
                weights * (sums / weights - part_mean) ** 2)
            merged = count + kept
            delta = part_mean - mean
            mean += delta * (kept / merged)
            sq_dev += part_sq + delta * delta * (count * kept / merged)
            count = merged
        se = np.sqrt(sq_dev / (samples - 1)) / math.sqrt(samples) if samples > 1 else np.zeros(rows)
        for (i, _, _), est, err in zip(group, (-mean).tolist(), se.tolist()):
            out[i] = McEstimate(est, err)
    return out


def entropy_rate_mc(
    params: MarkovHmmParams, samples: int, burnin: int = 100_000, seed=0
) -> McEstimate:
    """Monte Carlo estimate of the output entropy rate via the belief
    recursion W_i = R_i ln(eta) + S_i f(W_{i-1}).

    One sequential stream starts at W_0 = 0; R flips sign with probability
    alpha and S with probability q, the R draws taken from the generator
    before the S draws. After `burnin` discarded steps the estimate averages
    h(logistic(W) * q * alpha) over `samples` kept steps. `seed` is anything
    numpy's default_rng accepts.

    The steps run in chunks of at most _MC_CHUNK, so memory stays the same
    however many steps run: each chunk's R and S draws are taken as it
    starts (S from a copy of the generator moved past all R draws, which
    keeps the stream above), and its entropy terms are folded into a running
    mean and sum of squared deviations. Since f is odd, V_i = S_1 ... S_i W_i
    takes one of two fixed steps, V_i = S_1 ... S_i R_i ln(eta) + f(V_{i-1}),
    and h is even in W, so only the odds x = e^V are needed. In odds each
    step is a Moebius map with a nonnegative 2x2 matrix, and a flag byte of
    8 steps one of 256 fixed maps: one table per (q, alpha) holds them and
    their prefixes (_byte_maps). The chunk runs as a byte-table scan (_scan,
    _byte_odds): the maps of byte pairs, pairs of pairs and whole blocks are
    multiplied out, the block maps are composed across the blocks by
    doubling, and the odds before every byte are read off them on the way
    back down. Each step's two output probabilities come from outcome tables
    folded from its byte's prefix maps (_row_tables) and the odds before the
    byte, with no per-step odds, exp or log1p (_entropy_terms). This kernel
    (_mc_rows) is the one entropy_rate_mc_many runs on many rows at once.

    The reported stderr uses the i.i.d. formula; consecutive W values are
    correlated, so it understates the true uncertainty and consumers should
    pad their margins. Rates at or below 1e-8 shortcut to the exact limits
    h(q) and h(alpha) with zero stderr, and q or alpha exactly 1/2, where
    the output is i.i.d. fair bits, to 1.0 with zero stderr. These rows are
    not simulated, so a Generator passed as `seed` is not advanced.
    """
    return _mc_rows([params], samples, burnin, [seed])[0]


def entropy_rate_mc_many(params_seq, samples: int, burnin: int, seeds) -> list[McEstimate]:
    """entropy_rate_mc for every MarkovHmmParams of params_seq, row i drawing
    from seeds[i] with the same samples and burnin, simulated in lockstep.

    Each row keeps its own R and S draws, so row i's estimate is what
    entropy_rate_mc(params_seq[i], samples, burnin, seeds[i]) returns, up to
    the rounding of its summation order. The rows run in groups of at most
    _MC_ROWS: a group's byte tables are built in one pass, and its chunks
    hold at most _MC_CHUNK steps over all its rows, so memory is bounded
    whatever the number of rows. Each seed makes its own generator, so a
    Generator passed for two rows would interleave their draws.
    """
    params_seq, seeds = list(params_seq), list(seeds)
    if len(seeds) != len(params_seq):
        raise DomainError(f"seeds must give one seed per row: {len(params_seq)} rows, "
                          f"{len(seeds)} seeds")
    return _mc_rows(params_seq, samples, burnin, seeds)


def exact_conditional_entropy(params: MarkovHmmParams, n: int) -> float:
    """Exact H(Y_n | Y_1..Y_{n-1}) by a forward pass over all output prefixes.

    Two arrays carry the joint weight of each prefix with the current source
    bit; each extension doubles them, so n is capped at 20. n = 1 returns the
    marginal output entropy, exactly 1 for this symmetric source.
    """
    n = check_int("n", n, 1, _MAX_WINDOW, DimensionError)
    if n == 1:
        return 1.0
    q, alpha = params.q, params.alpha
    # a0/a1: joint weight of (observed prefix, current source bit = 0 or 1),
    # newest output bit in the highest index position
    a0 = np.array([0.5 * (1.0 - alpha), 0.5 * alpha])
    a1 = np.array([0.5 * alpha, 0.5 * (1.0 - alpha)])
    for _ in range(n - 2):
        s0 = a0 * (1.0 - q) + a1 * q
        s1 = a0 * q + a1 * (1.0 - q)
        a0 = np.concatenate([s0 * (1.0 - alpha), s0 * alpha])
        a1 = np.concatenate([s1 * alpha, s1 * (1.0 - alpha)])
    s0 = a0 * (1.0 - q) + a1 * q
    s1 = a0 * q + a1 * (1.0 - q)
    prefix = a0 + a1
    next_one = s0 * alpha + s1 * (1.0 - alpha)
    mask = prefix > 0.0
    cond = next_one[mask] / prefix[mask]
    # the prefix weights sum to 1 only up to rounding, which can lift the
    # result past 1 near alpha = 1/2
    return min(1.0, float((prefix[mask] * _entropy_vec(cond)).sum()))
