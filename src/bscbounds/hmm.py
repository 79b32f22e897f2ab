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

import _thread
import atexit
import math
import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import BoundResult, _lift
from .errors import DimensionError, DomainError, _as_real, check_int, check_open, check_range
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
# Theorem 6's odds need both rates at least this: then eta <= 1e30, the cap
# is at most about 1/q <= 1e30 and beta eta^4 <= 1e150, so every float of the
# quartic stays below about 1e270. _TINY_RATE would weaken values that work:
# at q = 1e-8, alpha = 0.3 the bound is 0.88129091243, at q = 0 0.88129090412.
_MIN_ODDS_RATE = 1e-30

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
# in blocks of at most _MC_BLOCK: one tree a row ran _byte_odds 1.2-2.4x as
# slowly (one AMD EPYC core: 1 row x 8,192 bytes 201-204 against 168-174 us,
# 6 rows x 1,250 bytes, padded to 2,048, 405-414 against 170-174 us), and
# blocks of 16 to 64 bytes within 8% of each other. The steps are read off
# their bytes' tables _MC_PIECE at a time over the group's rows, in 128 KB
# temporaries: pieces of 2^15 steps ran single rows 7% slower, and
# whole-chunk ones were mapped fresh by malloc each time and made this stage
# about 2.5x slower. A 7-row group's come to 7 x 293 bytes x 8 steps x 8 B
# = 131,264 B, just over glibc's 128 KiB mmap threshold, so how often they
# are faulted in again varies with earlier allocations. Each piece's terms
# go straight into two running sums a row: fig3's default rows ran as with a
# per-chunk merge (median of 12 alternating runs, 0.725 vs 0.764 s), and 5%
# slower when a piece's steps were sliced before _entropy_terms (0.761 s).
# A group's tables, _row_tables(..., m), take 72 KB a row; groups of 6 to 12
# rows ran fig3's 21 rows alike, and one group of 21 about 11% slower. A
# group's rows draw their uniforms, R from their generators and S from their
# _s_stream copies, one after another into one pair of draw buffers of at
# most _MC_PIECE doubles, and compare them straight into one pair of
# (rows, width) flag buffers, so every row of a group of 4 or more draws a
# chunk's R and S in one call each. Buffers of 8,192 doubles made each row
# of fig3's 6- and 7-row groups (chunks of 10,000 and 8,752 steps a row)
# draw in two calls, 112 where a 7-row group of 70,000-step rows now makes
# 56, with in-process times alike (one AMD EPYC core, medians of 31 calls
# over 8 alternating runs: fig3's 20 rows took 15.5-17.1 ms with those
# buffers and 14.6-16.4 ms with these).
#
# The draws, sigma and the packing run on the calling thread (_draws), and
# the scan on one worker process (_worker), fed each chunk's packed flags,
# under 8 KiB, through a pipe, so the caller draws chunk c + 1 while the
# worker scans chunk c. A helper thread that drew while the calling thread
# scanned gained nothing, as each time it took the GIL it slowed the scan: a
# thread drawing the helper's blocks of 8,752 doubles made the scan of a
# fig3 call's three groups 24% slower (medians of 20, 41.4 against
# 51.4 ms), and blocks of 131,072 doubles or more did not. With the worker,
# fig3-sweep's median unit_p50_s fell by 26% (10 of 10 alternating bench
# pairs). Both on 2 Intel Xeon vCPUs, Python 3.11.7, numpy 2.4.6.
# A run's memory does not grow with its steps or rows, in either process;
# README's fig3 section gives the traced peaks.
_MC_CHUNK = 1 << 16
_MC_PIECE = 1 << 14
_MC_BLOCK = 64
_MC_ROWS = 8

# (worker pid, request fd, reply fd) of the worker process that folds the
# Monte Carlo's groups, forked on the first simulated group and forgotten in
# every forked child (_forget_worker), and the lock its callers share.
_WORKER: tuple | None = None
_WORKER_LOCK = _thread.allocate_lock()


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
    (1/4) tanh(-gap log1p(-2q)) to keep full relative precision at small q.
    """
    gap = min(check_int("gap", gap, 1), _MAX_POWER)
    q = check_range("q", q, 0.0, 0.5)
    if q == 0.0:
        return 0.0
    return 0.25 if q == 0.5 else 0.25 * math.tanh(-gap * math.log1p(-2.0 * q))


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
    q, alpha = _check_params(params)
    return BoundResult("theorem5", _lift(_h(alpha), series_mmse(q)), {"alpha": alpha, "q": q})


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
        return _lift(ha, series_mmse(q)) - _h(_conv(alpha, q))

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
    q, alpha = _check_params(params)
    return _h(_conv(disagreement_prob(m, q), alpha))


def rare_transition_baseline(params: MarkovHmmParams) -> float:
    """Comparison baseline h(alpha) - ((1-2 alpha)^2 / (1-alpha)) q log2(q),
    accurate in the rare-transition regime; continuous value h(alpha) at q=0."""
    q, alpha = _check_params(params)
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
    t = _as_real("t", t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if q == 0.5 or t == 0.0:
        return 0.0
    e = math.exp(-abs(t))
    val = math.log1p((1.0 - 2.0 * q) * -math.expm1(-abs(t)) / (q + (1.0 - q) * e))
    return -val if t < 0.0 else val


def _check_params(params: MarkovHmmParams) -> tuple[float, float]:
    if not isinstance(params, MarkovHmmParams):
        raise DomainError(f"params must be a MarkovHmmParams, got {type(params).__name__}")
    return params.q, params.alpha


def _in_odds_range(q: float, alpha: float) -> bool:
    """Whether theorem 6's odds functions take these rates: both at least
    _MIN_ODDS_RATE, where their floats cannot overflow."""
    return min(q, alpha) >= _MIN_ODDS_RATE


def _positive_rates(params: MarkovHmmParams) -> tuple[float, float]:
    q, alpha = _check_params(params)
    if not _in_odds_range(q, alpha):
        raise DomainError(f"q and alpha must both be at least {_MIN_ODDS_RATE} "
                          "for the belief recursion")
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
    odds = _as_real("odds", odds)
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
        return _horner((self.c4, self.c3, self.c2, self.c1, self.c0), s)

    def scaled_residual(self, s: float) -> float:
        """|p(s)| over the norm of the term vector (c4 s^4, ..., c0), a
        scale-free backward error for a claimed root. The norm is a hypot,
        as the squares of terms past 1e154 would overflow to inf."""
        terms = (self.c4 * s**4, self.c3 * s**3, self.c2 * s**2, self.c1 * s, self.c0)
        return abs(self(s)) / math.hypot(*terms)


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
    `slope` holds its derivative's coefficients. The last Newton step may
    land on a or b itself by rounding: stationary_odds returns a root equal
    to the cap where both rates are at most about 1.4e-17.

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


def stationary_odds(params: MarkovHmmParams) -> tuple[float, ...]:
    """Roots of the slope quartic inside the interval (1, odds_cap],
    ascending: the odds values where the conditioned MMSE turns around. The
    root search's last step can land on the end of its bracket, so a root
    can equal the cap where both rates are at most about 1.4e-17 (at
    q = alpha = 1e-30 the larger root is the cap, 9.999999999999999e29; on
    22,500 log-uniform rate pairs in [1e-30, 1/2], nowhere else).

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
    return min((*stationary_odds(params), odds_cap(params)),
               key=lambda s: mmse_given_odds(s, params))


def belief_bound(params: MarkovHmmParams, variant: str = "factor4") -> BoundResult:
    """Entropy-rate lower bound from the stationary belief recursion.

    The MMSE of the current source bit given the carried belief never falls
    below the conditioned MMSE at the least favorable admissible odds value,
    so with m = alpha * q the rate is at least

        h(m) + (1 - h(m)) * 4 * mmse_given_odds(minimizing_odds, params).

    variant="printed" drops the factor 4 and is kept for comparison only; it
    is strictly weaker everywhere. Rates below 1e-30, zero included, take
    the floor 0, where the bound is h(m): the continuity limits h(alpha) as
    q -> 0 and h(q) as alpha -> 0, and below the odds' range a valid but
    weaker bound.
    """
    if variant not in _BELIEF_FACTORS:
        raise DomainError(f"variant must be 'factor4' or 'printed', got {variant!r}")
    q, alpha = _check_params(params)
    if not _in_odds_range(q, alpha):
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
    return BoundResult(
        "theorem6",
        _lift(_h(_conv(alpha, q)), _BELIEF_FACTORS[variant] * floor),
        {"alpha": alpha, "q": q, "odds": star, "mmse_floor": floor},
        variant=variant,
    )


def _s_stream(rng: np.random.Generator, total: int, buf: np.ndarray) -> np.random.Generator:
    """The generator of the S uniforms of a run of `total` steps from rng: a
    copy of its bit generator moved past the `total` R draws, by
    PCG64.advance where that skips whole doubles and by drawing them into buf
    otherwise, so that R and S are the numbers of rng.random(total) followed
    by rng.random(total). rng itself does not move."""
    s_bits = type(rng.bit_generator)()
    s_bits.state = rng.bit_generator.state
    s_rng = np.random.Generator(s_bits)
    if isinstance(s_bits, (np.random.PCG64, np.random.PCG64DXSM)):
        s_bits.advance(total)
    else:
        for start in range(0, total, buf.size):
            s_rng.random(out=buf[:min(buf.size, total - start)])
    return s_rng


def _row_tables(q: np.ndarray, alpha: np.ndarray,
                m: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tables of a lockstep group with rates q and alpha (arrays of one
    shape (rows,)): the 8-step map [[a, b], [c, d]] of every flag byte, shape
    (2, 2, rows * 256), for _byte_odds, and the prefix tables that
    _prefix_apply reads, shape (4, rows * 256, 8), folded at channel rate m
    (a float, or an array of shape (rows,)); row r's bytes sit at r * 256.

    A step takes the odds x = e^V to (a x + b)/(c x + d), the Moebius map of
    D Q, with Q the Markov matrix and D = diag(eta, 1), or diag(1, eta) on a
    flagged step (the same map as diag(1/eta, 1), without rounding 1/eta).
    Prefix k of a byte holds (a, b, c, d) of its steps 0..k, step j flagged
    by bit j (little-endian, as np.packbits(..., bitorder="little") packs
    them), scaled so that the largest is 1. It depends on the low k+1 bits
    only, so it is built on 2^(k+1) bytes and broadcast; the byte map is
    prefix 7.

    All entries are positive, so the products lose nothing to cancellation.
    Unscaled they stay within [q^8, eta^8], inside 1e+-64 for any rate above
    _TINY_RATE, and scaled no entry is below 1e-32 of the largest, the square
    of a single step's ratio q/(eta (1-q)). The products are written out,
    not left to matmul, so that the table is exactly mirror-symmetric:
    complementing a byte's flags turns (a, b, c, d) into (d, c, b, a), as it
    swaps the two steps. Where V stays near 0 and hardly contracts (q small,
    alpha near 1/2), rounding errors then cancel between complementary bytes
    instead of adding up over a chunk as a bias.

    The prefix map of step k applied to the odds x before its byte gives
    (1-m)(a x + b) + m (c x + d) and m (a x + b) + (1-m)(c x + d), which is
    (A1 x + B1, A2 x + B2) for the entries
    (A1, B1, A2, B2) = ((1-m)a + mc, (1-m)b + md, ma + (1-m)c, mb + (1-m)d),
    folded in place. With m = alpha * q these are the next output's two
    weights; m = 0 leaves (a, b, c, d) exactly, the odds' numerator and
    denominator.
    """
    rows = q.size
    eta = (1.0 - alpha[:, None]) / alpha[:, None]
    q, cq = q[:, None], 1.0 - q[:, None]
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
    byte_maps = table[..., 7].reshape(2, 2, rows * 256).copy()
    m = np.reshape(m, (-1, 1, 1))
    for u, v in ((table[0], table[2]), (table[1], table[3])):
        first = u * (1.0 - m)
        first += v * m
        v *= 1.0 - m
        v += u * m
        u[...] = first
    return byte_maps, table.reshape(4, rows * 256, 8)


def _chunks(rows: int, total: int) -> list[tuple[int, int]]:
    """(start, steps) of every chunk of a lockstep group of `rows` rows on a
    run of `total` steps, the steps a row's: the chunks hold at most
    _MC_CHUNK steps over all rows, split evenly, each but the last a
    multiple of 8 steps a row, so the first is the widest."""
    chunks = -(-total // max(8, _MC_CHUNK // rows // 8 * 8))
    width = -(-total // (8 * chunks)) * 8
    return [(start, min(width, total - start)) for start in range(0, total, width)]


def _draws(q: np.ndarray, alpha: np.ndarray, total: int, rngs: list):
    """Yield the packed step flags of every chunk of a lockstep group's run
    of `total` steps, shape (rows, bytes) in uint8, for _scan: the half of
    the Monte Carlo that calls the rows' generators.

    Since f is odd, V_i = sigma_i W_i, with sigma_i = S_1 ... S_i, obeys
    V_i = sigma_i R_i ln(eta) + f(V_{i-1}), one of two fixed steps, flagged
    where sigma_i R_i = -1. Chunk by chunk, row r draws R from rngs[r] and S
    from its _s_stream, taken at the row's first draw, in blocks of at most
    _MC_PIECE into one pair of buffers that all rows share, and compares them
    into one pair of (rows, width) flag buffers. sigma's signs are the
    running logical xor of the S flags, taken in place on their bool buffer
    and carried across chunks by the sign of the chunk's last step, and a
    step's flag is its R flag xor sigma's. The flags are packed 8 to a byte,
    bit j of a byte step j, the last byte padded with zeros. Once the last
    chunk is taken, rngs[r] is left where the S draws end.
    """
    rows = len(rngs)
    plan = _chunks(rows, total)
    width = plan[0][1]
    # one pair of draw buffers for the group: its rows draw one after another
    block = min(width, _MC_PIECE)
    r_u, s_u = np.empty(block), np.empty(block)
    r_neg, s_neg = np.empty((rows, width), dtype=bool), np.empty((rows, width), dtype=bool)
    s_rngs = []
    # Python floats: comparing with a numpy scalar costs several times more
    r_lims, s_lims = alpha.tolist(), q.tolist()
    odd = np.zeros(rows, dtype=bool)
    for start, n in plan:
        for k, (rng, r_row, s_row) in enumerate(zip(rngs, r_neg, s_neg)):
            if not start:
                # taken after the rows before it drew their first chunk, so a
                # Generator that several rows share keeps its draw order
                s_rngs.append(_s_stream(rng, total, s_u))
            s_rng, r_lim, s_lim = s_rngs[k], r_lims[k], s_lims[k]
            for lo in range(0, n, block):
                hi = min(lo + block, n)
                np.less(rng.random(out=r_u[:hi - lo]), r_lim, out=r_row[lo:hi])
                np.less(s_rng.random(out=s_u[:hi - lo]), s_lim, out=s_row[lo:hi])
        # logical_xor on the bools took 1.0 ns a step on a (7, 8752) chunk,
        # bitwise_xor on their uint8 view 2.5 ns (2 Intel Xeon vCPUs, numpy
        # 2.4.6)
        sigma = s_neg[:, :n]
        sigma[:, 0] ^= odd
        np.logical_xor.accumulate(sigma, axis=1, out=sigma)
        odd = sigma[:, -1].copy()
        flags = np.bitwise_xor(r_neg[:, :n], sigma, out=r_neg[:, :n])
        yield np.packbits(flags, axis=1, bitorder="little")
    for rng, s_rng in zip(rngs, s_rngs):
        rng.bit_generator.state = s_rng.bit_generator.state


def _scan(q: np.ndarray, alpha: np.ndarray, m: float | np.ndarray, packed, total: int,
          skip: int):
    """Run the belief recursion of every row of a lockstep group from
    W_0 = 0 for `total` steps, on the packed flags of _draws, an iterable of
    one (rows, bytes) array a chunk, and yield steps skip + 1 .. total in
    pieces of at most max(8, _MC_PIECE // rows) steps a row, each as
    (num, den, cut): pass C2 (_prefix_apply) on the prefix tables of
    _row_tables(q, alpha, m) over the piece's whole flag bytes, shape
    (rows, bytes, 8), and the slice of the piece's own steps in those bytes'
    steps. The odds before every byte come from _byte_odds, and the odds are
    carried across chunks from the chunk's last step. This half calls no
    generator, so it can run in another process than the draws.
    """
    rows = q.size
    piece = max(8, _MC_PIECE // rows)
    byte_maps, steps = _row_tables(q, alpha, m)
    offsets = np.arange(0, 256 * rows, 256)[:, None]
    x = np.ones(rows)
    # packed first in the zip, so that _draws runs to its end and leaves the
    # generators where their draws end
    for chunk, (start, n) in zip(packed, _chunks(rows, total)):
        index = chunk + offsets
        odds, x = _byte_odds(byte_maps, index, x)
        for lo in range(max(0, skip - start), n, piece):
            hi = min(lo + piece, n)
            first, end = lo // 8, -(-hi // 8)
            num, den = _prefix_apply(steps, index[:, first:end], odds[:, first:end])
            yield num, den, slice(lo - 8 * first, hi - 8 * first)


def _fold(q: np.ndarray, alpha: np.ndarray, packed, total: int,
          burnin: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """entropy_rate_mc_many's running sums (shift, s1, s2) of one lockstep
    group, from _scan on the packed flags `packed` at m = alpha * q: the
    function the worker process runs, and the caller where there is none."""
    shift, s1, s2 = None, np.zeros(q.size), np.zeros(q.size)
    for num, den, cut in _scan(q, alpha, _conv(alpha, q), packed, total, burnin):
        hv = _entropy_terms(num, den)[:, cut]
        if shift is None:
            shift = np.add.reduce(hv, axis=1) / hv.shape[1]
        hv -= shift[:, None]
        s1 += np.add.reduce(hv, axis=1)
        s2 += np.einsum("ij,ij->i", hv, hv)
    return shift, s1, s2


def _send(fd: int, data: np.ndarray) -> None:
    """Write the bytes of the contiguous array `data` to the pipe fd."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _recv(fd: int, out: np.ndarray) -> np.ndarray:
    """Fill the contiguous array `out` from the pipe fd and return it, or
    raise EOFError."""
    view = memoryview(out).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError("the Monte Carlo worker's pipe ended")
        view = view[got:]
    return out


def _serve(requests: int, replies: int) -> None:
    """The worker's loop: for each group sent on `requests`, (rows, total,
    burnin) in int64, q and alpha in float64 and then the packed flags of
    every chunk, write _fold's (shift, s1, s2) to `replies`, until EOFError.
    Each chunk is read, as _draws yields it, into one buffer a group."""
    header = np.empty(3, dtype=np.int64)
    while True:
        rows, total, burnin = _recv(requests, header).tolist()
        rates = _recv(requests, np.empty((2, rows)))
        plan = _chunks(rows, total)
        buf = np.empty(rows * -(-plan[0][1] // 8), dtype=np.uint8)
        packed = (_recv(requests, buf[:rows * -(-n // 8)].reshape(rows, -1)) for _, n in plan)
        _send(replies, np.stack(_fold(*rates, packed, total, burnin)))


def _worker() -> tuple[int, int, int] | None:
    """_WORKER, forked on first use, with the package loaded, to run _serve,
    or None where the fork is refused (EAGAIN, EPERM): no draw has run yet,
    so the caller folds in-process with the same numbers. The worker closes
    its parent's descriptors but its two pipe ends, so that a pipe or socket
    its parent closes later ends, and stdio, so that a fatal error still
    reaches its parent's stderr. It ignores SIGINT, which its parent
    handles, and once its request pipe ends it leaves by os._exit, which
    flushes no inherited stdio buffer."""
    global _WORKER
    if _WORKER is None:
        requests, to_worker = os.pipe()
        from_worker, replies = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns that forking a process with threads may
                # deadlock; the worker takes no lock another thread holds
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except BaseException as exc:
            for fd in (requests, to_worker, from_worker, replies):
                os.close(fd)
            if isinstance(exc, OSError):
                return None
            raise
        if not pid:
            status = 1
            try:
                import signal

                signal.signal(signal.SIGINT, signal.SIG_IGN)
                low = 3
                for fd in sorted((requests, replies)):
                    os.closerange(low, fd)
                    low = max(low, fd + 1)
                os.closerange(low, os.sysconf("SC_OPEN_MAX"))
                _serve(requests, replies)
            except EOFError:
                status = 0
            finally:
                os._exit(status)
        os.close(requests)
        os.close(replies)
        _WORKER = (pid, to_worker, from_worker)
    return _WORKER


def _drop_worker() -> None:
    """Close the pipes to this process's worker, which then ends, and reap it."""
    global _WORKER
    if _WORKER is None:
        return
    pid, to_worker, from_worker = _WORKER
    _WORKER = None
    os.close(to_worker)
    os.close(from_worker)
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        # reaped already, by a caller's wait for any child
        pass


def _forget_worker() -> None:
    """In a forked child: close the parent's worker pipes, which would keep
    that worker alive, and take a fresh lock, which no other thread holds.
    So a child forks a worker of its own on its first simulated group."""
    global _WORKER, _WORKER_LOCK
    if _WORKER is not None:
        os.close(_WORKER[1])
        os.close(_WORKER[2])
    _WORKER = None
    _WORKER_LOCK = _thread.allocate_lock()


# register_at_fork exists wherever os.fork does, so every child forked by
# os.fork forgets its parent's worker
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)
# a process that exits reaps its worker itself, not leaving it to whichever
# process adopts it
atexit.register(_drop_worker)


def _forks() -> bool:
    """Whether the Monte Carlo folds its groups in a worker process: where
    os.fork exists and this process may run on more than one CPU. On one CPU
    a worker has no core of its own to gain: pinned to one CPU, fig3-sweep's
    unit_p50_s read 0.0502 s with a worker against 0.0464 s in-process (+8%;
    6-8 fresh processes each), and the median of its 8 calls in fresh
    processes 0.0495 against 0.0508 s (14 each), within noise; 2 vCPUs."""
    if not hasattr(os, "fork"):
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:
        return (os.cpu_count() or 1) > 1


def _fold_groups(groups: list, total: int, burnin: int) -> list:
    """_fold's (shift, s1, s2) of every (q, alpha, rngs) of `groups`, in
    order: by the worker where there is one, sending it each group's header
    and chunks as _draws makes them and reading a group's sums once the next
    is sent, and here otherwise, without a worker or where the fork is
    refused. Callers take turns on _WORKER_LOCK, and any error drops the
    worker, so the next call forks a fresh one."""
    with _WORKER_LOCK:
        worker = _worker() if groups and _forks() else None
        if worker is not None:
            _, to_worker, from_worker = worker
            sums = [np.empty((3, q.size)) for q, _, _ in groups]
            try:
                for k, (q, alpha, rngs) in enumerate(groups):
                    _send(to_worker, np.array([q.size, total, burnin], dtype=np.int64))
                    _send(to_worker, np.stack((q, alpha)))
                    for chunk in _draws(q, alpha, total, rngs):
                        _send(to_worker, chunk)
                    if k:
                        _recv(from_worker, sums[k - 1])
                _recv(from_worker, sums[-1])
            except BaseException:
                _drop_worker()
                raise
            return sums
    return [_fold(q, alpha, _draws(q, alpha, total, rngs), total, burnin)
            for q, alpha, rngs in groups]


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
    padded = index
    if pad:
        padded = np.concatenate((index, np.repeat(index[:, -1:], pad, axis=1)), axis=1)
    # level[..., j] holds [[a, b], [c, d]] of part j of every block of every
    # row, in the (rows, blocks, size) order of _scan's packed bytes;
    # m[:, :1] * p[:1] + m[:, 1:] * p[1:] is the matrix product m p
    level = byte_maps.take(padded.reshape(rows, blocks, size), axis=2)

    # pass A, each product rescaled so that its largest entry is 1
    levels = [level]
    while level.shape[-1] > 1:
        later, earlier = level[..., 1::2], level[..., ::2]
        level = later[:, :1] * earlier[:1]
        level += later[:, 1:] * earlier[1:]
        level /= level.max(axis=(0, 1))
        levels.append(level)

    # pass B: round r turns the map of blocks k-2^r+1..k into that of blocks
    # k-2^(r+1)+1..k, in place on the top level, which pass C1 does not read
    prefix = level[..., 0]
    shift = 1
    while shift < blocks:
        later, earlier = prefix[..., shift:], prefix[..., :-shift]
        joined = later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]
        joined /= joined.max(axis=(0, 1))
        prefix[..., shift:] = joined
        shift *= 2
    # odds[..., j] is the odds before byte j of each block
    odds = np.empty((rows, blocks, size))
    odds[:, 0, 0] = x
    num, den = prefix[:, 0, :, :-1] * x[:, None] + prefix[:, 1, :, :-1]
    np.divide(num, den, out=odds[:, 1:, 0])

    # pass C1: a level's parts span `span` bytes, the odds before its left
    # halves sit every 2 span bytes, and those before its right halves
    # between them
    for level in reversed(levels[:-1]):
        span = size // level.shape[-1]
        num, den = level[:, 0, ..., ::2] * odds[..., ::2 * span] + level[:, 1, ..., ::2]
        np.divide(num, den, out=odds[..., span::2 * span])
    last = size - 1 - pad
    num, den = levels[0][:, 0, :, -1, last] * odds[:, -1, last] + levels[0][:, 1, :, -1, last]
    return odds.reshape(rows, -1)[:, :nbytes], num / den


def _prefix_apply(table: np.ndarray, index: np.ndarray,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pass C2: (A x + B, C x + D) at every step of the flag bytes `index`
    of _scan, shape (*index.shape, 8), with (A, B, C, D) the step's entry in
    `table` (4, entries, 8) and x the odds before its byte: the odds'
    numerator and denominator on the prefix tables of _row_tables(..., 0),
    the next output's two weights on those of _row_tables(..., alpha * q).
    x is repeated over the byte's 8 steps, not broadcast: with a stride-0
    operand numpy runs the products 8 elements at a time, and pass C2 took
    77 against 65 us on a 7-row piece (2 Intel Xeon vCPUs, numpy 2.4.6)."""
    x = np.repeat(x, 8, axis=-1).reshape(*index.shape, 8)
    num = table[0].take(index, axis=0)
    num *= x
    num += table[1].take(index, axis=0)
    den = table[2].take(index, axis=0)
    den *= x
    den += table[3].take(index, axis=0)
    return num, den


def _entropy_terms(p: np.ndarray, p_c: np.ndarray) -> np.ndarray:
    """-h of the predicted next output at every step, shape (rows, steps),
    from its two weights p and p_c (_prefix_apply), which it overwrites. Their
    sum is the denominator, so no odds are formed; h is even in W, so which
    weight belongs to the likelier output is moot."""
    weight = p + p_c
    p /= weight
    p_c /= weight
    hv = np.log2(p)
    hv *= p
    p = np.log2(p_c)
    p *= p_c
    hv += p
    return hv.reshape(len(hv), -1)


def _odds_path(q: float, alpha: float, total: int, rng: np.random.Generator):
    """Yield the odds x = e^V of V_i = sigma_i W_i for steps 1 .. total of
    one row, in _scan's pieces, from pass C2 on the prefix tables of
    _row_tables(..., 0), the odds' numerator and denominator."""
    q, alpha = np.array([q]), np.array([alpha])
    for num, den, cut in _scan(q, alpha, 0.0, _draws(q, alpha, total, [rng]), total, 0):
        num /= den
        yield num.reshape(-1)[cut]


def entropy_rate_mc(
    params: MarkovHmmParams, samples: int, burnin: int = 100_000, seed=0
) -> McEstimate:
    """Monte Carlo estimate of the output entropy rate via the belief
    recursion W_i = R_i ln(eta) + S_i f(W_{i-1}).

    One sequential stream starts at W_0 = 0; R flips sign with probability
    alpha and S with probability q, the R draws taken from the generator
    before the S draws. After `burnin` discarded steps the estimate averages
    h(logistic(W) * q * alpha) over `samples` kept steps. `seed` is anything
    numpy's default_rng accepts. This is entropy_rate_mc_many on one row,
    whose docstring describes the kernel; its memory stays the same however
    many steps run.

    The reported stderr uses the i.i.d. formula; consecutive W values are
    correlated, so it understates the true uncertainty and consumers should
    pad their margins. If either rate is at or below 1e-8, the estimate is h
    of the larger rate with zero stderr, exact when the smaller one is 0;
    if q or alpha is exactly 1/2, the output is i.i.d. fair bits and the
    estimate 1.0 with zero stderr. These rows are not simulated, so a
    Generator passed as `seed` is not advanced.
    """
    return entropy_rate_mc_many([params], samples, burnin, [seed])[0]


def entropy_rate_mc_many(params_seq, samples: int, burnin: int, seeds) -> list[McEstimate]:
    """entropy_rate_mc for every MarkovHmmParams of params_seq, row i drawing
    from seeds[i] with the same samples and burnin, simulated in lockstep.

    Each row keeps its own R and S draws, so row i's estimate is what
    entropy_rate_mc(params_seq[i], samples, burnin, seeds[i]) returns, up to
    the rounding of its summation order. Each seed makes its own generator,
    so a Generator passed for two rows would interleave their draws. A seed
    numpy refuses raises DomainError, naming its index, before any row draws.
    Rows with a rate at or below _TINY_RATE read (h of the larger rate, 0.0),
    and rows with q or alpha exactly 1/2 (1.0, 0.0), without simulating.

    The others run in lockstep groups of at most _MC_ROWS, each in chunks of
    at most _MC_CHUNK steps over the group's rows, so memory is bounded
    whatever the number of rows and steps. This thread draws each chunk's R
    and S uniforms into one pair of buffers of at most _MC_PIECE doubles (S
    from _s_stream, a copy of the generator moved past all R draws, which
    keeps entropy_rate_mc's stream) and packs their flags (_draws). Where
    the process may use a second CPU and can fork, one worker process, made
    on the first simulated group, scans the packed chunks as they come
    through a pipe and sends back each group's running sums (_fold_groups),
    so a run uses a second core; elsewhere the same _fold runs here, with
    the same numbers. Since f is odd, V_i = S_1 ... S_i W_i takes one of two fixed
    steps, and h is even in W, so only the odds x = e^V are needed. In odds
    each step is a Moebius map with a nonnegative 2x2 matrix, and a flag
    byte of 8 steps one of 256 fixed maps: one table per (q, alpha) holds them and their prefixes
    (_row_tables), built for a whole group in one pass. A chunk runs as a
    byte-table scan (_byte_odds): the maps of byte pairs, pairs of pairs and
    whole blocks are multiplied out, the block maps are composed across the
    blocks by doubling, and the odds before every byte are read off them on
    the way back down. Each step's two output weights come from its byte's
    prefix maps folded at m = alpha * q at the odds before the byte
    (_prefix_apply), with no per-step odds, exp or log1p.

    The -h terms of each kept piece (_entropy_terms) are added into two
    running sums a row, s1 = sum d and s2 = sum d^2 of d = -h - shift, where
    shift is the mean of the row's first kept piece. The mean is then
    shift + s1 / N and the sum of squared deviations s2 - s1^2 / N, which
    loses little to cancellation because the shift lies near the mean.
    """
    params_seq, seeds = list(params_seq), list(seeds)
    if len(seeds) != len(params_seq):
        raise DomainError(f"seeds must give one seed per row: {len(params_seq)} rows, "
                          f"{len(seeds)} seeds")
    samples = check_int("samples", samples, 1)
    burnin = check_int("burnin", burnin, 0)
    out: list[McEstimate | None] = []
    live = []
    for i, (params, seed) in enumerate(zip(params_seq, seeds)):
        _check_params(params)
        if min(params.q, params.alpha) <= _TINY_RATE:
            out.append(McEstimate(_h(max(params.q, params.alpha)), 0.0))
        elif params.q == 0.5 or params.alpha == 0.5:
            # the output is i.i.d. fair bits
            out.append(McEstimate(1.0, 0.0))
        else:
            try:
                rng = np.random.default_rng(seed)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"seeds[{i}] is not a seed numpy accepts: {exc}") from exc
            live.append((i, params, rng))
            out.append(None)
    total = burnin + samples
    count = -(-len(live) // _MC_ROWS)
    groups = [live[k * len(live) // count:(k + 1) * len(live) // count] for k in range(count)]
    jobs = [(np.array([p.q for _, p, _ in group]), np.array([p.alpha for _, p, _ in group]),
             [rng for _, _, rng in group]) for group in groups]
    for group, (shift, s1, s2) in zip(groups, _fold_groups(jobs, total, burnin)):
        # rounding can leave s2 a hair below s1^2 / N when every term is equal
        sq_dev = np.maximum(s2 - s1 * s1 / samples, 0.0)
        se = (np.sqrt(sq_dev / (samples - 1)) / math.sqrt(samples) if samples > 1
              else np.zeros(len(group)))
        for (i, _, _), est, err in zip(group, (-(shift + s1 / samples)).tolist(), se.tolist()):
            out[i] = McEstimate(est, err)
    return out


def exact_conditional_entropy(params: MarkovHmmParams, n: int) -> float:
    """Exact H(Y_n | Y_1..Y_{n-1}) by a forward pass over output prefixes.

    Flipping every X and Y bit keeps the joint law, so a prefix and its
    complement weigh the same with next-output conditionals c and 1 - c:
    the pass runs on the prefixes with y_1 = 0, each weighted twice. It
    takes h at the smaller next-output weight over the prefix weight; as
    alpha <= 1/2 that is min(s0, s1) (1 - alpha) + max(s0, s1) alpha, a sum
    of nonnegative terms, so the result keeps full relative precision at
    every rate. The state is one (2, 2, 2^(n-2)) array, a and s below, whose
    used part doubles at each extension, so n is capped at 20; the entropy
    terms reuse its spent rows, a traced peak of 0.69 MiB at n = 16 and
    8.5 MiB at n = 20. n = 1 returns 1, the fair marginal output entropy.
    """
    n = check_int("n", n, 1, _MAX_WINDOW, DimensionError)
    q, alpha = _check_params(params)
    if n == 1:
        return 1.0
    size = 1 << (n - 2)
    # emit[x, y] = P(Y = y | X = x); a[x]: joint weight of (observed prefix,
    # current source bit x), newest output bit in the highest index
    # position; s[x] the same after the next Markov step
    emit = np.array([[1.0 - alpha, alpha], [alpha, 1.0 - alpha]])
    a, s = np.empty((2, 2, size))
    a[:, 0] = emit[:, 0]
    for k in range(1, n):
        m = 1 << (k - 1)
        x, u = a[:, :m], s[:, :m]
        # s[0] = x[0] (1 - q) + x[1] q and s[1] = x[0] q + x[1] (1 - q);
        # x[0] becomes the prefix weight and x[1] is spent on a product
        np.add(np.multiply(x[0], 1.0 - q, out=u[0]), np.multiply(x[1], q, out=u[1]), out=u[0])
        np.multiply(x[0], q, out=u[1])
        np.add(x[0], x[1], out=x[0])
        u[1] += np.multiply(x[1], 1.0 - q, out=x[1])
        if m < size:
            # a[x] = [s[x] emit[x, 0], s[x] emit[x, 1]]; the reshape is a
            # view, so the product lands in a
            np.multiply(u[:, None, :], emit[:, :, None], out=a[:, :2 * m].reshape(2, 2, m))
    # a zero-mass prefix keeps cond = low = 0
    prefix, low, (s0, s1) = a[0], a[1], s
    np.multiply(np.minimum(s0, s1, out=low), 1.0 - alpha, out=low)
    low += np.multiply(np.maximum(s0, s1, out=s1), alpha, out=s1)
    cond = np.divide(low, prefix, out=low, where=prefix > 0.0)
    terms = _entropy_vec(cond, s0, s1)
    terms *= prefix
    # the prefix weights sum to 1 only up to rounding, which can lift the
    # result past 1 near alpha = 1/2
    return min(1.0, float(terms.sum()))
