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
from .scalar import _entropy_vec, binary_convolve, binary_entropy

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
    "exact_conditional_entropy",
]

# flip rates below this are routed to their exact zero-rate limits
_TINY_RATE = 1e-8

_RESIDUAL_TOL = 1e-9
# belief_bound's variants and the factor on its MMSE floor
_BELIEF_FACTORS = {"factor4": 4.0, "printed": 1.0}
# companion eigenvalues this close (relative) to the real axis, or to each
# other, are taken as one real root: a double root splits by about 1e-8
_NEAR_REAL = 1e-6
# crossing_q bisects its bracket down to this width in q
_CROSSING_WIDTH = 1e-6
_MAX_WINDOW = 20
# Powers (1-2q)^k = exp(k log1p(-2q)) cap k here, so k converts to a float.
# For q >= 2.1e-307, k log1p(-2q) at k = 2^1023 is below -37.4, where expm1
# rounds to -1 and tanh to 1, so a larger k changes no result there.
_MAX_POWER = 1 << 1023

# The Monte Carlo draws and simulates _MC_CHUNK steps at a time, with its
# step flags packed 8 to a byte. The steps are read off their bytes' tables
# _MC_PIECE at a time: the 64 KB temporaries of a piece stay below malloc's
# mmap threshold, while whole-chunk ones were mapped fresh each time and made
# this stage about 2.5x slower.
_MC_CHUNK = 1 << 16
_MC_PIECE = 1 << 13


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
    ha = binary_entropy(params.alpha)
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
    ha = binary_entropy(alpha)

    def gap(q: float) -> float:
        return ha + (1.0 - ha) * series_mmse(q) - binary_entropy(binary_convolve(alpha, q))

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
    return series_mmse(q) / binary_entropy(q)


def cover_thomas_ceiling(params: MarkovHmmParams, m: int = 1) -> float:
    """h(q^(*m) * alpha) where q^(*m) is the m-step disagreement probability.

    This is the ceiling under which the order-m block upper bounds sit, not
    itself an upper bound on the entropy rate: it grows with m toward 1.
    """
    m = check_int("m", m, 1)
    return binary_entropy(binary_convolve(disagreement_prob(m, params.q), params.alpha))


def rare_transition_baseline(params: MarkovHmmParams) -> float:
    """Comparison baseline h(alpha) - ((1-2 alpha)^2 / (1-alpha)) q log2(q),
    accurate in the rare-transition regime; continuous value h(alpha) at q=0."""
    q, alpha = params.q, params.alpha
    ha = binary_entropy(alpha)
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
    m = binary_convolve(alpha, q)
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

    def derivative(self, s: float) -> float:
        return ((4.0 * self.c4 * s + 3.0 * self.c3) * s + 2.0 * self.c2) * s + self.c1

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
    m = binary_convolve(alpha, q)
    eta = (1.0 - alpha) / alpha
    beta = (1.0 - m) / m
    c4 = eta * (beta + eta**2)
    c3 = 3.0 * eta**2 / m - eta**4 - beta
    c2 = 3.0 * eta * (1.0 - 2.0 * m) / m * (eta**2 - 1.0)
    c1 = beta * eta**4 + 1.0 - 3.0 * eta**2 / m
    c0 = -eta * (1.0 + beta * eta**2)
    return QuarticCoefficients(c4, c3, c2, c1, c0, eta)


def _real_roots(poly: QuarticCoefficients) -> list[float]:
    """Real roots of the quartic, ascending, from the eigenvalues of its
    companion matrix (numpy.roots).

    A tangent (double) root comes back as two eigenvalues about 1e-8 of its
    size apart, either both real or as a complex pair, so an eigenvalue
    counts as real when its imaginary part is within _NEAR_REAL of its
    size. Each is polished by at most three Newton steps, each taken only if
    it lowers |p|: at a double root the slope is near 0 and a plain step can
    jump far. Polished roots within _NEAR_REAL of an earlier one are dropped.
    """
    roots: list[float] = []
    for z in np.roots((poly.c4, poly.c3, poly.c2, poly.c1, poly.c0)):
        if abs(z.imag) > _NEAR_REAL * abs(z):
            continue
        root = float(z.real)
        for _ in range(3):
            d = poly.derivative(root)
            if d == 0.0:
                break
            step = root - poly(root) / d
            if not abs(poly(step)) < abs(poly(root)):
                break
            root = step
        if all(abs(root - r) > _NEAR_REAL * abs(r) for r in roots):
            roots.append(root)
    return sorted(roots)


def stationary_odds(params: MarkovHmmParams) -> tuple[float, ...]:
    """Roots of the slope quartic inside the open interval (1, odds_cap),
    ascending: the odds values where the conditioned MMSE turns around.

    The candidates are the quartic's real roots (_real_roots), a tangent
    root among them. Every returned root must pass the scaled-residual check
    at 1e-9. The quartic at s = 1 must match its closed form
    (eta-1)(eta+1)^3 (1-2m)/m to 1e-9 of the coefficient norm; that value is
    positive (the MMSE always slopes down there) but can be smaller than the
    rounding of the expanded sum near rate 1/2, so its sign alone is not
    checked.
    """
    cap = odds_cap(params)
    if not cap > 1.0:
        return ()
    poly = quartic_coefficients(params)
    coeffs = (poly.c4, poly.c3, poly.c2, poly.c1, poly.c0)
    eta = poly.eta
    m = binary_convolve(params.alpha, params.q)
    at_one = (eta - 1.0) * (eta + 1.0) ** 3 * (1.0 - 2.0 * m) / m
    if abs(poly(1.0) - at_one) > _RESIDUAL_TOL * math.hypot(*coeffs):
        raise AssertionError(f"quartic at s=1 misses its closed form for {params!r}")
    roots = tuple(r for r in _real_roots(poly) if 1.0 < r < cap)
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
    hm = binary_entropy(binary_convolve(alpha, q))
    value = hm + (1.0 - hm) * _BELIEF_FACTORS[variant] * floor
    return BoundResult(
        "theorem6",
        value,
        {"alpha": alpha, "q": q, "odds": star, "mmse_floor": floor},
        variant=variant,
    )


def _propagate_llr_vec(t: np.ndarray, q: float) -> np.ndarray:
    """propagate_llr over an array, in the same stable form, so the result is
    exactly odd in t."""
    cq = 1.0 - q
    e = np.exp(-np.abs(t))
    return np.copysign(np.log((cq + q * e) / (q + cq * e)), t)


def _chunked_draws(rng: np.random.Generator, total: int):
    """Yield the uniforms behind R and S, _MC_CHUNK steps at a time.

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
    for start in range(0, total, _MC_CHUNK):
        size = min(_MC_CHUNK, total - start)
        yield rng.random(size), s_rng.random(size)
    rng.bit_generator.state = s_bits.state


def _byte_maps(q: float, alpha: float) -> np.ndarray:
    """The odds maps of every flag byte and of each of its prefixes.

    A step takes the odds x = e^V to (a x + b)/(c x + d), the Moebius map of
    D Q, with Q the Markov matrix and D = diag(eta, 1), or diag(1, eta) on a
    flagged step (the same map as diag(1/eta, 1), without rounding 1/eta).
    Entries [:, byte, k] hold (a, b, c, d) of steps 0..k of the byte, step j
    flagged by bit j (little-endian, as np.packbits(..., bitorder="little")
    packs them), scaled so that the largest is 1. Prefix k depends on the
    low k+1 bits only, so it is built on 2^(k+1) bytes and broadcast.

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
    eta = (1.0 - alpha) / alpha
    cq = 1.0 - q
    # column 0 is the plain step, column 1 the flagged one
    sa, sb, sc, sd = (np.array([[u], [v]]) for u, v in
                      ((eta * cq, cq), (eta * q, q), (q, eta * q), (cq, eta * cq)))
    table = np.empty((4, 256, 8))
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for k in range(8):
        a, b, c, d = ((sa * a + sb * c).ravel(), (sa * b + sb * d).ravel(),
                      (sc * a + sd * c).ravel(), (sc * b + sd * d).ravel())
        table.reshape(4, 128 >> k, 2 << k, 8)[..., k] = np.stack((a, b, c, d))[:, None]
    table /= table.max(axis=0)
    return table


def _mc_chunk(v0: float, neg: np.ndarray, table: np.ndarray):
    """Run one chunk of V_i = +-ln(eta) + f(V_{i-1}) from V before its first
    step; neg flags the steps that add -ln(eta), and table is _byte_maps.

    Returns the flag bytes and the odds x = e^V before each byte, from which
    _steps_odds reads every step. The bytes are cut into blocks of about
    sqrt(bytes/32), 16 for a full chunk, which balances the numpy calls of
    passes A and C1, a few per byte of a block, against the turns of pass
    B's Python loop, one per block. Pass A multiplies out each block's map
    from its bytes' 8-step maps, every block at once. Pass B carries V
    across the blocks one map at a time, in the log-stable form. Pass C1
    carries the odds across the bytes of every block, all blocks side by
    side. The last byte and block are padded with unflagged steps, which
    are never read.
    """
    nbytes = -(-neg.size // 8)
    size = max(1, round(math.sqrt(nbytes / 32)))
    blocks = -(-nbytes // size)
    codes = np.packbits(neg, bitorder="little")
    # maps[:, j] holds (a, b, c, d) of byte j of every block
    padded = np.pad(codes, (0, blocks * size - nbytes)).reshape(blocks, size)
    maps = table[:, :, 7].take(padded.T, axis=1)

    # pass A; rescaled every 4 bytes, over which the largest entry of a
    # product grows at most 16-fold and, as no table entry is below 1e-32 of
    # its map's largest, shrinks at most 1e-128-fold
    a, b, c, d = maps[:, 0]
    for j in range(1, size):
        ta, tb, tc, td = maps[:, j]
        a, b, c, d = ta * a + tb * c, ta * b + tb * d, tc * a + td * c, tc * b + td * d
        if j % 4 == 3:
            peak = 1.0 / np.maximum(np.maximum(a, b), np.maximum(c, d))
            a, b, c, d = a * peak, b * peak, c * peak, d * peak

    # pass B: V at the start of every block, in the stable form for either sign
    starts = [0.0] * blocks
    a, b, c, d = a.tolist(), b.tolist(), c.tolist(), d.tolist()
    v = v0
    for k in range(blocks):
        starts[k] = v
        if v >= 0.0:
            e = math.exp(-v)
            v = math.log((a[k] + b[k] * e) / (c[k] + d[k] * e))
        else:
            e = math.exp(v)
            v = math.log((a[k] * e + b[k]) / (c[k] * e + d[k]))

    # pass C1
    x = np.exp(starts)
    odds = np.empty((size, blocks))
    for j in range(size):
        odds[j] = x
        ta, tb, tc, td = maps[:, j]
        x = (ta * x + tb) / (tc * x + td)
    return codes, odds.T.reshape(-1)[:nbytes]


def _steps_odds(table: np.ndarray, codes: np.ndarray, starts: np.ndarray,
                lo: int, hi: int) -> np.ndarray:
    """Pass C2: the odds after steps lo..hi-1 of a chunk that _mc_chunk ran,
    each as its byte's prefix map applied to the odds before the byte."""
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


def _odds_path(q: float, alpha: float, total: int, rng: np.random.Generator,
               skip: int = 0):
    """Yield (x, flipped) for steps skip+1 .. total of the belief recursion
    from W_0 = 0, in pieces of at most _MC_PIECE steps: x is the odds e^V of
    V_i = sigma_i W_i and flipped marks sigma_i = S_1 ... S_i = -1.

    Since f is odd, V obeys V_i = sigma_i R_i ln(eta) + f(V_{i-1}), one of
    two fixed steps, which _mc_chunk runs a chunk at a time. The skipped
    steps still run, but only byte by byte. V and the parity of sigma are
    carried across chunks, V from the chunk's last real step.
    """
    table = _byte_maps(q, alpha)
    v, odd, start = 0.0, False, 0
    for r_u, s_u in _chunked_draws(rng, total):
        flipped = np.logical_xor.accumulate(s_u < q) ^ odd
        codes, starts = _mc_chunk(v, (r_u < alpha) != flipped, table)
        n = flipped.size
        for lo in range(max(0, skip - start), n, _MC_PIECE):
            hi = min(lo + _MC_PIECE, n)
            yield _steps_odds(table, codes, starts, lo, hi), flipped[lo:hi]
        v = math.log(_steps_odds(table, codes, starts, n - 1, n)[0])
        odd, start = bool(flipped[-1]), start + n


def _belief_path(q: float, alpha: float, total: int, rng: np.random.Generator):
    """Yield W_1 .. W_total of the belief recursion from W_0 = 0, at most
    _MC_PIECE values at a time: W = +-ln x of _odds_path's odds, with the
    sign of sigma put back."""
    for x, flipped in _odds_path(q, alpha, total, rng):
        v = np.log(x)
        yield np.where(flipped, -v, v)


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

    The steps run in chunks of _MC_CHUNK, so memory stays the same however
    many steps run: each chunk's R and S draws are taken as it starts (S
    from a copy of the generator moved past all R draws, which keeps the
    stream above), and its entropy terms are folded into a running mean and
    sum of squared deviations (the pairwise update of Chan, Golub & LeVeque).
    Since f is odd, V_i = S_1 ... S_i W_i takes one of two fixed steps,
    V_i = S_1 ... S_i R_i ln(eta) + f(V_{i-1}), and h is even in W, so only
    the odds x = e^V are needed (_odds_path). In odds each step is a Moebius
    map with a nonnegative 2x2 matrix, and a flag byte of 8 steps one of 256
    fixed maps: one table per (q, alpha) holds them and their prefixes
    (_byte_maps). The chunk runs as a byte-table scan (_mc_chunk): the maps
    of each block of bytes are multiplied out, all blocks side by side, V is
    carried from block to block and the odds from byte to byte, and every
    step is then its byte's prefix map applied to the odds before the byte.
    With z = min(x, 1/x), the entropy terms need no exp or log1p.

    The reported stderr uses the i.i.d. formula; consecutive W values are
    correlated, so it understates the true uncertainty and consumers should
    pad their margins. Rates at or below 1e-8 shortcut to the exact limits
    h(q) and h(alpha) with zero stderr.
    """
    q, alpha = params.q, params.alpha
    samples = check_int("samples", samples, 1)
    burnin = check_int("burnin", burnin, 0)
    if alpha <= _TINY_RATE:
        return McEstimate(binary_entropy(q), 0.0)
    if q <= _TINY_RATE:
        return McEstimate(binary_entropy(alpha), 0.0)

    rng = np.random.default_rng(seed)
    # with z = min(x, 1/x) = exp(-|W|), (1 - m + m z)/(1 + z) is the predicted
    # probability of the likelier next output, m = alpha * q, and
    # (m + (1 - m) z)/(1 + z) its complement
    m = binary_convolve(alpha, q)
    count, mean, sq_dev = 0, 0.0, 0.0
    for x, _ in _odds_path(q, alpha, burnin + samples, rng, skip=burnin):
        z = np.minimum(x, 1.0 / x)
        weight = 1.0 + z
        p = ((1.0 - m) + m * z) / weight
        p_c = (m + (1.0 - m) * z) / weight
        # -h, whose mean is negated below: the squared deviations are even
        hv = p * np.log2(p) + p_c * np.log2(p_c)
        part_mean = -float(hv.mean())
        part_sq = float(((hv + part_mean) ** 2).sum())
        merged = count + hv.size
        delta = part_mean - mean
        mean += delta * (hv.size / merged)
        sq_dev += part_sq + delta * delta * (count * hv.size / merged)
        count = merged
    se = 0.0 if samples < 2 else math.sqrt(sq_dev / (samples - 1)) / math.sqrt(samples)
    return McEstimate(mean, se)


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
