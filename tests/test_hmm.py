import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bscbounds import (
    DimensionError,
    DomainError,
    MarkovHmmParams,
    QuarticCoefficients,
    belief_bound,
    binary_convolve,
    binary_entropy,
    conditional_mmse,
    cover_thomas_ceiling,
    crossing_q,
    disagreement_prob,
    dyadic_permutation,
    entropy_rate_mc,
    exact_conditional_entropy,
    markov_joint_pmf,
    markov_series_bound,
    minimizing_odds,
    mmse_along_permutation,
    mmse_given_odds,
    mmse_two_sided,
    odds_cap,
    propagate_llr,
    quartic_coefficients,
    rare_transition_baseline,
    series_mmse,
    small_q_ratio,
    stationary_odds,
)
from bscbounds import cli, hmm


class TestParams:
    def test_validates_rates(self):
        p = MarkovHmmParams(0.1, 0.11)
        assert (p.q, p.alpha) == (0.1, 0.11)
        with pytest.raises(DomainError):
            MarkovHmmParams(0.6, 0.11)
        with pytest.raises(DomainError):
            MarkovHmmParams(0.1, -0.01)


class TestDisagreementProb:
    def test_values(self):
        assert disagreement_prob(0, 0.2) == 0.0
        assert disagreement_prob(1, 0.2) == pytest.approx(0.2, abs=1e-15)
        assert disagreement_prob(2, 0.2) == pytest.approx(0.32, abs=1e-15)
        assert disagreement_prob(5, 0.5) == 0.5
        assert disagreement_prob(3, 0.0) == 0.0

    def test_monotone_in_k(self):
        vals = [disagreement_prob(k, 0.1) for k in range(12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v <= 0.5 for v in vals)

    def test_rejects_negative_k(self):
        with pytest.raises(DomainError):
            disagreement_prob(-1, 0.2)

    def test_huge_k_saturates(self):
        assert disagreement_prob(10**400, 0.1) == 0.5

    def test_huge_k_saturates_at_tiny_q(self):
        # (1 - 2q)^k rounds away once k q > 19; capping k at 2^63 gave 0.42
        assert disagreement_prob(10**400, 1e-19) == 0.5


class TestMmseTwoSided:
    def test_huge_gap_saturates(self):
        assert mmse_two_sided(10**400, 0.1) == 0.25

    def test_huge_gap_saturates_at_tiny_q(self):
        assert mmse_two_sided(10**400, 1e-19) == 0.25

    def test_gap_one_closed_form(self):
        # q(1-q) / (2 (1 - 2q + 2q^2)) at q = 0.2
        assert mmse_two_sided(1, 0.2) == pytest.approx(0.16 / 1.36, abs=1e-15)

    def test_limits(self):
        assert mmse_two_sided(3, 0.0) == 0.0
        assert mmse_two_sided(1, 0.5) == 0.25
        assert mmse_two_sided(40, 0.3) == pytest.approx(0.25, abs=1e-12)

    def test_matches_exact_enumeration(self):
        # condition the middle bit on the two bits exactly `gap` steps away
        for gap in (1, 2, 3):
            for q in (0.05, 0.2, 0.4):
                n = 2 * gap + 1
                pmf = markov_joint_pmf(n, q)
                direct = conditional_mmse(pmf, gap + 1, [1, n])
                assert mmse_two_sided(gap, q) == pytest.approx(direct, abs=1e-10)

    def test_two_sided_beats_one_sided(self):
        for q in (0.05, 0.2):
            assert mmse_two_sided(1, q) < q * (1.0 - q)

    def test_rejects_bad_gap(self):
        with pytest.raises(DomainError):
            mmse_two_sided(0, 0.2)


class TestDyadicPermutation:
    def test_small_cases(self):
        assert dyadic_permutation(1) == (1,)
        assert dyadic_permutation(2) == (2, 1)
        assert dyadic_permutation(4) == (4, 2, 1, 3)
        assert dyadic_permutation(8) == (8, 4, 2, 6, 1, 3, 5, 7)

    def test_is_permutation(self):
        for n in (16, 64):
            assert sorted(dyadic_permutation(n)) == list(range(1, n + 1))

    def test_rejects_non_powers(self):
        for bad in (0, 3, 12, -4):
            with pytest.raises(DomainError):
                dyadic_permutation(bad)

    def test_beats_identity_order_on_markov(self):
        for n in (4, 8):
            for q in (0.05, 0.1):
                pmf = markov_joint_pmf(n, q)
                dy = mmse_along_permutation(pmf, dyadic_permutation(n))
                ident = mmse_along_permutation(pmf, tuple(range(1, n + 1)))
                assert dy > ident

    def test_finite_n_dominates_truncated_series(self):
        for n in (4, 8):
            for q in (0.05, 0.1):
                pmf = markov_joint_pmf(n, q)
                dy = mmse_along_permutation(pmf, dyadic_permutation(n))
                truncated = 2.0 * sum(
                    2.0 ** (-t) * mmse_two_sided(1 << t, q)
                    for t in range(n.bit_length() - 1))
                assert 4.0 * dy / n >= truncated - 1e-12


def _mp_series_mmse(q):
    """The dyadic series at 50 digits. Each bracket is -expm1(a) / (1 + e^a)
    with a = 2^t log1p(-2q): the plain 1 - r^(2^t) cancels to 0 for q below
    about 1e-50. The sum stops once the tail, at most twice the next weight,
    is below 1e-55 of it."""
    with mpmath.workdps(50):
        log_r = mpmath.log1p(-2 * mpmath.mpf(q))
        total, weight, t = mpmath.mpf(0), mpmath.mpf(1) / 2, 1
        while total == 0 or 2 * weight > total * mpmath.mpf(10) ** -55:
            a = log_r * 2**t
            total += weight * -mpmath.expm1(a) / (1 + mpmath.exp(a))
            weight /= 2
            t += 1
        return float(total)


class TestSeriesMmse:
    def test_endpoint_values(self):
        assert series_mmse(0.0) == 0.0
        assert series_mmse(0.5) == 1.0

    def test_frozen_value(self):
        assert series_mmse(0.1) == pytest.approx(0.4250778991579124, abs=1e-12)

    def test_reverse_order_resummation(self):
        # same terms (including the saturated geometric tail), accumulated
        # smallest-first through fsum instead of the module's running sum
        for q in (0.01, 0.1, 0.3, 0.49):
            log_r = math.log1p(-2.0 * q)
            terms = []
            t, weight = 1, 0.5
            while weight >= 1e-12:
                a = (1 << t) * log_r
                bracket = -math.expm1(a) / (1.0 + math.exp(a))
                if bracket == 1.0:
                    terms.append(2.0 * weight)
                    break
                terms.append(weight * bracket)
                weight *= 0.5
                t += 1
            assert series_mmse(q) == pytest.approx(math.fsum(reversed(terms)), abs=1e-12)

    def test_monotone_in_q(self):
        vals = [series_mmse(float(q)) for q in np.linspace(0.0, 0.5, 51)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_tiny_q_stays_precise(self):
        # leading behavior is dominated by the h(q)-like scale, ratio near 1
        for q in (1e-5, 1e-7):
            v = series_mmse(q)
            assert 0.0 < v < 1e-3
            assert v / binary_entropy(q) > 0.9

    @pytest.mark.parametrize("q", [1e-300, 1e-100, 1e-30, 1e-15, 1e-12, 1e-11, 1e-9,
                                   1e-6, 1e-3, 0.1, 0.3, 0.49])
    def test_matches_50_digit_sum(self, q):
        assert series_mmse(q) == pytest.approx(_mp_series_mmse(q), rel=1e-13, abs=0.0)

    def test_subnormal_q_is_finite_and_positive(self):
        v = series_mmse(5e-324)
        assert math.isfinite(v) and v > 0.0


class TestMarkovSeriesBound:
    def test_frozen_value(self):
        res = markov_series_bound(MarkovHmmParams(0.1, 0.11))
        assert res.value == pytest.approx(0.712490632070348, abs=1e-12)
        assert res.name == "theorem5"

    def test_edges(self):
        assert markov_series_bound(MarkovHmmParams(0.0, 0.11)).value == pytest.approx(
            binary_entropy(0.11), abs=0)
        assert markov_series_bound(MarkovHmmParams(0.5, 0.11)).value == 1.0
        assert markov_series_bound(MarkovHmmParams(0.2, 0.5)).value == 1.0

    def test_below_exact_window_entropy(self):
        for a, q in ((0.11, 0.1), (0.05, 0.2), (0.25, 0.3)):
            params = MarkovHmmParams(q, a)
            assert markov_series_bound(params).value <= (
                exact_conditional_entropy(params, 16) + 1e-9)


class TestCrossingQ:
    def test_frozen_value(self):
        assert crossing_q(0.11) == pytest.approx(0.2127618594877482, abs=2e-6)

    def test_separates_the_regimes(self):
        qc = crossing_q(0.11)
        ha = binary_entropy(0.11)

        def gap(q):
            return ha + (1.0 - ha) * series_mmse(q) - binary_entropy(binary_convolve(0.11, q))

        assert gap(0.5 * qc) > 0.0
        assert gap(qc - 1e-4) > 0.0
        assert gap(qc + 1e-4) < 0.0
        assert gap(0.45) < 0.0

    def test_rejects_boundary_alpha(self):
        with pytest.raises(DomainError):
            crossing_q(0.0)
        with pytest.raises(DomainError):
            crossing_q(0.5)


class TestSmallQRatio:
    def test_rises_toward_one_down_to_tiny_q(self):
        ratios = [small_q_ratio(q) for q in (1e-2, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-300)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.0

    def test_increases_toward_small_q(self):
        # the series keeps a growing fraction of h(q) as q shrinks
        ratios = [small_q_ratio(q) for q in (1e-2, 1e-3, 1e-4, 1e-6)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r >= 0.9 for r in ratios)
        assert small_q_ratio(1e-2) == pytest.approx(0.9089, abs=5e-4)

    def test_equals_one_at_half(self):
        assert small_q_ratio(0.5) == 1.0

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            small_q_ratio(0.0)


class TestCoverThomasCeiling:
    def test_order_one_is_convolution_entropy(self):
        params = MarkovHmmParams(0.1, 0.11)
        assert cover_thomas_ceiling(params, 1) == pytest.approx(
            binary_entropy(binary_convolve(0.1, 0.11)), abs=1e-15)

    def test_increases_with_order_toward_one(self):
        params = MarkovHmmParams(0.11, 0.11)
        vals = [cover_thomas_ceiling(params, m) for m in range(1, 13)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(v <= 1.0 for v in vals)
        assert vals[-1] > vals[0]

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            cover_thomas_ceiling(MarkovHmmParams(0.1, 0.11), 0)


class TestRareTransitionBaseline:
    def test_continuity_at_zero(self):
        assert rare_transition_baseline(MarkovHmmParams(0.0, 0.11)) == pytest.approx(
            binary_entropy(0.11), abs=0)

    def test_formula(self):
        q, a = 0.01, 0.11
        expect = binary_entropy(a) - ((1 - 2 * a) ** 2 / (1 - a)) * q * math.log2(q)
        assert rare_transition_baseline(MarkovHmmParams(q, a)) == pytest.approx(
            expect, abs=1e-15)

    def test_no_correction_at_half_alpha(self):
        assert rare_transition_baseline(MarkovHmmParams(0.3, 0.5)) == 1.0


class TestPropagateLlr:
    def test_odd_and_zero_at_zero(self):
        for q in (0.05, 0.2, 0.45):
            assert propagate_llr(0.0, q) == 0.0
            for t in (0.3, 2.0, 17.0, 500.0):
                assert propagate_llr(-t, q) == pytest.approx(-propagate_llr(t, q), abs=0)

    def test_saturates_at_log_odds(self):
        for q in (0.05, 0.2):
            cap = math.log((1.0 - q) / q)
            assert propagate_llr(1e6, q) == pytest.approx(cap, abs=1e-9)
            for t in (0.5, 3.0):
                assert abs(propagate_llr(t, q)) < cap
            # far out the map has fully converged, equality is fine
            assert abs(propagate_llr(40.0, q)) <= cap

    def test_contracts(self):
        for q in (0.05, 0.2, 0.45):
            for t in (0.3, 1.0, 5.0):
                assert 0.0 < propagate_llr(t, q) < t

    def test_half_rate_forgets_everything(self):
        assert propagate_llr(3.7, 0.5) == 0.0

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            propagate_llr(1.0, 0.0)
        with pytest.raises(DomainError):
            propagate_llr(math.inf, 0.2)


class TestOddsCap:
    def test_frozen_value(self):
        assert odds_cap(MarkovHmmParams(0.1, 0.11)) == pytest.approx(
            7.903278959258633, abs=1e-11)

    def test_degenerate_rates_give_one(self):
        assert odds_cap(MarkovHmmParams(0.5, 0.11)) == pytest.approx(1.0, abs=1e-12)
        assert odds_cap(MarkovHmmParams(0.2, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_is_fixed_point_of_one_round(self):
        # the most confident reachable belief is ln(eta * F_max), and carrying
        # it through one Markov step must reproduce the cap
        params = MarkovHmmParams(0.1, 0.11)
        cap = odds_cap(params)
        eta = (1.0 - params.alpha) / params.alpha
        again = math.exp(propagate_llr(math.log(eta * cap), params.q))
        assert again == pytest.approx(cap, rel=1e-12)

    def test_simulated_odds_stay_inside(self):
        params = MarkovHmmParams(0.1, 0.11)
        cap = odds_cap(params)
        ln_eta = math.log((1.0 - params.alpha) / params.alpha)
        rng = np.random.default_rng(0)
        steps = 100_000
        rs = np.where(rng.random(steps) < params.alpha, -ln_eta, ln_eta)
        ss = np.where(rng.random(steps) < params.q, -1.0, 1.0)
        w = 0.0
        bound = math.log(cap) * (1.0 + 1e-12)
        for i in range(steps):
            fv = propagate_llr(w, params.q)
            assert abs(fv) <= bound
            w = float(rs[i]) + float(ss[i]) * fv


class TestMmseGivenOdds:
    def test_at_unit_odds(self):
        # equals alpha (1 - alpha) regardless of q
        for q in (0.05, 0.2, 0.45):
            params = MarkovHmmParams(q, 0.11)
            assert mmse_given_odds(1.0, params) == pytest.approx(0.11 * 0.89, abs=1e-15)

    def test_half_alpha_collapses(self):
        params = MarkovHmmParams(0.2, 0.5)
        for s in (1.0, 2.0, 5.0):
            assert mmse_given_odds(s, params) == pytest.approx(s / (1.0 + s) ** 2, abs=1e-15)

    def test_rejects_nonpositive_odds(self):
        with pytest.raises(DomainError):
            mmse_given_odds(0.0, MarkovHmmParams(0.1, 0.11))
        with pytest.raises(DomainError):
            mmse_given_odds(-2.0, MarkovHmmParams(0.1, 0.11))


# 50-digit oracles for the scalar belief kernels, each computed from the same
# float inputs. Rates run from 1e-7 to 1/2; t and the odds cover many decades.
RATE = st.floats(1e-7, 0.5)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@PROPERTY
@given(exponent=st.floats(-300.0, math.log10(60.0)), negative=st.booleans(), q=RATE)
def test_propagate_llr_matches_50_digits(exponent, negative, q):
    t = -(10.0**exponent) if negative else 10.0**exponent
    with mpmath.workdps(50):
        # the ratio form ln((e^t (1-q) + q) / (q e^t + 1-q)) loses all its
        # digits below t ~ 1e-45 even at 50 digits; this form loses none
        want = float(2 * mpmath.atanh((1 - 2 * mpmath.mpf(q)) * mpmath.tanh(mpmath.mpf(t) / 2)))
    # a value below the normal range can be off by a few subnormal ulps
    assert abs(propagate_llr(t, q) - want) <= 1e-14 * abs(want) + 1e-320, (t, q)


@PROPERTY
@given(q=RATE, alpha=RATE)
# near alpha = 1/2 at small q, where eta - 1 taken as a difference cancels
@example(q=6.6e-05, alpha=0.4994)
def test_odds_cap_matches_50_digits(q, alpha):
    with mpmath.workdps(50):
        mq, ma = mpmath.mpf(q), mpmath.mpf(alpha)
        eta = (1 - ma) / ma
        disc = mpmath.sqrt(4 * eta * mq**2 + ((eta - 1) * (1 - mq)) ** 2)
        want = float(((eta - 1) * (1 - mq) + disc) / (2 * eta * mq))
    assert odds_cap(MarkovHmmParams(q, alpha)) == pytest.approx(want, rel=1e-14, abs=0)


@PROPERTY
@given(exponent=st.floats(-6.0, 6.0), q=RATE, alpha=RATE)
def test_mmse_given_odds_matches_50_digits(exponent, q, alpha):
    odds = 10.0**exponent
    with mpmath.workdps(50):
        mq, ma, mo = mpmath.mpf(q), mpmath.mpf(alpha), mpmath.mpf(odds)
        eta = (1 - ma) / ma
        m = ma * (1 - mq) + mq * (1 - ma)
        hi, lo = eta * mo, mo / eta
        want = float((1 - m) * hi / (1 + hi) ** 2 + m * lo / (1 + lo) ** 2)
    got = mmse_given_odds(odds, MarkovHmmParams(q, alpha))
    assert got == pytest.approx(want, rel=1e-14, abs=0)


# 1 - (1-2q)^k taken at 50 digits through log1p/expm1, which keep the digits
# of q that 1 - 2q rounds away; q runs log-uniform from 1e-300 to 0.4999
def _mp_disagreement(k, q):
    with mpmath.workdps(50):
        return float(-mpmath.expm1(k * mpmath.log1p(-2 * mpmath.mpf(q))) / 2)


def _mp_two_sided(gap, q):
    with mpmath.workdps(50):
        return float(mpmath.tanh(-gap * mpmath.log1p(-2 * mpmath.mpf(q))) / 4)


SMALL_Q_EXPONENT = st.floats(-300.0, math.log10(0.4999))


@PROPERTY
@given(k=st.integers(0, 10**6), exponent=SMALL_Q_EXPONENT)
def test_disagreement_prob_matches_50_digits(k, exponent):
    q = 10.0**exponent
    assert disagreement_prob(k, q) == pytest.approx(_mp_disagreement(k, q), rel=1e-14, abs=0)


@PROPERTY
@given(gap=st.integers(1, 10**6), exponent=SMALL_Q_EXPONENT)
def test_mmse_two_sided_matches_50_digits(gap, exponent):
    q = 10.0**exponent
    assert mmse_two_sided(gap, q) == pytest.approx(_mp_two_sided(gap, q), rel=1e-14, abs=0)


# the float power made these fail the cross-check (the first two) or divide
# 0 by 0 (the last)
@pytest.mark.parametrize("gap, q", [(10**6, 1e-9), (10**6, 1e-12), (3, 1e-17)])
def test_two_sided_at_small_q(gap, q):
    assert disagreement_prob(gap, q) == pytest.approx(_mp_disagreement(gap, q), rel=1e-14, abs=0)
    assert mmse_two_sided(gap, q) == pytest.approx(_mp_two_sided(gap, q), rel=1e-14, abs=0)


C07_GRID = [MarkovHmmParams(q, a) for a in (0.05, 0.11, 0.25)
            for q in (0.05, 0.1, 0.2, 0.3, 0.45)]
NEAR_HALF = [MarkovHmmParams(float(q), a) for q in np.linspace(0.001, 0.499, 25)
             for a in (0.5 - 1e-6, 0.5 - 1e-9)] + [MarkovHmmParams(0.5 - 1e-12, 0.499)]
CLOSE_ROOTS = MarkovHmmParams(0.001, 0.0370287148)
# two turning points, 10.724 and 44.800, inside one cell of a coarse
# bracketing grid
TWO_IN_ONE_CELL = MarkovHmmParams(4.07e-6, 0.0183)
# seeded log-uniform rates down to 1e-8, with 0, 1 and 2 interior roots
LOG_UNIFORM = [MarkovHmmParams(float(q), float(a)) for q, a in
               10.0 ** np.random.default_rng(0).uniform(-8.0, math.log10(0.5), (10, 2))]
# (s - 3)(s - 3.0003)(s^2 + 2s + 5) rounded to floats: a real pair 1e-4
# apart (relative) and a complex pair
CLOSE_PAIR = (1.0, -4.0003, 2.0003, -11.9997, 45.0045)


def _mp_real_roots(coeffs):
    """Real roots of a polynomial (descending coefficients), ascending,
    solved at 50 digits."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        return sorted(mpmath.re(r) for r in roots
                      if abs(mpmath.im(r)) <= mpmath.mpf(10) ** -30 * abs(r))


def _mp_interior_roots(params):
    """Real roots of the slope quartic in (1, cap), solved at 50 digits from
    the formulas in the quartic_coefficients and odds_cap docstrings."""
    with mpmath.workdps(50):
        q, a = mpmath.mpf(params.q), mpmath.mpf(params.alpha)
        m = a * (1 - q) + q * (1 - a)
        eta = (1 - a) / a
        beta = (1 - m) / m
        coeffs = [
            eta * (beta + eta**2),
            3 * eta**2 / m - eta**4 - beta,
            3 * eta * (1 - 2 * m) / m * (eta**2 - 1),
            beta * eta**4 + 1 - 3 * eta**2 / m,
            -eta * (1 + beta * eta**2),
        ]
        disc = mpmath.sqrt(4 * eta * q**2 + ((eta - 1) * (1 - q)) ** 2)
        cap = ((eta - 1) * (1 - q) + disc) / (2 * eta * q)
        return [float(r) for r in _mp_real_roots(coeffs) if 1 < r < cap]


class TestQuartic:
    def test_sign_consistency_at_one(self):
        # g slopes down at s=1, so the sign polynomial must be positive there
        for a in (0.05, 0.11, 0.25, 0.3):
            for q in (0.05, 0.1, 0.3, 0.45):
                poly = quartic_coefficients(MarkovHmmParams(q, a))
                assert poly(1.0) > 0.0

    def test_roots_match_slope_sign_changes(self):
        for a, q in ((0.05, 0.3), (0.11, 0.1), (0.25, 0.05), (0.3, 0.45)):
            params = MarkovHmmParams(q, a)
            poly = quartic_coefficients(params)
            roots = stationary_odds(params)
            cap = odds_cap(params)
            grid = np.linspace(1.0, cap, 200_001)
            eta = poly.eta
            m = binary_convolve(a, q)
            gp = ((1.0 - m) * eta * (1.0 - eta * grid) / (1.0 + eta * grid) ** 3
                  + m * eta * (eta - grid) / (eta + grid) ** 3)
            signs = np.sign(gp)
            flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
            assert len(flips) == len(roots)
            width = float(grid[1] - grid[0])
            for idx, root in zip(flips, roots):
                assert abs(float(grid[idx]) - root) <= 2.0 * width
                assert poly.scaled_residual(root) < 1e-9

    def test_known_interior_root(self):
        roots = stationary_odds(MarkovHmmParams(0.3, 0.05))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.6143020065274707, abs=1e-9)

    def test_no_interior_root_cases(self):
        for a, q in ((0.11, 0.1), (0.25, 0.05)):
            assert stationary_odds(MarkovHmmParams(q, a)) == ()

    def test_half_q_has_no_interior_root(self):
        # the quartic is exactly 0 at s = 1 when q = 1/2, and the cap must be
        # exactly 1 so that the interval (1, cap) admits no root there
        for a in np.linspace(0.001, 0.5, 500):
            params = MarkovHmmParams(0.5, float(a))
            assert odds_cap(params) == 1.0
            assert stationary_odds(params) == ()

    def test_near_half_rates_return_interior_roots(self):
        # near rate 1/2 the quartic at s = 1 is smaller than the rounding of
        # its expanded sum, so its computed sign is noise there
        for params in NEAR_HALF:
            cap = odds_cap(params)
            for root in stationary_odds(params):
                assert 1.0 < root < cap

    def test_close_roots_are_both_found(self):
        # the two turning points are about 0.004 apart, far below any coarse
        # bracketing cell on the interval up to the cap near 960
        params = CLOSE_ROOTS
        poly = quartic_coefficients(params)
        roots = stationary_odds(params)
        assert len(roots) == 2
        grid = np.linspace(12.93, 12.96, 200_001)
        eta = poly.eta
        m = binary_convolve(params.alpha, params.q)
        gp = ((1.0 - m) * eta * (1.0 - eta * grid) / (1.0 + eta * grid) ** 3
              + m * eta * (eta - grid) / (eta + grid) ** 3)
        signs = np.sign(gp)
        flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        assert len(flips) == 2
        width = float(grid[1] - grid[0])
        for idx, root in zip(flips, roots):
            assert abs(float(grid[idx]) - root) <= 2.0 * width

    @pytest.mark.parametrize("params", C07_GRID + NEAR_HALF + [CLOSE_ROOTS, TWO_IN_ONE_CELL]
                             + LOG_UNIFORM, ids=lambda p: f"q={p.q!r},a={p.alpha!r}")
    def test_matches_50_digit_roots(self, params):
        want = _mp_interior_roots(params)
        got = stationary_odds(params)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=0)

    # the double root 2 of (s-2)^2 (s+1)(s+3) and of (s-2)^2 (s+1)(s-6) is a
    # turning point where the quartic touches 0, and rounding can leave it
    # just above or just below 0 there: either way it is one real root. A
    # real pair 1e-4 apart (relative) stays two roots.
    @pytest.mark.parametrize("coeffs, want", [
        ((1.0, 0.0, -9.0, 4.0, 12.0), [-3.0, -1.0, 2.0]),
        ((1.0, -9.0, 18.0, 4.0, -24.0), [-1.0, 2.0, 6.0]),
        (CLOSE_PAIR, [float(r) for r in _mp_real_roots(CLOSE_PAIR)]),
    ])
    def test_tangent_root_is_found_once(self, coeffs, want):
        poly = QuarticCoefficients(*coeffs, eta=1.0)
        got = hmm._real_roots(poly)
        assert got == pytest.approx(want, rel=1e-8)
        assert all(poly.scaled_residual(r) < 1e-9 for r in got)

    def test_rejects_zero_rates(self):
        with pytest.raises(DomainError):
            quartic_coefficients(MarkovHmmParams(0.0, 0.11))
        with pytest.raises(DomainError):
            quartic_coefficients(MarkovHmmParams(0.1, 0.0))


class TestMinimizingOdds:
    def test_cap_when_no_interior_root(self):
        params = MarkovHmmParams(0.1, 0.11)
        assert minimizing_odds(params) == pytest.approx(odds_cap(params), abs=0)

    def test_interior_minimum_when_present(self):
        params = MarkovHmmParams(0.3, 0.05)
        star = minimizing_odds(params)
        root = stationary_odds(params)[0]
        cap = odds_cap(params)
        best = min((root, cap), key=lambda s: mmse_given_odds(s, params))
        assert star == best

    def test_half_q_is_unit_odds(self):
        params = MarkovHmmParams(0.5, 0.11)
        assert minimizing_odds(params) == pytest.approx(1.0, abs=1e-12)
        assert mmse_given_odds(minimizing_odds(params), params) == pytest.approx(
            0.11 * 0.89, abs=1e-12)


class TestBeliefBound:
    def test_theorem6_never_reaches_lapack(self, monkeypatch, tmp_path):
        # the root search runs in plain floats; the first LAPACK call (the
        # companion eigenvalues of numpy.roots) cost about 0.8 MB of fig3's
        # peak RSS
        def refuse(*args, **kwargs):
            raise AssertionError("theorem 6 called LAPACK")

        monkeypatch.setattr(np, "roots", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for params in C07_GRID + NEAR_HALF + [CLOSE_ROOTS]:
            for variant in ("factor4", "printed"):
                belief_bound(params, variant)
        out = tmp_path / "fig3.csv"
        assert cli.main(["figure", "fig3", "--points", "5", "--samples", "2000",
                         "--burnin", "500", "--out", str(out)]) == 0
        assert len(out.read_text(encoding="ascii").splitlines()) == 6

    def test_frozen_values(self):
        params = MarkovHmmParams(0.1, 0.11)
        assert belief_bound(params).value == pytest.approx(0.7690814452112156, abs=1e-12)
        assert belief_bound(params, "printed").value == pytest.approx(
            0.71522197314705, abs=1e-12)

    def test_variant_labels(self):
        params = MarkovHmmParams(0.1, 0.11)
        assert belief_bound(params).variant == "factor4"
        assert belief_bound(params, "printed").variant == "printed"
        with pytest.raises(DomainError):
            belief_bound(params, "other")

    def test_factor4_dominates_printed(self):
        for a in (0.05, 0.11, 0.25):
            for q in (0.05, 0.2, 0.45):
                params = MarkovHmmParams(q, a)
                assert belief_bound(params).value >= belief_bound(params, "printed").value

    def test_zero_rate_limits(self):
        assert belief_bound(MarkovHmmParams(0.0, 0.11)).value == pytest.approx(
            binary_entropy(0.11), abs=0)
        assert belief_bound(MarkovHmmParams(0.1, 0.0)).value == pytest.approx(
            binary_entropy(0.1), abs=0)

    def test_saturates_at_half(self):
        assert belief_bound(MarkovHmmParams(0.5, 0.3)).value == 1.0

    def test_below_exact_window_entropy(self):
        for a, q in ((0.05, 0.1), (0.11, 0.1), (0.25, 0.3)):
            params = MarkovHmmParams(q, a)
            assert belief_bound(params).value <= exact_conditional_entropy(params, 16) + 1e-9


class TestEntropyRateMc:
    def test_deterministic_per_seed(self):
        params = MarkovHmmParams(0.1, 0.11)
        a = entropy_rate_mc(params, 5000, burnin=1000, seed=7)
        b = entropy_rate_mc(params, 5000, burnin=1000, seed=7)
        c = entropy_rate_mc(params, 5000, burnin=1000, seed=8)
        assert a == b
        assert a != c

    def test_exact_shortcut_rates(self):
        assert entropy_rate_mc(MarkovHmmParams(0.2, 0.0), 100) == (binary_entropy(0.2), 0.0)
        assert entropy_rate_mc(MarkovHmmParams(0.0, 0.2), 100) == (binary_entropy(0.2), 0.0)
        est, se = entropy_rate_mc(MarkovHmmParams(1e-9, 0.11), 100)
        assert est == binary_entropy(0.11) and se == 0.0

    def test_half_rates_give_one_exactly(self):
        est, se = entropy_rate_mc(MarkovHmmParams(0.5, 0.11), 2000, burnin=100, seed=1)
        assert est == 1.0
        assert se == 0.0
        est, _ = entropy_rate_mc(MarkovHmmParams(0.1, 0.5), 2000, burnin=100, seed=1)
        assert est == 1.0

    def test_tracks_exact_window_entropy(self):
        params = MarkovHmmParams(0.1, 0.11)
        est, se = entropy_rate_mc(params, 200_000, burnin=50_000, seed=3)
        exact = exact_conditional_entropy(params, 16)
        # the window entropy still sits a little above the true rate, so only
        # a one-sided check plus generous slack is meaningful here
        assert est <= exact + 4.0 * se + 1e-3
        assert est >= exact - 0.01

    def test_bounds_hold_in_simulation(self):
        for a in (0.05, 0.25):
            for q in (0.05, 0.3):
                params = MarkovHmmParams(q, a)
                est, se = entropy_rate_mc(params, 60_000, burnin=20_000,
                                          seed=(int(a * 100), 17))
                assert markov_series_bound(params).value <= est + 3.0 * se + 1e-3
                assert belief_bound(params).value <= est + 3.0 * se + 1e-3

    def test_rejects_bad_sizes(self):
        params = MarkovHmmParams(0.1, 0.11)
        with pytest.raises(DomainError):
            entropy_rate_mc(params, 0)
        with pytest.raises(DomainError):
            entropy_rate_mc(params, 100, burnin=-1)


class TestExactConditionalEntropy:
    def test_window_one_is_fair_bit(self):
        assert exact_conditional_entropy(MarkovHmmParams(0.1, 0.11), 1) == 1.0

    def test_noiseless_window_two_is_source_entropy(self):
        for q in (0.05, 0.2, 0.45):
            v = exact_conditional_entropy(MarkovHmmParams(q, 0.0), 2)
            assert v == pytest.approx(binary_entropy(q), abs=5e-15)

    def test_frozen_value(self):
        assert exact_conditional_entropy(MarkovHmmParams(0.1, 0.11), 16) == pytest.approx(
            0.7855342023381773, abs=1e-12)

    def test_nonincreasing_in_window(self):
        params = MarkovHmmParams(0.2, 0.11)
        vals = [exact_conditional_entropy(params, n) for n in range(1, 17)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_capped_at_one_near_half_alpha(self):
        # the prefix weights sum to 1 + eps here, so the unclamped sum tops 1
        for n in (12, 20):
            v = exact_conditional_entropy(MarkovHmmParams(0.1, 0.4999999), n)
            assert 1.0 - 1e-9 < v <= 1.0

    def test_window_cap(self):
        with pytest.raises(DimensionError):
            exact_conditional_entropy(MarkovHmmParams(0.1, 0.11), 21)
        with pytest.raises(DimensionError):
            exact_conditional_entropy(MarkovHmmParams(0.1, 0.11), 0)
