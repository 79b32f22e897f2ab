import math

import mpmath
import numpy as np
import pytest

from bscbounds import (
    DomainError,
    binary_convolve,
    binary_entropy,
    entropy_taylor,
    inv_binary_entropy,
)
from bscbounds.scalar import _conv, _entropy_vec, _h


def test_entropy_known_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)
    assert binary_entropy(0.188) == pytest.approx(0.6972688157923281, abs=1e-14)
    # symmetry around 1/2
    for p in (0.03, 0.2, 0.41):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-15)


def test_entropy_rejects_outside_unit_interval():
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)
    with pytest.raises(DomainError):
        binary_entropy(float("nan"))


def test_inverse_entropy_round_trip():
    assert inv_binary_entropy(0.0) == 0.0
    assert inv_binary_entropy(1.0) == 0.5
    assert inv_binary_entropy(0.5) == pytest.approx(0.110027864438, abs=1e-10)
    for u in np.linspace(0.0, 1.0, 257):
        u = float(u)
        p = inv_binary_entropy(u)
        assert 0.0 <= p <= 0.5
        assert binary_entropy(p) == pytest.approx(u, abs=1e-10)


def _entropy_50_digits(p):
    with mpmath.workdps(50):
        x = mpmath.mpf(p)
        return -(x * mpmath.log(x) + (1 - x) * mpmath.log1p(-x)) / mpmath.log(2)


def test_entropy_relative_precision_near_zero():
    # log2(1 - p) rounds to 0 below p ~ 1e-16 and took 2.1% off h(1e-20)
    grid = np.logspace(-300, math.log10(0.5), 601)
    want = np.array([float(_entropy_50_digits(float(p))) for p in grid])
    got = np.array([binary_entropy(float(p)) for p in grid])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13
    got = _entropy_vec(grid.copy(), np.empty_like(grid), np.empty_like(grid))
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


def test_inverse_entropy_relative_precision():
    # an absolute 1e-12 bracket gave h(inv(1e-15)) = 1.9e-11
    for u in np.logspace(-15, 0, 151):
        u = float(u)
        assert binary_entropy(inv_binary_entropy(u)) == pytest.approx(u, rel=1e-10, abs=0.0)


def _inv_entropy_50_digits(u):
    # bisection on t = -log2(p), p from 1/2 down to 2^-1100, in 50 digits
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(1), mpmath.mpf(1100)
        for _ in range(200):
            mid = (lo + hi) / 2
            if _entropy_50_digits(2 ** -mid) > u:
                lo = mid
            else:
                hi = mid
        return 2 ** -((lo + hi) / 2)


@pytest.mark.parametrize("u", [*np.logspace(-300, -1, 31), 0.25, 0.5, 0.75, 0.9,
                               *(1.0 - np.logspace(-1, -15, 15))])
def test_inverse_entropy_matches_50_digits(u):
    # within 1e-12 of p, plus what a few ulps of h move the root: near u = 1
    # h is flat and its rounding, not the search, sets the error
    u = float(u)
    want = _inv_entropy_50_digits(u)
    with mpmath.workdps(50):
        slope = float(mpmath.log((1 - want) / want) / mpmath.log(2))
        err = float(abs(inv_binary_entropy(u) - want))
    assert err <= 1e-12 * float(want) + 4 * 2.2e-16 * u / slope


def test_inverse_entropy_ends_for_subnormal_targets():
    for u in (5e-324, 1e-320, 1e-310):
        p = inv_binary_entropy(u)
        assert 0.0 <= p <= u


def test_inverse_entropy_monotone():
    grid = [inv_binary_entropy(float(u)) for u in np.linspace(0.0, 1.0, 101)]
    assert all(b >= a for a, b in zip(grid, grid[1:]))


def test_inverse_entropy_memo_is_bounded_and_checks_every_call():
    from bscbounds import scalar

    grid = np.linspace(0.0, 1.0, 5001).tolist()
    first = [inv_binary_entropy(u) for u in grid]
    assert scalar._inv_h.cache_info().currsize <= 4096
    # repeats, from the memo or searched afresh after eviction, are the same floats
    assert [inv_binary_entropy(u) for u in grid] == first
    assert all(type(p) is float for p in first)
    scalar._inv_h.cache_clear()
    assert [inv_binary_entropy(u) for u in grid[::-1]] == first[::-1]
    # a remembered u still passes the range check in every other form
    inv_binary_entropy(0.5)
    assert inv_binary_entropy(np.float64(0.5)) == inv_binary_entropy(0.5)
    for bad in (-0.5, 1.5, float("nan"), "0.5x"):
        with pytest.raises(DomainError):
            inv_binary_entropy(bad)


def test_convolve_basics():
    assert binary_convolve(0.0, 0.3) == 0.3
    assert binary_convolve(0.5, 0.05) == 0.5
    assert binary_convolve(0.2, 0.2) == pytest.approx(0.32, abs=1e-15)
    assert binary_convolve(0.11, 0.1) == pytest.approx(0.188, abs=1e-15)
    # commutative, and never below either argument on [0, 1/2]
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = (float(v) * 0.5 for v in rng.random(2))
        c = binary_convolve(a, b)
        assert c == pytest.approx(binary_convolve(b, a), abs=1e-16)
        assert c >= max(a, b) - 1e-15
        assert c <= 0.5 + 1e-15


def test_taylor_one_term():
    # 1 - log2(e)/2 exactly, nothing else survives a single term at p=1
    assert entropy_taylor(1.0, 1) == pytest.approx(1.0 - math.log2(math.e) / 2.0, abs=1e-15)


def test_taylor_converges_to_entropy():
    # h(1/2 + p/2) at p = 0.2 is h(0.6)
    assert entropy_taylor(0.2, 50) == pytest.approx(binary_entropy(0.6), abs=1e-12)
    assert entropy_taylor(0.0, 5) == 1.0
    assert entropy_taylor(-0.2, 50) == pytest.approx(binary_entropy(0.6), abs=1e-12)


def test_taylor_partial_sums_decrease():
    vals = [entropy_taylor(0.9, k) for k in range(1, 40)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= binary_entropy(0.95) - 1e-6


def test_taylor_rejects_bad_arguments():
    with pytest.raises(DomainError):
        entropy_taylor(1.5, 10)
    with pytest.raises(DomainError):
        entropy_taylor(0.2, 0)
    with pytest.raises(DomainError):
        entropy_taylor(0.2, -3)


def test_unchecked_kernels_match_the_checked_functions():
    # the bounds call _h and _conv on values they checked or computed; the
    # public functions are the same kernels behind a range check
    grid = (0.0, 5e-324, 1e-300, 1e-9, 0.11, 0.5, 0.7, 1.0 - 1e-16, 1.0)
    for p in grid:
        assert _h(p) == binary_entropy(p), p
        for b in grid:
            assert _conv(p, b) == binary_convolve(p, b), (p, b)
    for bad in (-1e-300, 1.0 + 1e-15, math.nan):
        with pytest.raises(DomainError):
            binary_entropy(bad)
        with pytest.raises(DomainError):
            binary_convolve(0.2, bad)
        with pytest.raises(DomainError):
            binary_convolve(bad, 0.2)
