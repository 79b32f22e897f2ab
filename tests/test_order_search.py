"""The subset dynamic program behind every prediction-order search, checked
against brute force over all n! orders."""

import itertools
import math

import numpy as np
import pytest

from bscbounds import (
    DimensionError,
    ExplicitPmf,
    best_case_mmse_given_output,
    conditional_mmse,
    conditional_vector_mmse_gerber,
    greedy_permutation,
    markov_joint_pmf,
    memory_noise_term,
    noise_profile,
    noisy_conditional_mmse,
    random_pmf,
    vector_memory_noise,
    vector_mmse_gerber,
    vector_upper,
    worst_case_mmse,
)
from bscbounds import dist
from bscbounds.dist import _best_orders, _cost_tables, _mmse_kernel

ALPHAS = (0.0, 0.11, 0.3)
SIZES = range(1, 8)


def _corpus(n):
    pmfs = [random_pmf(n, seed=10 * n + k) for k in range(2)]
    pmfs += [markov_joint_pmf(n, q) for q in (0.05, 0.2, 0.45)]
    pmfs.append(ExplicitPmf(np.full(1 << n, 1.0 / (1 << n))))
    pmfs.append(ExplicitPmf(np.eye(1, 1 << n)[0]))
    return pmfs


def _enumerate_orders(n, cost, pick_max):
    """The n! search the dynamic program replaced: the optimal left-to-right
    sum and the lexicographically first order reaching it."""
    cost = cost.tolist()
    best = -math.inf if pick_max else math.inf
    best_order = ()
    for perm in itertools.permutations(range(1, n + 1)):
        mask = 0
        tot = 0.0
        for j in perm:
            tot += cost[mask][j - 1]
            mask |= 1 << (j - 1)
        if (tot > best) if pick_max else (tot < best):
            best, best_order = tot, perm
    return best, best_order


def _orders_with_prefixes(n, step):
    """Every order, lexicographically, with the set and the left-to-right sum
    after each of its steps."""
    perms = np.array(list(itertools.permutations(range(n))))
    sets = np.cumsum(1 << perms, axis=1)
    before = sets - (1 << perms)
    sums = np.empty(perms.shape)
    tot = np.zeros(len(perms))
    for k in range(n):
        tot = tot + step[before[:, k], perms[:, k]]
        sums[:, k] = tot
    return perms + 1, sets, sums


def _tie_rule_order(n, step, pick_max):
    """Lexicographically first order whose every prefix sum is the optimum
    over all orders of the same set."""
    perms, sets, sums = _orders_with_prefixes(n, step)
    best = np.full(1 << n, -np.inf if pick_max else np.inf)
    (np.maximum if pick_max else np.minimum).at(best, sets, sums)
    first = np.flatnonzero((sums == best[sets]).all(axis=1))[0]
    return tuple(int(j) for j in perms[first])


def _oracle_cost(pmf, alpha):
    """cost[mask, j-1] from the one-query functions, NaN where j is in mask."""
    n = pmf.n
    cost = np.full((1 << n, n), np.nan)
    for mask in range(1 << n):
        given = [k for k in range(1, n + 1) if mask >> (k - 1) & 1]
        for j in range(1, n + 1):
            if j not in given:
                cost[mask, j - 1] = (noisy_conditional_mmse(pmf, j, given, alpha) if alpha
                                     else conditional_mmse(pmf, j, given))
    return cost


def _oracle_entropies(pmf):
    n = pmf.n
    ent = np.zeros(1 << n)
    for mask in range(1 << n):
        drop = tuple(n - k for k in range(1, n + 1) if not mask >> (k - 1) & 1)
        m = pmf.weights.reshape((2,) * n).sum(axis=drop).ravel()
        m = m[m > 0.0]
        ent[mask] = float(-(m * np.log2(m)).sum())
    return ent


def _path_sum(step, order):
    mask = 0
    tot = 0.0
    for j in order:
        tot += step[mask, j - 1]
        mask |= 1 << (j - 1)
    return tot


@pytest.mark.parametrize("n", [1, 3, 5])
def test_cost_table_matches_one_query_functions(n):
    for pmf in _corpus(n):
        for alpha in ALPHAS:
            got = _cost_tables([pmf], alpha, _mmse_kernel)[0]
            want = _oracle_cost(pmf, alpha)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            # sums of at most 2**(n-1) contexts, taken in another order
            assert np.abs(got[ok] - want[ok]).max() <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("n", SIZES)
def test_dynamic_program_equals_enumeration(n):
    for pmf in _corpus(n):
        for alpha in ALPHAS:
            step = _cost_tables([pmf], alpha, _mmse_kernel)[0]
            for pick_max in (True, False):
                value, order = _best_orders(n, [step], pick_max)[0]
                brute, _ = _enumerate_orders(n, step, pick_max)
                assert value == brute
                assert _path_sum(step, order) == value
                assert order == _tie_rule_order(n, step, pick_max)


@pytest.mark.parametrize("n", SIZES)
def test_shared_order_search_matches_brute_force(n):
    family = [(0.5, random_pmf(n, seed=n)), (0.3, markov_joint_pmf(n, 0.1)),
              (0.2, markov_joint_pmf(n, 0.35))]
    res = conditional_vector_mmse_gerber(family, 0.11)
    tables = [(wt, _oracle_cost(pmf, 0.0)) for wt, pmf in family]
    totals = {p: sum(wt * _path_sum(c, p) for wt, c in tables)
              for p in itertools.permutations(range(1, n + 1))}
    best = max(totals.values())
    assert res.inputs["mmse"] == pytest.approx(best, abs=1e-12)
    assert totals[res.inputs["order"]] == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("n", SIZES)
def test_memory_noise_search_matches_brute_force(n):
    x = random_pmf(n, seed=100 + n)
    z = markov_joint_pmf(n, 0.15)
    res = vector_memory_noise(x, z)
    cost = _oracle_cost(x, 0.0)
    ent = _oracle_entropies(z)

    def bound(order):
        # H(Z) + 4 sum M_i - 4 sum H_i M_i, the form the search used to enumerate
        mask = 0
        msum = cross = 0.0
        for j in order:
            nxt = mask | 1 << (j - 1)
            c = cost[mask, j - 1]
            msum += c
            cross += min(max(ent[nxt] - ent[mask], 0.0), 1.0) * c
            mask = nxt
        return ent[-1] + 4.0 * msum - 4.0 * cross

    totals = {p: bound(p) for p in itertools.permutations(range(1, n + 1))}
    best = max(totals.values())
    assert res.value == pytest.approx(best, abs=1e-12)
    assert totals[res.inputs["order"]] == pytest.approx(best, abs=1e-12)
    assert memory_noise_term(x, z, res.inputs["order"]) == res.value


_X9 = random_pmf(9, seed=0)
_Z9 = markov_joint_pmf(9, 0.15)
_ORDER9 = tuple(range(1, 10))


@pytest.mark.parametrize("search", [
    lambda: worst_case_mmse(_X9),
    lambda: best_case_mmse_given_output(_X9, 0.11),
    lambda: vector_mmse_gerber(_X9, 0.11),
    lambda: vector_upper(_X9, 0.11),
    lambda: conditional_vector_mmse_gerber([(1.0, _X9)], 0.11),
    lambda: vector_memory_noise(_X9, _Z9),
    lambda: memory_noise_term(_X9, _Z9, _ORDER9),
    lambda: noise_profile(_Z9, _ORDER9),
    lambda: greedy_permutation(_X9),
], ids=["worst_case_mmse", "best_case_mmse_given_output", "vector_mmse_gerber",
        "vector_upper", "conditional_vector_mmse_gerber", "vector_memory_noise",
        "memory_noise_term", "noise_profile", "greedy_permutation"])
def test_every_table_builder_refuses_n_above_cap_before_allocating(monkeypatch, search):
    def refuse(*args, **kwargs):
        raise AssertionError("the size must be checked before any table is built")

    monkeypatch.setattr(dist, "_expand", refuse)
    with pytest.raises(DimensionError, match="cap 8"):
        search()
