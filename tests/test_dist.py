import copy
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from bscbounds import dist, validate
from bscbounds import (
    DimensionError,
    DomainError,
    ExplicitPmf,
    MAX_COORDS,
    apply_bsc,
    apply_bsc_many,
    best_case_mmse_given_output,
    best_case_mmse_given_output_many,
    conditional_vector_mmse_gerber,
    conditional_mmse,
    counterexample_pmf,
    entropy,
    entropy_many,
    greedy_permutation,
    markov_joint_pmf,
    mmse_along_permutation,
    noise_profile,
    noisy_conditional_mmse,
    random_pmf,
    read_pmf,
    vector_mmse_gerber,
    worst_case_mmse,
    worst_case_mmse_many,
    write_pmf,
)


def _product(margs):
    w = np.ones(1)
    for p in margs:
        w = np.concatenate([w * (1.0 - p), w * p])
    return ExplicitPmf(w)


def _minor_perms(n):
    return list(itertools.permutations(range(1, n + 1)))


class TestExplicitPmf:
    def test_infers_n_from_length(self):
        assert ExplicitPmf([0.25] * 4).n == 2
        assert ExplicitPmf([0.125] * 8).n == 3
        assert ExplicitPmf([0.5, 0.5]).n == 1

    def test_repr_names_only_n(self):
        assert repr(ExplicitPmf([0.5, 0.5])) == "ExplicitPmf(n=1)"

    def test_renormalizes_within_tolerance(self):
        w = np.full(4, 0.25)
        w[0] += 3e-10
        pmf = ExplicitPmf(w)
        assert float(pmf.weights.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            ExplicitPmf([0.5, 0.5, 0.5])  # not a power of two
        with pytest.raises(DomainError):
            ExplicitPmf([1.5, -0.5])  # negative
        with pytest.raises(DomainError):
            ExplicitPmf([0.7, 0.7])  # way off normalization
        with pytest.raises(DomainError):
            ExplicitPmf([math.inf, 0.0])
        for bad in (["a", "b"], [[0.5], [0.25, 0.25]], [object(), 0.5]):
            with pytest.raises(DomainError, match="weights must be real numbers"):
                ExplicitPmf(bad)
        with pytest.raises(DimensionError):
            ExplicitPmf(np.full(1 << 17, 1.0 / (1 << 17)))

    def test_immutable(self):
        pmf = ExplicitPmf([0.25] * 4)
        with pytest.raises(AttributeError):
            pmf.n = 3
        with pytest.raises(ValueError):
            pmf.weights[0] = 1.0
        worst_case_mmse(pmf)
        for name in ("n", "weights", "_memo", "other"):
            with pytest.raises(AttributeError):
                setattr(pmf, name, {})

    @pytest.mark.parametrize("copier", [lambda p: pickle.loads(pickle.dumps(p)),
                                        copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_pickle_and_copy_keep_the_weights_and_drop_the_memo(self, copier):
        for pmf in (random_pmf(5, seed=8), markov_joint_pmf(7, 0.3), ExplicitPmf([0.0, 1.0])):
            worst = worst_case_mmse(pmf)
            twin = copier(pmf)
            assert twin is not pmf and twin.n == pmf.n
            assert np.array_equal(twin.weights, pmf.weights)
            assert twin.weights is not pmf.weights and not twin.weights.flags.writeable
            assert twin._memo == {} and pmf._memo
            with pytest.raises(AttributeError):
                twin.n = 3
            assert worst_case_mmse(twin) == worst


PMF_TAKERS = {
    "entropy": entropy,
    "apply_bsc": lambda pmf: apply_bsc(pmf, 0.1),
    "worst_case_mmse": worst_case_mmse,
    "best_case_mmse_given_output": lambda pmf: best_case_mmse_given_output(pmf, 0.1),
    "greedy_permutation": greedy_permutation,
    "conditional_mmse": lambda pmf: conditional_mmse(pmf, 1),
    "noisy_conditional_mmse": lambda pmf: noisy_conditional_mmse(pmf, 1, [2], 0.1),
    "mmse_along_permutation": lambda pmf: mmse_along_permutation(pmf, (1, 2)),
}


@pytest.mark.parametrize("call", PMF_TAKERS.values(), ids=PMF_TAKERS.keys())
@pytest.mark.parametrize("bad", [[0.5, 0.5], None, np.full(4, 0.25)],
                         ids=["list", "none", "array"])
def test_pmf_functions_refuse_non_pmfs(call, bad):
    with pytest.raises(DomainError, match="pmf must be an ExplicitPmf"):
        call(bad)


@pytest.mark.parametrize("bad", [[0.5, 0.5], None], ids=["list", "none"])
def test_write_pmf_refuses_a_non_pmf_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "bad.pmf"
    with pytest.raises(DomainError, match="pmf must be an ExplicitPmf"):
        write_pmf(bad, str(path))
    assert not path.exists()


class TestEntropy:
    def test_uniform_and_point_mass(self):
        assert entropy(ExplicitPmf([0.25] * 4)) == pytest.approx(2.0, abs=1e-12)
        assert entropy(ExplicitPmf([1.0, 0.0, 0.0, 0.0])) == 0.0

    def test_point_mass_entropy_is_positive_zero(self):
        # a -0.0 printed as "-0" in pmf-mmse's entropy lines
        point = ExplicitPmf([1.0, 0.0, 0.0, 0.0])
        got = [entropy(point), *entropy_many([point, ExplicitPmf([0.0, 1.0]), point])]
        assert [math.copysign(1.0, v) for v in got] == [1.0] * 4

    def test_product_of_biased_bits(self):
        pmf = _product([0.11, 0.11])
        assert entropy(pmf) == pytest.approx(0.9998319163290559, abs=1e-12)


class TestConditionalMmse:
    def test_unconditional_is_variance(self):
        pmf = _product([0.3, 0.5])
        assert conditional_mmse(pmf, 1) == pytest.approx(0.21, abs=1e-15)
        assert conditional_mmse(pmf, 2) == pytest.approx(0.25, abs=1e-15)

    def test_markov_neighbor(self):
        pmf = markov_joint_pmf(2, 0.2)
        assert conditional_mmse(pmf, 2, [1]) == pytest.approx(0.16, abs=1e-15)

    def test_rejects_bad_coordinates(self):
        pmf = _product([0.3, 0.5])
        with pytest.raises(DomainError):
            conditional_mmse(pmf, 3)
        with pytest.raises(DomainError):
            conditional_mmse(pmf, 1, [1])
        with pytest.raises(DomainError):
            conditional_mmse(pmf, 0, [1])


class TestMmseAlongPermutation:
    def test_markov_dyadic_value(self):
        pmf = markov_joint_pmf(3, 0.2)
        # 1/4 + MMSE(X3|X1) + MMSE(X2|X1,X3), frozen from the direct
        # eight-outcome enumeration
        assert mmse_along_permutation(pmf, (1, 3, 2)) == pytest.approx(
            0.5852470588235295, abs=1e-12)

    def test_order_matters_on_markov(self):
        pmf = markov_joint_pmf(3, 0.2)
        ident = mmse_along_permutation(pmf, (1, 2, 3))
        dy = mmse_along_permutation(pmf, (1, 3, 2))
        assert dy > ident

    def test_product_is_order_invariant(self):
        pmf = _product([0.2, 0.35, 0.45])
        vals = {round(mmse_along_permutation(pmf, p), 13) for p in _minor_perms(3)}
        assert len(vals) == 1

    def test_rejects_non_permutation(self):
        pmf = _product([0.2, 0.35])
        with pytest.raises(DomainError):
            mmse_along_permutation(pmf, (1, 1))
        with pytest.raises(DomainError):
            mmse_along_permutation(pmf, (1,))

    @staticmethod
    def _chain(pmf, order):
        """The chain of one conditional_mmse call per term that the one-pass
        form replaced, added left to right."""
        total = 0.0
        for i, j in enumerate(order):
            total += conditional_mmse(pmf, j, order[:i])
        return total

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_chain_of_conditional_mmse(self, n):
        rng = np.random.default_rng(n)
        pmfs = [random_pmf(n, seed=s) for s in range(3)]
        pmfs += [markov_joint_pmf(n, q) for q in (0.05, 0.3)]
        # p = 0 and 1 leave whole contexts without mass
        pmfs += [_product(rng.choice([0.0, 1.0, 0.3, 0.7], size=n)) for _ in range(3)]
        pmfs += [_product([0.0] * n), _product([1.0] * n)]
        if n == 2:
            pmfs += [counterexample_pmf(eps) for eps in (1e-9, 0.1, 0.25, 0.5 - 1e-9)]
        for pmf in pmfs:
            for perm in _minor_perms(n):
                assert abs(mmse_along_permutation(pmf, perm) - self._chain(pmf, perm)) <= 1e-15

    @staticmethod
    def _one_order(pmf, order):
        """The per-order loop the batch pass replaced: each term a masked sum
        over the contexts with mass, the terms added in prediction order."""
        n = pmf.n
        t = pmf.weights.reshape((2,) * n).transpose([n - j for j in order])
        terms = []
        for _ in order:
            a, b = t[..., 0], t[..., 1]
            t = a + b
            mask = t > 0.0
            terms.append(float((a[mask] * b[mask] / t[mask]).sum()))
        total = 0.0
        for v in reversed(terms):
            total += v
        return total

    @staticmethod
    def _order_pmfs(n):
        """pmfs whose terms the one-pass form adds exactly as the per-order
        loop does, and products with zero-mass contexts, where the loop's
        masked sum may differ by a rounding."""
        rng = np.random.default_rng(n)
        full = [random_pmf(n, seed=s) for s in range(3)]
        full += [markov_joint_pmf(n, q) for q in (0.05, 0.3)]
        full += [_product(rng.uniform(0.05, 0.95, size=n)) for _ in range(2)]
        # p = 0 and 1 leave whole contexts without mass
        sparse = [_product(rng.choice([0.0, 1.0, 0.3, 0.7], size=n)) for _ in range(3)]
        sparse += [_product([0.0] * n), _product([1.0] * n)]
        if n == 2:
            full += [counterexample_pmf(eps) for eps in (1e-9, 0.1, 0.25, 0.5 - 1e-9)]
        return full, sparse

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_orders_in_one_pass_match_the_per_order_loop(self, n):
        full, sparse = self._order_pmfs(n)
        perms = _minor_perms(n)
        for pmfs, exact in ((full, True), (sparse, False)):
            for pmf in pmfs:
                got = dist._mmse_along_orders_many([pmf], perms)[0]
                want = np.array([self._one_order(pmf, perm) for perm in perms])
                assert got.shape == (len(perms),)
                if exact:
                    assert np.array_equal(got, want)
                else:
                    assert np.max(np.abs(got - want)) <= 1e-15
                assert [mmse_along_permutation(pmf, perm) for perm in perms] == got.tolist()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_pmf_in_one_pass_matches_each_pmf_alone(self, n):
        full, sparse = self._order_pmfs(n)
        perms = _minor_perms(n)
        for orders in (perms, perms[::-2]):
            got = dist._mmse_along_orders_many(full + sparse, orders)
            assert got.shape == (len(full) + len(sparse), len(orders))
            for pmf, row in zip(full + sparse, got):
                assert np.array_equal(row, dist._mmse_along_orders_many([pmf], orders)[0])
            want = np.array([[self._one_order(pmf, perm) for perm in orders] for pmf in full])
            assert np.array_equal(got[:len(full)], want)

    @pytest.mark.parametrize("n", range(6, 9))
    def test_one_order_matches_the_per_order_loop_bit_for_bit(self, n):
        perms = _minor_perms(n)[::97]
        for pmf in (random_pmf(n, seed=n), markov_joint_pmf(n, 0.2)):
            for perm in perms:
                assert mmse_along_permutation(pmf, perm) == self._one_order(pmf, perm)


class TestWorstCase:
    def test_iid_fair_bits(self):
        val, order = worst_case_mmse(ExplicitPmf([0.125] * 8))
        assert val == pytest.approx(0.75, abs=1e-15)
        assert order == (1, 2, 3)  # ties break to the first order tried

    def test_point_mass(self):
        val, order = worst_case_mmse(ExplicitPmf([1.0, 0.0, 0.0, 0.0]))
        assert val == 0.0
        assert order == (1, 2)

    def test_dominates_every_order(self):
        pmf = random_pmf(4, seed=11)
        val, _ = worst_case_mmse(pmf)
        for perm in _minor_perms(4):
            assert val >= mmse_along_permutation(pmf, perm) - 1e-12

    def test_cap_enforced(self):
        pmf = random_pmf(9, seed=0)
        with pytest.raises(DimensionError):
            worst_case_mmse(pmf)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_memoized_result_equals_a_fresh_search(self, n):
        for make in (lambda: random_pmf(n, seed=n), lambda: markov_joint_pmf(n, 0.2)):
            pmf = make()
            first = worst_case_mmse(pmf)
            vector_mmse_gerber(pmf, 0.11)
            assert worst_case_mmse(pmf) == first
            fresh = make()
            assert np.array_equal(fresh.weights, pmf.weights)
            assert worst_case_mmse(fresh) == first


class TestSearchSetup:
    """Per-n plans and the per-pmf memo are shared between calls, so none of
    their arrays may be written."""

    @staticmethod
    def _assert_read_only(arr):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1

    def test_plans_are_read_only(self):
        for n in range(1, 9):
            for arr in dist._cost_plan(n):
                self._assert_read_only(arr)
            for level in dist._lattice(n):
                for arr in level:
                    self._assert_read_only(arr)

    def test_plans_refuse_sizes_above_cap(self):
        for plan in (dist._cost_plan, dist._lattice):
            with pytest.raises(DimensionError):
                plan(9)

    def test_memo_holds_the_read_only_clean_table(self):
        pmf = random_pmf(4, seed=3)
        conditional_vector_mmse_gerber([(1.0, pmf)], 0.11)
        noise_profile(pmf, (1, 2, 3, 4))
        kernels = (dist._mmse_kernel, dist._entropy_kernel)
        for kernel in kernels:
            table = dist._cost_table(pmf, kernel=kernel)
            assert pmf._memo[kernel] is table
            self._assert_read_only(table)
            noisy = dist._cost_tables([pmf], 0.11, kernel)[0]
            assert noisy.flags.writeable and noisy is not dist._cost_tables([pmf], 0.11, kernel)[0]
        assert set(pmf._memo) == set(kernels)


# The all-subset tables as they were built before _expand and _fold wrote
# into one preallocated array: one concatenate or stack copy per axis, the
# target-first weight layout, a masked divide, and a lattice of removed
# columns walked over numpy scalars. The references build every index from
# n alone, so they share no layout with dist's private plans. The current
# cost tables must equal these exactly, NaN entries included; the entropy
# table, summed per context, is held to the subset entropies' differences,
# and each member of a stacked build to a masked-log reference exactly.


def _ref_expand(t, axes):
    for ax in axes:
        t = np.concatenate((t, t.sum(axis=ax, keepdims=True)), axis=ax)
    return t


def _ref_fold(r, axes):
    for ax in axes:
        r = np.stack((r.take(2, axis=ax), r.take(0, axis=ax) + r.take(1, axis=ax)), axis=ax)
    return r


def _ref_mmse_terms(a, b):
    tot = a + b
    return np.divide(a * b, tot, out=np.zeros_like(tot), where=tot > 0.0)


def _ref_entropy_terms(a, b):
    # -m log2(m / (a + b)) for each m > 0 of the pair, in the order a, b
    tot = a + b
    ctx = np.zeros_like(tot)
    for m in (a, b):
        r = np.divide(m, tot, out=np.zeros_like(tot), where=tot > 0.0)
        ctx -= np.log2(r, out=np.zeros_like(r), where=r > 0.0) * m
    return ctx


def _ref_cost_table(pmf, alpha, terms=_ref_mmse_terms):
    # target-first layout: flat index (j-1, x_j, the other n-1 bits)
    n = pmf.n
    packed = np.arange(1 << (n - 1))
    bit = np.arange(n)[:, None]
    masks = (packed & ((1 << bit) - 1)) | ((packed >> bit) << (bit + 1))
    gather = (masks[:, None, :] | (np.arange(2)[:, None] << bit[:, None])).reshape(-1)
    t = pmf.weights[gather]
    if alpha:
        for s in range(n - 1):
            t = dist._channel_mix(t, s, alpha)
    t = _ref_expand(t.reshape((n, 2) + (2,) * (n - 1)), range(n, 1, -1))
    folded = _ref_fold(terms(t[:, 0], t[:, 1]), range(1, n)).reshape(n, -1)
    cost = np.full((1 << n, n), np.nan)
    cost[masks, bit] = folded
    return cost


def _ref_subset_entropies(pmf):
    n = pmf.n
    m = _ref_expand(pmf.weights.reshape((2,) * n), range(n - 1, -1, -1))
    terms = np.zeros_like(m)
    pos = m > 0.0
    terms[pos] = -m[pos] * np.log2(m[pos])
    return _ref_fold(terms, range(n)).reshape(-1)


def _ref_lattice(n):
    """Per subset size: the masks, their one-smaller masks and the removed
    bit index, enumerated bit by bit."""
    levels = []
    for k in range(1, n + 1):
        sub = np.array([m for m in range(1 << n) if bin(m).count("1") == k])
        col = np.array([[j for j in range(n) if m >> j & 1] for m in sub]).reshape(-1, k)
        levels.append((sub, sub[:, None] ^ (1 << col), col))
    return levels


def _ref_best_order(n, step, pick_max):
    lattice = _ref_lattice(n)
    opt = np.max if pick_max else np.min
    best = np.zeros(1 << n)
    tight = []
    for sub, pred, col in lattice:
        cand = best[pred] + step[pred, col]
        best[sub] = top = opt(cand, axis=1)
        tight.append(cand == top[:, None])
    reach = np.zeros(1 << n, dtype=bool)
    reach[-1] = True
    for (sub, pred, _), edge in zip(reversed(lattice), reversed(tight)):
        reach[pred[edge & reach[sub][:, None]]] = True
    order = []
    mask = 0
    for _ in range(n):
        j = next(j for j in range(n)
                 if not mask >> j & 1 and reach[mask | 1 << j]
                 and best[mask] + step[mask, j] == best[mask | 1 << j])
        order.append(j + 1)
        mask |= 1 << j
    return float(best[-1]), tuple(order)


def _table_pmfs(n):
    """Random, Markov (one with q = 0, which ties every order) and point-mass
    pmfs; point masses leave most contexts with zero mass."""
    size = 1 << n
    pmfs = [random_pmf(n, seed=40 + n), markov_joint_pmf(n, 0.2), markov_joint_pmf(n, 0.0)]
    for idx in {0, size - 1, 5 % size}:
        w = np.zeros(size)
        w[idx] = 1.0
        pmfs.append(ExplicitPmf(w))
    w = np.zeros(size)
    w[[0, size - 1]] = 0.5
    pmfs.append(ExplicitPmf(w))
    return pmfs


class TestTablesMatchTheCopyingBuild:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cost_tables_and_orders(self, n):
        for pmf in _table_pmfs(n):
            for alpha in (0.0, 0.11, 0.5):
                want = _ref_cost_table(pmf, alpha)
                got = dist._cost_tables([pmf], alpha, dist._mmse_kernel)[0]
                assert np.array_equal(got, want, equal_nan=True)
                for pick_max in (True, False):
                    value, order = dist._best_orders(n, [got], pick_max)[0]
                    assert type(value) is float
                    assert (value, order) == _ref_best_order(n, want, pick_max)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_subset_entropies(self, n):
        # H(X_j | X_mask) = H(X_mask, X_j) - H(X_mask), read off the subset
        # entropies; the table sums each context's entropy term instead
        masks = np.arange(1 << n)[:, None]
        for pmf in _table_pmfs(n):
            ent = _ref_subset_entropies(pmf)
            want = ent[masks | (1 << np.arange(n))] - ent[masks]
            got = dist._cost_table(pmf, kernel=dist._entropy_kernel)
            defined = ~np.isnan(got)
            assert np.array_equal(defined, ~np.isnan(dist._cost_table(pmf)))
            assert np.all(got[defined] >= 0.0)
            assert np.max(np.abs(got - want)[defined]) <= 1e-14

    def test_expand_and_fold_leave_their_input_alone(self):
        rng = np.random.default_rng(5)
        t = rng.random((2, 2, 2, 3))
        keep = t.copy()
        m = dist._expand(t, 3)
        assert np.array_equal(t, keep)
        assert np.array_equal(m, _ref_expand(t, (2, 1, 0)))
        before = m.copy()
        assert np.array_equal(dist._fold(m, 3), _ref_fold(m, (0, 1, 2)))
        assert np.array_equal(m, before)


def _record_stack_sizes(monkeypatch):
    """Patch the stacked builder to append each stack's size to the list
    returned."""
    sizes = []
    real = dist._build_cost_tables

    def counted(weights, alpha, kernel):
        sizes.append(math.prod(weights.shape[1:]))  # a lone pmf has no batch axis
        return real(weights, alpha, kernel)

    monkeypatch.setattr(dist, "_build_cost_tables", counted)
    return sizes


class TestStackedSearch:
    """The `_many` searches run pmfs in lockstep stacks; each result must be
    the single call's, bit for bit, with the single call's memo."""

    @pytest.mark.parametrize("entries", [None, 1 << 24], ids=["cut", "uncut"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_many_equals_the_single_calls(self, n, entries, monkeypatch):
        # uncut, every n shares one stack; cut, n = 8 runs one pmf a stack
        if entries:
            monkeypatch.setattr(dist, "_STACK_ENTRIES", entries)
        stacked, single = _table_pmfs(n), _table_pmfs(n)
        assert worst_case_mmse_many(stacked) == [worst_case_mmse(p) for p in single]
        for alpha in (0.0, 0.11, 0.5):
            assert (best_case_mmse_given_output_many(stacked, alpha)
                    == [best_case_mmse_given_output(p, alpha) for p in single])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_stacked_table_equals_the_copying_build(self, n):
        for kernel, terms in ((dist._mmse_kernel, _ref_mmse_terms),
                              (dist._entropy_kernel, _ref_entropy_terms)):
            for alpha in (0.0, 0.11, 0.5):
                pmfs = _table_pmfs(n)
                tables = dist._cost_tables(pmfs, alpha, kernel)
                assert len(tables) == len(pmfs)
                for pmf, got in zip(pmfs, tables):
                    assert got.shape == (1 << n, n)
                    want = _ref_cost_table(pmf, alpha, terms)
                    assert np.array_equal(got, want, equal_nan=True)

    def test_mixed_sizes_come_back_in_input_order(self):
        make = [lambda s=s: random_pmf(2 + s % 3, seed=s) for s in range(11)]
        make.append(lambda: markov_joint_pmf(3, 0.0))
        stacked, single = [m() for m in make], [m() for m in make]
        assert [p.n for p in stacked[:4]] == [2, 3, 4, 2]
        assert worst_case_mmse_many(iter(stacked)) == [worst_case_mmse(p) for p in single]
        assert (best_case_mmse_given_output_many(stacked, 0.11)
                == [best_case_mmse_given_output(p, 0.11) for p in single])
        assert worst_case_mmse_many([]) == []
        assert best_case_mmse_given_output_many([], 0.11) == []

    def test_bad_arguments_raise_before_any_table_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the arguments must be checked before any table is built")

        monkeypatch.setattr(dist, "_build_cost_tables", refuse)
        good = random_pmf(2, seed=1)
        for bad in ([0.5, 0.5], None, np.full(4, 0.25)):
            with pytest.raises(DomainError, match="pmf must be an ExplicitPmf"):
                worst_case_mmse_many([good, bad])
            with pytest.raises(DomainError, match="pmf must be an ExplicitPmf"):
                best_case_mmse_given_output_many([good, bad], 0.11)
        for pmfs in (None, 3, good):
            with pytest.raises(DomainError, match="iterable"):
                worst_case_mmse_many(pmfs)
        for alpha in (-0.1, 0.6, math.nan, "x"):
            with pytest.raises(DomainError):
                best_case_mmse_given_output_many([good], alpha)
        # the n = 2 member is first, so its stack would be built first
        mixed = [good, random_pmf(9, seed=0)]
        with pytest.raises(DimensionError, match="cap 8"):
            worst_case_mmse_many(mixed)
        with pytest.raises(DimensionError, match="cap 8"):
            best_case_mmse_given_output_many(mixed, 0.11)

    def test_memo_holds_what_the_single_call_leaves(self):
        stacked = [random_pmf(3, seed=s) for s in range(4)] + [markov_joint_pmf(4, 0.2)]
        single = [copy.copy(p) for p in stacked]  # the same weights, an empty memo
        found = worst_case_mmse_many(stacked)
        for pmf, alone, result in zip(stacked, single, found):
            assert worst_case_mmse(alone) == result
            assert set(pmf._memo) == set(alone._memo) == {dist._mmse_kernel, "worst"}
            assert pmf._memo["worst"] == result
            table = pmf._memo[dist._mmse_kernel]
            assert not table.flags.writeable
            assert np.array_equal(table, alone._memo[dist._mmse_kernel], equal_nan=True)
            # later calls read the memo instead of searching again
            assert dist._cost_table(pmf) is table
            assert worst_case_mmse(pmf) is result

    def test_kept_results_are_not_searched_again(self, monkeypatch):
        pmfs = [random_pmf(3, seed=s) for s in range(3)]
        first = worst_case_mmse(pmfs[1])
        sizes = _record_stack_sizes(monkeypatch)
        found = worst_case_mmse_many(pmfs)
        assert found[1] is first
        assert sizes == [2]


class TestBoundedStacks:
    """A same-n group is cut so that no stacked expanded table holds more
    than _STACK_ENTRIES doubles."""

    def test_stack_sizes(self, monkeypatch):
        sizes = _record_stack_sizes(monkeypatch)
        # one n = 8 expanded table is 2 * 8 * 3**7 = 34,992 doubles
        worst_case_mmse_many([random_pmf(8, seed=s) for s in range(40)])
        assert sizes == [1] * 40
        # one n = 4 table is 2 * 4 * 3**3 = 216, so 303 fit under 2**16
        sizes.clear()
        best_case_mmse_given_output_many([random_pmf(4, seed=s) for s in range(400)], 0.11)
        assert sizes == [303, 97]

    def test_peak_memory_stays_below_an_uncut_stack(self):
        pmfs = [random_pmf(8, seed=s) for s in range(64)]
        dist._lattice(8)  # the per-n plans are not counted
        dist._cost_plan(8)
        bound = 4 << 20
        # an uncut stack's expanded table alone would hold 17.9 MB
        assert 64 * 2 * 8 * 3 ** 7 * 8 > 4 * bound
        tracemalloc.start()
        try:
            worst_case_mmse_many(pmfs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_the_any_order_oracle_is_cut_into_stacks(self):
        # a member holds n! 2**n doubles, so 17 n = 5 pmfs make a stack
        pmfs = [random_pmf(5, seed=s) for s in range(200)]
        orders = _minor_perms(5)
        validate._along_every_order(pmfs[:1])  # warm the imports and plans
        tracemalloc.start()
        try:
            found = validate._along_every_order(pmfs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one uncut pass would hold 200 * 120 * 32 doubles, 5.9 MiB, per copy
        assert peak < 4 << 20
        for pmf, (perms, vals) in zip(pmfs, found):
            assert perms == orders
            assert np.array_equal(vals, dist._mmse_along_orders_many([pmf], orders)[0])
        mixed = [random_pmf(2 + s % 4, seed=s) for s in range(40)]
        for pmf, (perms, vals) in zip(mixed, validate._along_every_order(mixed)):
            assert perms == _minor_perms(pmf.n)
            assert np.array_equal(vals, dist._mmse_along_orders_many([pmf], perms)[0])


class TestBestCaseGivenOutput:
    def test_noiseless_matches_direct_minimum(self):
        pmf = random_pmf(3, seed=5)
        best, _ = best_case_mmse_given_output(pmf, 0.0)
        direct = min(mmse_along_permutation(pmf, p) for p in _minor_perms(3))
        assert best == pytest.approx(direct, abs=1e-12)

    def test_half_noise_gives_plain_variances(self):
        # useless observations reduce every step to the unconditioned variance
        pmf = random_pmf(3, seed=7)
        best, _ = best_case_mmse_given_output(pmf, 0.5)
        plain = sum(conditional_mmse(pmf, j) for j in (1, 2, 3))
        assert best == pytest.approx(plain, abs=1e-12)

    def test_noisy_at_least_noiseless(self):
        pmf = random_pmf(4, seed=9)
        b0, _ = best_case_mmse_given_output(pmf, 0.0)
        b1, _ = best_case_mmse_given_output(pmf, 0.11)
        b2, _ = best_case_mmse_given_output(pmf, 0.3)
        assert b0 <= b1 + 1e-12 <= b2 + 2e-12


class TestNoisyConditionalMmse:
    def test_matches_hand_enumeration(self):
        # joint of (X1, X2), observe Y2 = X2 xor noise, predict X1
        pmf = markov_joint_pmf(2, 0.2)
        a = 0.11
        total = 0.0
        for y2 in (0, 1):
            py = 0.0
            p1 = 0.0
            for x1 in (0, 1):
                for x2 in (0, 1):
                    w = float(pmf.weights[x1 | (x2 << 1)])
                    flip = a if y2 != x2 else 1.0 - a
                    py += w * flip
                    if x1 == 1:
                        p1 += w * flip
            cond = p1 / py
            total += py * cond * (1.0 - cond)
        assert noisy_conditional_mmse(pmf, 1, [2], a) == pytest.approx(total, abs=1e-14)

    def test_noise_never_helps(self):
        pmf = random_pmf(4, seed=21)
        for a in (0.05, 0.2, 0.5):
            clean = conditional_mmse(pmf, 2, [1, 4])
            noisy = noisy_conditional_mmse(pmf, 2, [1, 4], a)
            assert noisy >= clean - 1e-12


def _brute_noisy_mmse(pmf, target, given, alpha):
    """E[Var(X_target | Y_given)] by enumeration: every outcome through every
    flip pattern of the given bits, summed per noisy context; a context no
    outcome reaches never enters the sum."""
    contexts = {}
    for x, w in enumerate(pmf.weights.tolist()):
        for flips in itertools.product((0, 1), repeat=len(given)):
            p = w
            for f in flips:
                p *= alpha if f else 1.0 - alpha
            if p:
                y = tuple((x >> (j - 1)) & 1 ^ f for j, f in zip(given, flips))
                contexts.setdefault(y, [0.0, 0.0])[(x >> (target - 1)) & 1] += p
    return sum(a * b / (a + b) for a, b in contexts.values())


def _zero_mass_pmfs():
    """pmfs on 4 bits where some contexts have no mass."""
    points = [ExplicitPmf(np.eye(16)[k]) for k in (0, 5, 15)]
    sparse = random_pmf(4, seed=9).weights * (np.arange(16) % 3 != 0)
    return points + [markov_joint_pmf(4, 0.0), ExplicitPmf(sparse / sparse.sum())]


class TestZeroMassContexts:
    @pytest.mark.parametrize("pmf", _zero_mass_pmfs(), ids=["point0", "point5", "point15",
                                                           "frozen-markov", "sparse"])
    @pytest.mark.parametrize("alpha", [0.0, 0.11, 0.5])
    def test_match_enumeration(self, pmf, alpha):
        for target in range(1, 5):
            others = [j for j in range(1, 5) if j != target]
            for k in range(4):
                for given in itertools.combinations(others, k):
                    want = _brute_noisy_mmse(pmf, target, given, alpha)
                    got = noisy_conditional_mmse(pmf, target, given, alpha)
                    assert got == pytest.approx(want, rel=1e-12, abs=0), (target, given)
                    if not alpha:
                        assert conditional_mmse(pmf, target, given) == got

    def test_point_mass_is_exactly_zero(self):
        for pmf in _zero_mass_pmfs()[:3]:
            for given in ((), (2,), (2, 3, 4)):
                assert conditional_mmse(pmf, 1, given) == 0.0
                assert noisy_conditional_mmse(pmf, 1, given, 0.11) == 0.0


class TestApplyBsc:
    def test_zero_noise_is_identity(self):
        pmf = random_pmf(3, seed=2)
        out = apply_bsc(pmf, 0.0)
        assert np.allclose(out.weights, pmf.weights, atol=0)

    def test_half_noise_is_uniform(self):
        pmf = random_pmf(3, seed=2)
        out = apply_bsc(pmf, 0.5)
        assert np.allclose(out.weights, 0.125, atol=1e-15)

    def test_point_mass_becomes_product(self):
        out = apply_bsc(ExplicitPmf([1.0, 0.0, 0.0, 0.0]), 0.11)
        expect = _product([0.11, 0.11])
        assert np.allclose(out.weights, expect.weights, atol=1e-15)

    def test_entropy_never_decreases(self):
        pmf = random_pmf(4, seed=13)
        hs = [entropy(apply_bsc(pmf, a)) for a in (0.0, 0.05, 0.2, 0.5)]
        assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))


def _ref_apply_bsc(pmf, alpha):
    """The per-pmf mix the stacked rows replaced: every coordinate mixed in
    turn, the result checked and renormalized by ExplicitPmf."""
    w = pmf.weights
    for t in range(pmf.n):
        m3 = w.reshape(-1, 2, 1 << t)
        w = ((1.0 - alpha) * m3 + alpha * m3[:, ::-1, :]).reshape(-1)
    return ExplicitPmf(w)


def _ref_entropy(pmf):
    """The masked entropy the row helper replaced."""
    pos = pmf.weights[pmf.weights > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def _row_pmfs(n):
    """Random and Markov pmfs, with and without zero weights, and point
    masses at both ends of the table."""
    pmfs = [random_pmf(n, seed=n)] + [markov_joint_pmf(n, q) for q in (0.0, 0.1, 0.5)]
    pmfs += [ExplicitPmf(np.eye(1, 1 << n, k).ravel()) for k in (0, (1 << n) - 1)]
    if n == 2:
        pmfs += [counterexample_pmf(eps) for eps in (1e-9, 0.1, 0.25)]
    return pmfs


def _record_rows(monkeypatch, name):
    """Patch the row helper `name` to append each stack's row count to the
    list returned."""
    sizes = []
    real = getattr(dist, name)

    def counted(rows, *args):
        sizes.append(rows.shape[0])
        return real(rows, *args)

    monkeypatch.setattr(dist, name, counted)
    return sizes


class TestStackedRows:
    """apply_bsc_many and entropy_many run pmfs as stacks of rows; each
    result must be the single call's, bit for bit."""

    @pytest.mark.parametrize("n", range(1, MAX_COORDS + 1))
    def test_many_equals_the_single_calls(self, n):
        # the point masses and the frozen chain have zero weights, so their
        # stack takes the masked route
        pmfs = _row_pmfs(n)
        hs = [entropy(p) for p in pmfs]
        assert hs == [_ref_entropy(p) for p in pmfs]
        assert entropy_many(pmfs) == hs
        # no zero weight: one product and one sum per row for the stack
        positive = [p for p in pmfs if p.weights.all()]
        assert positive and entropy_many(positive) == [_ref_entropy(p) for p in positive]
        for alpha in (0.0, 1e-300, 0.05, 0.11, 0.3, 0.5):
            outs = apply_bsc_many(pmfs, alpha)
            assert len(outs) == len(pmfs)
            for pmf, out in zip(pmfs, outs):
                single = apply_bsc(pmf, alpha)
                assert out.n == single.n == n
                assert not out.weights.flags.writeable
                assert np.array_equal(out.weights, single.weights)
                assert np.array_equal(out.weights, _ref_apply_bsc(pmf, alpha).weights)
            hs = [entropy(out) for out in outs]
            assert entropy_many(outs) == hs == [_ref_entropy(out) for out in outs]

    def test_mixed_sizes_come_back_in_input_order(self):
        pmfs = [random_pmf(2 + s % 3, seed=s) for s in range(11)] + [markov_joint_pmf(3, 0.0)]
        assert [p.n for p in pmfs[:4]] == [2, 3, 4, 2]
        outs = apply_bsc_many(iter(pmfs), 0.11)
        for pmf, out in zip(pmfs, outs, strict=True):
            assert np.array_equal(out.weights, apply_bsc(pmf, 0.11).weights)
        assert entropy_many(iter(pmfs)) == [entropy(p) for p in pmfs]
        assert apply_bsc_many([], 0.11) == []
        assert entropy_many([]) == []

    def test_bad_arguments_raise_before_any_mixing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the arguments must be checked before any mixing")

        monkeypatch.setattr(dist, "_channel_mix", refuse)
        monkeypatch.setattr(dist, "_row_entropies", refuse)
        good = random_pmf(2, seed=1)
        for bad in ([0.5, 0.5], None, np.full(4, 0.25)):
            with pytest.raises(DomainError, match="pmf must be an ExplicitPmf"):
                apply_bsc_many([good, bad], 0.11)
            with pytest.raises(DomainError, match="pmf must be an ExplicitPmf"):
                entropy_many([good, bad])
        for pmfs in (None, 3, good):
            with pytest.raises(DomainError, match="iterable"):
                apply_bsc_many(pmfs, 0.11)
            with pytest.raises(DomainError, match="iterable"):
                entropy_many(pmfs)
        for alpha in (-0.1, 0.6, math.nan, "x"):
            with pytest.raises(DomainError):
                apply_bsc_many([good], alpha)

    def test_stack_checks_keep_the_pmf_messages(self):
        good = np.full(4, 0.25)
        for row, match in ((math.inf, "finite"), (-0.25, "nonnegative"),
                           (0.5, "weights sum to 1.25")):
            rows = np.array([good, good])
            rows[1, 0] = row
            with pytest.raises(DomainError, match=match):
                dist._normalize_rows(rows)
            with pytest.raises(DomainError, match=match):
                ExplicitPmf(rows[1])

    def test_stack_sizes(self, monkeypatch):
        mixed = _record_rows(monkeypatch, "_mix_rows")
        summed = _record_rows(monkeypatch, "_row_entropies")
        # one n = 16 table is 2**16 doubles, the whole stack budget
        big = [random_pmf(16, seed=1)] * 40
        apply_bsc_many(big, 0.11)
        entropy_many(big)
        assert mixed == summed == [1] * 40
        mixed.clear()
        summed.clear()
        small = [random_pmf(4, seed=1)] * 5000
        apply_bsc_many(small, 0.11)
        entropy_many(small)
        assert mixed == summed == [4096, 904]

    def test_peak_memory_stays_below_an_uncut_stack(self):
        pmfs = [random_pmf(16, seed=s) for s in range(64)]
        bound = 4 << 20
        # uncut, the stack, its mixed copy and a mixing temporary held 96 MiB
        # beyond the outputs, 32 MiB each
        assert 3 * 64 * (8 << 16) == 24 * bound
        tracemalloc.start()
        try:
            outs = apply_bsc_many(pmfs, 0.11)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(outs) == 64 and held >= 64 * 8 << 16
        assert peak - held < bound


class TestMarkovJointPmf:
    def test_two_step_weights(self):
        pmf = markov_joint_pmf(2, 0.2)
        assert np.allclose(pmf.weights, [0.4, 0.1, 0.1, 0.4], atol=1e-15)

    def test_frozen_chain_splits_mass(self):
        pmf = markov_joint_pmf(3, 0.0)
        w = pmf.weights
        assert w[0] == pytest.approx(0.5, abs=0)
        assert w[7] == pytest.approx(0.5, abs=0)
        assert float(w.sum() - w[0] - w[7]) == 0.0

    def test_half_rate_is_uniform(self):
        pmf = markov_joint_pmf(3, 0.5)
        assert np.allclose(pmf.weights, 0.125, atol=1e-15)

    def test_marginals_are_fair(self):
        pmf = markov_joint_pmf(4, 0.2)
        for j in range(1, 5):
            assert conditional_mmse(pmf, j) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            markov_joint_pmf(3, 0.7)
        with pytest.raises(DimensionError):
            markov_joint_pmf(0, 0.2)
        with pytest.raises(DimensionError):
            markov_joint_pmf(17, 0.2)


class TestGreedyPermutation:
    def test_markov_picks_far_end_second(self):
        assert greedy_permutation(markov_joint_pmf(3, 0.2)) == (1, 3, 2)

    def test_product_falls_back_to_index_order(self):
        assert greedy_permutation(_product([0.5, 0.5, 0.5])) == (1, 2, 3)

    def test_highest_variance_first(self):
        pmf = _product([0.1, 0.5, 0.3])
        assert greedy_permutation(pmf)[0] == 2

    @staticmethod
    def _brute_greedy(pmf):
        """Greedy over conditional_mmse calls, with the documented tie rule:
        the smallest remaining index within 1e-12 of the step's largest."""
        chosen, remaining = [], list(range(1, pmf.n + 1))
        while remaining:
            vals = [conditional_mmse(pmf, j, chosen) for j in remaining]
            top = max(vals)
            j = next(j for j, v in zip(remaining, vals) if top - v <= 1e-12)
            chosen.append(j)
            remaining.remove(j)
        return tuple(chosen)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force_greedy(self, n):
        size = 1 << n
        pmfs = [random_pmf(n, seed=70 + 10 * n + k) for k in range(3)]
        pmfs += [markov_joint_pmf(n, q) for q in (0.0, 0.02, 0.1, 0.2, 0.3, 0.45, 0.5)]
        pmfs.append(_product([0.1 + 0.05 * k for k in range(n)]))
        pmfs.append(_product([0.5] * n))
        for idx in {0, size - 1, 5 % size}:
            w = np.zeros(size)
            w[idx] = 1.0
            pmfs.append(ExplicitPmf(w))
        for pmf in pmfs:
            assert greedy_permutation(pmf) == self._brute_greedy(pmf)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_markov_starts_at_coordinate_one(self, n):
        # every bit has variance 1/4 up to a rounding, so the tie rule applies
        for i in range(60):
            assert greedy_permutation(markov_joint_pmf(n, 0.5 * (i + 1) / 61))[0] == 1


class TestCounterexamplePmf:
    def test_weights_layout(self):
        pmf = counterexample_pmf(0.1)
        assert np.allclose(pmf.weights, [0.5, 0.1, 0.0, 0.4], atol=1e-15)

    def test_bit_one_has_higher_variance(self):
        for eps in (0.01, 0.1, 0.3, 0.49):
            pmf = counterexample_pmf(eps)
            assert conditional_mmse(pmf, 1) > conditional_mmse(pmf, 2)

    def test_rejects_boundary(self):
        for bad in (0.0, 0.5, -0.1, 0.6, None, "x"):
            with pytest.raises(DomainError):
                counterexample_pmf(bad)


class TestRandomPmf:
    def test_deterministic_per_seed(self):
        a = random_pmf(3, seed=42)
        b = random_pmf(3, seed=42)
        c = random_pmf(3, seed=43)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)
        assert np.array_equal(random_pmf(3, np.int64(42)).weights, a.weights)

    def test_strictly_positive(self):
        assert float(random_pmf(4, seed=1).weights.min()) > 0.0


class TestPmfFiles:
    def test_round_trip(self, tmp_path):
        pmf = random_pmf(3, seed=8)
        path = tmp_path / "law.pmf"
        write_pmf(pmf, path)
        back = read_pmf(path)
        assert back.n == 3
        assert np.array_equal(back.weights, pmf.weights)

    def test_largest_pmf_round_trips(self, tmp_path):
        # write_pmf's longest file still fits read_pmf's byte limit
        pmf = random_pmf(MAX_COORDS, seed=8)
        path = tmp_path / "largest.pmf"
        write_pmf(pmf, path)
        assert np.array_equal(read_pmf(path).weights, pmf.weights)

    def test_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.pmf"
        bad.write_text("2\n0.5 0.5\n")
        with pytest.raises(DomainError):
            read_pmf(bad)
        bad.write_text("x\n")
        with pytest.raises(DomainError):
            read_pmf(bad)
        bad.write_text("")
        with pytest.raises(DomainError):
            read_pmf(bad)

    @pytest.mark.parametrize("n", [0, 17])
    def test_coordinate_count_outside_the_cap(self, tmp_path, n):
        bad = tmp_path / "bad.pmf"
        bad.write_text(f"{n}\n0.5 0.5\n")
        with pytest.raises(DomainError, match=f"coordinate count {n} outside 1..16"):
            read_pmf(bad)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_pmf(tmp_path / "absent.pmf")

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        # the file is overwritten in place, so it must be cut to the new length
        path, fresh = tmp_path / "law.pmf", tmp_path / "fresh.pmf"
        short = random_pmf(2, seed=4)
        write_pmf(random_pmf(6, seed=3), path)
        write_pmf(short, path)
        write_pmf(short, fresh)
        assert path.read_bytes() == fresh.read_bytes()
        # the file holds short's weights exactly; read_pmf renormalizes them
        assert np.array_equal(read_pmf(path).weights, ExplicitPmf(short.weights).weights)


def test_mmse_bracket_on_random_pmfs():
    # any order: 4 n phat (1-phat) <= 4 MMSE <= H(X), phat = hinv(H/n)
    from bscbounds import inv_binary_entropy

    for seed in range(40):
        n = 2 + seed % 3
        pmf = random_pmf(n, seed=seed)
        h = entropy(pmf)
        phat = inv_binary_entropy(h / n)
        floor = 4.0 * n * phat * (1.0 - phat)
        for perm in _minor_perms(n):
            m4 = 4.0 * mmse_along_permutation(pmf, perm)
            assert m4 >= floor - 1e-10
            assert m4 <= h + 1e-10
