import itertools
import math

import numpy as np
import pytest

from bscbounds import (
    DimensionError,
    DomainError,
    ExplicitPmf,
    apply_bsc,
    binary_convolve,
    binary_entropy,
    conditional_vector_mmse_gerber,
    entropy,
    markov_joint_pmf,
    memory_noise_term,
    mgl_scalar,
    noise_profile,
    random_pmf,
    sandwich_mgl,
    sandwich_new,
    scalar_memory_noise,
    scalar_mmse_gerber,
    scalar_upper,
    vector_memory_noise,
    vector_mmse_gerber,
    vector_mmse_gerber_many,
    vector_upper,
    vector_upper_many,
    worst_case_mmse,
)
from bscbounds import dist


def _product(margs):
    w = np.ones(1)
    for p in margs:
        w = np.concatenate([w * (1.0 - p), w * p])
    return ExplicitPmf(w)


class TestScalarBounds:
    def test_mgl_values(self):
        assert mgl_scalar(0.11, binary_entropy(0.1)) == pytest.approx(
            binary_entropy(0.188), abs=1e-9)
        assert mgl_scalar(0.0, 0.37) == pytest.approx(0.37, abs=1e-10)
        assert mgl_scalar(0.5, 0.9) == 1.0
        assert mgl_scalar(0.11, 0.0) == pytest.approx(binary_entropy(0.11), abs=1e-12)

    def test_mmse_gerber_values(self):
        assert scalar_mmse_gerber(0.11, 0.16) == pytest.approx(0.81996974493923, abs=1e-12)
        assert scalar_mmse_gerber(0.11, 0.0) == pytest.approx(binary_entropy(0.11), abs=0)
        assert scalar_mmse_gerber(0.11, 0.25) == 1.0
        assert scalar_mmse_gerber(0.5, 0.1) == 1.0

    def test_memory_noise_scalar(self):
        assert scalar_memory_noise(0.3, 0.1) == pytest.approx(0.3 + 0.7 * 0.4, abs=1e-15)
        assert scalar_memory_noise(1.0, 0.2) == 1.0
        assert scalar_memory_noise(0.0, 0.25) == 1.0

    def test_memory_noise_admits_a_rounded_noise_profile(self):
        # the first step of this profile rounds to 1 + 2.2e-16
        steps = noise_profile(markov_joint_pmf(6, 0.05), (1, 2, 3, 4, 5, 6))
        assert scalar_memory_noise(steps[0], 0.1) == 1.0
        assert scalar_memory_noise(1.0 + 2**-52, 0.1) == 1.0
        for outside in (1.0 + 2e-12, -2e-12, math.nan):
            with pytest.raises(DomainError):
                scalar_memory_noise(outside, 0.1)

    @pytest.mark.parametrize("bad", [None, "x"])
    def test_non_numbers_raise_domain_errors(self, bad):
        for call in (lambda: scalar_mmse_gerber(0.1, bad), lambda: scalar_upper(0.1, bad),
                     lambda: scalar_memory_noise(bad, 0.1), lambda: scalar_memory_noise(0.3, bad)):
            with pytest.raises(DomainError, match="real number"):
                call()

    def test_upper_values(self):
        assert scalar_upper(0.11, 0.0) == pytest.approx(binary_entropy(0.11), abs=1e-12)
        assert scalar_upper(0.11, 0.25) == 1.0
        assert scalar_upper(0.0, 0.16) == pytest.approx(
            binary_entropy(0.5 + 0.5 * math.sqrt(1.0 - 0.64)), abs=1e-12)

    def test_upper_rounding_guard(self):
        # mmse a hair above 1/4 must clamp instead of feeding sqrt a negative
        assert scalar_upper(0.11, 0.25 + 5e-13) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mgl_scalar(0.6, 0.5)
        with pytest.raises(DomainError):
            mgl_scalar(0.11, 1.5)
        with pytest.raises(DomainError):
            scalar_mmse_gerber(0.11, 0.26)
        with pytest.raises(DomainError):
            scalar_upper(0.11, -0.01)
        with pytest.raises(DomainError):
            scalar_memory_noise(1.2, 0.1)


class TestVectorBounds:
    def test_iid_fair_source_is_tight(self):
        pmf = ExplicitPmf([0.125] * 8)
        res = vector_mmse_gerber(pmf, 0.11)
        assert res.value == 1.0
        assert res.inputs["mmse"] == pytest.approx(0.75, abs=1e-15)
        assert res.name == "mmse-gerber"

    def test_point_mass_collapses_to_channel_entropy(self):
        pmf = ExplicitPmf([1.0] + [0.0] * 7)
        assert vector_mmse_gerber(pmf, 0.11).value == pytest.approx(
            binary_entropy(0.11), abs=1e-15)

    def test_markov_value_and_validity(self):
        pmf = markov_joint_pmf(3, 0.2)
        res = vector_mmse_gerber(pmf, 0.11)
        exact = entropy(apply_bsc(pmf, 0.11)) / 3
        assert res.inputs["order"] == (1, 3, 2)
        assert res.value == pytest.approx(
            scalar_mmse_gerber(0.11, 0.5852470588235295 / 3), abs=1e-12)
        assert res.value <= exact + 1e-12

    def test_upper_iid_biased(self):
        # for an iid Bern(p) source the best-case MMSE is n p (1-p), so the
        # upper bound collapses to h(alpha * p)
        p = 0.2
        pmf = _product([p, p, p])
        res = vector_upper(pmf, 0.11)
        assert res.value == pytest.approx(
            binary_entropy(binary_convolve(0.11, p)), abs=1e-12)

    def test_upper_markov_brackets_exact(self):
        pmf = markov_joint_pmf(4, 0.2)
        for a in (0.05, 0.11, 0.3):
            lo = vector_mmse_gerber(pmf, a).value
            hi = vector_upper(pmf, a).value
            exact = entropy(apply_bsc(pmf, a)) / 4
            assert lo <= exact + 1e-12
            assert exact <= hi + 1e-12

    def test_upper_equals_lower_iff_iid_fair(self):
        fair = ExplicitPmf([0.25] * 4)
        assert vector_upper(fair, 0.11).value == pytest.approx(
            vector_mmse_gerber(fair, 0.11).value, abs=1e-12)
        skew = markov_joint_pmf(2, 0.2)
        assert vector_upper(skew, 0.11).value > vector_mmse_gerber(skew, 0.11).value + 1e-6

    @pytest.mark.parametrize("bound", [vector_mmse_gerber, vector_upper])
    def test_rejects_a_non_pmf(self, bound):
        for pmf in ([0.5, 0.5], np.array([0.5, 0.5]), None):
            with pytest.raises(DomainError, match="pmf must be an ExplicitPmf"):
                bound(pmf, 0.1)


def _stack_pmfs(n):
    """Random, Markov (q = 0.2, and q = 0, which ties every order) and
    point-mass pmfs, each call a new set with empty memos."""
    point = np.zeros(1 << n)
    point[-1] = 1.0
    return [random_pmf(n, seed=40 + n), markov_joint_pmf(n, 0.2), markov_joint_pmf(n, 0.0),
            ExplicitPmf(point)]


class TestStackedVectorBounds:
    """vector_mmse_gerber_many and vector_upper_many run the order searches
    in lockstep stacks; each result must be the single call's."""

    @pytest.mark.parametrize("entries", [None, 1 << 24], ids=["cut", "uncut"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_many_equals_the_single_calls(self, n, entries, monkeypatch):
        if entries:
            monkeypatch.setattr(dist, "_STACK_ENTRIES", entries)
        for alpha in (0.0, 0.11, 0.5):
            for many, one in ((vector_mmse_gerber_many, vector_mmse_gerber),
                              (vector_upper_many, vector_upper)):
                stacked, single = _stack_pmfs(n), _stack_pmfs(n)
                assert many(stacked, alpha) == [one(p, alpha) for p in single]

    def test_mixed_sizes_come_back_in_input_order(self):
        pmfs = [random_pmf(2 + s % 3, seed=s) for s in range(10)]
        for many, one in ((vector_mmse_gerber_many, vector_mmse_gerber),
                          (vector_upper_many, vector_upper)):
            got = many(iter(pmfs), 0.11)
            assert [r.inputs["n"] for r in got] == [p.n for p in pmfs]
            assert got == [one(p, 0.11) for p in pmfs]
            assert many([], 0.11) == []

    @pytest.mark.parametrize("many", [vector_mmse_gerber_many, vector_upper_many])
    def test_bad_arguments_raise_before_any_table_is_built(self, many, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the arguments must be checked before any table is built")

        monkeypatch.setattr(dist, "_build_cost_tables", refuse)
        good = random_pmf(3, seed=2)
        with pytest.raises(DomainError, match="pmf must be an ExplicitPmf"):
            many([good, [0.5, 0.5]], 0.11)
        for alpha in (-0.1, 0.6, math.nan):
            with pytest.raises(DomainError, match="alpha"):
                many([good], alpha)
        with pytest.raises(DomainError, match="iterable"):
            many(None, 0.11)
        with pytest.raises(DimensionError, match="cap 8"):
            many([good, random_pmf(9, seed=0)], 0.11)


class TestConditionalVector:
    def test_single_member_reduces_to_plain(self):
        pmf = markov_joint_pmf(3, 0.2)
        fam = conditional_vector_mmse_gerber([(1.0, pmf)], 0.11)
        plain = vector_mmse_gerber(pmf, 0.11)
        assert fam.value == pytest.approx(plain.value, abs=1e-15)
        assert fam.inputs["order"] == plain.inputs["order"]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_single_member_matches_plain_bit_for_bit(self, n):
        pmfs = [random_pmf(n, seed=s) for s in range(20)]
        pmfs += [markov_joint_pmf(n, q) for q in np.linspace(0.01, 0.49, 20)]
        for pmf in pmfs:
            for a in (0.02, 0.11, 0.3):
                fam = conditional_vector_mmse_gerber([(1.0, pmf)], a)
                assert fam.value == vector_mmse_gerber(pmf, a).value, (n, a)

    def test_mixture_of_point_masses(self):
        # knowing the label makes the source deterministic, leaving channel noise
        a = ExplicitPmf([1.0, 0.0, 0.0, 0.0])
        b = ExplicitPmf([0.0, 0.0, 0.0, 1.0])
        res = conditional_vector_mmse_gerber([(0.5, a), (0.5, b)], 0.11)
        assert res.value == pytest.approx(binary_entropy(0.11), abs=1e-15)

    def test_shared_order_at_most_per_component(self):
        fam = [(0.6, markov_joint_pmf(3, 0.1)), (0.4, random_pmf(3, seed=4))]
        shared = conditional_vector_mmse_gerber(fam, 0.11)
        # every member at its own worst-case order
        ha = binary_entropy(0.11)
        per = ha + (1.0 - ha) * 4.0 * sum(w * worst_case_mmse(p)[0] for w, p in fam) / 3
        assert shared.variant == "shared"
        assert shared.value <= per + 1e-12

    def test_bounds_conditional_entropy(self):
        # W = mixture label, Y = noisy source; check against exact H(Y|W)/n
        fam = [(0.3, markov_joint_pmf(3, 0.1)), (0.7, markov_joint_pmf(3, 0.4))]
        a = 0.11
        res = conditional_vector_mmse_gerber(fam, a)
        exact = sum(w * entropy(apply_bsc(pmf, a)) / 3 for w, pmf in fam)
        assert res.value <= exact + 1e-12

    def test_rejects_bad_mixtures(self):
        pmf = markov_joint_pmf(3, 0.2)
        with pytest.raises(DomainError):
            conditional_vector_mmse_gerber([], 0.11)
        with pytest.raises(DomainError):
            conditional_vector_mmse_gerber([(0.7, pmf)], 0.11)
        with pytest.raises(DomainError):
            conditional_vector_mmse_gerber(
                [(0.5, pmf), (0.5, markov_joint_pmf(2, 0.2))], 0.11)
        nan = float("nan")
        for family in ([(nan, pmf)], [(0.5, pmf), (0.5, pmf), (nan, pmf)]):
            with pytest.raises(DomainError):
                conditional_vector_mmse_gerber(family, 0.11)
        for family in ([(None, pmf)], [(1.0, pmf), ("x", pmf)]):
            with pytest.raises(DomainError, match="mixture weight must be a real number"):
                conditional_vector_mmse_gerber(family, 0.11)

    def test_rejects_members_that_are_not_weighted_pmfs(self):
        pmf = markov_joint_pmf(3, 0.2)
        for family in (pmf, [pmf], [(1.0,)], [(0.5, pmf, 0.5)], [(0.5, pmf), 0.5]):
            with pytest.raises(DomainError, match=r"\(weight, pmf\) pairs"):
                conditional_vector_mmse_gerber(family, 0.11)
        for family in ([(1.0, [0.5, 0.5])], [(0.5, pmf), (0.5, None)]):
            with pytest.raises(DomainError, match="mixture member must be an ExplicitPmf"):
                conditional_vector_mmse_gerber(family, 0.11)


class TestMemoryNoise:
    def test_noise_profile_chain_rule(self):
        pmf = markov_joint_pmf(3, 0.2)
        prof = noise_profile(pmf, (1, 2, 3))
        assert prof[0] == pytest.approx(1.0, abs=1e-12)
        assert prof[1] == pytest.approx(binary_entropy(0.2), abs=1e-12)
        assert prof[2] == pytest.approx(binary_entropy(0.2), abs=1e-12)
        assert sum(prof) == pytest.approx(entropy(pmf), abs=1e-10)

    def test_profile_of_deterministic_noise_is_zero(self):
        pmf = ExplicitPmf([1.0, 0.0, 0.0, 0.0])
        assert noise_profile(pmf, (2, 1)) == [0.0, 0.0]
        hz = vector_memory_noise(markov_joint_pmf(2, 0.2), pmf).inputs["noise_entropy"]
        assert math.copysign(1.0, hz) == 1.0

    def test_fair_source_fair_noise_saturates(self):
        x = ExplicitPmf([0.125] * 8)
        z = ExplicitPmf([0.125] * 8)
        assert vector_memory_noise(x, z).value == pytest.approx(3.0, abs=1e-12)

    def test_memoryless_noise_reduces_to_plain_bound(self):
        x = markov_joint_pmf(3, 0.2)
        for a in (0.11, 0.3):
            z = _product([a, a, a])
            total = vector_memory_noise(x, z).value
            per = vector_mmse_gerber(x, a).value
            assert total == pytest.approx(3 * per, abs=1e-12)

    def test_markov_noise_identity_order_term(self):
        # both chains Markov; the identity-order term telescopes into
        # 1 + (n-1) [h(q_z) + 4 q_x (1-q_x) (1 - h(q_z))]
        qx, qz, n = 0.3, 0.2, 4
        x = markov_joint_pmf(n, qx)
        z = markov_joint_pmf(n, qz)
        term = memory_noise_term(x, z, tuple(range(1, n + 1)))
        hz = binary_entropy(qz)
        per = hz + 4.0 * qx * (1.0 - qx) * (1.0 - hz)
        assert term == pytest.approx(1.0 + (n - 1) * per, abs=1e-12)

    def test_total_dominates_every_order(self):
        x = markov_joint_pmf(3, 0.3)
        z = markov_joint_pmf(3, 0.15)
        best = vector_memory_noise(x, z).value
        for perm in itertools.permutations(range(1, 4)):
            assert best >= memory_noise_term(x, z, perm) - 1e-12

    def test_bounds_actual_output_entropy(self):
        # Y = X xor Z with independent symmetric chains is the chain with
        # flip rate q*r, its increments being i.i.d. Bern(q) xor Bern(r), so
        # H(Y) = 1 + (n - 1) h(q*r) exactly; the direct XOR sum checks that
        # closed form at small n. The smallest slack, 8.75e-7, is at
        # (n, q, r) = (2, 0.02, 0.45)
        for n in range(2, 9):
            for qx, qz in itertools.product((0.02, 0.1, 0.3), (0.01, 0.05, 0.2, 0.45)):
                x = markov_joint_pmf(n, qx)
                z = markov_joint_pmf(n, qz)
                hy = 1.0 + (n - 1) * binary_entropy(binary_convolve(qx, qz))
                if n <= 4:
                    wy = np.zeros(1 << n)
                    for i, wx in enumerate(x.weights):
                        for j, wz in enumerate(z.weights):
                            wy[i ^ j] += wx * wz
                    assert entropy(ExplicitPmf(wy)) == pytest.approx(hy, rel=0, abs=1e-12)
                assert vector_memory_noise(x, z).value <= hy + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            vector_memory_noise(markov_joint_pmf(3, 0.2), markov_joint_pmf(2, 0.2))

    def test_rejects_a_non_pmf(self):
        pmf = markov_joint_pmf(2, 0.2)
        calls = [
            (lambda: noise_profile([0.5, 0.5], (1,)), "pmf_z"),
            (lambda: vector_memory_noise(pmf, None), "pmf_z"),
            (lambda: vector_memory_noise(pmf.weights, pmf), "pmf_x"),
            (lambda: memory_noise_term(pmf, [0.25] * 4, (1, 2)), "pmf_z"),
            (lambda: memory_noise_term(None, pmf, (1, 2)), "pmf_x"),
        ]
        for call, name in calls:
            with pytest.raises(DomainError, match=f"{name} must be an ExplicitPmf"):
                call()


class TestSandwiches:
    def test_mgl_endpoints(self):
        lo, hi = sandwich_mgl(0.11, 0.0)
        assert lo == pytest.approx(binary_entropy(0.11), abs=1e-12)
        assert hi == pytest.approx(binary_entropy(0.11), abs=1e-12)
        lo, hi = sandwich_mgl(0.11, 1.0)
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_new_endpoints(self):
        lo, hi = sandwich_new(0.11, 0.0)
        assert lo == hi == pytest.approx(binary_entropy(0.11), abs=1e-12)
        lo, hi = sandwich_new(0.11, 1.0)
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_mgl_brackets_new_curve(self):
        for a in (0.05, 0.11, 0.3):
            for x in np.linspace(0.0, 1.0, 101):
                x = float(x)
                lo, hi = sandwich_mgl(a, x)
                mid = scalar_mmse_gerber(a, x / 4.0)
                assert lo <= mid + 1e-12
                assert mid <= hi + 1e-12

    def test_new_brackets_mgl_curve(self):
        for a in (0.05, 0.11, 0.3):
            for u in np.linspace(0.0, 1.0, 101):
                u = float(u)
                lo, hi = sandwich_new(a, u)
                mid = mgl_scalar(a, u)
                assert lo <= mid + 1e-12
                assert mid <= hi + 1e-12


class TestUpperCurveShape:
    def test_nondecreasing_and_concave_in_mmse(self):
        for a in (0.05, 0.11, 0.3):
            grid = np.linspace(0.0, 0.25, 201)
            vals = [scalar_upper(a, float(v)) for v in grid]
            diffs = [b - a_ for a_, b in zip(vals, vals[1:])]
            assert all(d >= -1e-12 for d in diffs)
            assert all(b <= a_ + 1e-12 for a_, b in zip(diffs, diffs[1:]))


def test_scalar_lemma_random_mixtures():
    # E h(P * alpha) sits between the two scalar bounds at the mixture MMSE
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = 2 + int(rng.integers(4))
        ps = rng.random(k)
        ws = rng.random(k)
        ws /= ws.sum()
        mmse = float(sum(w * p * (1.0 - p) for w, p in zip(ws, ps)))
        for a in (0.05, 0.11, 0.3):
            ehp = float(sum(w * binary_entropy(binary_convolve(a, float(p)))
                            for w, p in zip(ws, ps)))
            assert scalar_mmse_gerber(a, mmse) <= ehp + 1e-10
            assert ehp <= scalar_upper(a, mmse) + 1e-10


def test_equality_detection_both_directions():
    a = 0.11
    extreme = _product([1.0, 0.0, 0.5])
    exact = entropy(apply_bsc(extreme, a)) / 3
    assert abs(vector_mmse_gerber(extreme, a).value - exact) <= 1e-10
    for pmf in (_product([0.3, 0.3]), markov_joint_pmf(3, 0.2)):
        exact = entropy(apply_bsc(pmf, a)) / pmf.n
        assert exact - vector_mmse_gerber(pmf, a).value > 1e-6
