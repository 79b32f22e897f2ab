"""Invariant suites behind the `validate` CLI subcommand.

Every check reports a worst-case slack: the margin by which the tightest
instance satisfied its inequality, already net of the check's tolerance, so
any negative slack is a failure. Checks that compare two routes to the same
number report tolerance minus the worst disagreement the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds, dist, hmm, scalar


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str = ""


def _result(name: str, slack: float, detail: str = "") -> CheckResult:
    return CheckResult(name, slack >= 0.0, slack, detail)


def _track(current: tuple[float, str], slack: float, detail: str) -> tuple[float, str]:
    """Keep the smaller slack. A NaN slack counts as the worst and sticks,
    so a check that computed NaN fails."""
    worst = current[0]
    if math.isnan(worst) or slack >= worst:
        return current
    return slack, detail


def _track_min(current: tuple[float, str], slacks, detail_of) -> tuple[float, str]:
    """_track folded over the array `slacks` in order, by one argmin: the
    first index of the smallest slack, or of the first NaN, which sticks as
    in _track. detail_of(i) formats the detail of index i, and is called only
    for the index kept."""
    slacks = np.asarray(slacks, dtype=float)
    if math.isnan(current[0]) or not slacks.size:
        return current
    i = int(np.argmin(slacks))
    slack = float(slacks[i])
    if slack >= current[0]:
        return current
    return slack, detail_of(i)


def _second_differences(vals) -> np.ndarray:
    """v[i+1] - 2 v[i] + v[i-1] at every interior point of a sampled curve."""
    v = np.asarray(vals, dtype=float)
    return v[2:] - 2.0 * v[1:-1] + v[:-2]


def _product(margs) -> dist.ExplicitPmf:
    """Product pmf with the given P(bit=1) marginals, first entry in bit 1."""
    w = np.ones(1)
    for p in margs:
        w = np.concatenate([w * (1.0 - p), w * p])
    return dist.ExplicitPmf(w)


def _along_every_order(pmf: dist.ExplicitPmf) -> tuple[list, np.ndarray]:
    """The n! prediction orders of pmf, and its MMSE along each in one pass."""
    orders = list(itertools.permutations(range(1, pmf.n + 1)))
    return orders, dist._mmse_along_orders(pmf, orders)


def _random_pmfs(rng: np.random.Generator, count: int, sizes=(2, 3, 4)):
    for i in range(count):
        n = sizes[i % len(sizes)]
        w = rng.random(1 << n)
        yield dist.ExplicitPmf(w / w.sum())


def run_scalar(seed: int = 0, budget: int = 500) -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    grid = np.linspace(0.0, 1.0, 1001).tolist()
    errs = [abs(scalar.binary_entropy(scalar.inv_binary_entropy(u)) - u) for u in grid]
    worst = _track_min((math.inf, ""), 1e-10 - np.array(errs), lambda i: f"u={grid[i]:.4f}")
    out.append(_result("inverse-identity", *worst))

    pairs, slacks = [], []
    for _ in range(budget):
        a = float(rng.random() * 0.5)
        b = float(rng.random() * 0.5)
        c = scalar.binary_convolve(a, b)
        pairs.append((a, b))
        slacks += (c - max(a, b) + 1e-15, 0.5 - c + 1e-15)
    worst = _track_min((math.inf, ""), slacks,
                       lambda i: "a={:.4f} b={:.4f}".format(*pairs[i // 2]))
    out.append(_result("convolve-between-max-and-half", *worst))

    worst = (math.inf, "")
    for p in (0.3, 0.4, 0.45):
        err = abs(scalar.entropy_taylor(2.0 * p - 1.0, 60) - scalar.binary_entropy(p))
        worst = _track(worst, 1e-12 - err, f"p={p}")
    out.append(_result("taylor-matches-entropy", *worst))

    worst = (math.inf, "")
    grid = np.linspace(0.0, 0.5, 401).tolist()
    for a in (0.0, 0.11, 0.3):
        vals = [scalar.binary_entropy(scalar.binary_convolve(a, x)) for x in grid]
        worst = _track_min(worst, 1e-12 - _second_differences(vals),
                           lambda i: f"alpha={a} x={grid[i + 1]:.4f}")
    out.append(_result("convolved-entropy-concave", *worst))
    return out


def run_dist(seed: int = 0, budget: int = 500) -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    lower_worst = (math.inf, "")
    upper_worst = (math.inf, "")
    dominate_worst = (math.inf, "")
    for k, pmf in enumerate(_random_pmfs(rng, max(budget // 5, 20))):
        h = dist.entropy(pmf)
        phat = scalar.inv_binary_entropy(h / pmf.n)
        floor = 4.0 * pmf.n * phat * (1.0 - phat)
        worst_val, _ = dist.worst_case_mmse(pmf)
        perms, m = _along_every_order(pmf)

        def tag(i):
            return f"pmf#{k} {perms[i]}"

        lower_worst = _track_min(lower_worst, 4.0 * m - floor + 1e-10, tag)
        upper_worst = _track_min(upper_worst, h - 4.0 * m + 1e-10, tag)
        dominate_worst = _track_min(dominate_worst, worst_val - m + 1e-12, tag)
    out.append(_result("mmse-floor-any-order", *lower_worst))
    out.append(_result("mmse-entropy-cap-any-order", *upper_worst))
    out.append(_result("worst-case-dominates", *dominate_worst))

    spreads = []
    for k in range(max(budget // 10, 10)):
        n = 2 + k % 3
        pmf = _product(rng.random(n))
        _, vals = _along_every_order(pmf)
        spreads.append(vals.max() - vals.min())
    worst = _track_min((math.inf, ""), 1e-12 - np.array(spreads), lambda k: f"product#{k}")
    out.append(_result("product-order-invariant", *worst))

    worst = (math.inf, "")
    for k, pmf in enumerate(_random_pmfs(rng, 20)):
        flat = dist.apply_bsc(pmf, 0.5).weights
        err = float(np.abs(flat - 1.0 / flat.size).max())
        worst = _track(worst, 1e-12 - err, f"pmf#{k}")
    out.append(_result("half-noise-erases", *worst))

    gaps = []
    for pmf in _random_pmfs(rng, 20):
        best0, _ = dist.best_case_mmse_given_output(pmf, 0.0)
        _, direct = _along_every_order(pmf)
        gaps.append(abs(best0 - direct.min()))
    worst = _track_min((math.inf, ""), 1e-12 - np.array(gaps), lambda k: f"pmf#{k}")
    out.append(_result("noiseless-best-case", *worst))

    worst = (math.inf, "")
    for k, pmf in enumerate(_random_pmfs(rng, max(budget // 10, 10))):
        target = 1 + int(rng.integers(pmf.n))
        others = [j for j in range(1, pmf.n + 1) if j != target]
        keep = [j for j in others if rng.random() < 0.6]
        for a in (0.11, 0.3):
            clean = dist.conditional_mmse(pmf, target, keep)
            noisy = dist.noisy_conditional_mmse(pmf, target, keep, a)
            worst = _track(worst, noisy - clean + 1e-12, f"pmf#{k} alpha={a}")
    out.append(_result("noise-never-helps-prediction", *worst))
    return out


def run_bounds(seed: int = 0, budget: int = 500) -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    alphas = (0.0, 0.05, 0.11, 0.25, 0.5)
    low, up, mgl = [], [], []
    for pmf in _random_pmfs(rng, max(budget // 5, 25)):
        hx = dist.entropy(pmf) / pmf.n
        for a in alphas:
            hy = dist.entropy(dist.apply_bsc(pmf, a)) / pmf.n
            low.append(hy - bounds.vector_mmse_gerber(pmf, a).value + 1e-10)
            up.append(bounds.vector_upper(pmf, a).value - hy + 1e-10)
            mgl.append(hy - bounds.mgl_scalar(a, hx) + 1e-10)

    def tag(i):
        k, j = divmod(i, len(alphas))
        return f"pmf#{k} alpha={alphas[j]}"

    for name, slacks in (("lower-bound-valid", low), ("upper-bound-valid", up),
                         ("mgl-bound-valid", mgl)):
        out.append(_result(name, *_track_min((math.inf, ""), slacks, tag)))

    alphas = (0.05, 0.11, 0.3)
    slacks = []
    for _ in range(max(budget // 5, 25)):
        atoms = 2 + int(rng.integers(4))
        ps = rng.random(atoms)
        ws = rng.random(atoms)
        ws /= ws.sum()
        for a in alphas:
            ehp = float(sum(w * scalar.binary_entropy(scalar.binary_convolve(a, float(p)))
                            for w, p in zip(ws, ps)))
            msum = float(sum(w * p * (1.0 - p) for w, p in zip(ws, ps)))
            lo = bounds.scalar_mmse_gerber(a, msum)
            hi = bounds.scalar_upper(a, msum)
            slacks += (ehp - lo + 1e-10, hi - ehp + 1e-10)

    def tag(i):
        k, j = divmod(i // 2, len(alphas))
        return f"mix#{k} alpha={alphas[j]}"

    worst = _track_min((math.inf, ""), slacks, tag)
    out.append(_result("scalar-lemma-sandwich", *worst))

    worst = (math.inf, "")
    a = 0.11
    eq_pmf = _product([1.0, 0.0, 0.5])
    gap_eq = abs(dist.entropy(dist.apply_bsc(eq_pmf, a)) / 3
                 - bounds.vector_mmse_gerber(eq_pmf, a).value)
    worst = _track(worst, 1e-10 - gap_eq, "extreme product")
    for name, pmf in (
        ("biased product", _product([0.3, 0.3])),
        ("markov", dist.markov_joint_pmf(3, 0.2)),
    ):
        gap = (dist.entropy(dist.apply_bsc(pmf, a)) / pmf.n
               - bounds.vector_mmse_gerber(pmf, a).value)
        worst = _track(worst, gap - 1e-6, name)
    out.append(_result("equality-exactly-when-extreme", *worst))

    # per x: the MGL sandwich's two sides, then the new sandwich's
    worst = (math.inf, "")
    grid = np.linspace(0.0, 1.0, 1001).tolist()
    for a in (0.05, 0.11, 0.3):
        slacks = []
        for x in grid:
            lo, hi = bounds.sandwich_mgl(a, x)
            mid = bounds.scalar_mmse_gerber(a, x / 4.0)
            lo2, hi2 = bounds.sandwich_new(a, x)
            mg = bounds.mgl_scalar(a, x)
            slacks += (mid - lo + 1e-12, hi - mid + 1e-12, mg - lo2 + 1e-12, hi2 - mg + 1e-12)
        worst = _track_min(worst, slacks, lambda i: (
            f"mgl alpha={a} x={grid[i // 4]:.3f}" if i % 4 < 2
            else f"new alpha={a} u={grid[i // 4]:.3f}"))
    out.append(_result("sandwich-orderings", *worst))

    worst = (math.inf, "")
    grid = np.linspace(0.0, 0.25, 401).tolist()
    for a in (0.05, 0.11, 0.3):
        vals = np.array([bounds.scalar_upper(a, v) for v in grid])
        worst = _track_min(worst, vals[1:] - vals[:-1] + 1e-12, lambda i: f"mono alpha={a}")
        worst = _track_min(worst, 1e-12 - _second_differences(vals),
                           lambda i: f"concave alpha={a}")
    out.append(_result("upper-curve-shape", *worst))

    worst = (math.inf, "")
    for k, pmf in enumerate(_random_pmfs(rng, 12, sizes=(2, 3))):
        for a in (0.11, 0.3):
            iid = _product([a] * pmf.n)
            total = bounds.vector_memory_noise(pmf, iid).value
            per = bounds.vector_mmse_gerber(pmf, a).value
            worst = _track(worst, 1e-12 - abs(total - pmf.n * per), f"pmf#{k} alpha={a}")
    out.append(_result("memoryless-noise-reduction", *worst))
    return out


def _max_abs_f(params: hmm.MarkovHmmParams, steps: int, rng: np.random.Generator) -> float:
    """Largest |f(W)| over W_0 .. W_{steps-1} of a simulated belief path.

    f is odd and increasing, so that is f(max |W|), and |W| = |ln x| for the
    path's odds x: only the extreme odds are kept. The path is W_1 ..
    W_steps, taken piece by piece; W_0 = 0 (x = 1) starts the extremes, and
    W_steps is skipped.
    """
    lo = hi = 1.0
    seen = 0
    for x, _ in hmm._odds_path(params.q, params.alpha, steps, rng):
        seen += x.size
        if seen == steps:
            x = x[:-1]
        if x.size:
            lo, hi = min(lo, float(x.min())), max(hi, float(x.max()))
    return hmm.propagate_llr(max(math.log(hi), -math.log(lo)), params.q)


def run_hmm(seed: int = 0, budget: int = 500) -> list[CheckResult]:
    out: list[CheckResult] = []
    mc_samples = max(2000, min(200_000, budget * 400))

    worst = (math.inf, "")
    for gap in (1, 2, 3):
        for q in (0.05, 0.2, 0.4):
            n = 2 * gap + 1
            pmf = dist.markov_joint_pmf(n, q)
            # the closed form sees exactly one observation at distance gap
            # on each side, so condition only on the two endpoints
            direct = dist.conditional_mmse(pmf, gap + 1, (1, n))
            err = abs(hmm.mmse_two_sided(gap, q) - direct)
            worst = _track(worst, 1e-10 - err, f"gap={gap} q={q}")
    out.append(_result("two-sided-closed-form", *worst))

    worst = (math.inf, "")
    for n in (4, 8):
        for q in (0.05, 0.1):
            pmf = dist.markov_joint_pmf(n, q)
            dy = dist.mmse_along_permutation(pmf, hmm.dyadic_permutation(n))
            ident = dist.mmse_along_permutation(pmf, tuple(range(1, n + 1)))
            worst = _track(worst, dy - ident, f"n={n} q={q} vs identity")
            touched = 2.0 * sum(
                2.0 ** (-t) * hmm.mmse_two_sided(1 << t, q)
                for t in range(n.bit_length() - 1))
            worst = _track(worst, 4.0 * dy / n - touched + 1e-12, f"n={n} q={q} vs series")
    out.append(_result("dyadic-order-strength", *worst))

    # the 18 points are simulated in one lockstep run; theorem6 is checked
    # against the same runs and reported last
    grid = [(a, q) for a in (0.05, 0.11, 0.25) for q in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45)]
    points = [hmm.MarkovHmmParams(q, a) for a, q in grid]
    estimates = hmm.entropy_rate_mc_many(
        points, mc_samples, 20_000, [(seed, int(a * 1000), int(q * 1000)) for a, q in grid])
    t5_gaps, t6_gaps = [], []
    for params, (est, se) in zip(points, estimates):
        margin = est + 3.0 * se + 1e-3
        t5_gaps.append(margin - hmm.markov_series_bound(params).value)
        t6_gaps.append(margin - hmm.belief_bound(params).value)

    def tag(i):
        return "alpha={} q={}".format(*grid[i])

    worst = _track_min((math.inf, ""), t5_gaps, tag)
    belief_worst = _track_min((math.inf, ""), t6_gaps, tag)
    out.append(_result("series-bound-below-simulation", *worst))

    worst = (math.inf, "")
    qc = hmm.crossing_q(0.11)
    ha = scalar.binary_entropy(0.11)
    for frac, want_above in ((0.5, True), (0.9, True), (1.1, False), (0.45 / qc, False)):
        q = qc * frac
        gap = (ha + (1.0 - ha) * hmm.series_mmse(q)
               - scalar.binary_entropy(scalar.binary_convolve(0.11, q)))
        slack = gap - 1e-9 if want_above else -gap + 1e-6
        worst = _track(worst, slack, f"q/qc={frac:.2f}")
    out.append(_result("crossing-separates-regimes", *worst))

    worst = (math.inf, "")
    params = hmm.MarkovHmmParams(0.11, 0.11)
    prev = None
    for m in range(1, 13):
        cur = hmm.cover_thomas_ceiling(params, m)
        if prev is not None:
            worst = _track(worst, cur - prev + 1e-15, f"m={m}")
        prev = cur
        worst = _track(worst, 1.0 - cur + 1e-15, f"m={m} vs 1")
    base = scalar.binary_entropy(scalar.binary_convolve(0.11, 0.11))
    worst = _track(worst, 1e-12 - abs(hmm.cover_thomas_ceiling(params, 1) - base), "m=1")
    out.append(_result("ceiling-chain-monotone", *worst))

    worst = (math.inf, "")
    for a, q in ((0.11, 0.1), (0.25, 0.3)):
        params = hmm.MarkovHmmParams(q, a)
        prev = None
        for n in range(1, 17):
            cur = hmm.exact_conditional_entropy(params, n)
            if prev is not None:
                worst = _track(worst, prev - cur + 1e-12, f"alpha={a} q={q} n={n}")
            prev = cur
        t5 = hmm.markov_series_bound(params).value
        worst = _track(worst, prev - t5 + 1e-9, f"alpha={a} q={q} vs series")
    out.append(_result("window-entropy-monotone", *worst))

    rng = np.random.default_rng(seed)
    worst = (math.inf, "")
    for q in (0.05, 0.2, 0.45):
        capln = math.log((1.0 - q) / q)
        slacks = []
        for t in rng.normal(scale=8.0, size=200).tolist():
            fv = hmm.propagate_llr(t, q)
            slacks += (1e-14 - abs(fv + hmm.propagate_llr(-t, q)), capln - abs(fv) + 1e-14)
        worst = _track_min(worst, slacks, lambda i: f"{('odd', 'cap')[i % 2]} q={q}")
    steps = min(1_000_000, max(10_000, budget * 2000))
    params = hmm.MarkovHmmParams(0.1, 0.11)
    cap = hmm.odds_cap(params)
    worst = _track(worst, math.log(cap) * (1.0 + 1e-12) - _max_abs_f(params, steps, rng),
                   f"simulated {steps} steps")
    out.append(_result("belief-stays-in-support", *worst))

    worst = (math.inf, "")
    for a in (0.05, 0.11, 0.25, 0.3):
        for q in (0.05, 0.1, 0.3, 0.45):
            params = hmm.MarkovHmmParams(q, a)
            poly = hmm.quartic_coefficients(params)
            roots = hmm.stationary_odds(params)
            cap = hmm.odds_cap(params)
            grid = np.linspace(1.0, cap, 20001)
            eta = poly.eta
            m = scalar.binary_convolve(a, q)
            gp = ((1.0 - m) * eta * (1.0 - eta * grid) / (1.0 + eta * grid) ** 3
                  + m * eta * (eta - grid) / (eta + grid) ** 3)
            signs = np.sign(gp)
            flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
            tag = f"alpha={a} q={q}"
            worst = _track(worst, -float(abs(len(flips) - len(roots))), tag)
            width = float(grid[1] - grid[0]) if cap > 1.0 else 0.0
            for idx, r in zip(flips, roots):
                err = abs(float(grid[idx]) - r)
                worst = _track(worst, 1.5 * width - err, tag)
    out.append(_result("quartic-matches-slope-scan", *worst))
    out.append(_result("belief-bound-below-simulation", *belief_worst))
    return out


_RUNNERS = {
    "scalar": run_scalar,
    "dist": run_dist,
    "bounds": run_bounds,
    "hmm": run_hmm,
}


SUITES = tuple(_RUNNERS)


def run_suite(name: str, seed: int = 0, budget: int = 500) -> list[CheckResult]:
    """Run one named suite, or every suite for name "all"."""
    if name == "all":
        results: list[CheckResult] = []
        for run in _RUNNERS.values():
            results.extend(run(seed=seed, budget=budget))
        return results
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}")
    return _RUNNERS[name](seed=seed, budget=budget)
