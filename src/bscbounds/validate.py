"""Invariant suites behind the `validate` CLI subcommand.

Every check reports a worst-case slack: the margin by which the tightest
instance satisfied its inequality, already net of the check's tolerance, so
any negative slack is a failure. Checks that compare two routes to the same
number report tolerance minus the worst disagreement the same way.

Each suite is a generator over one seeded rng stream. It yields its checks
in report order as `(name, slacks, detail_of)`: the slack of every instance,
and a function that formats the detail of instance i. `run_suite` folds each
check before the suite resumes, keeping the first smallest slack; a NaN
slack counts as the worst, so a check that computed NaN fails.
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


def _worst(slacks, detail_of) -> tuple[float, str]:
    """The first smallest of `slacks` and its detail, by one argmin. The
    first NaN, if any, is kept instead. No slacks, or none below +inf, give
    (inf, ""). detail_of(i) formats the detail of index i, and is called only
    for the index kept."""
    slacks = np.asarray(slacks, dtype=float)
    if not slacks.size:
        return math.inf, ""
    i = int(np.argmin(slacks))
    slack = float(slacks[i])
    if slack == math.inf:
        return math.inf, ""
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


def _along_every_order(pmfs: list[dist.ExplicitPmf]) -> list[tuple[list, np.ndarray]]:
    """For each pmf, in input order, its n! prediction orders and its MMSE
    along each; the pmfs of one n are taken in stacks of n! 2**n doubles a
    member."""
    def run(stack):
        orders = list(itertools.permutations(range(1, stack[0].n + 1)))
        return [(orders, vals) for vals in dist._mmse_along_orders_many(stack, orders)]

    return dist._by_stacks(pmfs, lambda n: math.factorial(n) << n, run)


def _random_pmfs(rng: np.random.Generator, count: int, sizes=(2, 3, 4)):
    for i in range(count):
        n = sizes[i % len(sizes)]
        w = rng.random(1 << n)
        yield dist.ExplicitPmf(w / w.sum())


def _scalar_checks(seed: int, budget: int):
    rng = np.random.default_rng(seed)

    grid = np.linspace(0.0, 1.0, 1001).tolist()
    errs = [abs(scalar.binary_entropy(scalar.inv_binary_entropy(u)) - u) for u in grid]
    yield "inverse-identity", 1e-10 - np.array(errs), lambda i: f"u={grid[i]:.4f}"

    pairs, slacks = [], []
    for _ in range(budget):
        a = float(rng.random() * 0.5)
        b = float(rng.random() * 0.5)
        c = scalar.binary_convolve(a, b)
        pairs.append((a, b))
        slacks += (c - max(a, b) + 1e-15, 0.5 - c + 1e-15)
    yield ("convolve-between-max-and-half", slacks,
           lambda i: "a={:.4f} b={:.4f}".format(*pairs[i // 2]))

    ps = (0.3, 0.4, 0.45)
    errs = [abs(scalar.entropy_taylor(2.0 * p - 1.0, 60) - scalar.binary_entropy(p)) for p in ps]
    yield "taylor-matches-entropy", 1e-12 - np.array(errs), lambda i: f"p={ps[i]}"

    grid = np.linspace(0.0, 0.5, 401).tolist()
    alphas = (0.0, 0.11, 0.3)
    slacks = np.concatenate([
        1e-12 - _second_differences(
            [scalar.binary_entropy(scalar.binary_convolve(a, x)) for x in grid])
        for a in alphas])

    def tag(i):
        k, j = divmod(i, len(grid) - 2)
        return f"alpha={alphas[k]} x={grid[j + 1]:.4f}"

    yield "convolved-entropy-concave", slacks, tag


def _dist_checks(seed: int, budget: int):
    rng = np.random.default_rng(seed)

    lower, upper, dominate, cases = [], [], [], []
    pmfs = list(_random_pmfs(rng, max(budget // 5, 20)))
    found = zip(pmfs, dist.entropy_many(pmfs), dist.worst_case_mmse_many(pmfs),
                _along_every_order(pmfs))
    for k, (pmf, h, (worst_val, _), (perms, m)) in enumerate(found):
        phat = scalar.inv_binary_entropy(h / pmf.n)
        floor = 4.0 * pmf.n * phat * (1.0 - phat)
        lower.append(4.0 * m - floor + 1e-10)
        upper.append(h - 4.0 * m + 1e-10)
        dominate.append(worst_val - m + 1e-12)
        cases += ((k, p) for p in perms)

    def tag(i):
        return "pmf#{} {}".format(*cases[i])

    yield "mmse-floor-any-order", np.concatenate(lower), tag
    yield "mmse-entropy-cap-any-order", np.concatenate(upper), tag
    yield "worst-case-dominates", np.concatenate(dominate), tag

    products = [_product(rng.random(2 + k % 3)) for k in range(max(budget // 10, 10))]
    spreads = [vals.max() - vals.min() for _, vals in _along_every_order(products)]
    yield "product-order-invariant", 1e-12 - np.array(spreads), lambda k: f"product#{k}"

    errs = []
    for pmf in dist.apply_bsc_many(_random_pmfs(rng, 20), 0.5):
        flat = pmf.weights
        errs.append(float(np.abs(flat - 1.0 / flat.size).max()))
    yield "half-noise-erases", 1e-12 - np.array(errs), lambda k: f"pmf#{k}"

    gaps = []
    pmfs = list(_random_pmfs(rng, 20))
    for (best0, _), (_, direct) in zip(dist.best_case_mmse_given_output_many(pmfs, 0.0),
                                       _along_every_order(pmfs)):
        gaps.append(abs(best0 - direct.min()))
    yield "noiseless-best-case", 1e-12 - np.array(gaps), lambda k: f"pmf#{k}"

    slacks, tags = [], []
    for k, pmf in enumerate(_random_pmfs(rng, max(budget // 10, 10))):
        target = 1 + int(rng.integers(pmf.n))
        others = [j for j in range(1, pmf.n + 1) if j != target]
        keep = [j for j in others if rng.random() < 0.6]
        clean = dist.conditional_mmse(pmf, target, keep)
        for a in (0.11, 0.3):
            noisy = dist.noisy_conditional_mmse(pmf, target, keep, a)
            slacks.append(noisy - clean + 1e-12)
            tags.append(f"pmf#{k} alpha={a}")
    yield "noise-never-helps-prediction", slacks, tags.__getitem__


def _bounds_checks(seed: int, budget: int):
    rng = np.random.default_rng(seed)

    alphas = (0.0, 0.05, 0.11, 0.25, 0.5)
    low, up, mgl = [], [], []
    pmfs = list(_random_pmfs(rng, max(budget // 5, 25)))
    # per alpha, the bound values of every pmf; read back pmf by pmf
    lows = [[r.value for r in bounds.vector_mmse_gerber_many(pmfs, a)] for a in alphas]
    ups = [[r.value for r in bounds.vector_upper_many(pmfs, a)] for a in alphas]
    hxs = dist.entropy_many(pmfs)
    hys = [dist.entropy_many(dist.apply_bsc_many(pmfs, a)) for a in alphas]
    for k, pmf in enumerate(pmfs):
        hx = hxs[k] / pmf.n
        for j, a in enumerate(alphas):
            hy = hys[j][k] / pmf.n
            low.append(hy - lows[j][k] + 1e-10)
            up.append(ups[j][k] - hy + 1e-10)
            mgl.append(hy - bounds.mgl_scalar(a, hx) + 1e-10)

    def tag(i):
        k, j = divmod(i, len(alphas))
        return f"pmf#{k} alpha={alphas[j]}"

    yield "lower-bound-valid", low, tag
    yield "upper-bound-valid", up, tag
    yield "mgl-bound-valid", mgl, tag

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

    yield "scalar-lemma-sandwich", slacks, tag

    a = 0.11
    cases = (("extreme product", _product([1.0, 0.0, 0.5])),
             ("biased product", _product([0.3, 0.3])),
             ("markov", dist.markov_joint_pmf(3, 0.2)))
    gaps = [dist.entropy(dist.apply_bsc(pmf, a)) / pmf.n - bounds.vector_mmse_gerber(pmf, a).value
            for _, pmf in cases]
    yield ("equality-exactly-when-extreme", [1e-10 - abs(gaps[0])] + [g - 1e-6 for g in gaps[1:]],
           lambda i: cases[i][0])

    # per x: the MGL sandwich's two sides, then the new sandwich's
    grid = np.linspace(0.0, 1.0, 1001).tolist()
    slacks = []
    for a in alphas:
        for x in grid:
            lo, hi = bounds.sandwich_mgl(a, x)
            mid = bounds.scalar_mmse_gerber(a, x / 4.0)
            lo2, hi2 = bounds.sandwich_new(a, x)
            mg = bounds.mgl_scalar(a, x)
            slacks += (mid - lo + 1e-12, hi - mid + 1e-12, mg - lo2 + 1e-12, hi2 - mg + 1e-12)

    def sandwich_tag(i):
        k, side = divmod(i, 4)
        a, x = alphas[k // len(grid)], grid[k % len(grid)]
        return f"mgl alpha={a} x={x:.3f}" if side < 2 else f"new alpha={a} u={x:.3f}"

    yield "sandwich-orderings", slacks, sandwich_tag

    grid = np.linspace(0.0, 0.25, 401).tolist()
    slacks, tags = [], []
    for a in alphas:
        vals = np.array([bounds.scalar_upper(a, v) for v in grid])
        for kind, s in (("mono", vals[1:] - vals[:-1] + 1e-12),
                        ("concave", 1e-12 - _second_differences(vals))):
            slacks.append(s)
            tags += [f"{kind} alpha={a}"] * s.size
    yield "upper-curve-shape", np.concatenate(slacks), tags.__getitem__

    slacks, tags = [], []
    for k, pmf in enumerate(_random_pmfs(rng, 12, sizes=(2, 3))):
        for a in (0.11, 0.3):
            iid = _product([a] * pmf.n)
            total = bounds.vector_memory_noise(pmf, iid).value
            per = bounds.vector_mmse_gerber(pmf, a).value
            slacks.append(1e-12 - abs(total - pmf.n * per))
            tags.append(f"pmf#{k} alpha={a}")
    yield "memoryless-noise-reduction", slacks, tags.__getitem__


def _max_abs_f(params: hmm.MarkovHmmParams, steps: int, rng: np.random.Generator) -> float:
    """Largest |f(W)| over W_0 .. W_{steps-1} of a simulated belief path.

    f is odd and increasing, so that is f(max |W|), and |W| = |ln x| for the
    path's odds x: only the extreme odds are kept. The path is W_1 ..
    W_steps, taken piece by piece; W_0 = 0 (x = 1) starts the extremes, and
    W_steps is skipped.
    """
    lo = hi = 1.0
    seen = 0
    for x in hmm._odds_path(params.q, params.alpha, steps, rng):
        seen += x.size
        if seen == steps:
            x = x[:-1]
        if x.size:
            lo, hi = min(lo, float(x.min())), max(hi, float(x.max()))
    return hmm.propagate_llr(max(math.log(hi), -math.log(lo)), params.q)


def _hmm_checks(seed: int, budget: int):
    mc_samples = max(2000, min(200_000, budget * 400))

    slacks, tags = [], []
    for gap in (1, 2, 3):
        for q in (0.05, 0.2, 0.4):
            n = 2 * gap + 1
            pmf = dist.markov_joint_pmf(n, q)
            # the closed form sees exactly one observation at distance gap
            # on each side, so condition only on the two endpoints
            direct = dist.conditional_mmse(pmf, gap + 1, (1, n))
            slacks.append(1e-10 - abs(hmm.mmse_two_sided(gap, q) - direct))
            tags.append(f"gap={gap} q={q}")
    yield "two-sided-closed-form", slacks, tags.__getitem__

    slacks, tags = [], []
    for n in (4, 8):
        for q in (0.05, 0.1):
            pmf = dist.markov_joint_pmf(n, q)
            dy = dist.mmse_along_permutation(pmf, hmm.dyadic_permutation(n))
            ident = dist.mmse_along_permutation(pmf, tuple(range(1, n + 1)))
            touched = 2.0 * sum(
                2.0 ** (-t) * hmm.mmse_two_sided(1 << t, q)
                for t in range(n.bit_length() - 1))
            slacks += (dy - ident, 4.0 * dy / n - touched + 1e-12)
            tags += (f"n={n} q={q} vs identity", f"n={n} q={q} vs series")
    yield "dyadic-order-strength", slacks, tags.__getitem__

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

    grid_tags = ["alpha={} q={}".format(*point) for point in grid]
    yield "series-bound-below-simulation", t5_gaps, grid_tags.__getitem__

    slacks, tags = [], []
    qc = hmm.crossing_q(0.11)
    ha = scalar.binary_entropy(0.11)
    for frac, want_above in ((0.5, True), (0.9, True), (1.1, False), (0.45 / qc, False)):
        q = qc * frac
        gap = (ha + (1.0 - ha) * hmm.series_mmse(q)
               - scalar.binary_entropy(scalar.binary_convolve(0.11, q)))
        slacks.append(gap - 1e-9 if want_above else -gap + 1e-6)
        tags.append(f"q/qc={frac:.2f}")
    yield "crossing-separates-regimes", slacks, tags.__getitem__

    slacks, tags = [], []
    params = hmm.MarkovHmmParams(0.11, 0.11)
    prev = None
    for m in range(1, 13):
        cur = hmm.cover_thomas_ceiling(params, m)
        if prev is not None:
            slacks.append(cur - prev + 1e-15)
            tags.append(f"m={m}")
        prev = cur
        slacks.append(1.0 - cur + 1e-15)
        tags.append(f"m={m} vs 1")
    base = scalar.binary_entropy(scalar.binary_convolve(0.11, 0.11))
    slacks.append(1e-12 - abs(hmm.cover_thomas_ceiling(params, 1) - base))
    tags.append("m=1")
    yield "ceiling-chain-monotone", slacks, tags.__getitem__

    slacks, tags = [], []
    for a, q in ((0.11, 0.1), (0.25, 0.3)):
        params = hmm.MarkovHmmParams(q, a)
        prev = None
        for n in range(1, 17):
            cur = hmm.exact_conditional_entropy(params, n)
            if prev is not None:
                slacks.append(prev - cur + 1e-12)
                tags.append(f"alpha={a} q={q} n={n}")
            prev = cur
        slacks.append(prev - hmm.markov_series_bound(params).value + 1e-9)
        tags.append(f"alpha={a} q={q} vs series")
    yield "window-entropy-monotone", slacks, tags.__getitem__

    rng = np.random.default_rng(seed)
    qs = (0.05, 0.2, 0.45)
    draws = 200
    slacks = []
    for q in qs:
        capln = math.log((1.0 - q) / q)
        for t in rng.normal(scale=8.0, size=draws).tolist():
            fv = hmm.propagate_llr(t, q)
            slacks += (1e-14 - abs(fv + hmm.propagate_llr(-t, q)), capln - abs(fv) + 1e-14)
    steps = min(1_000_000, max(10_000, budget * 2000))
    params = hmm.MarkovHmmParams(0.1, 0.11)
    cap = hmm.odds_cap(params)
    slacks.append(math.log(cap) * (1.0 + 1e-12) - _max_abs_f(params, steps, rng))

    def support_tag(i):
        if i == 2 * draws * len(qs):
            return f"simulated {steps} steps"
        return f"{('odd', 'cap')[i % 2]} q={qs[i // (2 * draws)]}"

    yield "belief-stays-in-support", slacks, support_tag

    slacks, tags = [], []
    for a in (0.05, 0.11, 0.25, 0.3):
        for q in (0.05, 0.1, 0.3, 0.45):
            params = hmm.MarkovHmmParams(q, a)
            roots = hmm.stationary_odds(params)
            cap = hmm.odds_cap(params)
            grid = np.linspace(1.0, cap, 20001)
            eta = (1.0 - a) / a
            m = scalar.binary_convolve(a, q)
            gp = ((1.0 - m) * eta * (1.0 - eta * grid) / (1.0 + eta * grid) ** 3
                  + m * eta * (eta - grid) / (eta + grid) ** 3)
            signs = np.sign(gp)
            flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
            width = float(grid[1] - grid[0]) if cap > 1.0 else 0.0
            slacks.append(-float(abs(len(flips) - len(roots))))
            slacks += (1.5 * width - abs(float(grid[idx]) - r) for idx, r in zip(flips, roots))
            tags += [f"alpha={a} q={q}"] * (1 + min(len(flips), len(roots)))
    yield "quartic-matches-slope-scan", slacks, tags.__getitem__

    yield "belief-bound-below-simulation", t6_gaps, grid_tags.__getitem__


_CHECKS = {
    "scalar": _scalar_checks,
    "dist": _dist_checks,
    "bounds": _bounds_checks,
    "hmm": _hmm_checks,
}


SUITES = tuple(_CHECKS)


def run_suite(name: str, seed: int = 0, budget: int = 500) -> list[CheckResult]:
    """Run one named suite, or every suite for name "all"."""
    if name != "all" and name not in _CHECKS:
        raise ValueError(f"unknown suite {name!r}")
    results: list[CheckResult] = []
    for suite in SUITES if name == "all" else (name,):
        for check, slacks, detail_of in _CHECKS[suite](seed, budget):
            slack, detail = _worst(slacks, detail_of)
            results.append(CheckResult(check, slack >= 0.0, slack, detail))
    return results
