"""The blocked-scan Monte Carlo kernel of hmm.entropy_rate_mc and
hmm.entropy_rate_mc_many, checked against the sequential belief loop it
replaced, which is kept here as the oracle, and against the earlier builders
and routes kept here as references."""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscbounds import hmm, validate
from bscbounds.errors import DomainError
from bscbounds.hmm import (
    MarkovHmmParams,
    entropy_rate_mc,
    entropy_rate_mc_many,
    propagate_llr,
)
from bscbounds.scalar import _conv

BLOCK = 64
CHUNK = hmm._MC_CHUNK
RATES = (1e-7, 0.001, 0.05, 0.25, 0.5 - 1e-9, 0.5)
PAIRS = [(q, a) for q in RATES for a in RATES]
TOTALS = (1, BLOCK - 1, BLOCK, BLOCK + 1, CHUNK + 1)
# the longer runs take every rate once as q and once as alpha; CHUNK + 4464
# is the length of a 70,000-step fig3-sweep row
LONG_TOTALS = (CHUNK - 1, CHUNK, CHUNK + 4464, 3 * CHUNK + BLOCK + 1)
LONG_PAIRS = list(zip(RATES, reversed(RATES)))

# At q = 1e-7, alpha = 0.5 - 1e-9 the float64 loop drifts by itself: W stays
# within 2e-6 of 0, so the ratio inside its log is within about 1e-6 of 1 and
# each step rounds by about 1e-16 absolute, with a sign that persists while W
# moves slowly. Against an 80-bit run of the same draws the loop is 3.0e-12
# off after 65535 steps and the kernel 6.3e-14, so the 80-bit run is the
# reference there. So it is at q = 1.01e-8, where after 65539 steps the loop
# is 1.1e-12 off and the kernel 2.4e-14.
DRIFTING = (1e-7, 0.5 - 1e-9)
DRIFTING_PAIRS = (DRIFTING, (1.01e-8, 0.5 - 1e-9))

# just above the rates that shortcut to exact limits, a middle rate, and just
# below 1/2; totals that end mid-byte and mid-piece, and 3 steps into a chunk
EDGE_RATES = (1.01e-8, 0.25, 0.5 - 1e-9)
EDGE_PAIRS = [(q, a) for q in EDGE_RATES for a in EDGE_RATES]
EDGE_TOTALS = (hmm._MC_PIECE - 1, hmm._MC_PIECE + 1, CHUNK + 3)


# the channel rates of the benchmark's fig3 sweep, and the q of its rows
# that simulate (q = 0 shortcuts to its exact limit)
FIG3_RATES = (0.02, 0.05, 0.08, 0.11, 0.16, 0.22, 0.30, 0.40)
FIG3_QS = np.linspace(0.0, 0.5, 21)[1:].tolist()


def reference_byte_maps(q, alpha):
    """The byte table of one (q, alpha), built as entropy_rate_mc built it
    on every call before the tables of a lockstep group were built at once."""
    eta = (1.0 - alpha) / alpha
    cq = 1.0 - q
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


def odds_route_terms(table, q, alpha, x):
    """-h of the predicted next output at every byte and prefix of a byte
    table, from the odds x before the byte, through the odds after the step
    as entropy_rate_mc computed them before its outcome tables."""
    a, b, c, d = table
    y = (a * x + b) / (c * x + d)
    z = np.minimum(y, 1.0 / y)
    m = alpha * (1.0 - q) + q * (1.0 - alpha)
    weight = 1.0 + z
    p = ((1.0 - m) + m * z) / weight
    p_c = (m + (1.0 - m) * z) / weight
    return p * np.log2(p) + p_c * np.log2(p_c)


def oracle_path(q, alpha, total, seed):
    """W_1..W_total by the sequential loop entropy_rate_mc used to run."""
    rng = np.random.default_rng(seed)
    ln_eta = math.log((1.0 - alpha) / alpha)
    r_step = np.where(rng.random(total) < alpha, -ln_eta, ln_eta).tolist()
    s_sign = np.where(rng.random(total) < q, -1.0, 1.0).tolist()
    exp_, log_ = math.exp, math.log
    cq = 1.0 - q
    w = 0.0
    path = [0.0] * total
    for i in range(total):
        if w >= 0.0:
            e = exp_(-w)
            fv = log_((cq + q * e) / (q + cq * e))
        else:
            e = exp_(w)
            fv = -log_((cq + q * e) / (q + cq * e))
        w = r_step[i] + s_sign[i] * fv
        path[i] = w
    return np.asarray(path)


def extended_path(q, alpha, total, seed):
    """The same recursion from the same draws and float64 rates, carried in
    80-bit long double."""
    rng = np.random.default_rng(seed)
    r_neg = rng.random(total) < alpha
    s_neg = rng.random(total) < q
    ld = np.longdouble
    ln_eta = np.log(ld((1.0 - alpha) / alpha))
    lq, lcq = ld(q), ld(1.0 - q)
    w = ld(0.0)
    path = np.empty(total, dtype=ld)
    for i in range(total):
        x = np.exp(w)
        fv = np.log((lcq * x + lq) / (lq * x + lcq))
        w = (-ln_eta if r_neg[i] else ln_eta) + (-fv if s_neg[i] else fv)
        path[i] = w
    return path


def oracle_estimate(path, q, alpha, burnin):
    """Estimate and i.i.d. stderr as the old entropy_rate_mc computed them
    from the kept part of its path."""
    ws = path[burnin:]
    ez = np.exp(-np.abs(ws))
    p = np.where(ws >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    pq = p * (1.0 - q) + (1.0 - p) * q
    out = pq * (1.0 - alpha) + (1.0 - pq) * alpha
    hv = -(out * np.log2(out) + (1.0 - out) * np.log2(1.0 - out))
    se = 0.0 if ws.size < 2 else float(hv.std(ddof=1) / math.sqrt(ws.size))
    return float(hv.mean()), se


def belief_path(q, alpha, total, seed):
    """Yield W_1 .. W_total of the belief recursion from W_0 = 0, at most
    _MC_PIECE values at a time: W = +-ln x of hmm._odds_path's odds, with
    the sign of sigma, the running xor of the S flags, put back."""
    draws = np.random.default_rng(seed)
    draws.random(total)
    sigma = np.logical_xor.accumulate(draws.random(total) < q)
    done = 0
    for x in hmm._odds_path(q, alpha, total, np.random.default_rng(seed)):
        v = np.log(x)
        yield np.where(sigma[done:done + x.size], -v, v)
        done += x.size


def propagate_llr_vec(t, q):
    """propagate_llr over an array, in the same stable form, so the result is
    exactly odd in t."""
    cq = 1.0 - q
    e = np.exp(-np.abs(t))
    return np.copysign(np.log((cq + q * e) / (q + cq * e)), t)


def kernel_path(q, alpha, total, seed):
    return np.concatenate(list(belief_path(q, alpha, total, seed)))


def check_against_oracle(q, alpha, total, seed):
    path = kernel_path(q, alpha, total, seed)
    oracle = oracle_path(q, alpha, total, seed)
    reference = extended_path(q, alpha, total, seed) if (q, alpha) in DRIFTING_PAIRS else oracle
    assert path.shape == (total,)
    assert float(np.max(np.abs(path - reference))) <= 1e-12, (q, alpha, total)
    for burnin in sorted({0, total // 3, total - 1}):
        want_est, want_se = oracle_estimate(oracle, q, alpha, burnin)
        est, se = entropy_rate_mc(MarkovHmmParams(q, alpha), total - burnin,
                                  burnin=burnin, seed=seed)
        assert abs(est - want_est) <= 1e-12, (q, alpha, total, burnin)
        # below 1e-15 a stderr is the spread of h values that differ only in
        # their last bits (the grid's are all under 3e-19; the next smallest
        # is 3.3e-11), where the two summation orders round differently
        assert se == pytest.approx(want_se, rel=1e-9, abs=1e-15), (q, alpha, total, burnin)


@pytest.mark.parametrize("q,alpha", PAIRS)
def test_paths_and_estimates_match_oracle(q, alpha):
    for total in TOTALS:
        check_against_oracle(q, alpha, total, seed=(5, total))


@pytest.mark.parametrize("q,alpha", LONG_PAIRS)
def test_long_runs_match_oracle(q, alpha):
    for total in LONG_TOTALS:
        check_against_oracle(q, alpha, total, seed=(5, total))


@pytest.mark.parametrize("q,alpha", EDGE_PAIRS)
def test_edge_rates_match_oracle(q, alpha):
    for total in EDGE_TOTALS:
        check_against_oracle(q, alpha, total, seed=(5, total))


@pytest.mark.parametrize("q,alpha", EDGE_PAIRS)
def test_byte_table_matches_eight_single_steps(q, alpha):
    _, table = hmm._row_tables(np.array([q]), np.array([alpha]), 0.0)
    eta = (1.0 - alpha) / alpha
    cq = 1.0 - q
    flags = np.arange(256)
    for x0 in (1e-12, 0.3, 1.0, 7.0, 1e12):
        x = np.full(256, x0)
        for k in range(8):
            plain = eta * (cq * x + q) / (q * x + cq)
            x = np.where((flags >> k) & 1, (cq * x + q) / (eta * (q * x + cq)), plain)
            a, b, c, d = table[:, :, k]
            assert np.allclose((a * x0 + b) / (c * x0 + d), x, rtol=1e-14, atol=0), (x0, k)
    # complementing the flags swaps the two steps: (a, b, c, d) -> (d, c, b, a)
    assert np.array_equal(table[::-1, ::-1], table)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended long double")
def test_float64_loop_drifts_where_the_kernel_does_not():
    q, alpha = DRIFTING
    total = CHUNK - 1
    seed = (5, total)
    ref = extended_path(q, alpha, total, seed)
    assert float(np.max(np.abs(kernel_path(q, alpha, total, seed) - ref))) <= 1e-13
    assert float(np.max(np.abs(oracle_path(q, alpha, total, seed) - ref))) > 1e-12


@pytest.mark.parametrize("make", [
    lambda seed: np.random.default_rng(seed),
    lambda seed: np.random.Generator(np.random.PCG64DXSM(seed)),
    lambda seed: np.random.Generator(np.random.MT19937(seed)),
    lambda seed: np.random.Generator(np.random.Philox(seed)),
], ids=["pcg64", "pcg64dxsm", "mt19937", "philox"])
@pytest.mark.parametrize("total", [1, CHUNK, 2 * CHUNK + 5])
def test_chunked_draws_equal_all_at_once(make, total):
    old = make(4)
    r_all, s_all = old.random(total), old.random(total)
    # the S stream starts where the R draws end, and taking it leaves the
    # caller's generator where it was
    rng = make(4)
    s_rng = hmm._s_stream(rng, total, np.empty(hmm._MC_PIECE))
    assert np.array_equal(s_rng.random(total), s_all)
    assert np.array_equal(rng.random(total), r_all)
    # end to end: sigma is the running xor of the S flags, and a step is
    # flagged, scaling the carried odds by 1/eta instead of eta, where R's
    # flag differs from sigma
    q, alpha = 0.1, 0.11
    rng = make(4)
    x = np.concatenate(list(hmm._odds_path(q, alpha, total, rng)))
    sigma = np.logical_xor.accumulate(s_all < q)
    prev = np.concatenate(([1.0], x[:-1]))
    carried = ((1.0 - q) * prev + q) / (q * prev + (1.0 - q))
    assert np.array_equal(x < carried, (r_all < alpha) ^ sigma)
    # the caller's generator ends where the old 2 * total draws left it
    assert np.array_equal(rng.random(8), old.random(8))


@pytest.mark.parametrize("bits", [np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
                                  np.random.SFC64],
                         ids=["pcg64dxsm", "mt19937", "philox", "sfc64"])
@pytest.mark.parametrize("total", [1, 700, CHUNK + 1])
def test_estimates_on_every_bit_generator_match_the_oracle(bits, total):
    q, alpha = 0.1, 0.11
    oracle = oracle_path(q, alpha, total, np.random.Generator(bits(8)))
    for burnin in sorted({0, total // 3, total - 1}):
        rng = np.random.Generator(bits(8))
        est, se = entropy_rate_mc(MarkovHmmParams(q, alpha), total - burnin, burnin=burnin,
                                  seed=rng)
        want_est, want_se = oracle_estimate(oracle, q, alpha, burnin)
        assert abs(est - want_est) <= 1e-12, (total, burnin)
        assert se == pytest.approx(want_se, rel=1e-9, abs=1e-15), (total, burnin)
        # the generator ends where 2 * total draws leave it
        old = np.random.Generator(bits(8))
        old.random(2 * total)
        assert rng.random() == old.random(), (total, burnin)


@pytest.mark.parametrize("bits,want", [
    (np.random.PCG64, ("0x1.931245c9e43dap-1", "0x1.a2f3a1773f140p-1", "0x1.d571b88cc5a9bp-1")),
    (np.random.MT19937, ("0x1.92b394109a437p-1", "0x1.a32d598f86235p-1", "0x1.098e58fee88bcp-2")),
], ids=["pcg64", "mt19937"])
def test_a_generator_shared_by_two_rows_keeps_its_draw_order(bits, want):
    # both rows draw their R uniforms from g in turn, chunk by chunk; the
    # second row's S stream is a copy of g taken after the first row drew its
    # first chunk, and g ends where the second row's S draws end
    g = np.random.Generator(bits(3))
    got = entropy_rate_mc_many([MarkovHmmParams(0.1, 0.11), MarkovHmmParams(0.2, 0.05)],
                               30000, 1000, [g, g])
    assert (got[0].estimate.hex(), got[1].estimate.hex(), g.random().hex()) == want


class CountingGenerator(np.random.Generator):
    """A Generator that counts its calls of random, records the thread that
    made each, and raises DrawFailed on call number fail_at."""

    calls = 0
    threads = ()
    fail_at = None

    def random(self, *args, **kwargs):
        self.calls += 1
        self.threads += (threading.get_ident(),)
        if self.calls == self.fail_at:
            raise DrawFailed(self.calls)
        return super().random(*args, **kwargs)


class DrawFailed(Exception):
    pass


def test_a_fig3_sweep_group_draws_each_row_once_a_chunk():
    # the last lockstep group of a fig3-sweep invocation: 7 rows of 70,000
    # steps run 8 chunks of 8,752 steps a row, and each row draws a chunk's
    # R uniforms in one call, 56 in all
    rows = FIG3_QS[12:19]
    rngs = [CountingGenerator(np.random.PCG64((7, i))) for i in range(len(rows))]
    entropy_rate_mc_many([MarkovHmmParams(q, 0.11) for q in rows], 60_000, 10_000, rngs)
    assert [g.calls for g in rngs] == [8] * 7


def test_a_generator_shared_by_two_groups_keeps_its_draw_order():
    # 9 rows run as two lockstep groups of 4 and 5 rows, two chunks each; g
    # drives all of them, so every row's draws and every group's turn must
    # come in the order of one thread
    g = CountingGenerator(np.random.PCG64(11))
    params = [MarkovHmmParams(q, 0.11) for q in FIG3_QS[:9]]
    got = entropy_rate_mc_many(params, 20_000, 1_005, [g] * 9)
    drew_on = set(g.threads)
    assert [e.estimate.hex() for e in got] + [g.random().hex()] == [
        "0x1.3fb1a3c787f1cp-1", "0x1.62c28c86354d4p-1", "0x1.7d2e1d4baaac5p-1",
        "0x1.923d3177c68bfp-1", "0x1.a2ea614b82105p-1", "0x1.b186be239847dp-1",
        "0x1.be98bfe10b25dp-1", "0x1.c9a44040928b1p-1", "0x1.d2dc448273fb2p-1",
        "0x1.eb27ab9c1d86cp-2"]
    # every draw ran on one helper thread, not the caller's, and the next
    # call draws on the same one
    h = CountingGenerator(np.random.PCG64(12))
    entropy_rate_mc(params[0], 1_000, burnin=0, seed=h)
    assert len(drew_on) == 1 and set(h.threads) == drew_on
    assert threading.get_ident() not in drew_on


def test_a_failed_draw_raises_in_the_caller_and_spares_the_helper():
    params = MarkovHmmParams(0.1, 0.11)
    want = entropy_rate_mc(params, 2 * CHUNK, burnin=CHUNK, seed=3)
    threads = threading.active_count()
    for _ in range(20):
        # a row's chunk of CHUNK steps draws in 4 blocks, so call 6 is the
        # second block of the second chunk, drawn while the first is scanned
        g = CountingGenerator(np.random.PCG64(3))
        g.fail_at = 6
        with pytest.raises(DrawFailed):
            entropy_rate_mc(params, 2 * CHUNK, burnin=CHUNK, seed=g)
        assert g.calls == 6 and threading.get_ident() not in g.threads
        assert entropy_rate_mc(params, 2 * CHUNK, burnin=CHUNK, seed=3) == want
    assert threading.active_count() == threads


class SlowGenerator(CountingGenerator):
    """A CountingGenerator whose calls after the fourth take 0.05 s longer."""

    def random(self, *args, **kwargs):
        if self.calls >= 4:
            time.sleep(0.05)
        return super().random(*args, **kwargs)


def test_closing_a_scan_waits_for_the_draw_in_flight():
    # a row's chunk of CHUNK steps draws in 4 blocks: the first piece comes
    # once chunk 0's 4 calls are done and chunk 1's are put on the helper,
    # which here take 0.05 s each, so the close finds them still running
    params = MarkovHmmParams(0.1, 0.11)
    want = entropy_rate_mc(params, 2 * CHUNK, burnin=CHUNK, seed=3)
    threads = threading.active_count()
    g = SlowGenerator(np.random.PCG64(3))
    path = hmm._odds_path(0.1, 0.11, 3 * CHUNK, g)
    next(path)
    assert g.calls < 8
    path.close()
    # the close returned once chunk 1 was drawn, and chunk 2 was never asked for
    assert g.calls == 8
    time.sleep(0.1)
    assert g.calls == 8 and threading.active_count() == threads
    assert entropy_rate_mc(params, 2 * CHUNK, burnin=CHUNK, seed=3) == want


def test_callers_on_several_threads_share_the_helper():
    # four callers, more than the cores here, submit their chunks to the one
    # helper in turn; each must still read its own draws into its own buffers
    params = [MarkovHmmParams(q, 0.11) for q in FIG3_QS[:3]]

    def run(k):
        return entropy_rate_mc_many(params, 30_000, 10_000, [(k, i) for i in range(3)])

    want = [run(k) for k in range(4)]
    got = [None] * 4

    def store(k):
        got[k] = run(k)

    callers = [threading.Thread(target=store, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want


def test_no_thread_starts_before_the_first_monte_carlo_call():
    # the helper needs neither concurrent.futures nor, through it, logging,
    # whose imports took about 2.8 ms of a fresh process's first call
    code = ("import sys, threading, bscbounds.cli\n"
            "from bscbounds.hmm import MarkovHmmParams, entropy_rate_mc\n"
            "print(threading.active_count())\n"
            "entropy_rate_mc(MarkovHmmParams(0.1, 0.11), 100, burnin=0)\n"
            "print(threading.active_count())\n"
            "print(*(m in sys.modules for m in ('concurrent.futures', 'logging')))\n")
    # the child imports the package under test, not an installed copy
    env = {**os.environ, "PYTHONPATH": str(Path(hmm.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.split() == ["1", "2", "False", "False"]


def _estimate_in_child(conn):
    conn.send(entropy_rate_mc(MarkovHmmParams(0.1, 0.11), 20_000, burnin=1_000, seed=5))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method here")
def test_a_forked_child_draws_on_a_helper_of_its_own():
    # the child inherits the parent's helper but not its thread: a draw
    # submitted to that helper would never run
    want = entropy_rate_mc(MarkovHmmParams(0.1, 0.11), 20_000, burnin=1_000, seed=5)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_estimate_in_child, args=(send,))
    with warnings.catch_warnings():
        # newer Pythons warn that forking a process with threads may deadlock;
        # that fork is what this test makes
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    try:
        assert recv.poll(20), "the forked child's Monte Carlo call did not return"
        got = recv.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert not child.is_alive() and child.exitcode == 0
    assert (got.estimate.hex(), got.stderr.hex()) == (want.estimate.hex(), want.stderr.hex())


def test_generator_seed_is_advanced_as_before():
    rng = np.random.default_rng(21)
    entropy_rate_mc(MarkovHmmParams(0.1, 0.11), 500, burnin=100, seed=rng)
    old = np.random.default_rng(21)
    old.random(2 * 600)
    assert rng.random() == old.random()


def _traced_peak(run):
    # numpy.random loads lazily on its first use, about 0.7 MiB of module
    # objects; loading it first keeps the peak independent of test order
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_single_row_draws_into_fixed_buffers():
    # a single row's chunk is 65,536 steps: fresh R and S arrays for it came
    # to 1 MiB a chunk, against two 128 KiB buffers reused for every chunk
    params = MarkovHmmParams(0.1, 0.11)
    assert _traced_peak(lambda: entropy_rate_mc(params, 1_000_000, burnin=0)) <= 2 * 2**20


def test_odds_path_draws_into_fixed_buffers():
    def run():
        for _ in hmm._odds_path(0.1, 0.11, 1_000_000, np.random.default_rng(0)):
            pass

    assert _traced_peak(run) <= 2 * 2**20


# numpy's vectorised exp can differ from math.exp by one ulp. That moves the
# ratio inside the log by at most two of its ulps after rounding, so f moves
# by at most 4.4e-16 before its own rounding, which can then differ by an ulp
# of f.
def _llr_tol(value):
    return 5e-16 + float(np.spacing(abs(value)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    t=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=50),
    q=st.floats(1e-7, 0.5),
)
def test_vectorised_step_matches_propagate_llr(t, q):
    t = np.asarray(t)
    got = propagate_llr_vec(t, q)
    for ti, gi in zip(t.tolist(), got.tolist()):
        want = propagate_llr(ti, q)
        assert abs(gi - want) <= _llr_tol(want), (ti, q)
    # odd exactly, and saturating: |f(t)| <= min(|t|, ln((1-q)/q))
    assert np.array_equal(propagate_llr_vec(-t, q), -got)
    cap = math.log((1.0 - q) / q)
    assert np.all(np.abs(got) <= np.minimum(np.abs(t), cap) + _llr_tol(cap))


def test_support_check_reads_the_extreme_odds():
    # validate's belief-stays-in-support takes max |f(W)| from the extreme
    # odds alone; the per-step route over the whole path is the reference
    params = MarkovHmmParams(0.1, 0.11)
    steps = 100_000
    path = np.concatenate(list(belief_path(params.q, params.alpha, steps, 4)))
    want = float(np.abs(propagate_llr_vec(path[:-1], params.q)).max())
    got = validate._max_abs_f(params, steps, np.random.default_rng(4))
    assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("pairs", [EDGE_PAIRS] + [[(q, a) for q in FIG3_QS] for a in FIG3_RATES],
                         ids=["edge"] + [f"fig3-alpha{a}" for a in FIG3_RATES])
def test_broadcast_builder_matches_the_reference(pairs):
    q, alpha = (np.array(v) for v in zip(*pairs))
    _, table = hmm._row_tables(q, alpha, 0.0)
    assert table.shape == (4, len(pairs) * 256, 8)
    for row, (qi, ai) in enumerate(pairs):
        want = reference_byte_maps(qi, ai)
        assert np.array_equal(table[:, 256 * row:256 * (row + 1)], want), (qi, ai)
        _, single = hmm._row_tables(np.array([qi]), np.array([ai]), 0.0)
        assert np.array_equal(single, want), (qi, ai)


@pytest.mark.parametrize("q,alpha", EDGE_PAIRS + [DRIFTING, (0.1, 0.11), (0.5, 0.02)])
def test_outcome_tables_match_the_odds_route(q, alpha):
    _, outcomes = hmm._row_tables(np.array([q]), np.array([alpha]), _conv(alpha, q))
    table = reference_byte_maps(q, alpha)
    every_byte = np.arange(256)[None]
    for x in np.geomspace(1e-12, 1e12, 25):
        got = hmm._entropy_terms(*hmm._prefix_apply(outcomes, every_byte,
                                                     np.full((1, 256), x)))
        want = odds_route_terms(table, q, alpha, x)
        assert float(np.max(np.abs(got.reshape(256, 8) - want))) <= 1e-15, (q, alpha, x)


# rows that shortcut (q = 0), do not contract (q = 1/2), barely observe
# (alpha just below 1/2) and drift in float64 (DRIFTING), among fig3's
MANY_ROWS = ([(0.0, 0.11), (0.5, 0.11), (0.1, 0.5 - 1e-9), DRIFTING, DRIFTING_PAIRS[1]]
             + [(q, 0.11) for q in FIG3_QS[::2]]
             + [(q, 0.3) for q in FIG3_QS[3::3]])


@pytest.mark.parametrize("rows", [[DRIFTING], MANY_ROWS[1:3], MANY_ROWS],
                         ids=["R=1", "R=2", "R=21"])
def test_batched_rows_match_single_calls(rows):
    assert len(MANY_ROWS) == 21
    params = [MarkovHmmParams(q, a) for q, a in rows]
    seeds = [(9, i) for i in range(len(rows))]
    # the burn-in ends 5 steps into a byte; the rows of a group share chunks
    # of _MC_CHUNK steps, so 7 or 8 rows of 21,005 steps run 3 chunks each
    # where a single row runs 1
    samples, burnin = 20_000, 1_005
    many = entropy_rate_mc_many(params, samples, burnin, seeds)
    assert len(many) == len(rows)
    for p, seed, got in zip(params, seeds, many):
        want = entropy_rate_mc(p, samples, burnin=burnin, seed=seed)
        assert abs(got.estimate - want.estimate) <= 1e-15, p
        assert got.stderr == pytest.approx(want.stderr, rel=1e-9), p


@pytest.mark.parametrize("rows,half", [([(0.1, 0.11)], 40_000),
                                       ([(q, 0.11) for q in FIG3_QS[::3]], 8_000)],
                         ids=["R=1", "R=7"])
def test_first_kept_piece_of_one_step_before_a_chunk_boundary(monkeypatch, rows, half):
    # 2 * half steps run as two chunks of half steps (one row's chunks hold up
    # to CHUNK steps, a 7-row group's 9,360), so a burn-in of half - 1 keeps
    # one step of the first chunk: the shift of the running sums is that
    # single term, not a piece mean
    cuts = []
    real = hmm._scan

    def recorded(*args):
        for piece in real(*args):
            cuts.append(piece[2])
            yield piece

    monkeypatch.setattr(hmm, "_scan", recorded)
    params = [MarkovHmmParams(q, a) for q, a in rows]
    seeds = [(6, i) for i in range(len(rows))]
    burnin = half - 1
    got = entropy_rate_mc_many(params, half + 1, burnin, seeds)
    assert cuts[0].stop - cuts[0].start == 1
    for (q, alpha), seed, (est, se) in zip(rows, seeds, got):
        want_est, want_se = oracle_estimate(oracle_path(q, alpha, 2 * half, seed), q, alpha,
                                            burnin)
        assert abs(est - want_est) <= 1e-12, (q, alpha)
        assert se == pytest.approx(want_se, rel=1e-9, abs=1e-15), (q, alpha)


def test_batched_rows_need_one_seed_each():
    params = [MarkovHmmParams(0.1, 0.11)] * 2
    with pytest.raises(DomainError, match="seeds"):
        entropy_rate_mc_many(params, 100, 0, [1])
    with pytest.raises(DomainError, match="seeds"):
        entropy_rate_mc_many(params, 100, 0, [1, 2, 3])
    assert entropy_rate_mc_many([], 100, 0, []) == []


def test_every_seed_is_checked_before_any_row_draws():
    # 10 rows run as two lockstep groups of 5; the last row's seed is one
    # numpy refuses, and no row of the first group may draw before it is
    # found
    params = [MarkovHmmParams(0.1, 0.11)] * 10
    with pytest.raises(DomainError, match=r"seeds\[9\]"):
        entropy_rate_mc_many(params, 20_000, 0, [*range(9), -1])
    rngs = [CountingGenerator(np.random.PCG64(i)) for i in range(9)]
    with pytest.raises(DomainError, match=r"seeds\[9\]"):
        entropy_rate_mc_many(params, 20_000, 0, [*rngs, -1])
    assert [g.calls for g in rngs] == [0] * 9
    with pytest.raises(DomainError, match=r"seeds\[0\]"):
        entropy_rate_mc_many(params[:1], 100, 0, [1.5])
    # a row that is not simulated makes no generator, so its seed is not read
    assert entropy_rate_mc_many([MarkovHmmParams(0.5, 0.11)], 100, 0, [-1]) == [(1.0, 0.0)]


def test_half_rate_rows_are_not_simulated(monkeypatch):
    simulated = []
    real = hmm._scan

    def counted(q, alpha, *rest):
        simulated.extend(zip(q.tolist(), alpha.tolist()))
        return real(q, alpha, *rest)

    monkeypatch.setattr(hmm, "_scan", counted)
    rows = [(0.5, 0.11), (0.1, 0.5), (0.5, 0.5), (0.1, 0.11), (0.5 - 1e-9, 0.11)]
    params = [MarkovHmmParams(q, a) for q, a in rows]
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    got = entropy_rate_mc_many(params, 500, 100, [rng, rng, rng, 1, 2])
    assert got[:3] == [(1.0, 0.0)] * 3
    assert simulated == rows[3:]
    # the generator the half-rate rows were given is never drawn from
    assert rng.bit_generator.state == state
    assert entropy_rate_mc(params[0], 500, burnin=100, seed=rng) == (1.0, 0.0)
    assert rng.bit_generator.state == state


def test_peak_memory_of_a_fig3_sweep_call():
    # 20 rows of 70,000 steps, as one fig3-sweep invocation runs; the last,
    # q = 1/2, is not simulated
    params = [MarkovHmmParams(q, 0.11) for q in FIG3_QS]
    tracemalloc.start()
    try:
        entropy_rate_mc_many(params, 60_000, 10_000, [(7, i) for i in range(len(params))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_a_fig3_sweep_call_keeps_its_bits():
    # the call above: its 19 simulated rows run as groups of 6, 6 and 7, and
    # rows 5, 11 and 18 end them, so each group's last row is pinned
    params = [MarkovHmmParams(q, 0.11) for q in FIG3_QS]
    got = entropy_rate_mc_many(params, 60_000, 10_000, [(7, i) for i in range(len(params))])
    assert {i: (got[i].estimate.hex(), got[i].stderr.hex()) for i in (5, 11, 18)} == {
        5: ("0x1.b1fa06ee166d2p-1", "0x1.371977b143e7bp-12"),
        11: ("0x1.e94a60db06672p-1", "0x1.d3c4422560b4ep-15"),
        18: ("0x1.ffa875c16af47p-1", "0x1.ca838c2a42295p-24"),
    }
    assert got[19] == (1.0, 0.0)
