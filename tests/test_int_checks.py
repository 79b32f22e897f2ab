"""Every integer input (counts, orders, coordinates, window and sample sizes)
goes through one check: Python and numpy integers pass, bool and floats do
not, and the range and the error type are each input's own."""

import numpy as np
import pytest

from bscbounds import cli
from bscbounds.bounds import memory_noise_term, noise_profile
from bscbounds.dist import (
    conditional_mmse,
    markov_joint_pmf,
    mmse_along_permutation,
    random_pmf,
)
from bscbounds.errors import DimensionError, DomainError
from bscbounds.hmm import (
    MarkovHmmParams,
    cover_thomas_ceiling,
    disagreement_prob,
    dyadic_permutation,
    entropy_rate_mc,
    entropy_rate_mc_many,
    exact_conditional_entropy,
    mmse_two_sided,
)
from bscbounds.scalar import entropy_taylor

PMF = markov_joint_pmf(4, 0.2)
PARAMS = MarkovHmmParams(0.1, 0.11)


def _order(v):
    # v first, then the other coordinates, so that v truncated to an int
    # would make a valid order
    return (v,) + tuple(j for j in range(1, PMF.n + 1) if j != int(v))


# (name in the message, call with the value under test, lo, hi or None, error)
INPUTS = {
    "entropy_taylor terms": ("terms", lambda v: entropy_taylor(0.3, v), 1, None, DomainError),
    "conditional_mmse target": ("target", lambda v: conditional_mmse(PMF, v), 1, 4,
                                DomainError),
    "conditional_mmse given": ("conditioning coordinate",
                               lambda v: conditional_mmse(PMF, 3, (v,)), 1, 4, DomainError),
    "mmse_along_permutation": ("order entry", lambda v: mmse_along_permutation(PMF, _order(v)),
                               1, 4, DomainError),
    "noise_profile": ("order entry", lambda v: noise_profile(PMF, _order(v)), 1, 4,
                      DomainError),
    "memory_noise_term": ("order entry", lambda v: memory_noise_term(PMF, PMF, _order(v)),
                          1, 4, DomainError),
    "markov_joint_pmf n": ("n", lambda v: markov_joint_pmf(v, 0.2), 1, 16, DimensionError),
    "random_pmf n": ("n", lambda v: random_pmf(v, 0), 1, 16, DimensionError),
    "random_pmf seed": ("seed", lambda v: random_pmf(2, v), 0, None, DomainError),
    "disagreement_prob k": ("k", lambda v: disagreement_prob(v, 0.2), 0, None, DomainError),
    "mmse_two_sided gap": ("gap", lambda v: mmse_two_sided(v, 0.2), 1, None, DomainError),
    "dyadic_permutation n": ("n", dyadic_permutation, 1, None, DomainError),
    "cover_thomas_ceiling m": ("m", lambda v: cover_thomas_ceiling(PARAMS, v), 1, None,
                               DomainError),
    "entropy_rate_mc samples": ("samples", lambda v: entropy_rate_mc(PARAMS, v, burnin=0),
                                1, None, DomainError),
    "entropy_rate_mc burnin": ("burnin", lambda v: entropy_rate_mc(PARAMS, 1, burnin=v),
                               0, None, DomainError),
    "entropy_rate_mc_many samples": ("samples",
                                     lambda v: entropy_rate_mc_many([PARAMS], v, 0, [0]),
                                     1, None, DomainError),
    "entropy_rate_mc_many burnin": ("burnin",
                                    lambda v: entropy_rate_mc_many([PARAMS], 1, v, [0]),
                                    0, None, DomainError),
    "exact_conditional_entropy n": ("n", lambda v: exact_conditional_entropy(PARAMS, v),
                                    1, 20, DimensionError),
}


def _message(name, lo, hi, value):
    if hi is not None:
        return f"{name} must be an integer in {lo}..{hi}, got {value!r}"
    return f"{name} must be a {'nonnegative' if lo == 0 else 'positive'} integer, got {value!r}"


def _ends(ranges):
    return [(which, v) for which, (lo, hi) in ranges.items() for v in (lo, hi)
            if v is not None]


def _past_ends(ranges):
    return [(which, v) for which, (lo, hi) in ranges.items()
            for v in (lo - 1, None if hi is None else hi + 1) if v is not None]


LIB_RANGES = {which: (lo, hi) for which, (_, _, lo, hi, _) in INPUTS.items()}


@pytest.mark.parametrize("which, value", _ends(LIB_RANGES))
def test_accepts_python_and_numpy_integers_at_each_end(which, value):
    call = INPUTS[which][1]
    call(value)
    call(np.int64(value))


@pytest.mark.parametrize("which, value", _past_ends(LIB_RANGES)
                         + [(which, bad) for which in INPUTS for bad in (True, 2.5)])
def test_refuses_bool_fraction_and_out_of_range(which, value):
    name, call, lo, hi, error = INPUTS[which]
    with pytest.raises(DomainError) as excinfo:
        call(value)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == _message(name, lo, hi, value)


def test_dyadic_permutation_names_a_positive_non_power():
    with pytest.raises(DomainError, match=r"^n must be a power of two, got 6$"):
        dyadic_permutation(6)


# (subcommand argv, flag, lo, hi or None); the work each command would start
# is replaced by a stub, so an accepted value runs nothing and a refused one
# must be caught before the stub
CLI_INPUTS = {
    "figure --seed": (("figure", "fig1a"), "--seed", 0, None),
    "figure --points": (("figure", "fig1a"), "--points", 2, 100_001),
    "figure --samples": (("figure", "fig1a"), "--samples", 1, None),
    "figure --burnin": (("figure", "fig1a"), "--burnin", 0, None),
    "validate --budget": (("validate", "scalar"), "--budget", 1, 10_000),
    "validate --seed": (("validate", "scalar"), "--seed", 0, None),
}


def _run_stubbed(capsys, monkeypatch, tmp_path, argv, work):
    header, end, _ = cli._FIGURES["fig1a"]
    monkeypatch.setitem(cli._FIGURES, "fig1a", (header, end, lambda a, grid: work()))
    monkeypatch.setattr(cli.validate_mod, "run_suite", lambda *a, **k: work() or [])
    monkeypatch.chdir(tmp_path)
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


CLI_RANGES = {which: (lo, hi) for which, (_, _, lo, hi) in CLI_INPUTS.items()}


@pytest.mark.parametrize("which, value", _ends(CLI_RANGES))
def test_cli_accepts_each_end(capsys, monkeypatch, tmp_path, which, value):
    command, flag, _, _ = CLI_INPUTS[which]
    code, _, err = _run_stubbed(capsys, monkeypatch, tmp_path,
                                (*command, flag, str(value)), lambda: ())
    assert (code, err) == (0, "")


@pytest.mark.parametrize("which, value", _past_ends(CLI_RANGES))
def test_cli_refuses_past_each_end_before_any_work(capsys, monkeypatch, tmp_path,
                                                   which, value):
    command, flag, lo, hi = CLI_INPUTS[which]

    def refuse():
        raise AssertionError(f"{flag} must be checked before any work")

    code, out, err = _run_stubbed(capsys, monkeypatch, tmp_path,
                                  (*command, flag, str(value)), refuse)
    assert (code, out) == (2, "")
    assert err == f"domain error: {_message(flag, lo, hi, value)}\n"
