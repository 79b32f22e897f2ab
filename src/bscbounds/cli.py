"""Command line interface.

Subcommands: `bound` evaluates one bound and prints it, `figure` writes the
CSV behind one comparison curve, `validate` runs the invariant suites, and
`pmf-mmse` inspects an explicit pmf file. Exit codes: 0 success, 1 a
validation suite failed, 2 domain error, 3 file error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import stat
import sys

import numpy as np

from . import validate as validate_mod
from .bounds import (
    mgl_scalar,
    sandwich_mgl,
    sandwich_new,
    scalar_memory_noise,
    scalar_mmse_gerber,
    scalar_upper,
    vector_mmse_gerber,
    vector_upper,
)
from .dist import (
    _write_text,
    apply_bsc,
    entropy,
    greedy_permutation,
    mmse_along_permutation,
    read_pmf,
    worst_case_mmse,
)
from .errors import DomainError, check_int, check_range
from .hmm import (
    MarkovHmmParams,
    _belief_result,
    belief_bound,
    cover_thomas_ceiling,
    entropy_rate_mc_many,
    markov_series_bound,
    rare_transition_baseline,
)
from .scalar import binary_convolve, binary_entropy

# Largest inputs that set work or memory. The Monte Carlo streams its steps
# in fixed chunks and buffers, so its memory does not grow with the steps or
# the rows and the step caps bound work; README's fig3 section gives the
# measured peaks and times.
_MAX_POINTS = 100_001
_MAX_MC_STEPS = 10_000_000
_MAX_FIG3_STEPS = 1_000_000_000
_MAX_BUDGET = 10_000


def _fmt9(v: float) -> str:
    return f"{float(v):.9g}"


def _fmt12(v: float) -> str:
    return f"{float(v):.12g}"


def _hmm(args: argparse.Namespace) -> MarkovHmmParams:
    return MarkovHmmParams(args.q, args.alpha)


# Each bound id maps to its required flags, echoed in this order, and an
# evaluator returning the value and any further fields to echo. Evaluators
# name the library functions at call time, so a rebound module attribute
# (a test's stub, a tracer's wrapper) is the one that runs.
_BOUNDS = {
    "mgl": (("alpha", "entropy"), lambda a: (mgl_scalar(a.alpha, a.entropy), {})),
    "mmse-gerber": (("alpha", "mmse"), lambda a: (scalar_mmse_gerber(a.alpha, a.mmse), {})),
    "upper": (("alpha", "mmse"), lambda a: (scalar_upper(a.alpha, a.mmse), {})),
    "memory-noise": (("entropy", "mmse"),
                     lambda a: (scalar_memory_noise(a.entropy, a.mmse), {})),
    "theorem5": (("alpha", "q"), lambda a: (markov_series_bound(_hmm(a)).value, {})),
    "theorem6": (("alpha", "q"), lambda a: (belief_bound(_hmm(a), variant=a.variant).value,
                                            {"variant": a.variant})),
    "cover-thomas": (("alpha", "q"), lambda a: (cover_thomas_ceiling(_hmm(a), a.n),
                                                {"m": a.n})),
    "now05": (("alpha", "q"), lambda a: (rare_transition_baseline(_hmm(a)), {})),
}


def _run_bound(args: argparse.Namespace) -> int:
    flags, evaluate = _BOUNDS[args.kind]
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise DomainError(f"bound kind {args.kind!r} requires {', '.join(missing)}")
    value, extra = evaluate(args)
    echo = {**{f: getattr(args, f) for f in flags}, **extra}
    pairs = ", ".join(f"{k}={v}" for k, v in echo.items())
    print(f"{args.kind}({pairs}) = {_fmt12(value)}")
    return 0


def _mgl_curve(alpha: float, x: float) -> tuple[float, float, float]:
    return (*sandwich_mgl(alpha, x), scalar_mmse_gerber(alpha, x / 4.0))


def _new_curve(alpha: float, u: float) -> tuple[float, float, float]:
    return (*sandwich_new(alpha, u), mgl_scalar(alpha, u))


def _fig3_columns(args: argparse.Namespace, grid: list[float]) -> list[tuple[float, ...]]:
    """fig3's columns: the four bounds row by row, with one root search per
    row (the printed variant reuses factor4's odds and floor), then the
    Monte Carlo estimate and stderr of every row, row i seeded (--seed, i),
    all rows in one lockstep run."""
    params = [MarkovHmmParams(q, args.alpha) for q in grid]
    bounds = []
    for p in params:
        t6 = belief_bound(p, "factor4")
        printed = _belief_result(p, t6.inputs["odds"], t6.inputs["mmse_floor"], "printed")
        bounds.append((binary_entropy(binary_convolve(args.alpha, p.q)),
                       markov_series_bound(p).value, t6.value, printed.value))
    seeds = [(args.seed, i) for i in range(len(grid))]
    mc = entropy_rate_mc_many(params, args.samples, args.burnin, seeds)
    return [(*row, *est) for row, est in zip(bounds, mc)]


# Each figure maps to its CSV header, the end of its grid (every grid starts
# at 0) and a function of (args, grid) that returns the columns after the
# grid value of every row.
_FIGURES = {
    "fig1a": (("x", "mgl_lower", "mgl_upper", "new"), 1.0,
              lambda a, grid: [_mgl_curve(a.alpha, x) for x in grid]),
    "fig1b": (("alpha", "mgl_lower", "mgl_upper", "new"), 0.5,
              lambda a, grid: [_mgl_curve(alpha, a.x) for alpha in grid]),
    "fig2a": (("u", "new_lower", "new_upper", "mgl"), 1.0,
              lambda a, grid: [_new_curve(a.alpha, u) for u in grid]),
    "fig2b": (("alpha", "new_lower", "new_upper", "mgl"), 0.5,
              lambda a, grid: [_new_curve(alpha, a.entropy) for alpha in grid]),
    "fig3": (("q", "mgl", "theorem5", "theorem6_factor4", "theorem6_printed",
              "mc_estimate", "mc_stderr"), 0.5, _fig3_columns),
}


def _check_out_dir(path: str) -> None:
    """Raise the OSError, naming path, that writing path would raise if path
    is empty or a directory, or its directory is missing or not a directory:
    a figure checks this before it computes its rows, which for fig3 can
    take seconds."""
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    else:
        try:
            if stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
                return
            code = errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
    raise OSError(code, os.strerror(code), path)


def _run_figure(args: argparse.Namespace) -> int:
    check_int("--seed", args.seed, 0)
    check_int("--points", args.points, 2, _MAX_POINTS)
    check_int("--samples", args.samples, 1)
    check_int("--burnin", args.burnin, 0)
    if args.samples + args.burnin > _MAX_MC_STEPS:
        raise DomainError(f"--samples + --burnin must be at most {_MAX_MC_STEPS}, "
                          f"got {args.samples + args.burnin}")
    steps = args.points * (args.samples + args.burnin)
    if args.which == "fig3" and steps > _MAX_FIG3_STEPS:
        raise DomainError(f"fig3 runs --points * (--samples + --burnin) Monte Carlo steps, "
                          f"at most {_MAX_FIG3_STEPS}, got {steps}")
    out = f"{args.which}.csv" if args.out is None else args.out
    _check_out_dir(out)
    header, end, columns = _FIGURES[args.which]
    grid = np.linspace(0.0, end, args.points).tolist()
    rows = [(v, *cols) for v, cols in zip(grid, columns(args, grid))]
    lines = [",".join(header)]
    lines.extend(",".join(_fmt9(v) for v in row) for row in rows)
    _write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {out}: {len(rows)} rows")
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    check_int("--budget", args.budget, 1, _MAX_BUDGET)
    check_int("--seed", args.seed, 0)
    results = validate_mod.run_suite(args.suite, seed=args.seed, budget=args.budget)
    failed = False
    for r in results:
        if not r.passed:
            failed = True
        detail = f"  ({r.detail})" if r.detail else ""
        slack = r.slack or 0.0  # print a zero slack as 0, never -0
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name:<32} "
              f"worst_slack={slack: .3e}{detail}")
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 1 if failed else 0


def _run_pmf_mmse(args: argparse.Namespace) -> int:
    # checked and searched first: a bad alpha or a pmf above the cap prints nothing
    if args.alpha is not None:
        check_range("alpha", args.alpha, 0.0, 0.5)
    pmf = read_pmf(args.path)
    worst, order = worst_case_mmse(pmf)
    total = entropy(pmf)
    print(f"n = {pmf.n}")
    print(f"entropy = {_fmt12(total)}")
    print(f"entropy_per_symbol = {_fmt12(total / pmf.n)}")
    print(f"worst_case_mmse = {_fmt12(worst)}")
    print(f"worst_case_order = {','.join(map(str, order))}")
    greedy = greedy_permutation(pmf)
    print(f"greedy_order = {','.join(map(str, greedy))}")
    print(f"greedy_mmse = {_fmt12(mmse_along_permutation(pmf, greedy))}")
    if args.alpha is not None:
        # vector_mmse_gerber finds the search above in the pmf's memo
        lower = vector_mmse_gerber(pmf, args.alpha).value
        upper = vector_upper(pmf, args.alpha)
        exact = entropy(apply_bsc(pmf, args.alpha)) / pmf.n
        print(f"alpha = {args.alpha}")
        print(f"lower_bound_per_symbol = {_fmt12(lower)}")
        print(f"exact_output_entropy_per_symbol = {_fmt12(exact)}")
        print(f"upper_bound_per_symbol = {_fmt12(upper.value)}")
    return 0


def _bound_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=_BOUNDS)
    p.add_argument("--alpha", type=float, help="channel flip rate")
    p.add_argument("--q", type=float, help="source flip rate")
    p.add_argument("--entropy", type=float, help="entropy input, bits per symbol")
    p.add_argument("--mmse", type=float, help="MMSE input, per symbol")
    p.add_argument("--n", type=int, default=1, help="block order for cover-thomas")
    p.add_argument("--variant", choices=("factor4", "printed"), default="factor4",
                   help="theorem6 flavor (default factor4)")
    p.set_defaults(run=_run_bound)


def _figure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("which", choices=_FIGURES)
    p.add_argument("--out", help="output path (default <figure>.csv)")
    p.add_argument("--alpha", type=float, default=0.11,
                   help="channel flip rate (default 0.11)")
    p.add_argument("--x", type=float, default=0.5,
                   help="fig1b: fixed MMSE level (default 0.5)")
    p.add_argument("--entropy", type=float, default=0.5,
                   help="fig2b: fixed input entropy (default 0.5)")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200_000,
                   help="fig3: Monte Carlo samples per row")
    p.add_argument("--burnin", type=int, default=100_000,
                   help="fig3: discarded Monte Carlo steps per row")
    p.set_defaults(run=_run_figure)


def _validate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", choices=validate_mod.SUITES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=500,
                   help="random instances per randomized check")
    p.set_defaults(run=_run_validate)


def _pmf_mmse_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    p.add_argument("--alpha", type=float,
                   help="also evaluate the noisy-entropy bounds at this flip rate")
    p.set_defaults(run=_run_pmf_mmse)


# Each command maps to its help line in the full tree and the function that
# declares its arguments, for the full tree and for the command's own parser.
_COMMANDS = {
    "bound": ("evaluate one bound and print it", _bound_args),
    "figure": ("write one comparison-curve CSV", _figure_args),
    "validate": ("run invariant suites", _validate_args),
    "pmf-mmse": ("inspect an explicit pmf file", _pmf_mmse_args),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, every command under one top level, built on
    first use and then shared: parsing leaves nothing in it, so every main()
    call in a process that needs it reuses it."""
    parser = argparse.ArgumentParser(
        prog="bscbounds",
        description="MMSE-driven entropy bounds for binary processes "
                    "observed through symmetric noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_line))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command alone, the same one build_parser() hangs
    under its subcommand `name`, built on first use and then shared."""
    parser = argparse.ArgumentParser(prog=f"bscbounds {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with its command's own parser, which reads and reports
    everything after the command name as the full tree's subparser does. The
    full tree builds a parser for every command, so it is built only where
    it decides the output: without a command name to run, and for arguments
    the command does not take, which its top level reports."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.run(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
