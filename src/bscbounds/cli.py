"""Command line interface.

Subcommands: `bound` evaluates one bound and prints it, `figure` writes the
CSV behind one comparison curve, `validate` runs the invariant suites, and
`pmf-mmse` inspects an explicit pmf file. Exit codes: 0 success, 1 a
validation suite failed, 2 domain error, 3 file error.
"""

from __future__ import annotations

import argparse
import functools
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
# in fixed chunks and peaks near 3 MB at any length and any number of rows,
# so the step caps bound work: at 11-12 ns per step (one AMD EPYC core,
# Python 3.11) one fig3 row at the row cap takes about 0.14 s and a whole
# fig3 run at the total cap about 11 s.
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


def _fig3_row(args: argparse.Namespace, i: int, q: float) -> tuple[float, ...]:
    params = MarkovHmmParams(q, args.alpha)
    # one root search per row: the printed variant reuses factor4's odds and floor
    t6 = belief_bound(params, "factor4")
    printed = _belief_result(params, t6.inputs["odds"], t6.inputs["mmse_floor"], "printed")
    return (binary_entropy(binary_convolve(args.alpha, q)),
            markov_series_bound(params).value,
            t6.value,
            printed.value)


def _fig3_mc(args: argparse.Namespace, grid: list[float]) -> list[tuple[float, float]]:
    """fig3's last two columns: the Monte Carlo estimate and stderr of every
    row, row i seeded (--seed, i), all rows in one lockstep run."""
    params = [MarkovHmmParams(q, args.alpha) for q in grid]
    seeds = [(args.seed, i) for i in range(len(grid))]
    return entropy_rate_mc_many(params, args.samples, args.burnin, seeds)


# Each figure maps to its CSV header, the end of its grid (every grid starts
# at 0) and a function of (args, row index, grid value) that yields the
# columns after the grid value; fig3's Monte Carlo columns follow from
# _fig3_mc, once for the whole grid.
_FIGURES = {
    "fig1a": (("x", "mgl_lower", "mgl_upper", "new"), 1.0,
              lambda a, i, x: _mgl_curve(a.alpha, x)),
    "fig1b": (("alpha", "mgl_lower", "mgl_upper", "new"), 0.5,
              lambda a, i, alpha: _mgl_curve(alpha, a.x)),
    "fig2a": (("u", "new_lower", "new_upper", "mgl"), 1.0,
              lambda a, i, u: _new_curve(a.alpha, u)),
    "fig2b": (("alpha", "new_lower", "new_upper", "mgl"), 0.5,
              lambda a, i, alpha: _new_curve(alpha, a.entropy)),
    "fig3": (("q", "mgl", "theorem5", "theorem6_factor4", "theorem6_printed",
              "mc_estimate", "mc_stderr"), 0.5, _fig3_row),
}


def _run_figure(args: argparse.Namespace) -> int:
    check_int("--seed", args.seed, 0)
    check_int("--points", args.points, 2, _MAX_POINTS)
    if args.samples + args.burnin > _MAX_MC_STEPS:
        raise DomainError(f"--samples + --burnin must be at most {_MAX_MC_STEPS}, "
                          f"got {args.samples + args.burnin}")
    steps = args.points * (args.samples + args.burnin)
    if args.which == "fig3" and steps > _MAX_FIG3_STEPS:
        raise DomainError(f"fig3 runs --points * (--samples + --burnin) Monte Carlo steps, "
                          f"at most {_MAX_FIG3_STEPS}, got {steps}")
    header, end, columns = _FIGURES[args.which]
    grid = np.linspace(0.0, end, args.points).tolist()
    rows = [(v, *columns(args, i, v)) for i, v in enumerate(grid)]
    if args.which == "fig3":
        rows = [(*row, *mc) for row, mc in zip(rows, _fig3_mc(args, grid))]
    out = f"{args.which}.csv" if args.out is None else args.out
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
        # the lower bound is vector_mmse_gerber's, reusing the search above
        lower = scalar_mmse_gerber(args.alpha, worst / pmf.n)
        upper = vector_upper(pmf, args.alpha)
        exact = entropy(apply_bsc(pmf, args.alpha)) / pmf.n
        print(f"alpha = {args.alpha}")
        print(f"lower_bound_per_symbol = {_fmt12(lower)}")
        print(f"exact_output_entropy_per_symbol = {_fmt12(exact)}")
        print(f"upper_bound_per_symbol = {_fmt12(upper.value)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parsing
    leaves nothing in it, so every main() call in a process reuses it."""
    parser = argparse.ArgumentParser(
        prog="bscbounds",
        description="MMSE-driven entropy bounds for binary processes "
                    "observed through symmetric noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound", help="evaluate one bound and print it")
    pb.add_argument("kind", choices=_BOUNDS)
    pb.add_argument("--alpha", type=float, help="channel flip rate")
    pb.add_argument("--q", type=float, help="source flip rate")
    pb.add_argument("--entropy", type=float, help="entropy input, bits per symbol")
    pb.add_argument("--mmse", type=float, help="MMSE input, per symbol")
    pb.add_argument("--n", type=int, default=1, help="block order for cover-thomas")
    pb.add_argument("--variant", choices=("factor4", "printed"), default="factor4",
                    help="theorem6 flavor (default factor4)")
    pb.set_defaults(run=_run_bound)

    pf = sub.add_parser("figure", help="write one comparison-curve CSV")
    pf.add_argument("which", choices=_FIGURES)
    pf.add_argument("--out", help="output path (default <figure>.csv)")
    pf.add_argument("--alpha", type=float, default=0.11,
                    help="channel flip rate (default 0.11)")
    pf.add_argument("--x", type=float, default=0.5,
                    help="fig1b: fixed MMSE level (default 0.5)")
    pf.add_argument("--entropy", type=float, default=0.5,
                    help="fig2b: fixed input entropy (default 0.5)")
    pf.add_argument("--points", type=int, default=201)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--samples", type=int, default=200_000,
                    help="fig3: Monte Carlo samples per row")
    pf.add_argument("--burnin", type=int, default=100_000,
                    help="fig3: discarded Monte Carlo steps per row")
    pf.set_defaults(run=_run_figure)

    pv = sub.add_parser("validate", help="run invariant suites")
    pv.add_argument("suite", choices=validate_mod.SUITES + ("all",))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--budget", type=int, default=500,
                    help="random instances per randomized check")
    pv.set_defaults(run=_run_validate)

    pp = sub.add_parser("pmf-mmse", help="inspect an explicit pmf file")
    pp.add_argument("path")
    pp.add_argument("--alpha", type=float,
                    help="also evaluate the noisy-entropy bounds at this flip rate")
    pp.set_defaults(run=_run_pmf_mmse)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
