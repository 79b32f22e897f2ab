"""Command line interface.

Subcommands: `bound` evaluates one bound and prints it, `figure` writes the
CSV behind one comparison curve, `validate` runs the invariant suites, and
`pmf-mmse` inspects an explicit pmf file. Exit codes: 0 success, 1 a
validation suite failed, 2 domain error, 3 file error.
"""

from __future__ import annotations

import argparse
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
    apply_bsc,
    entropy,
    greedy_permutation,
    mmse_along_permutation,
    read_pmf,
    worst_case_mmse,
)
from .errors import DomainError
from .hmm import (
    MarkovHmmParams,
    belief_bound,
    cover_thomas_ceiling,
    entropy_rate_mc,
    markov_series_bound,
    rare_transition_baseline,
)
from .scalar import binary_convolve, binary_entropy

_BOUND_KINDS = (
    "mgl",
    "mmse-gerber",
    "upper",
    "memory-noise",
    "theorem5",
    "theorem6",
    "cover-thomas",
    "now05",
)

_FIGURES = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3")

# Largest inputs that set work or memory. The Monte Carlo streams its steps
# in fixed chunks and peaks near 5 MB at any length, so the step cap bounds
# work: one fig3 row at the cap takes about 1 s.
_MAX_POINTS = 100_001
_MAX_MC_STEPS = 10_000_000
_MAX_BUDGET = 10_000


def _fmt9(v: float) -> str:
    return f"{float(v):.9g}"


def _fmt12(v: float) -> str:
    return f"{float(v):.12g}"


def _need(args: argparse.Namespace, names: tuple[str, ...]) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise DomainError(f"bound kind {args.kind!r} requires {', '.join(missing)}")


def _run_bound(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "mgl":
        _need(args, ("alpha", "entropy"))
        value = mgl_scalar(args.alpha, args.entropy)
        echo = {"alpha": args.alpha, "entropy": args.entropy}
    elif kind == "mmse-gerber":
        _need(args, ("alpha", "mmse"))
        value = scalar_mmse_gerber(args.alpha, args.mmse)
        echo = {"alpha": args.alpha, "mmse": args.mmse}
    elif kind == "upper":
        _need(args, ("alpha", "mmse"))
        value = scalar_upper(args.alpha, args.mmse)
        echo = {"alpha": args.alpha, "mmse": args.mmse}
    elif kind == "memory-noise":
        _need(args, ("entropy", "mmse"))
        value = scalar_memory_noise(args.entropy, args.mmse)
        echo = {"entropy": args.entropy, "mmse": args.mmse}
    elif kind == "theorem5":
        _need(args, ("alpha", "q"))
        value = markov_series_bound(MarkovHmmParams(args.q, args.alpha)).value
        echo = {"alpha": args.alpha, "q": args.q}
    elif kind == "theorem6":
        _need(args, ("alpha", "q"))
        value = belief_bound(MarkovHmmParams(args.q, args.alpha), variant=args.variant).value
        echo = {"alpha": args.alpha, "q": args.q, "variant": args.variant}
    elif kind == "cover-thomas":
        _need(args, ("alpha", "q"))
        order = 1 if args.n is None else args.n
        value = cover_thomas_ceiling(MarkovHmmParams(args.q, args.alpha), order)
        echo = {"alpha": args.alpha, "q": args.q, "m": order}
    else:  # now05
        _need(args, ("alpha", "q"))
        value = rare_transition_baseline(MarkovHmmParams(args.q, args.alpha))
        echo = {"alpha": args.alpha, "q": args.q}
    pairs = ", ".join(f"{k}={v}" for k, v in echo.items())
    print(f"{kind}({pairs}) = {_fmt12(value)}")
    return 0


def _figure_rows(which: str, args: argparse.Namespace):
    alpha = 0.11 if args.alpha is None else args.alpha
    if not 2 <= args.points <= _MAX_POINTS:
        raise DomainError(f"--points must be in 2..{_MAX_POINTS}, got {args.points}")
    if args.samples + args.burnin > _MAX_MC_STEPS:
        raise DomainError(f"--samples + --burnin must be at most {_MAX_MC_STEPS}, "
                          f"got {args.samples + args.burnin}")
    if which == "fig1a":
        header = ["x", "mgl_lower", "mgl_upper", "new"]
        rows = []
        for x in np.linspace(0.0, 1.0, args.points):
            x = float(x)
            lo, hi = sandwich_mgl(alpha, x)
            rows.append((x, lo, hi, scalar_mmse_gerber(alpha, x / 4.0)))
        return header, rows
    if which == "fig1b":
        x = 0.5 if args.x is None else args.x
        header = ["alpha", "mgl_lower", "mgl_upper", "new"]
        rows = []
        for a in np.linspace(0.0, 0.5, args.points):
            a = float(a)
            lo, hi = sandwich_mgl(a, x)
            rows.append((a, lo, hi, scalar_mmse_gerber(a, x / 4.0)))
        return header, rows
    if which == "fig2a":
        header = ["u", "new_lower", "new_upper", "mgl"]
        rows = []
        for u in np.linspace(0.0, 1.0, args.points):
            u = float(u)
            lo, hi = sandwich_new(alpha, u)
            rows.append((u, lo, hi, mgl_scalar(alpha, u)))
        return header, rows
    if which == "fig2b":
        u = 0.5 if args.entropy is None else args.entropy
        header = ["alpha", "new_lower", "new_upper", "mgl"]
        rows = []
        for a in np.linspace(0.0, 0.5, args.points):
            a = float(a)
            lo, hi = sandwich_new(a, u)
            rows.append((a, lo, hi, mgl_scalar(a, u)))
        return header, rows
    header = ["q", "mgl", "theorem5", "theorem6_factor4", "theorem6_printed",
              "mc_estimate", "mc_stderr"]
    rows = []
    for i, q in enumerate(np.linspace(0.0, 0.5, args.points)):
        q = float(q)
        params = MarkovHmmParams(q, alpha)
        mgl = binary_entropy(binary_convolve(alpha, q))
        t5 = markov_series_bound(params).value
        t6f = belief_bound(params, "factor4").value
        t6p = belief_bound(params, "printed").value
        est, se = entropy_rate_mc(params, args.samples, burnin=args.burnin,
                                  seed=(args.seed, i))
        rows.append((q, mgl, t5, t6f, t6p, est, se))
    return header, rows


def _run_figure(args: argparse.Namespace) -> int:
    which = args.which
    out = f"{which}.csv" if args.out is None else args.out
    header, rows = _figure_rows(which, args)
    lines = [",".join(header)]
    lines.extend(",".join(_fmt9(v) for v in row) for row in rows)
    with open(out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out}: {len(rows)} rows")
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    if not 1 <= args.budget <= _MAX_BUDGET:
        raise DomainError(f"--budget must be in 1..{_MAX_BUDGET}, got {args.budget}")
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
    pmf = read_pmf(args.path)
    total = entropy(pmf)
    print(f"n = {pmf.n}")
    print(f"entropy = {_fmt12(total)}")
    print(f"entropy_per_symbol = {_fmt12(total / pmf.n)}")
    worst, order = worst_case_mmse(pmf)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bscbounds",
        description="MMSE-driven entropy bounds for binary processes "
                    "observed through symmetric noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound", help="evaluate one bound and print it")
    pb.add_argument("kind", choices=_BOUND_KINDS)
    pb.add_argument("--alpha", type=float, help="channel flip rate")
    pb.add_argument("--q", type=float, help="source flip rate")
    pb.add_argument("--entropy", type=float, help="entropy input, bits per symbol")
    pb.add_argument("--mmse", type=float, help="MMSE input, per symbol")
    pb.add_argument("--n", type=int, help="block order for cover-thomas")
    pb.add_argument("--variant", choices=("factor4", "printed"), default="factor4",
                    help="theorem6 flavor (default factor4)")

    pf = sub.add_parser("figure", help="write one comparison-curve CSV")
    pf.add_argument("which", choices=_FIGURES)
    pf.add_argument("--out", help="output path (default <figure>.csv)")
    pf.add_argument("--alpha", type=float, help="channel flip rate (default 0.11)")
    pf.add_argument("--x", type=float, help="fig1b: fixed MMSE level (default 0.5)")
    pf.add_argument("--entropy", type=float,
                    help="fig2b: fixed input entropy (default 0.5)")
    pf.add_argument("--points", type=int, default=201)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--samples", type=int, default=200_000,
                    help="fig3: Monte Carlo samples per row")
    pf.add_argument("--burnin", type=int, default=100_000,
                    help="fig3: discarded Monte Carlo steps per row")

    pv = sub.add_parser("validate", help="run invariant suites")
    pv.add_argument("suite", choices=validate_mod.SUITES + ("all",))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--budget", type=int, default=500,
                    help="random instances per randomized check")

    pp = sub.add_parser("pmf-mmse", help="inspect an explicit pmf file")
    pp.add_argument("path")
    pp.add_argument("--alpha", type=float,
                    help="also evaluate the noisy-entropy bounds at this flip rate")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bound":
            return _run_bound(args)
        if args.command == "figure":
            return _run_figure(args)
        if args.command == "validate":
            return _run_validate(args)
        return _run_pmf_mmse(args)
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
