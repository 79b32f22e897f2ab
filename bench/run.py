"""Benchmark of the bscbounds package: three workloads, end to end and per layer.

    python3 bench/run.py --workload fig3-sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                   # every workload, one line per metric
    python3 bench/run.py --trace 1         # traced runs: the per-layer metrics

Run from the root of a source checkout; the package is imported from src/.
Each batch of a workload runs in a fresh single-threaded child process
(worker.py), one at a time, until --seconds have passed and at least
MIN_BATCHES batches are done. With --trace 0 the end-to-end metrics are
medians over batches (units pooled for the unit percentiles) of times
normalized by the machine-speed gauge (gauge.py); the raw medians are
printed next to them. With --trace 1 untraced and traced batches alternate;
the per-layer metrics are medians over the traced ones (raw times) and
trace.overhead_s is the difference of the two normalized median batch walls.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. `failed` counts units that raised or gave a result
that failed its check; `correct` is false when any result was wrong. A
record of each run, with the machine and version details, is written under
bench/out/results/.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("fig3-sweep", "pmf-search", "validate-all")
MIN_BATCHES = 3
# every run, children included, must end well inside three minutes
HARD_LIMIT_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("unit_p50_s", "s"),
    ("unit_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _calls_and_self(names):
    return tuple(m for name in names
                 for m in ((f"{name}.calls", "count"), (f"{name}.self_s", "s")))


PER_LAYER = (
    _calls_and_self(("scalar", "dist", "bounds", "hmm", "validate", "cli"))
    + _calls_and_self(("hmm.entropy_rate_mc",))
    + (("hmm.mc_steps_per_s", "1/s"), ("hmm.mc_peak_bytes_per_sample", "B"))
    + _calls_and_self(("hmm.stationary_odds", "hmm.propagate_llr",
                       "hmm.exact_conditional_entropy"))
    + _calls_and_self(("dist.worst_case_mmse", "dist.best_case_mmse_given_output",
                       "dist.greedy_permutation", "dist.conditional_mmse",
                       "dist.read_pmf"))
    + _calls_and_self(("bounds.vector_memory_noise",
                       "bounds.conditional_vector_mmse_gerber"))
    + _calls_and_self(("scalar.binary_entropy", "scalar.inv_binary_entropy"))
    + (("validate.run_suite.self_s", "s"), ("cli.main.self_s", "s"),
       ("trace.overhead_s", "s"), ("trace.coverage", "ratio"))
)


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, trace: bool, smoke: bool, timeout: float) -> dict:
    """Run one batch in a fresh child process and return its report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spec = {"workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
            "workdir": str(OUT / "work")}
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} batch did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n units above it."""
    return math.floor(100 * (n - 10) / n) if n > 10 else None


def nearest_rank(sorted_vals: list[float], pct: float) -> float:
    return sorted_vals[max(1, math.ceil(pct / 100 * len(sorted_vals))) - 1]


def end_to_end(children: list[dict], kind: str = "norm") -> tuple[dict, str]:
    """The end-to-end metrics from the probe-normalized times, or from the raw
    times with kind="raw"."""
    times = sorted(u[f"{kind}_s"] for c in children for u in c["units"])
    pct = tail_percentile(len(times))
    if pct is None:
        # too few units for a tail with ten beyond it: the slowest unit
        pct = 100
    values = {
        "setup_s": statistics.median(c[f"setup_{kind}_s"] for c in children),
        "wall_s": statistics.median(c[f"wall_{kind}_s"] for c in children),
        "unit_p50_s": statistics.median(times),
        "unit_tail_s": nearest_rank(times, pct),
        "peak_rss_mb": statistics.median(c["peak_rss_kb"] * 1024 / 1e6 for c in children),
    }
    return values, f"unit_tail_s is p{pct} of {len(times)} units"


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    # a function no longer in __all__ reads as 0 calls instead of failing the run;
    # call counts repeat exactly, so median_low keeps them whole numbers
    values = {name: (statistics.median_low if unit == "count" else statistics.median)(
                  c["layers"].get(name, 0) for c in traced)
              for name, unit in PER_LAYER if not name.startswith("trace.")}
    values["trace.coverage"] = statistics.median(c["layers"]["trace.coverage"] for c in traced)
    values["trace.overhead_s"] = (statistics.median(c["wall_norm_s"] for c in traced)
                                  - statistics.median(c["wall_norm_s"] for c in plain))
    return values


def run_workload(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    t0 = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        # stop once the next batch (or traced pair) would end past --seconds
        elapsed = time.monotonic() - t0
        batches = len(traced) if trace else len(plain)
        enough = batches >= (1 if trace or smoke else MIN_BATCHES)
        step = sum(statistics.median(c["elapsed"] for c in group)
                   for group in (plain, traced) if group)
        if enough and (smoke or elapsed + step > min(seconds, HARD_LIMIT_S)):
            break
        for is_traced in ((False, True) if trace else (False,)):
            start = time.monotonic()
            child = spawn(workload, seed, is_traced, smoke,
                          max(5.0, HARD_LIMIT_S - (start - t0)))
            child["elapsed"] = time.monotonic() - start
            (traced if is_traced else plain).append(child)

    units = [u for c in plain + traced for u in c["units"]]
    failures = [f"{u['label']}: {u['raised'] or u['wrong']}"
                for u in units if u["raised"] or u["wrong"]]
    if trace:
        values, note = per_layer(plain, traced), f"{len(traced)} traced batches"
        spec = PER_LAYER
    else:
        values, note = end_to_end(plain)
        raw, _ = end_to_end(plain, "raw")
        note += "; raw (not probe-normalized): " + ", ".join(
            f"{k}={v:.4g}" for k, v in raw.items() if k != "peak_rss_mb")
        spec = END_TO_END
    return {
        "correct": not any(u["wrong"] for u in units),
        "attempted": len(units),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
        "note": note,
        "failures": failures,
        "batches": plain + traced,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": os.getloadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a nonnegative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measure for at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one batch, to check the output only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bscbounds" / "__init__.py").is_file():
        print(f"error: no bscbounds source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        try:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res["fail_frac"] = res["failed"] / res["attempted"]
        for name, m in res["metrics"].items():
            print(f"{workload:<13} {name:<44} {m['value']:.6g} {m['unit']}")
        print(f"{workload:<13} fail_frac = {res['failed']}/{res['attempted']}"
              f" = {res['fail_frac']:.4g}; {res['note']}")
        for line, count in collections.Counter(res["failures"]).items():
            print(f"{workload:<13} failed {count}x {line}")
        env["numpy"] = res["batches"][0]["numpy"]
        record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke, "environment": env, **res}
        results_dir = OUT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        stamp = env["started_utc"].replace(":", "").replace("-", "")
        with open(results_dir / f"{stamp}-{workload}-seed{args.seed}-trace{args.trace}.json",
                  "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        results[workload] = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
