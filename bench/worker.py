"""Run one batch of one workload in a fresh process and report it as JSON.

run.py starts this file once per batch:

    python3 bench/worker.py '{"workload": ..., "seed": ..., "trace": ..., ...}'

with PYTHONPATH pointing at the checkout's src/ and thread pools pinned to
one thread. The last line of stdout is the report: set-up time (from the
parent's spawn timestamp to the first timed call), every unit's time and
outcome, the batch wall time, ru_maxrss and, when traced, the layer summary.

Every time is reported raw and normalized by the machine-speed gauge
(gauge.py); run.py builds the end-to-end metrics from the normalized ones.
"""

from __future__ import annotations

import importlib.util
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import gauge

SRC = Path(__file__).resolve().parent.parent / "src"


def run_batch(workload: str, seed: int, smoke: bool, workdir: Path, trace: bool = False,
              spawned: float | None = None) -> dict:
    """Set up, time every unit, then check every output outside the timed region.
    With `trace`, spans are recorded around the units and saved to workdir.
    `spawned` is the parent's time.monotonic() when it started this process."""
    meter = gauge.InUnitProbes()
    with meter.sampling() as setup_probes:
        import bscbounds.cli  # noqa: F401  (imported by set-up, as a user's run would)
        import workloads

        units = workloads.WORKLOADS[workload](seed, smoke, workdir)
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer(clock=meter.clock)
            tracer.install()
    first = time.monotonic()
    gaps = [gauge.gap()]
    records = []
    for unit in units:
        with meter.sampling() as probes:
            if tracer is not None:
                tracer.recording = True
            t0 = meter.clock()
            try:
                result, error = unit.run(), None
            except Exception as exc:  # a crashing unit is counted, not fatal
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            seconds = meter.clock() - t0
            if tracer is not None:
                tracer.recording = False
        gaps.append(gauge.gap())
        records.append((unit, result, error, seconds, probes))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report_units = []
    for i, (unit, result, error, seconds, probes) in enumerate(records):
        wrong = None if error else workloads.unit_failure(unit, result)
        speed = gauge.speed(gaps[i], probes, gaps[i + 1])
        report_units.append({"label": unit.label, "raw_s": seconds, "norm_s": seconds * speed,
                             "probes": len(probes), "raised": error, "wrong": wrong})
    setup = None if spawned is None else first - spawned - sum(setup_probes)
    raw_wall = sum(u["raw_s"] for u in report_units)
    report = {"setup_raw_s": setup,
              "setup_norm_s": None if setup is None else
              setup * gauge.speed(setup_probes, gaps[0]),
              "wall_raw_s": raw_wall, "wall_norm_s": sum(u["norm_s"] for u in report_units),
              "gap_probe_s": [statistics.median(g) for g in gaps],
              "peak_rss_kb": rss_kb, "units": report_units}
    if tracer is not None:
        layers = tracer.summary(raw_wall)
        layers["hmm.mc_peak_bytes_per_sample"] = tracer.mc_peak_bytes_per_step()
        report["layers"] = layers
        tracer.save(workdir / f"spans-{workload}.npz")
    return report


def main(spec: dict) -> int:
    found = importlib.util.find_spec("bscbounds")
    if found is None or Path(found.origin).resolve().parent.parent != SRC:
        print(f"bscbounds is not importable from {SRC}", file=sys.stderr)
        return 2
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    report = run_batch(spec["workload"], spec["seed"], spec["smoke"], workdir,
                       spec["trace"], spec["spawned"])
    report["numpy"] = sys.modules["numpy"].__version__
    report["python"] = sys.version.split()[0]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(json.loads(sys.argv[1])))
