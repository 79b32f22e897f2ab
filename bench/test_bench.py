"""Tests of the benchmark itself: output schema on tiny inputs, that a wrong
result is caught, and that BENCHMARK.json matches run.py. No timing asserts.

    python3 -m pytest bench
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import worker

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_schema(workload, trace):
    res = _smoke(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    spec = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, m["unit"]) for k, m in res["metrics"].items()] == list(spec)
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if trace:
        assert res["metrics"]["trace.coverage"]["value"] >= 0.95
        assert res["metrics"]["cli.main.self_s"]["value"] > 0.0


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def _wrong_units(workload: str, tmp_path: Path) -> tuple[int, int]:
    # counts only units the check rejected: a raising unit is not 'wrong'
    report = worker.run_batch(workload, 0, True, tmp_path)
    bad = [u for u in report["units"] if u["wrong"]]
    return len(bad), len(report["units"])


def test_injected_wrong_pmf_result_is_caught(monkeypatch, tmp_path):
    from bscbounds import cli

    assert _wrong_units("pmf-search", tmp_path)[0] == 0
    real = cli.worst_case_mmse
    monkeypatch.setattr(cli, "worst_case_mmse",
                        lambda pmf: (real(pmf)[0] + 1e-9, real(pmf)[1]))
    bad, total = _wrong_units("pmf-search", tmp_path)
    assert bad == total


def test_injected_wrong_fig3_result_is_caught(monkeypatch, tmp_path):
    from bscbounds import bounds, cli

    real = cli.belief_bound

    def inflated(params, variant="factor4"):
        res = real(params, variant)
        return bounds.BoundResult(res.name, res.value + 0.01, res.inputs, res.variant)

    monkeypatch.setattr(cli, "belief_bound", inflated)
    assert _wrong_units("fig3-sweep", tmp_path)[0] >= 1


def test_raising_unit_is_failed_not_wrong(monkeypatch, tmp_path):
    from bscbounds import cli

    def crash(params, variant="factor4"):
        raise AssertionError("injected")

    monkeypatch.setattr(cli, "belief_bound", crash)
    report = worker.run_batch("fig3-sweep", 0, True, tmp_path)
    assert all(u["raised"] and not u["wrong"] for u in report["units"])


def test_injected_failing_check_is_caught(monkeypatch, tmp_path):
    from bscbounds import validate

    monkeypatch.setattr(validate, "run_suite",
                        lambda *a, **k: [validate.CheckResult("injected", False, -1.0)])
    assert _wrong_units("validate-all", tmp_path) == (1, 1)


def test_tail_percentile_leaves_ten_units_above():
    for n in (11, 24, 36, 96, 1000):
        pct = run.tail_percentile(n)
        vals = list(range(n))
        assert sum(v > run.nearest_rank(vals, pct) for v in vals) >= 10
        assert sum(v > run.nearest_rank(vals, pct + 1) for v in vals) < 10
    assert run.tail_percentile(10) is None


def test_worst_mmse_oracle_matches_enumeration():
    w = np.random.default_rng(5).random(16)
    w /= w.sum()
    brute = max(oracles.mmse_along(w, p) for p in itertools.permutations(range(1, 5)))
    assert oracles.worst_mmse(w) == pytest.approx(brute, abs=1e-15)


def test_bsc_and_xor_oracles_agree():
    w = np.random.default_rng(6).random(8)
    w /= w.sum()
    alpha = 0.2
    iid = np.array([(alpha ** bin(z).count("1")) * (1 - alpha) ** (3 - bin(z).count("1"))
                    for z in range(8)])
    assert np.allclose(oracles.bsc(w, alpha), oracles.xor_convolve(w, iid), atol=1e-15)
