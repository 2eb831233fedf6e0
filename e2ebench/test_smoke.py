"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q e2ebench/test_smoke.py

It checks that every workload prints every metric with its unit and no failed
operation, and that a perturbed library result is counted as failed, so the
output checks are not vacuous.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_figures_are_in_reference_units():
    phase = worker.new_phase()
    phase.update(latencies=[0.2, 0.4, 0.6], ref_times=[0.1, 0.1, 0.2], round_sizes=[3], cells=30)
    out = worker.end_to_end(phase)
    assert out["latency_p50_ref"] == pytest.approx(3.0)  # of 2, 4 and 3 references
    assert out["latency_tail_ref"] == pytest.approx(2.0)  # three operations: none has ten beyond it
    assert out["throughput_cells_per_ref"] == pytest.approx(30 / 9)
    assert out["raw"]["latency_p50_ms"] == pytest.approx(400.0)
    assert out["raw"]["throughput_cells_per_s"] == pytest.approx(25.0)


def bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(workload, trace):
    result, stdout = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)
    for name, unit in expected:
        assert f"{name} = " in stdout and f" {unit}" in stdout
    assert "failed_ops = 0 count" in stdout
    assert stdout.startswith("env: ")


def perturbed(fn):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):
            return tuple(v * (1.0 + 1e-6) for v in out)
        return out * (1.0 + 1e-6)
    return wrapper


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("before_setup", (False, True))
def test_perturbed_result_counts_as_failed(workload, before_setup, tmp_path, monkeypatch):
    """Perturbing the kernels counts as failed, also when the references see the perturbation."""
    m = worker.import_monotonia()

    def perturb():
        for name in ("transform_reduce", "sign_split_sums"):
            monkeypatch.setattr(m._backend, name, perturbed(getattr(m._backend, name)))

    session = worker.Session(m, WORKLOADS[workload], 7, True, str(tmp_path))
    if before_setup:
        perturb()
    session.setup()
    if not before_setup:
        assert session.run_phase(0.0)["failed"] == 0
        perturb()
    assert session.run_phase(0.0)["failed"] > 0
