"""Tests of the benchmark itself; they are not part of the library's suite.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("dynamics.field_evals", "nosignal_audit.fd_components", "bloch.physicality_checks")
NO_SETUP = {"su_basis.calls": 0, "su_basis.time_s": 0.0, "sampling.time_s": 0.0}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_exactly_the_workloads_and_metrics_the_script_emits():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == spans.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        report = json.loads(out.stdout.strip().splitlines()[-2])["report"]
        assert set(report["unscaled"]) == set(result["metrics"]) - {"peak_rss_mb"}
        assert len(report["setup_samples_s"]) == bench.SETUP_SAMPLES


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run(tmp_path, "--workload", "evolve_joint", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _attributes():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in spans.TARGETS
    }


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    before = _attributes()
    ops = workloads.WORKLOADS["audit_nonlinear"].make_round(1, 0, workloads.TINY, tmp_path)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(now is not before[key] for key, now in _attributes().items())
            bench.run_round(ops, bench.Tally(), tracer)
            raise RuntimeError("leave the traced region early")
    assert _attributes() == before
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_gives_identical_outputs_and_repeatable_counts(workload, tmp_path):
    ops = workloads.WORKLOADS[workload].make_round(5, 0, workloads.TINY, tmp_path)
    plain = bench.Tally()
    bench.run_round(ops, plain)
    assert plain.failed == 0
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        traced = bench.Tally()
        with tracer.installed():
            bench.run_round(ops, traced, tracer)
        assert traced.failed == 0
        assert traced.fingerprints == plain.fingerprints
        table = spans.layer_table(tracer, NO_SETUP, 1.0)
        counts.append({name: table[name]["value"] for name in COUNTS})
    assert counts[0] == counts[1]
    if workload == "evolve_joint":
        assert counts[0]["dynamics.field_evals"] > 0
    else:
        assert counts[0]["nosignal_audit.fd_components"] > 0
        assert counts[0]["bloch.physicality_checks"] > 0


def test_self_time_excludes_children_and_field_calls():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("op", 0.0, 10.0, None, 1),
        spans.Span("integrate.solve", 1.0, 5.0, 0, 1, field_evals=3, field_s=2.5),
        spans.Span("bloch.joint_from_bloch", 6.0, 7.0, 0, 1),
    ]
    assert tracer.self_times() == [5.0, 1.5, 1.0]
