"""Smoke test of the benchmark harness on shrunken fixtures.

It runs one cycle of ops per workload (``seconds=0``) and two short traced
runs on the ``smoke`` fixture pools recorded in ``reference/``. Run from
the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_one_cycle_per_workload_emits_every_end_to_end_metric():
    for name, workload in run.WORKLOADS.items():
        result, _ = run.run(name, seed=1, seconds=0, trace=0, scale_name="smoke")
        summary = result["summary"]
        assert (summary["correct"], summary["attempted"], summary["failed"]) == (
            True, workload.cycle("smoke"), 0)
        assert {k: m["unit"] for k, m in summary["metrics"].items()} == run.END_TO_END
        assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_traced_op_emits_every_per_layer_metric_and_counts_repeat():
    counts = []
    for _ in range(2):
        result, tracer = run.run("certify-grounded", seed=2, seconds=0, trace=1,
                                 scale_name="smoke")
        metrics = result["summary"]["metrics"]
        assert result["summary"]["correct"]
        assert {k: m["unit"] for k, m in metrics.items()} == run.PER_LAYER
        assert metrics["spectral.interleaving_shift.self_s"]["value"] > 0
        assert tracer.traced_ops == tracer.window_ops == 2 and tracer.spans
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] != "s"
                       and k != "trace.overhead_ratio"})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload",
         "certify-grounded", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
