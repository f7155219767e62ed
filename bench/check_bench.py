"""Smoke checks of the benchmark, on small inputs.

Run from the root of a checkout::

    python3 -m pytest -q bench/check_bench.py

Each workload runs once untraced and once traced in smoke mode; the checks
compare what it prints with the metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_unit_and_direction(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    report, result = json.loads(report_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    listed = SPEC["per_layer" if trace else "end_to_end"]
    described = report["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        value = result["metrics"][m["name"]]
        assert set(value) == {"value", "unit"}
        assert value["unit"] == m["unit"] == described[m["name"]]["unit"]
        assert described[m["name"]]["better"] == m["better"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0, m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def import_tracing():
    for path in (str(ROOT / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracing

    return tracing


def test_self_time_subtracts_direct_children():
    tracing = import_tracing()
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span(0, "op", None, 0, 0.0, 10.0),
        tracing.Span(1, "pipeline.identify", 0, 0, 1.0, 9.0),
        tracing.Span(2, "numred.svd_trunc", 1, 0, 2.0, 5.0),
        tracing.Span(3, "numred.lk_reduce", 1, 0, 5.0, 6.0),
    ]
    assert tracer.self_times() == [2.0, 4.0, 3.0, 1.0]


def test_patches_are_removed_after_a_traced_operation():
    tracing = import_tracing()
    originals = [getattr(mod, attr) for mod, attr, _, _ in tracing.SITES]
    tracer = tracing.Tracer()
    with tracer.operation(0):
        assert all(getattr(mod, attr) is not fn
                   for (mod, attr, _, _), fn in zip(tracing.SITES, originals))
    assert all(getattr(mod, attr) is fn for (mod, attr, _, _), fn in zip(tracing.SITES, originals))
