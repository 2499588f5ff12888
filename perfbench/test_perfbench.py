"""The benchmark's own tests: smoke runs of every workload, traced and not,
plus the oracle, the span accounting and the result contract.

Run from the checkout root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
from oracle import Oracle  # noqa: E402
from spans import Span, SpanRecorder, self_times  # noqa: E402


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        e["bound"] for e in spec["end_to_end"]) for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_untraced(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "2",
                          "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in bench.END_TO_END]
    for name, unit in bench.END_TO_END:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_traced_accounts_for_wall_time(workload):
    result = _result(_run("--workload", workload, "--seed", "4", "--seconds", "2",
                          "--trace", "1", "--smoke"))
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    if workload != "serve_stream":
        assert metrics["trace.units"] >= 1
        assert metrics["trace.coverage_err"] <= 0.05
        self_ms = sum(v for k, v in metrics.items() if k.startswith("self."))
        assert self_ms == pytest.approx(metrics["latency.p50_ms"], rel=0.6)
    if workload.startswith("serve"):
        assert metrics["serve.batch_fill_rows"] >= 1
        assert metrics["engine.exact.rows_per_s"] > 0
    for name, _ in bench.END_TO_END:
        assert metrics[f"traced.{name}"] > 0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "serve_knn", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracle_accepts_ties_and_rejects_wrong_answers():
    ref = np.array([[0.0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 3, 0], [5, 5, 5]])
    oracle = Oracle(ref)
    q = np.zeros((1, 3))
    # Points 1 and 2 tie at distance 1: either may fill the last slot.
    assert oracle.check_knn(q, np.array([[0, 2]]), np.array([[0.0, 1.0]])) == 0
    assert oracle.check_knn(q, np.array([[0, 1]]), np.array([[0.0, 1.0]])) == 0
    assert oracle.check_knn(q, np.array([[0, 3]]), np.array([[0.0, 1.0]])) == 1
    assert oracle.check_knn(q, np.array([[0, 1]]), np.array([[0.0, 1.5]])) == 1
    offsets = np.array([0, 3])
    assert oracle.check_radius(q, 1.0, 8, np.array([0, 1, 2]),
                               np.array([0.0, 1.0, 1.0]), offsets) == 0
    assert oracle.check_radius(q, 1.0, 8, np.array([0, 1]),
                               np.array([0.0, 1.0]), np.array([0, 2])) == 1
    assert oracle.check_approx(q, np.array([[0, 3]]), np.array([[0.0, 3.0]])) == 0
    assert oracle.check_approx(q, np.array([[0, 3]]), np.array([[0.0, 0.5]])) == 1
    assert oracle.mismatches == 4


def test_self_times_add_up_to_the_root():
    spans = [Span(1, "root", 0.0, 10.0, 0), Span(2, "a", 1.0, 4.0, 1),
             Span(3, "b", 2.0, 3.0, 2), Span(4, "c", 5.0, 9.0, 1)]
    per, err = self_times(spans, spans[0])
    assert per == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert err == 0.0
    # Overlapping siblings are double counted, and the error says so.
    spans.append(Span(5, "d", 6.0, 8.0, 1))
    _, err = self_times(spans, spans[0])
    assert err == pytest.approx(0.2)


def test_recorder_nests_spans_per_thread():
    recorder = SpanRecorder()
    with recorder.span("outer") as outer:
        with recorder.span("inner"):
            pass
    inner = next(s for s in recorder.spans if s.name == "inner")
    assert inner.parent == outer
