"""Smoke, determinism and tracing checks of run.py on --quick inputs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec
import workloads

ROOT = Path(__file__).resolve().parents[3]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"


def _run(*args, cwd=ROOT, timeout=600):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--quick", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Seed 0 twice (two samples each, traced) and seed 1 once."""
    tmp = tmp_path_factory.mktemp("e2e")
    out = {}
    for tag, seed, extra in (
        ("a", 0, ("--trace", "1", "--trace-dir", str(tmp / "trace"))),
        ("b", 0, ()),
        ("c", 1, ()),
    ):
        path = tmp / f"{tag}.json"
        proc, line = _run("--repeats", "2", "--seed", str(seed), "--out", str(path), *extra)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert line["correct"] and line["failed"] == 0
        out[tag] = json.loads(path.read_text())
    out["trace_dir"] = tmp / "trace"
    return out


def test_every_workload_runs_and_passes_its_checks(reports):
    not_quick = {
        f"sim_makespan_s.{key}" for name, key in spec.TABLE6_KEYS.items()
        if name not in workloads.TABLE6_QUICK
    }
    for name, report in reports["a"]["workloads"].items():
        assert report["correct"], report["errors"]
        assert report["attempted"] == 3  # two samples plus the traced one
        assert set(report["metrics"]) == {m.name for m in spec.metrics_for(name)} - not_quick
        assert report["metrics"]["check_fail_fraction"]["median"] == 0
        assert report["digest"]
    assert set(reports["a"]["workloads"]) == set(spec.WORKLOADS)


def _exact(report):
    return {
        (w, name): m["median"]
        for w, r in report["workloads"].items()
        for name, m in r["metrics"].items() if m["kind"] == "simulated"
    }, {w: r["digest"] for w, r in report["workloads"].items()}


def test_same_seed_gives_identical_simulated_metrics_and_digests(reports):
    assert _exact(reports["a"]) == _exact(reports["b"])


def test_seed_changes_serve_inputs(reports):
    sim_a, digest_a = _exact(reports["a"])
    sim_c, digest_c = _exact(reports["c"])
    for workload in spec.SERVE:
        assert digest_a[workload] != digest_c[workload]
        assert sim_a[(workload, "sim_latency_p99_s")] != sim_c[(workload, "sim_latency_p99_s")]
    assert digest_a["table6"] == digest_c["table6"]  # table6 has no seed


def test_traced_run_reports_every_per_layer_metric(reports):
    names = [name for name, _, _ in spec.per_layer_metrics()]
    for workload, report in reports["a"]["workloads"].items():
        assert report["missing"] == []
        assert set(report["per_layer"]) == set(names)
        assert report["per_layer"]["trace.missing_spans"] == 0
        assert report["per_layer"]["trace.wall_s"] > 0
        trace = json.loads((reports["trace_dir"] / f"{workload}.trace.json").read_text())
        tracks = {e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
        assert {"host", "compiler", "sim", "serve", "kernels", "ckks"} <= tracks
        assert any(e["ph"] == "X" and e["name"] == "sample.timed" for e in trace["traceEvents"])


@pytest.mark.parametrize("span", spec.SPANS, ids=lambda s: s.name)
def test_span_fires_on_its_heaviest_user(reports, span):
    per_layer = reports["a"]["workloads"][spec.heaviest_user(span)]["per_layer"]
    assert per_layer[f"{span.name}.calls"] > 0
    assert per_layer[f"{span.name}.self_share"] > 0


def test_result_line_lists_the_benchmark_metrics():
    proc, line = _run("--workload", "ckks-ops", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in spec.listed_end_to_end()}
    for name, entry in line["metrics"].items():
        assert entry["value"] > 0, name


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
