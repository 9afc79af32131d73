#!/usr/bin/env python3
"""End-to-end benchmark: five workloads, host and simulated metrics.

Runs each workload as a series of samples, each in a fresh child
process (``sample.py``), one at a time: for about ``--seconds``, or
exactly ``--repeats`` samples. Prints every end-to-end metric by name
with its unit, median, quartiles and sample count, and checks every
output. The last line of stdout is one JSON object::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

whose metrics are the end-to-end metrics ``BENCHMARK.json`` lists
(``--trace 0``) or its per-layer metrics (``--trace 1``, which adds one
traced sample and writes ``<workload>.trace.json`` to ``--trace-dir``).

    python3 benchmarks/e2e/run.py                        # all workloads
    python3 benchmarks/e2e/run.py --workload ckks-ops --seed 1
    python3 benchmarks/e2e/run.py --repeats 5 --out base.json
    python3 benchmarks/e2e/run.py --workload fleet-crash --trace 1
    python3 benchmarks/e2e/compare.py base.json new.json

Host times are normalized to a reference machine by a calibration
workload timed throughout each sample's timed section
(``calibration.py``); the report keeps the raw wall and set-up medians
too. The seed drives every generated input (arrivals, job and tenant
draws, keys, plaintexts); ``table6`` has none. Simulated metrics must
be identical across the samples of a run. Exit status: 0 when every
check passed, 1 when one failed, 2 when the repository is not beside
the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: A sample normally takes under 10 s; one that takes this long is hung.
SAMPLE_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    """The parent's environment minus anything that changes the program."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNEL_BACKEND"}
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_sample(workload: str, seed: int, quick: bool, trace_file: Path | None = None) -> dict:
    """One sample in a fresh process. A crash or timeout is a failed
    sample with the reason in ``errors``, never an exception."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"sample timed out after {SAMPLE_TIMEOUT_S:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"ok": False, "errors": [f"sample exited {proc.returncode}: " + " | ".join(tail)]}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"ok": False, "errors": [f"unreadable sample output: {lines[-1][:200]}"]}


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of per-sample values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _host_values(metric: str, samples: list[dict]) -> list[float]:
    if metric == "host_latency_p50_ms":
        return [1e3 * statistics.median(s["requests_s"]) for s in samples]
    if metric == "host_latency_p80_ms":
        return [1e3 * statistics.quantiles(s["requests_s"], n=5)[3] for s in samples]
    return [s[metric] for s in samples]


def aggregate(workload: str, samples: list[dict], traced: dict | None) -> dict:
    """One workload's report: metrics, digest, errors, per-layer."""
    attempted = samples + ([traced] if traced else [])
    failed = sum(1 for s in attempted if not s.get("ok"))
    errors = [e for s in attempted for e in s.get("errors", [])]
    good = [s for s in samples if s.get("ok")]
    digests = {s.get("digest") for s in attempted if s.get("ok")}
    if len(digests) > 1:
        errors.append(f"output digest differs across samples: {sorted(digests)}")
    metrics = {}
    for m in spec.metrics_for(workload):
        if m.kind == "host":
            if not good:
                continue
            stats = summarize(_host_values(m.name, good))
            if "raw_" + m.name in good[0]:
                stats["raw_median"] = statistics.median(s["raw_" + m.name] for s in good)
        elif m.kind == "simulated":
            values = [s["sim"][m.name] for s in attempted if m.name in s.get("sim", {})]
            if not values:
                continue
            if len(set(values)) > 1:
                errors.append(f"{m.name} differs across samples: {sorted(set(values))}")
            stats = summarize(values)
        else:  # check_fail_fraction
            stats = summarize([failed / len(attempted)])
        metrics[m.name] = {
            "unit": m.unit, "better": m.better, "bound": m.bound, "kind": m.kind, **stats,
        }
    report = {
        "attempted": len(attempted),
        "failed": failed,
        "correct": failed == 0 and not errors,
        "errors": errors,
        "digest": digests.pop() if len(digests) == 1 else None,
        "metrics": metrics,
    }
    if traced is not None and traced.get("ok"):
        per_layer = dict(traced["per_layer"])
        per_layer["trace.wall_s"] = traced["wall_s"]
        base = metrics.get("wall_s", {}).get("median")
        per_layer["trace.overhead_fraction"] = (
            per_layer["trace.wall_s"] / base - 1.0 if base else 0.0
        )
        report["per_layer"] = per_layer
        report["missing"] = traced.get("missing", [])
    return report


def run_workload(workload: str, args) -> dict:
    samples: list[dict] = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        samples.append(run_sample(workload, args.seed, args.quick))
        now = time.perf_counter()
        if args.repeats is not None:
            if len(samples) >= args.repeats:
                break
        # Stop when one more sample would end nearer past --seconds than
        # this one ends before it, so a run lasts about --seconds.
        elif now - begin + (now - started) / 2 >= args.seconds:
            break
    traced = None
    if args.trace:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        traced = run_sample(
            workload, args.seed, args.quick, args.trace_dir / f"{workload}.trace.json"
        )
    return aggregate(workload, samples, traced)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(workload: str, seed: int, report: dict) -> None:
    print(f"== {workload}  seed {seed}  samples {report['attempted']} "
          f"({report['failed']} failed)  digest {str(report['digest'])[:16]}")
    print(f"  {'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  "
          f"{'kind':9} {'raw median':>12}")
    for name, m in report["metrics"].items():
        print(f"  {name:28} {m['unit']:6} {_fmt(m['median']):>12} {_fmt(m['q1']):>12} "
              f"{_fmt(m['q3']):>12} {m['n']:>3}  {m['kind']:9} {_fmt(m.get('raw_median', '')):>12}")
    for error in report["errors"]:
        print(f"  CHECK FAILED: {error}")
    if report.get("missing"):
        print(f"  missing spans: {', '.join(report['missing'])}")


def result_line(reports: dict[str, dict], trace: bool) -> dict:
    """The result line ending stdout; with several workloads, metric
    names get a ``<workload>/`` prefix."""
    if trace:
        units = {name: unit for name, unit, _ in spec.per_layer_metrics()}
    else:
        units = {m.name: m.unit for m in spec.listed_end_to_end()}
    metrics = {}
    for workload, report in reports.items():
        source = report.get("per_layer", {}) if trace else {
            name: m["median"] for name, m in report["metrics"].items()
        }
        prefix = "" if len(reports) == 1 else f"{workload}/"
        for name, unit in units.items():
            if name in source:
                metrics[prefix + name] = {"value": source[name], "unit": unit}
    return {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.ALL, action="append",
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure each workload for this long (default: 20)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="run exactly this many samples instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced sample and report per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=HERE / "out",
                        help="where --trace 1 writes <workload>.trace.json")
    parser.add_argument("--out", type=Path, default=None, help="write the full report here")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken inputs for smoke tests; not for measurement")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.repeats is not None and args.repeats < 1):
        parser.error("--seconds must be positive and --repeats at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    calibration_start = calibration.calibrate()
    reports = {}
    for workload in args.workload or spec.ALL:
        reports[workload] = run_workload(workload, args)
        print_report(workload, args.seed, reports[workload])
    calibration_end = calibration.calibrate()
    print(f"calibration: {calibration_start:.4f} s at start, {calibration_end:.4f} s at end")

    if args.out is not None:
        args.out.write_text(json.dumps({
            "schema": 1,
            "seed": args.seed,
            "quick": args.quick,
            "calibration_s": {"start": calibration_start, "end": calibration_end},
            "workloads": reports,
        }, indent=1))
    line = result_line(reports, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
