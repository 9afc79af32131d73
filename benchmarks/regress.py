#!/usr/bin/env python
"""Deterministic perf-regression harness for the Poseidon simulator.

Runs a fixed suite of simulated workloads — Table IV basic operations,
Table VI full-system benchmarks, and the Fig. 10 NTT radix sweep —
records *simulated seconds* (deterministic: pure float arithmetic over
a fixed task stream) and wall-clock seconds (informational) per
workload, writes a ``BENCH_<date>.json`` report, and compares the run
against a checked-in baseline. Exits non-zero when any workload's
simulated time regresses more than the threshold (default 10%).

Usage::

    python benchmarks/regress.py                  # full suite vs baseline
    python benchmarks/regress.py --smoke          # CI-fast subset
    python benchmarks/regress.py --update-baseline
    python benchmarks/regress.py --smoke --artifacts out/

Runnable standalone from any cwd — no PYTHONPATH needed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.obs import (  # noqa: E402  (path bootstrap must come first)
    collecting,
    compare_baselines,
    load_baseline,
    make_baseline,
    save_baseline,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.regression import (  # noqa: E402
    DEFAULT_THRESHOLD,
    new_workloads,
)

DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"

#: Basic operations measured at paper scale (Table IV context).
TABLE4_FULL = ("PMult", "CMult", "NTT", "Keyswitch", "Rotation", "Rescale")
TABLE4_SMOKE = ("PMult", "Keyswitch")

TABLE6_FULL = ("LR", "LSTM", "ResNet-20", "Packed Bootstrapping")
TABLE6_SMOKE = ("LR",)

#: Same workloads compiled through the default compiler pass pipeline
#: (``--passes default``); gates the *optimized* makespans so a pass
#: regression can't hide behind an unchanged no-pass baseline. The
#: smoke subset keeps one pipelined entry in every CI run.
TABLE6_PASSES_FULL = TABLE6_FULL
TABLE6_PASSES_SMOKE = ("LR", "Packed Bootstrapping")

FIG10_FULL = (2, 3, 4, 5, 6)
FIG10_SMOKE = (2, 3)

#: Functional-plane NTT micro-benchmark shape (wall-clock, per backend).
MICRONTT_DEGREE = 4096
MICRONTT_LIMBS = 8
MICRONTT_BACKENDS = ("reference", "numpy")

#: Open-system serving workloads. The saturation entries gate the knee
#: of the load sweep (see bench_serving_sweep.py) as *seconds per
#: request* at overload, so the standard simulated-time threshold
#: applies: saturation throughput dropping >10% fails the run.
SERVE_SEED = 0
SERVE_MAKESPAN = ("keyswitch-r300-b8",)
SERVE_SATURATION_FULL = ("b1", "b8")
SERVE_SATURATION_SMOKE = ("b8",)
SERVE_OVERLOAD_RATE = 1200.0
SERVE_COUNT = 64

#: Routed-fleet entries: one fault-free cluster run (anchors the
#: byte-determinism of the fleet path) and one crash-and-recover run
#: (gates the recovery makespan — slower failover, detection, or
#: retry machinery shows up here as simulated-time growth). Both stay
#: in the smoke suite: the fault layer is exactly the kind of
#: cross-cutting change that regresses quietly.
CLUSTER_SEED = 7
CLUSTER_COUNT = 48
CLUSTER_RATE = 480.0


def _table4_seconds(op_name: str) -> float:
    from repro.analysis.tables import (
        TABLE4_AUX,
        TABLE4_DEGREE,
        TABLE4_LEVEL,
    )
    from repro.compiler.ops import FheOp, FheOpName
    from repro.sim.engine import PoseidonSimulator
    from repro.sim.tasks import OperatorKind, OperatorTask

    sim = PoseidonSimulator()
    if op_name == "NTT":
        task = OperatorTask(
            kind=OperatorKind.NTT,
            elements=TABLE4_LEVEL * TABLE4_DEGREE,
            degree=TABLE4_DEGREE,
            limbs=TABLE4_LEVEL,
            hbm_read_bytes=TABLE4_DEGREE * TABLE4_LEVEL * 4,
            hbm_write_bytes=TABLE4_DEGREE * TABLE4_LEVEL * 4,
            op_label="NTT",
        )
        return max(
            sim.cores.task_seconds(task),
            sim.memory.task_timing(task).hbm_seconds,
        )
    op = FheOp.make(
        FheOpName.from_label(op_name),
        TABLE4_DEGREE,
        TABLE4_LEVEL,
        aux_limbs=TABLE4_AUX,
    )
    return sim.operation_seconds(op)


def _table6_seconds(bench: str, passes: str | None = None) -> float:
    from repro.compiler.program import compile_trace
    from repro.sim.engine import PoseidonSimulator
    from repro.sim.validate import validate_schedule
    from repro.workloads import PAPER_BENCHMARKS

    program = compile_trace(PAPER_BENCHMARKS[bench](), passes=passes)
    simulator = PoseidonSimulator()
    result = simulator.run(program)
    # Every measured schedule self-checks its invariants (no overlap,
    # HBM budget, dependency order, conservation) before being trusted.
    validate_schedule(result, program=program, config=simulator.config)
    return result.total_seconds


def _fig10_seconds(k: int) -> float:
    from repro.sim.config import HardwareConfig
    from repro.sim.engine import PoseidonSimulator
    from repro.sim.tasks import OperatorKind, OperatorTask

    degree, limbs = 1 << 16, 44
    sim = PoseidonSimulator(HardwareConfig().with_radix(k))
    task = OperatorTask(
        kind=OperatorKind.NTT,
        elements=limbs * degree,
        degree=degree,
        limbs=limbs,
        op_label="NTT",
    )
    return sim.cores.task_seconds(task)


def _microntt_data():
    """Fixed-seed (L, N) residue matrix + basis for the micro-benchmark."""
    import numpy as np

    from repro.ntt.tables import get_twiddle_table
    from repro.utils.primes import find_ntt_primes

    moduli = tuple(find_ntt_primes(30, MICRONTT_LIMBS, MICRONTT_DEGREE))
    # Warm the per-(q, n) twiddle cache both backends share, so the
    # measurement compares execution strategies, not table builds.
    for q in moduli:
        get_twiddle_table(q, MICRONTT_DEGREE)
    rng = np.random.default_rng(2023)
    data = np.stack([
        rng.integers(0, q, MICRONTT_DEGREE, dtype=np.uint64)
        for q in moduli
    ])
    return data, moduli


def _microntt_seconds(backend_name: str) -> float:
    """Forward+inverse all-limbs NTT wall time on one kernel backend.

    Returns 0.0 as the *simulated* time (the functional plane has no
    simulated clock); the interesting number is the wall_seconds the
    suite runner records, from which the speedup line is printed.
    """
    import numpy as np

    from repro import kernels

    data, moduli = _microntt_data()
    backend = kernels.resolve(backend_name)
    fwd = backend.ntt(data, moduli)
    back = backend.intt(fwd, moduli)
    if not np.array_equal(back, data):
        raise AssertionError(
            f"{backend_name} backend NTT/INTT roundtrip mismatch"
        )
    return 0.0


def _serve_run(rate: float, max_batch: int):
    from repro.serve import (
        BatchPolicy,
        ClusterPolicy,
        ClusterSimulator,
        PoissonArrivals,
    )

    sim = ClusterSimulator(
        policy=ClusterPolicy(instances=1, key_upload_bytes=0),
        batch_policy=BatchPolicy(max_batch_size=max_batch),
    )
    result = sim.run(
        "keyswitch",
        PoissonArrivals(
            rate=rate, count=SERVE_COUNT, seed=SERVE_SEED
        ),
        seed=SERVE_SEED,
    )
    # Served schedules self-check the same invariants as table6 runs.
    result.validate()
    return result


def _serve_makespan_seconds(spec: str) -> float:
    assert spec == "keyswitch-r300-b8"
    return _serve_run(rate=300.0, max_batch=8).makespan_seconds


def _serve_saturation_spr(spec: str) -> float:
    """Seconds per request at overload (the inverse knee height)."""
    max_batch = {"b1": 1, "b8": 8}[spec]
    result = _serve_run(rate=SERVE_OVERLOAD_RATE, max_batch=max_batch)
    return 1.0 / result.throughput_rps


def _cluster_makespan_seconds(spec: str) -> float:
    """Fleet makespan, fault-free or through a crash-and-recover."""
    from repro.serve import (
        BatchPolicy,
        ClusterPolicy,
        ClusterSimulator,
        FaultPlan,
        InstanceCrash,
        PoissonArrivals,
        ResiliencePolicy,
        RetryPolicy,
        TenantPopulation,
    )

    faults = resilience = None
    if spec == "crash-recovery":
        faults = FaultPlan((
            InstanceCrash(instance=0, at_seconds=0.02,
                          restart_after=0.01),
        ))
        resilience = ResiliencePolicy(
            deadline_seconds=0.25,
            retry=RetryPolicy(
                max_attempts=3, backoff_seconds=0.001, jitter=0.5
            ),
            detection_seconds=0.002,
        )
    sim = ClusterSimulator(
        policy=ClusterPolicy(
            instances=2, router="key-affinity", key_cache_capacity=4
        ),
        batch_policy=BatchPolicy(
            max_batch_size=4, max_queue_delay=0.0005,
            max_inflight_batches=2,
        ),
    )
    result = sim.run(
        "keyswitch",
        PoissonArrivals(
            rate=CLUSTER_RATE, count=CLUSTER_COUNT, seed=CLUSTER_SEED
        ),
        seed=CLUSTER_SEED,
        population=TenantPopulation(tenants=8, key_sets=16, skew=0.8),
        faults=faults,
        resilience=resilience,
    )
    # Crash-truncated schedules self-check the same invariants, plus
    # request conservation (no silently dropped requests).
    result.validate()
    return result.makespan_seconds


def report_microntt_speedup(workloads: dict[str, dict]) -> None:
    """Print per-backend wall-clock speedups for the micro NTT entries."""
    names = {
        b: f"microntt/N{MICRONTT_DEGREE}-L{MICRONTT_LIMBS}/{b}"
        for b in MICRONTT_BACKENDS
    }
    if all(name in workloads for name in names.values()):
        ref = workloads[names["reference"]]["wall_seconds"]
        for b in MICRONTT_BACKENDS:
            if b == "reference":
                continue
            wall = workloads[names[b]]["wall_seconds"]
            if wall > 0:
                print(
                    f"  microntt N={MICRONTT_DEGREE} L={MICRONTT_LIMBS}: "
                    f"{b} is {ref / wall:.1f}x faster than reference "
                    f"({ref * 1e3:.1f} ms -> {wall * 1e3:.1f} ms wall)"
                )


def build_suite(smoke: bool) -> list[tuple[str, object]]:
    """The fixed measurement suite: ``[(workload name, thunk)]``."""
    ops = TABLE4_SMOKE if smoke else TABLE4_FULL
    benches = TABLE6_SMOKE if smoke else TABLE6_FULL
    radices = FIG10_SMOKE if smoke else FIG10_FULL
    suite: list[tuple[str, object]] = []
    for op_name in ops:
        suite.append(
            (f"table4/{op_name}",
             lambda op_name=op_name: _table4_seconds(op_name))
        )
    for bench in benches:
        suite.append(
            (f"table6/{bench}", lambda bench=bench: _table6_seconds(bench))
        )
    piped = TABLE6_PASSES_SMOKE if smoke else TABLE6_PASSES_FULL
    for bench in piped:
        suite.append(
            (f"table6-passes/{bench}",
             lambda bench=bench: _table6_seconds(bench, passes="default"))
        )
    for k in radices:
        suite.append((f"fig10/k={k}", lambda k=k: _fig10_seconds(k)))
    for spec in SERVE_MAKESPAN:
        suite.append(
            (f"serve/{spec}",
             lambda spec=spec: _serve_makespan_seconds(spec))
        )
    sat = SERVE_SATURATION_SMOKE if smoke else SERVE_SATURATION_FULL
    for spec in sat:
        suite.append(
            (f"serve/saturation-{spec}",
             lambda spec=spec: _serve_saturation_spr(spec))
        )
    for spec in ("faultfree", "crash-recovery"):
        suite.append(
            (f"cluster/{spec}",
             lambda spec=spec: _cluster_makespan_seconds(spec))
        )
    for b in MICRONTT_BACKENDS:
        suite.append(
            (f"microntt/N{MICRONTT_DEGREE}-L{MICRONTT_LIMBS}/{b}",
             lambda b=b: _microntt_seconds(b))
        )
    return suite


def run_suite(smoke: bool) -> dict[str, dict]:
    """Execute the suite; ``{name: {simulated_seconds, wall_seconds}}``."""
    workloads: dict[str, dict] = {}
    for name, thunk in build_suite(smoke):
        t0 = time.perf_counter()
        simulated = thunk()
        wall = time.perf_counter() - t0
        workloads[name] = {
            "simulated_seconds": simulated,
            "wall_seconds": wall,
        }
        print(f"  {name:28s} {simulated * 1e3:12.4f} ms sim"
              f"   ({wall:6.2f} s wall)")
    return workloads


def current_git_sha() -> str:
    """The commit this report measures: ``GITHUB_SHA`` in CI, else the
    local HEAD, else ``"unknown"`` (e.g. a source tarball)."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def dump_artifacts(out_dir: Path, benchmark: str = "LR") -> None:
    """Write a trace + metrics pair for CI artifact upload."""
    from repro.compiler.program import compile_trace
    from repro.sim.engine import PoseidonSimulator
    from repro.sim.validate import validate_schedule
    from repro.workloads import PAPER_BENCHMARKS

    out_dir.mkdir(parents=True, exist_ok=True)
    program = compile_trace(PAPER_BENCHMARKS[benchmark]())
    simulator = PoseidonSimulator()
    with collecting() as registry:
        result = simulator.run(program)
    validate_schedule(result, program=program, config=simulator.config)
    write_chrome_trace(result, out_dir / "trace.json", label=benchmark)
    write_metrics_json(
        registry.snapshot(),
        out_dir / "metrics.json",
        meta={
            "benchmark": benchmark,
            "simulated_seconds": result.total_seconds,
        },
    )
    print(f"artifacts: {out_dir / 'trace.json'}, {out_dir / 'metrics.json'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the fixed perf suite and compare to baseline.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI subset (2 basic ops, LR, two radices)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"baseline JSON to compare against (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write this run as the new baseline instead of comparing",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="allowed simulated-time growth (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=REPO_ROOT / "benchmarks",
        help="directory for the BENCH_<date>.json report",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="exact report path, overriding the date-derived name "
             "(CI uses this so repeated same-day runs cannot "
             "overwrite each other's uploaded reports)",
    )
    parser.add_argument(
        "--artifacts", type=Path, default=None,
        help="also dump trace.json/metrics.json for CI upload",
    )
    args = parser.parse_args(argv)

    label = "smoke" if args.smoke else "full"
    print(f"running {label} suite...")
    workloads = run_suite(args.smoke)
    report_microntt_speedup(workloads)
    today = date.today().isoformat()
    report = make_baseline(workloads, created=today, label=label)
    report["git_sha"] = current_git_sha()

    if args.out is not None:
        report_path = args.out
        report_path.parent.mkdir(parents=True, exist_ok=True)
    else:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        report_path = args.out_dir / f"BENCH_{today}.json"
    save_baseline(report, report_path)
    print(f"report: {report_path} (git {report['git_sha'][:12]})")

    if args.artifacts is not None:
        dump_artifacts(args.artifacts)

    if args.update_baseline:
        save_baseline(report, args.baseline)
        print(f"baseline updated: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; run with --update-baseline "
            "to create one", file=sys.stderr,
        )
        return 2

    baseline = load_baseline(args.baseline)
    # A smoke run measures a subset; judge only the workloads this run
    # was supposed to produce so the full baseline still applies.
    expected = {name for name, _ in build_suite(args.smoke)}
    baseline_view = {
        "schema": baseline["schema"],
        "workloads": {
            name: entry
            for name, entry in baseline["workloads"].items()
            if name in expected
        },
    }
    findings = compare_baselines(
        baseline_view, report, threshold=args.threshold
    )
    extra = new_workloads(baseline_view, report)
    if extra:
        print(f"new workloads (not in baseline): {', '.join(extra)}")
    if findings:
        print(
            f"\nFAIL: {len(findings)} regression(s) above "
            f"{100 * args.threshold:.0f}%:", file=sys.stderr,
        )
        for finding in findings:
            print(f"  {finding.describe()}", file=sys.stderr)
        return 1
    print(
        f"OK: {len(baseline_view['workloads'])} workloads within "
        f"{100 * args.threshold:.0f}% of baseline "
        f"({baseline.get('created', '?')})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
