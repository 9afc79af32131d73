#!/usr/bin/env python
"""Compiler pass-pipeline sweep over the Table VI workloads.

Compiles each full-system benchmark under every pass set in the sweep
(no passes, each pass alone, the default full pipeline), simulates the
result, and reports per point: task count, HBM read/write bytes, and
simulated makespan. Everything is pure deterministic arithmetic over a
fixed task stream, so the whole sweep doubles as a regression gate:

- the **full pipeline must strictly improve makespan** vs ``none`` on
  every gate workload (the acceptance criterion: >=2 Table VI
  workloads improve; the gate list is itself >=2 workloads);
- no pass set may ever *increase* makespan vs ``none`` (passes only
  remove work and edges, never add them);
- compilation is **byte-deterministic**: compiling the same trace
  twice yields identical programs, and simulating twice yields
  identical schedules;
- every compiled program passes the static DAG validator and every
  schedule passes the full physical-invariant validator;
- the **lowering cache pays**: recompiling a workload with a warm
  cache serves every operator from cache (hit per op, zero misses).

``benchmarks/baseline.json`` additionally pins the pipelined makespans
(``table6-passes/...``) exactly; ``tests/sim/test_baseline_differential.py``
re-runs them and ``python benchmarks/baseline.py`` re-pins them.

Usage::

    python benchmarks/bench_passes.py            # full sweep
    python benchmarks/bench_passes.py --smoke    # CI subset
    python benchmarks/bench_passes.py -o passes.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.compiler import (  # noqa: E402  (path bootstrap must come first)
    DEFAULT_PIPELINE,
    clear_lowering_cache,
    compile_trace,
    lowering_cache_info,
)
from repro.obs import collecting  # noqa: E402
from repro.sim.engine import PoseidonSimulator  # noqa: E402
from repro.sim.validate import (  # noqa: E402
    validate_program,
    validate_schedule,
)
from repro.workloads import PAPER_BENCHMARKS  # noqa: E402

#: Pass sets swept per workload. ``none`` is the baseline; each pass
#: runs alone to attribute its share; ``default`` is the full pipeline.
PASS_SETS_FULL = (
    ("none", ()),
    ("hoist-rotations", ("hoist-rotations",)),
    ("relax-barriers", ("relax-barriers",)),
    ("fuse-elementwise", ("fuse-elementwise",)),
    ("dce", ("dce",)),
    ("default", DEFAULT_PIPELINE),
)
PASS_SETS_SMOKE = (
    ("none", ()),
    ("default", DEFAULT_PIPELINE),
)

WORKLOADS_FULL = ("LR", "LSTM", "ResNet-20", "Packed Bootstrapping")
WORKLOADS_SMOKE = ("LR", "Packed Bootstrapping")

#: Workloads the strict-improvement gate applies to. Two suffice for
#: the acceptance criterion; the full sweep checks all four anyway via
#: the never-slower rule.
GATE_WORKLOADS = WORKLOADS_SMOKE


def sweep_point(bench: str, label: str, passes: tuple[str, ...]) -> dict:
    trace = PAPER_BENCHMARKS[bench]()
    program = compile_trace(trace, passes=passes)
    validate_program(program)

    # Byte-determinism: an identical compile must produce an identical
    # task stream (frozen dataclasses compare structurally).
    again = compile_trace(trace, passes=passes)
    if program.tasks != again.tasks or (
        program.op_boundaries != again.op_boundaries
    ):
        raise AssertionError(
            f"{bench} [{label}]: recompilation is not deterministic"
        )

    simulator = PoseidonSimulator()
    result = simulator.run(program)
    validate_schedule(result, program=program, config=simulator.config)
    rerun = simulator.run(program)
    if rerun.total_seconds != result.total_seconds or (
        rerun.task_records != result.task_records
    ):
        raise AssertionError(
            f"{bench} [{label}]: re-simulation is not deterministic"
        )

    return {
        "workload": bench,
        "passes": label,
        "tasks": len(program.tasks),
        "hbm_read_bytes": sum(t.hbm_read_bytes for t in program.tasks),
        "hbm_write_bytes": sum(t.hbm_write_bytes for t in program.tasks),
        "simulated_seconds": result.total_seconds,
    }


def run_sweep(smoke: bool) -> list[dict]:
    benches = WORKLOADS_SMOKE if smoke else WORKLOADS_FULL
    pass_sets = PASS_SETS_SMOKE if smoke else PASS_SETS_FULL
    points = []
    print(f"{'workload':>22} {'passes':>17} {'tasks':>6} "
          f"{'makespan':>12} {'vs none':>8}")
    for bench in benches:
        base = None
        for label, passes in pass_sets:
            p = sweep_point(bench, label, passes)
            points.append(p)
            if label == "none":
                base = p["simulated_seconds"]
            delta = (
                f"{100 * (p['simulated_seconds'] / base - 1):+6.1f}%"
                if base else "      -"
            )
            print(f"{bench:>22} {label:>17} {p['tasks']:6d} "
                  f"{p['simulated_seconds'] * 1e3:10.3f}ms {delta:>8}")
    return points


def cache_report(bench: str = "LR") -> dict:
    """Cold-vs-warm compile of one workload through the lowering cache.

    The deterministic gate is hit/miss accounting (a warm recompile
    must serve every operator from cache); the wall-clock ratio is
    informational — it is what the serve plane's per-request compile
    cost drops by once the cache is warm.
    """
    trace = PAPER_BENCHMARKS[bench]()
    clear_lowering_cache()
    t0 = time.perf_counter()
    compile_trace(trace, passes=DEFAULT_PIPELINE)
    cold_wall = time.perf_counter() - t0
    cold = lowering_cache_info()

    t0 = time.perf_counter()
    compile_trace(trace, passes=DEFAULT_PIPELINE)
    warm_wall = time.perf_counter() - t0
    warm = lowering_cache_info()

    return {
        "workload": bench,
        "cold_wall_seconds": cold_wall,
        "warm_wall_seconds": warm_wall,
        "cold_misses": cold["misses"],
        "cold_hits": cold["hits"],
        "warm_hits": warm["hits"] - cold["hits"],
        "warm_misses": warm["misses"] - cold["misses"],
    }


def pass_metrics(bench: str = "LR") -> dict:
    """Per-pass stat counters for one default-pipeline compile."""
    trace = PAPER_BENCHMARKS[bench]()
    with collecting() as registry:
        compile_trace(trace, passes=DEFAULT_PIPELINE)
    return {
        name: value
        for name, value in sorted(registry.snapshot().items())
        if name.startswith("compiler.")
    }


def check_sweep(points: list[dict], cache: dict) -> list[str]:
    """The structural gates; returns a list of failures."""
    failures = []
    by_bench: dict[str, dict[str, dict]] = {}
    for p in points:
        by_bench.setdefault(p["workload"], {})[p["passes"]] = p

    improved = []
    for bench, sets in by_bench.items():
        base = sets["none"]["simulated_seconds"]
        # 1. No pass set may regress the makespan vs none.
        for label, p in sets.items():
            if p["simulated_seconds"] > base * (1 + 1e-9):
                failures.append(
                    f"{bench} [{label}] slower than none: "
                    f"{p['simulated_seconds'] * 1e3:.3f} ms vs "
                    f"{base * 1e3:.3f} ms"
                )
        if sets["default"]["simulated_seconds"] < base:
            improved.append(bench)

    # 2. The full pipeline strictly improves every gate workload.
    for bench in GATE_WORKLOADS:
        if bench in by_bench and bench not in improved:
            failures.append(
                f"full pipeline does not improve {bench}: "
                f"{by_bench[bench]['default']['simulated_seconds'] * 1e3:.3f}"
                f" ms vs none "
                f"{by_bench[bench]['none']['simulated_seconds'] * 1e3:.3f} ms"
            )

    # 3. The acceptance criterion: >=2 Table VI workloads improve.
    if len(improved) < 2:
        failures.append(
            f"full pipeline improves only {len(improved)} workload(s): "
            f"{', '.join(improved) or 'none'} (need >=2)"
        )

    # 4. Warm recompiles are fully served by the lowering cache.
    if cache["warm_misses"] != 0:
        failures.append(
            f"warm recompile missed the lowering cache "
            f"{cache['warm_misses']} time(s)"
        )
    if cache["warm_hits"] < 1:
        failures.append("warm recompile recorded no lowering-cache hits")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep compiler pass sets over Table VI workloads.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-fast subset (2 workloads, none vs full pipeline)",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the sweep points as JSON",
    )
    args = parser.parse_args(argv)

    label = "smoke" if args.smoke else "full"
    print(f"compiler pass sweep ({label}): "
          f"pipeline = {', '.join(DEFAULT_PIPELINE)}")
    points = run_sweep(args.smoke)
    cache = cache_report()
    metrics = pass_metrics()

    speedup = (
        cache["cold_wall_seconds"] / cache["warm_wall_seconds"]
        if cache["warm_wall_seconds"] > 0 else float("inf")
    )
    print(
        f"  lowering cache ({cache['workload']}): cold "
        f"{cache['cold_wall_seconds'] * 1e3:.1f} ms "
        f"({cache['cold_misses']} misses) -> warm "
        f"{cache['warm_wall_seconds'] * 1e3:.1f} ms "
        f"({cache['warm_hits']} hits, {speedup:.1f}x)"
    )

    if args.output is not None:
        doc = {
            "schema": 1,
            "pipeline": list(DEFAULT_PIPELINE),
            "points": points,
            "lowering_cache": cache,
            "pass_metrics": metrics,
        }
        args.output.write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.output}")

    failures = check_sweep(points, cache)
    if failures:
        print(f"\nFAIL: {len(failures)} sweep check(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    improved = sorted({
        p["workload"] for p in points if p["passes"] == "default"
        and p["simulated_seconds"] < next(
            q["simulated_seconds"] for q in points
            if q["workload"] == p["workload"] and q["passes"] == "none"
        )
    })
    print(
        f"OK: full pipeline improves {len(improved)} workload(s) "
        f"({', '.join(improved)}); determinism + validators clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
