#!/usr/bin/env python
"""The exact pin on simulated time: ``baseline.json`` and its measurements.

Simulated seconds are the model's output and come from deterministic
float arithmetic over a fixed task stream, so they are pinned exactly,
not within a band. ``baseline.json`` holds one entry per workload —
Table IV basic operations, Table VI full-system benchmarks without and
with the default compiler passes, the Fig. 10 NTT radix sweep, and
served and routed-fleet runs — and this module holds the measurement
behind each entry (:data:`MEASUREMENTS`). The Table VI, serving and
fleet measurements validate their schedules before their times count.

``tests/sim/test_baseline_differential.py`` re-runs every entry in
tier-1 and asserts exact float equality. After an intended model
change, re-pin and review the movement workload by workload::

    python benchmarks/baseline.py
    git diff benchmarks/baseline.json

This module is the only code that reads or writes the file.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

BASELINE_PATH = REPO_ROOT / "benchmarks" / "baseline.json"

#: Basic operations measured at paper scale (Table IV context).
TABLE4 = ("PMult", "CMult", "NTT", "Keyswitch", "Rotation", "Rescale")

#: Pinned without passes (``table6/``) and through the default pass
#: pipeline (``table6-passes/``), so a pass change cannot hide behind
#: an unchanged no-pass makespan.
TABLE6 = ("LR", "LSTM", "ResNet-20", "Packed Bootstrapping")

FIG10 = (2, 3, 4, 5, 6)

#: Open-system serving workloads. The saturation entries pin the knee
#: of the load sweep (see bench_serving_sweep.py) as *seconds per
#: request* at overload.
SERVE_SEED = 0
SERVE_OVERLOAD_RATE = 1200.0
SERVE_COUNT = 64

#: Routed-fleet entries: one fault-free cluster run (anchors the
#: byte-determinism of the fleet path) and one crash-and-recover run
#: (pins the recovery makespan: slower failover, detection, or retry
#: machinery shows up here as simulated-time growth).
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


#: ``{workload name: zero-argument measurement}``, one per pinned entry.
MEASUREMENTS = {
    **{f"table4/{op}": partial(_table4_seconds, op) for op in TABLE4},
    **{f"table6/{b}": partial(_table6_seconds, b) for b in TABLE6},
    **{
        f"table6-passes/{b}": partial(_table6_seconds, b, passes="default")
        for b in TABLE6
    },
    **{f"fig10/k={k}": partial(_fig10_seconds, k) for k in FIG10},
    "serve/keyswitch-r300-b8": partial(
        _serve_makespan_seconds, "keyswitch-r300-b8"
    ),
    **{
        f"serve/saturation-{spec}": partial(_serve_saturation_spr, spec)
        for spec in ("b1", "b8")
    },
    **{
        f"cluster/{spec}": partial(_cluster_makespan_seconds, spec)
        for spec in ("faultfree", "crash-recovery")
    },
}


def load() -> dict[str, float]:
    """The pinned ``{workload name: simulated seconds}``."""
    doc = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    return {
        name: entry["simulated_seconds"]
        for name, entry in doc["workloads"].items()
    }


def main() -> int:
    """Re-measure every workload and rewrite ``baseline.json``."""
    workloads = {}
    for name, measure in MEASUREMENTS.items():
        seconds = measure()
        workloads[name] = {"simulated_seconds": seconds}
        print(f"  {name:36s} {seconds * 1e3:12.4f} ms")
    BASELINE_PATH.write_text(
        json.dumps({"workloads": workloads}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {BASELINE_PATH}; review with git diff")
    return 0


if __name__ == "__main__":
    sys.exit(main())
