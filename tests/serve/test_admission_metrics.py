"""Serving on admission plans: memory-model counters and upload tuples.

The engine costs each task tuple once and replays its plan afterwards;
the ``sim.spad.*`` / ``sim.hbm.*`` counters must still count every
admitted task (plus one estimator pass per distinct program), exactly
as when every admission re-ran the memory model. The pinned snapshots
below were recorded from that per-admission implementation.
"""

from repro.obs import collecting
from repro.serve import (
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    FaultPlan,
    HBMDegradation,
    InstanceCrash,
    PoissonArrivals,
    ResiliencePolicy,
    RetryPolicy,
    Straggler,
    TenantPopulation,
)
from repro.sim.config import HardwareConfig
from repro.sim.engine import ScheduleEngine

MEMORY_METRICS = (
    "sim.spad.hits",
    "sim.spad.misses",
    "sim.spad.spill_bytes",
    "sim.hbm.transfers",
    "sim.hbm.channels_used",
)


def memory_snapshot(reg):
    snap = reg.snapshot()
    return {k: snap[k] for k in MEMORY_METRICS if k in snap}


def single_instance_run():
    ClusterSimulator(
        policy=ClusterPolicy(instances=1, key_upload_bytes=0),
        batch_policy=BatchPolicy(max_batch_size=4, order="sjf"),
    ).run(
        "keyswitch,streaming",
        PoissonArrivals(rate=3000.0, count=40, seed=1),
        seed=1,
    )


def fleet_policy(**overrides):
    kwargs = dict(
        instances=2, router="key-affinity", key_cache_capacity=2,
        key_upload_bytes=300_000,
    )
    kwargs.update(overrides)
    return ClusterPolicy(**kwargs)


def faulted_fleet_run(policy=None):
    """Spilling scratchpad, small key uploads (5 channels), a crash
    with restart, a straggler and an HBM-derate window, and retries:
    every admission path (fresh, sliced, reused, derated, upload
    prefixed, crashed engine) is exercised."""
    sim = ClusterSimulator(
        HardwareConfig(scratchpad_bytes=384 * 1024),
        policy=policy or fleet_policy(),
        batch_policy=BatchPolicy(
            max_batch_size=4, max_queue_delay=0.0005, max_inflight_batches=2
        ),
    )
    return sim.run(
        "keyswitch",
        PoissonArrivals(rate=600.0, count=48, seed=2),
        seed=2,
        population=TenantPopulation(tenants=4, key_sets=6, skew=0.8),
        faults=FaultPlan((
            InstanceCrash(instance=0, at_seconds=0.03, restart_after=0.01),
            Straggler(instance=1, start_seconds=0.01,
                      duration_seconds=0.02, slowdown=2.0),
            HBMDegradation(instance=1, start_seconds=0.02,
                           duration_seconds=0.03, factor=0.5),
        )),
        resilience=ResiliencePolicy(
            deadline_seconds=0.05,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.001,
                              jitter=0.5),
            detection_seconds=0.002,
        ),
    )


class TestMemoryCountersPerAdmittedTask:
    def test_single_instance_snapshot_unchanged(self):
        with collecting() as reg:
            single_instance_run()
        assert memory_snapshot(reg) == {
            "sim.hbm.channels_used": {
                "count": 732, "max": 32, "mean": 32.0, "min": 32,
                "p50": 32, "p99": 32, "sum": 23424.0,
            },
            "sim.hbm.transfers": 732,
            "sim.spad.hits": 2008,
        }

    def test_faulted_fleet_snapshot_unchanged(self):
        with collecting() as reg:
            faulted_fleet_run()
        assert memory_snapshot(reg) == {
            "sim.hbm.channels_used": {
                "count": 4312, "max": 32, "mean": 12.616883116883116,
                "min": 4, "p50": 4, "p99": 32, "sum": 54404.0,
            },
            "sim.hbm.transfers": 4312,
            "sim.spad.hits": 28,
            "sim.spad.misses": 4284,
            "sim.spad.spill_bytes": 1123024896,
        }


class TestKeyUploadTuples:
    def test_misses_reuse_one_tuple_per_program_and_key_set(
        self, monkeypatch
    ):
        # With no key cache every admission is a miss; the prefixed
        # task tuples must still be one object per (program, key set),
        # so the engines' plan caches stay bounded.
        submitted = []
        original = ScheduleEngine.submit

        def spy(engine, tasks, **kwargs):
            submitted.append(tasks)
            return original(engine, tasks, **kwargs)

        monkeypatch.setattr(ScheduleEngine, "submit", spy)
        result = faulted_fleet_run(fleet_policy(key_cache_capacity=0))
        assert result.key_hits == 0
        assert all(type(tasks) is tuple for tasks in submitted)
        key_sets = {rec.key_set for rec in result.records}
        distinct = {id(tasks) for tasks in submitted}
        assert len(submitted) > len(distinct)
        assert len(distinct) <= len(key_sets)
