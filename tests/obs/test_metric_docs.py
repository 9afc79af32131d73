"""The served-run metric names in docs/OBSERVABILITY.md match the code.

A faulted, autoscaled fleet run exercises every path of the serving
loop's metric publishing; the ``cluster.*`` names it emits (per-instance
names templated as ``cluster.instance.<i>.*``) must be exactly the ones
the observability doc lists, and the doc must list no ``serve.*``
metric.
"""

import re
from pathlib import Path

import pytest

from repro.obs import collecting
from repro.serve import (
    AutoscalerPolicy,
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

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def documented(prefix: str) -> set[str]:
    text = DOC.read_text(encoding="utf-8")
    return set(re.findall(rf"`({re.escape(prefix)}[A-Za-z0-9_.<>]+)`", text))


@pytest.fixture(scope="module")
def emitted() -> set[str]:
    sim = ClusterSimulator(
        policy=ClusterPolicy(
            instances=1,
            key_cache_capacity=2,
            key_upload_bytes=300_000,
            max_tenant_share=0.5,
            autoscaler=AutoscalerPolicy(max_instances=3, queue_high=2.0),
        ),
        batch_policy=BatchPolicy(max_batch_size=2, max_queue_depth=6),
    )
    with collecting() as reg:
        result = sim.run(
            "keyswitch",
            PoissonArrivals(rate=1500.0, count=40, seed=3),
            seed=3,
            population=TenantPopulation(tenants=4, key_sets=6, skew=0.8),
            faults=FaultPlan((
                InstanceCrash(instance=0, at_seconds=0.01,
                              restart_after=0.005),
            )),
            resilience=ResiliencePolicy(
                deadline_seconds=0.03,
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.001),
            ),
        )
    assert result.scale_events and result.crashes and result.restarts
    return {
        re.sub(r"^cluster\.instance\.\d+\.", "cluster.instance.<i>.", name)
        for name in reg.snapshot()
        if name.startswith("cluster.")
    }


def test_every_emitted_cluster_metric_is_documented(emitted):
    assert emitted - documented("cluster.") == set()


def test_every_documented_cluster_metric_is_emitted(emitted):
    assert documented("cluster.") - emitted == set()


def test_no_serve_metrics_documented():
    assert documented("serve.") == set()
