"""A single accelerator is a fleet of one.

``ClusterPolicy(instances=1, key_upload_bytes=0)`` is how the serving
layer models one Poseidon accelerator. The values pinned below were
recorded from the dedicated single-instance serving loop that this
configuration replaced, on ten configurations covering FIFO and SJF
ordering, batch sizes 1 to 8, a queue-depth bound with rejections, a
delay timer, 3 and 4 batches in flight, every light mix (with and
without the default compiler passes), an LR request body and the
3000-arrival overload trace of ``benchmarks/profile_engine.py``. Per
configuration:

- a sha256 over every request record's lifecycle and every task's
  start/end time;
- the ``summary()`` headline numbers;
- a sha256 over the queue-depth series with each run of same-instant
  points collapsed to its last point. When several batches launch at
  one instant the fleet records one point for the launch pass, where
  the replaced loop recorded one per batch; the depth after the
  instant, and so the maximum, is the same.

Eight multi-instance fleets are pinned the same way further down, plus
their fault, scale and availability timelines.
"""

import hashlib

import pytest

from repro.serve import (
    AutoscalerPolicy,
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
    TraceArrivals,
)
from repro.sim.config import CORE_ARRAYS, HardwareConfig


def case(workload, arrivals, seed=0, passes=None, **batch):
    return workload, arrivals, seed, passes, BatchPolicy(**batch)


CONFIGS = {
    "fifo-b1": case(
        "keyswitch", PoissonArrivals(rate=900.0, count=40, seed=0),
        max_batch_size=1,
    ),
    "fifo-b8": case(
        "keyswitch", PoissonArrivals(rate=900.0, count=40, seed=0),
        max_batch_size=8,
    ),
    "sjf-b2-mixed": case(
        "keyswitch,streaming", PoissonArrivals(rate=2000.0, count=48, seed=4),
        seed=4, max_batch_size=2, order="sjf",
    ),
    "depth-bound": case(
        "keyswitch", PoissonArrivals(rate=1200.0, count=40, seed=1),
        seed=1, max_batch_size=4, max_queue_depth=3,
    ),
    "delay-timer-inflight-4": case(
        "keyswitch", PoissonArrivals(rate=100.0, count=24, seed=0),
        max_batch_size=8, max_queue_delay=0.001, max_inflight_batches=4,
    ),
    "burst-inflight-3": case(
        "keyswitch", TraceArrivals([0.0] * 8 + [0.003] * 8 + [0.006] * 8),
        seed=2, max_batch_size=2, max_inflight_batches=3,
    ),
    "streaming-passes": case(
        "streaming", PoissonArrivals(rate=1500.0, count=32, seed=3),
        seed=3, passes="default", max_batch_size=4,
    ),
    "keyswitch-rotations-passes": case(
        "keyswitch,rotations", PoissonArrivals(rate=600.0, count=32, seed=5),
        seed=5, passes="default", max_batch_size=3, order="sjf",
    ),
    "lr-body": case(
        "lr", TraceArrivals([0.0, 0.0001]), max_batch_size=2,
    ),
    "serve-overload": case(
        "keyswitch,streaming",
        PoissonArrivals(rate=8000.0, count=3000, seed=0),
    ),
}

#: name -> (schedule sha256, queue-depth sha256, summary subset).
PINNED = {
    "fifo-b1": (
        "138067772252da05c85f253be611ffa3a0200d532f195df7fe763415fa7423f8",
        "d861608c5b7ad3b71cddd164f74e091b9622cb7063181abeed38f6df95058e0b",
        {
            "requests_arrived": 40,
            "requests_admitted": 40,
            "requests_rejected": 0,
            "requests_completed": 40,
            "batches": 40,
            "throughput_rps": 327.606167840382,
            "latency_mean_seconds": 0.036589154700970156,
            "latency_p50_seconds": 0.03654710811523776,
            "latency_p95_seconds": 0.06636776220084672,
            "latency_p99_seconds": 0.06814287773517645,
            "max_queue_depth": 22,
            "makespan_seconds": 0.12209782332147363,
        },
    ),
    "fifo-b8": (
        "902d482edc76e8e9c304240af92c0c4908efcc9ecedadeca757c8cfdd51cac9c",
        "e29b2f7c5ab60acc0f72c8e347cb580153493f728c1d8b2d281807d1f624dc43",
        {
            "requests_arrived": 40,
            "requests_admitted": 40,
            "requests_rejected": 0,
            "requests_completed": 40,
            "batches": 7,
            "throughput_rps": 380.126327439549,
            "latency_mean_seconds": 0.03527631652357875,
            "latency_p50_seconds": 0.03702728032488099,
            "latency_p95_seconds": 0.054919963496105055,
            "latency_p99_seconds": 0.05577695467531472,
            "max_queue_depth": 19,
            "makespan_seconds": 0.10522817577364764,
        },
    ),
    "sjf-b2-mixed": (
        "cb1a8e7bdc78fd57353bfe4d7e33e8e66cda2d16857c15799d8650fb584b0b93",
        "51276b5e8ca5b13d36404b72d0e014fa3d3cddccd48eb7bb8504d4d7087dab82",
        {
            "requests_arrived": 48,
            "requests_admitted": 48,
            "requests_rejected": 0,
            "requests_completed": 48,
            "batches": 25,
            "throughput_rps": 645.2332856101345,
            "latency_mean_seconds": 0.017035149306623833,
            "latency_p50_seconds": 0.0042952642929330615,
            "latency_p95_seconds": 0.04862904446268368,
            "latency_p99_seconds": 0.05160770596357548,
            "max_queue_depth": 21,
            "makespan_seconds": 0.07439169842983388,
        },
    ),
    "depth-bound": (
        "4495db06f70e2b2e56b1666997a236c060ca62151bc4e09031bf4b82b9230941",
        "3a149c4ba55414b345299f49687f576383558c0b0ec45a93ed1ca4a75d4b07cc",
        {
            "requests_arrived": 40,
            "requests_admitted": 15,
            "requests_rejected": 25,
            "requests_completed": 15,
            "batches": 6,
            "throughput_rps": 380.4415698807964,
            "latency_mean_seconds": 0.011889856777560194,
            "latency_p50_seconds": 0.012683295165771317,
            "latency_p95_seconds": 0.015106857886577714,
            "latency_p99_seconds": 0.015106857886577714,
            "max_queue_depth": 3,
            "makespan_seconds": 0.03942786800269998,
        },
    ),
    "delay-timer-inflight-4": (
        "e67c155a2eb8866fbbef7f794f732cf663cf22f8eb329ed62fd64b64949e54a6",
        "98d47d5232ab55b35b57e02550f9dbd3f9cceb4e22bbb795f3e01b1feac76d5d",
        {
            "requests_arrived": 24,
            "requests_admitted": 24,
            "requests_rejected": 0,
            "requests_completed": 24,
            "batches": 24,
            "throughput_rps": 78.08840544029734,
            "latency_mean_seconds": 0.0030058256671552084,
            "latency_p50_seconds": 0.003000762052173908,
            "latency_p95_seconds": 0.0030051009822097408,
            "latency_p99_seconds": 0.0031179498816899798,
            "max_queue_depth": 1,
            "makespan_seconds": 0.30734396309768747,
        },
    ),
    "burst-inflight-3": (
        "6fe564f10a8ee4803b5a891e736fd3f73bcd0d2f5ffa2029578a12599cea7174",
        "3f827efd3bb513e9593d90abed1536a8287f5725559d32737b8f2bfb9e988905",
        {
            "requests_arrived": 24,
            "requests_admitted": 24,
            "requests_rejected": 0,
            "requests_completed": 24,
            "batches": 12,
            "throughput_rps": 404.18603171735634,
            "latency_mean_seconds": 0.034061005242995185,
            "latency_p50_seconds": 0.03903613975652177,
            "latency_p95_seconds": 0.05321954492753627,
            "latency_p99_seconds": 0.0533785982608696,
            "max_queue_depth": 18,
            "makespan_seconds": 0.0593785982608696,
        },
    ),
    "streaming-passes": (
        "154dd169412e12547b77ed0e2d04d2c541d9e567869c7b41483ddc317b90fdbb",
        "ef86492ade142b2a8fe05737fe4c1c2b52b45cd6bf119dc30152942663d81280",
        {
            "requests_arrived": 32,
            "requests_admitted": 32,
            "requests_rejected": 0,
            "requests_completed": 32,
            "batches": 30,
            "throughput_rps": 1375.5604031973162,
            "latency_mean_seconds": 0.00038328787779039176,
            "latency_p50_seconds": 0.00030914093913043776,
            "latency_p95_seconds": 0.0007762784726022087,
            "latency_p99_seconds": 0.0008204401786999884,
            "max_queue_depth": 2,
            "makespan_seconds": 0.023263245965513435,
        },
    ),
    "keyswitch-rotations-passes": (
        "93d19c1ba98910377d9477d7fa0d748155f3dd4b6e27052e92db7107a1b74206",
        "d032f31cb1c4dc468c2201a6b91715d61d04d8b29979a81728559376c6167a80",
        {
            "requests_arrived": 32,
            "requests_admitted": 32,
            "requests_rejected": 0,
            "requests_completed": 32,
            "batches": 16,
            "throughput_rps": 343.7450035848389,
            "latency_mean_seconds": 0.018495357399045148,
            "latency_p50_seconds": 0.011886242827540312,
            "latency_p95_seconds": 0.04654629306270392,
            "latency_p99_seconds": 0.046667861715589495,
            "max_queue_depth": 11,
            "makespan_seconds": 0.09309226218935326,
        },
    ),
    "lr-body": (
        "a852503325dfdcde1a4b1440187cc87be059eab92793affe5e7bf4647a78df43",
        "566118d6d4237cb81762837b47716f2bdac12eec90d789d9bbe7474dfaf799da",
        {
            "requests_arrived": 2,
            "requests_admitted": 2,
            "requests_rejected": 0,
            "requests_completed": 2,
            "batches": 2,
            "throughput_rps": 2.492015109136797,
            "latency_mean_seconds": 0.601872514233701,
            "latency_p50_seconds": 0.8024633523116058,
            "latency_p95_seconds": 0.8024633523116058,
            "latency_p99_seconds": 0.8024633523116058,
            "max_queue_depth": 1,
            "makespan_seconds": 0.8025633523116058,
        },
    ),
    "serve-overload": (
        "4ac267c59b543d9b58e7ef813a23ad072e630d86ab0d2ccf5282bb8a40e23369",
        "f39949041ef29c715a69fc8d5a8d6e4dc1e4149a6463cda5d057b9e5233a962a",
        {
            "requests_arrived": 3000,
            "requests_admitted": 3000,
            "requests_rejected": 0,
            "requests_completed": 3000,
            "batches": 376,
            "throughput_rps": 663.1442742548841,
            "latency_mean_seconds": 2.079601998488322,
            "latency_p50_seconds": 2.0944778143020337,
            "latency_p95_seconds": 3.944897111236561,
            "latency_p99_seconds": 4.096552711620628,
            "max_queue_depth": 2751,
            "makespan_seconds": 4.5239024394364735,
        },
    ),
}


def schedule_digest(records, task_records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(repr((
            r.request_id, r.job, r.arrival_seconds, r.admit_seconds,
            r.start_seconds, r.finish_seconds, r.batch_index, r.rejected,
        )).encode())
    for task in task_records:
        h.update(repr((task.start, task.end)).encode())
    return h.hexdigest()


def depth_digest(series) -> str:
    collapsed = []
    for t, depth in series:
        if collapsed and collapsed[-1][0] == t:
            collapsed[-1] = (t, depth)
        else:
            collapsed.append((t, depth))
    return hashlib.sha256(repr(collapsed).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fleet_of_one_reproduces_single_instance_loop(name):
    workload, arrivals, seed, passes, batch_policy = CONFIGS[name]
    result = ClusterSimulator(
        policy=ClusterPolicy(instances=1, key_upload_bytes=0),
        batch_policy=batch_policy,
    ).run(workload, arrivals, seed=seed, passes=passes)
    schedule, depth, summary = PINNED[name]
    (report,) = result.instances
    assert schedule_digest(result.records, report.sim.task_records) == (
        schedule
    )
    got = result.summary()
    assert {key: got[key] for key in summary} == summary
    assert depth_digest(result.queue_depth_series) == depth


# ----------------------------------------------------------------------
# Fleets: several engines on one master clock.
#
# The serving loop lets each engine run ahead of the fleet clock up to
# its next submission completion, and observes that completion only
# when the fleet clock reaches it. These eight fleets pin the cases
# where engines stand at different instants: scale-out, three batches
# in flight per instance, derate windows overlapping a crash, the whole
# fleet dark inside the detection delay (ghost routing), a crash at
# t=0, a crash while a key upload streams, a restart after the last
# arrival, and doubled core arrays with key uploads. The values were
# recorded from the loop that advanced every engine to every fleet-wide
# event instant.
PAIRED = BatchPolicy(
    max_batch_size=4, max_queue_delay=0.0005, max_inflight_batches=2
)
RETRYING = ResiliencePolicy(
    deadline_seconds=0.05,
    retry=RetryPolicy(max_attempts=3, backoff_seconds=0.0005, jitter=0.5),
    detection_seconds=0.001,
)


def fleet(workload, arrivals, *, seed=0, batch=PAIRED, config=None,
          population=None, faults=None, resilience=None, **policy):
    return dict(
        workload=workload, arrivals=arrivals, seed=seed, batch=batch,
        config=config, population=population, faults=faults,
        resilience=resilience, policy=ClusterPolicy(**policy),
    )


FLEETS = {
    "autoscale-out": fleet(
        "keyswitch", PoissonArrivals(rate=2000.0, count=48, seed=7), seed=7,
        population=TenantPopulation(tenants=4, key_sets=4),
        instances=1, router="least-queue",
        autoscaler=AutoscalerPolicy(max_instances=3, cooldown_seconds=0.0),
    ),
    "sjf-timer-3x3": fleet(
        "keyswitch,streaming", PoissonArrivals(rate=2500.0, count=60, seed=2),
        seed=2,
        batch=BatchPolicy(
            max_batch_size=3, max_queue_delay=0.0004, order="sjf",
            max_inflight_batches=3,
        ),
        instances=3, router="shortest-job", key_upload_bytes=0,
    ),
    "straggler-hbm-crash": fleet(
        "keyswitch,streaming", PoissonArrivals(rate=1500.0, count=60, seed=3),
        seed=3, population=TenantPopulation(tenants=4, key_sets=6),
        faults=FaultPlan((
            Straggler(instance=1, start_seconds=0.004,
                      duration_seconds=0.02, slowdown=2.5),
            HBMDegradation(instance=1, start_seconds=0.008,
                           duration_seconds=0.02, factor=0.4),
            InstanceCrash(instance=1, at_seconds=0.015, restart_after=0.01),
        )),
        resilience=RETRYING, instances=2,
    ),
    "all-down-ghost": fleet(
        "keyswitch", PoissonArrivals(rate=1500.0, count=50, seed=4), seed=4,
        population=TenantPopulation(tenants=4, key_sets=4),
        faults=FaultPlan((
            InstanceCrash(instance=0, at_seconds=0.010, restart_after=0.006),
            InstanceCrash(instance=1, at_seconds=0.0105, restart_after=0.004),
        )),
        resilience=ResiliencePolicy(
            deadline_seconds=0.08,
            retry=RetryPolicy(
                max_attempts=4, backoff_seconds=0.001, jitter=0.25
            ),
            detection_seconds=0.003,
        ),
        instances=2, router="round-robin",
    ),
    "crash-at-zero": fleet(
        "keyswitch", PoissonArrivals(rate=1000.0, count=30, seed=5), seed=5,
        faults=FaultPlan((
            InstanceCrash(instance=0, at_seconds=0.0, restart_after=0.002),
        )),
        resilience=RETRYING, instances=2, router="round-robin",
    ),
    "crash-during-upload": fleet(
        # The first upload streams for ~1.24 ms from t=0; the crash
        # lands inside it.
        "keyswitch",
        TraceArrivals(
            [0.0, 0.0001, 0.0002, 0.0003]
            + [0.002 + 0.0005 * i for i in range(16)]
        ),
        seed=6, population=TenantPopulation(tenants=2, key_sets=4),
        faults=FaultPlan((
            InstanceCrash(instance=0, at_seconds=0.0006, restart_after=0.003),
        )),
        resilience=RETRYING, instances=2,
    ),
    "restart-after-last-arrival": fleet(
        # Last arrival ~10.3 ms; the restart at 14 ms takes retries.
        "keyswitch", PoissonArrivals(rate=3000.0, count=30, seed=8), seed=8,
        faults=FaultPlan((
            InstanceCrash(instance=0, at_seconds=0.008, restart_after=0.006),
        )),
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.0005),
            detection_seconds=0.0005,
        ),
        instances=2, router="least-queue", key_upload_bytes=0,
    ),
    "doubled-cores-uploads": fleet(
        "keyswitch,rotations", PoissonArrivals(rate=1200.0, count=40, seed=9),
        seed=9,
        config=HardwareConfig().with_core_instances(
            **{core: 2 for core in CORE_ARRAYS}
        ),
        population=TenantPopulation(tenants=6, key_sets=8, skew=0.8),
        instances=3, key_cache_capacity=2,
    ),
}

#: ``summary()`` keys pinned per fleet.
FLEET_SUMMARY_KEYS = (
    "instances", "requests_arrived", "requests_admitted",
    "requests_rejected", "requests_completed", "requests_abandoned",
    "requests_exhausted", "goodput", "lost_events", "retries", "batches",
    "latency_mean_seconds", "latency_p50_seconds", "latency_p99_seconds",
    "max_queue_depth", "makespan_seconds", "key_hits", "key_misses",
    "key_upload_bytes",
)


def run_fleet(name):
    spec = FLEETS[name]
    return ClusterSimulator(
        config=spec["config"],
        policy=spec["policy"],
        batch_policy=spec["batch"],
    ).run(
        spec["workload"], spec["arrivals"], seed=spec["seed"],
        population=spec["population"], faults=spec["faults"],
        resilience=spec["resilience"],
    )


def fleet_pins(result) -> dict:
    """Everything a fleet pin compares, from one run."""
    summary = result.summary()
    return {
        "schedule": schedule_digest(
            result.records,
            [t for r in result.instances for t in r.sim.task_records],
        ),
        "depth": depth_digest(result.queue_depth_series),
        "summary": {key: summary[key] for key in FLEET_SUMMARY_KEYS},
        "fault_events": result.fault_events,
        "scale_events": result.scale_events,
        "availability": result.availability,
    }

#: name -> pinned values (see ``fleet_pins``).
PINNED_FLEETS = {
    "all-down-ghost": {
        "schedule": (
            "56681a52f72e78d466ed69beed6fbd52fe9afdebe26e0a8e9c33f3b2d454e3bb"
        ),
        "depth": (
            "32301b810dbf5821484cd9efef9f09ae152febbc8a734fda23a951b50b5f4048"
        ),
        "summary": {
            "instances": 2,
            "requests_arrived": 50,
            "requests_admitted": 50,
            "requests_rejected": 0,
            "requests_completed": 50,
            "requests_abandoned": 0,
            "requests_exhausted": 0,
            "goodput": 50,
            "lost_events": 59,
            "retries": 59,
            "batches": 20,
            "latency_mean_seconds": 0.04131493925348277,
            "latency_p50_seconds": 0.04184861299274642,
            "latency_p99_seconds": 0.06328284694298462,
            "max_queue_depth": 29,
            "makespan_seconds": 0.08667614143131691,
            "key_hits": 44,
            "key_misses": 14,
            "key_upload_bytes": 7963934720,
        },
        "fault_events": [
            (0.01, "crash", 0),
            (0.0105, "crash", 1),
            (0.0145, "restart", 1),
            (0.016, "restart", 0),
        ],
        "scale_events": [],
        "availability": {
            0: ((0.0, 0.01), (0.016, None)),
            1: ((0.0, 0.0105), (0.0145, None)),
        },
    },
    "autoscale-out": {
        "schedule": (
            "21097f01d79b9871c2cd41403f9818fb074ac95a4a53b0c84b80c289bb7a0572"
        ),
        "depth": (
            "cf88c31a2c603e3df9c6e630c937b7fc86d0ef95339c28aa550e0fc835e19b00"
        ),
        "summary": {
            "instances": 3,
            "requests_arrived": 48,
            "requests_admitted": 48,
            "requests_rejected": 0,
            "requests_completed": 48,
            "requests_abandoned": 0,
            "requests_exhausted": 0,
            "goodput": 48,
            "lost_events": 0,
            "retries": 0,
            "batches": 16,
            "latency_mean_seconds": 0.025883144286964328,
            "latency_p50_seconds": 0.0272279260017572,
            "latency_p99_seconds": 0.03755848964024351,
            "max_queue_depth": 22,
            "makespan_seconds": 0.05098957498610751,
            "key_hits": 36,
            "key_misses": 12,
            "key_upload_bytes": 6826229760,
        },
        "fault_events": [],
        "scale_events": [
            (0.0014825519055518294, 2),
            (0.0022237480046477073, 3),
        ],
        "availability": {
            0: ((0.0, None),),
            1: ((0.0014825519055518294, None),),
            2: ((0.0022237480046477073, None),),
        },
    },
    "crash-at-zero": {
        "schedule": (
            "e16c9e6f14fe9408cd0e2d5148ba51d0dec1ef46c1625cda9cdb51075fab0d23"
        ),
        "depth": (
            "d31bc5d117342e0311048ed6cc53a0c9976264854d6f79de5049d327703304c8"
        ),
        "summary": {
            "instances": 2,
            "requests_arrived": 30,
            "requests_admitted": 30,
            "requests_rejected": 0,
            "requests_completed": 30,
            "requests_abandoned": 0,
            "requests_exhausted": 0,
            "goodput": 30,
            "lost_events": 1,
            "retries": 1,
            "batches": 20,
            "latency_mean_seconds": 0.009071348700041558,
            "latency_p50_seconds": 0.01062407816665049,
            "latency_p99_seconds": 0.01637437882738182,
            "max_queue_depth": 8,
            "makespan_seconds": 0.043519491988817764,
            "key_hits": 28,
            "key_misses": 2,
            "key_upload_bytes": 1137704960,
        },
        "fault_events": [
            (0.0, "crash", 0),
            (0.002, "restart", 0),
        ],
        "scale_events": [],
        "availability": {
            0: ((0.0, 0.0), (0.002, None)),
            1: ((0.0, None),),
        },
    },
    "crash-during-upload": {
        "schedule": (
            "8f2f64f38067b87e3674459904c71703c720599e6e64c127fb4f601ab148615d"
        ),
        "depth": (
            "3beabe556bb9b19421c553640ad5fb5aebe4705894e5663e8ff1ef490798da23"
        ),
        "summary": {
            "instances": 2,
            "requests_arrived": 20,
            "requests_admitted": 20,
            "requests_rejected": 0,
            "requests_completed": 20,
            "requests_abandoned": 0,
            "requests_exhausted": 0,
            "goodput": 20,
            "lost_events": 4,
            "retries": 4,
            "batches": 9,
            "latency_mean_seconds": 0.02169454727768116,
            "latency_p50_seconds": 0.025415424301449302,
            "latency_p99_seconds": 0.029655544973913022,
            "max_queue_depth": 11,
            "makespan_seconds": 0.033069757634782634,
            "key_hits": 13,
            "key_misses": 8,
            "key_upload_bytes": 4550819840,
        },
        "fault_events": [
            (0.0006, "crash", 0),
            (0.0036, "restart", 0),
        ],
        "scale_events": [],
        "availability": {
            0: ((0.0, 0.0006), (0.0036, None)),
            1: ((0.0, None),),
        },
    },
    "doubled-cores-uploads": {
        "schedule": (
            "751eadc0ca66dd65148da82324e9753d7ca9adc25f4cea3669f81ef4b51aafab"
        ),
        "depth": (
            "e1552bf0ac67344fa3356f12d7d7f81bc21ed95177a4e94bd8da9af24b8ead24"
        ),
        "summary": {
            "instances": 3,
            "requests_arrived": 40,
            "requests_admitted": 40,
            "requests_rejected": 0,
            "requests_completed": 40,
            "requests_abandoned": 0,
            "requests_exhausted": 0,
            "goodput": 40,
            "lost_events": 0,
            "retries": 0,
            "batches": 23,
            "latency_mean_seconds": 0.01117166922585901,
            "latency_p50_seconds": 0.010966909974507123,
            "latency_p99_seconds": 0.02075724985335857,
            "max_queue_depth": 9,
            "makespan_seconds": 0.0376862491646462,
            "key_hits": 19,
            "key_misses": 21,
            "key_upload_bytes": 11945902080,
        },
        "fault_events": [],
        "scale_events": [],
        "availability": {
            0: ((0.0, None),),
            1: ((0.0, None),),
            2: ((0.0, None),),
        },
    },
    "restart-after-last-arrival": {
        "schedule": (
            "4be86e90440040f5d415a49fca1d534b6a12e439e8cf94555f4daedb95d4e996"
        ),
        "depth": (
            "aa44ee42324f7eb0e8878e91cbc796f9381b58fff5411e858c46191e3531f50e"
        ),
        "summary": {
            "instances": 2,
            "requests_arrived": 30,
            "requests_admitted": 30,
            "requests_rejected": 0,
            "requests_completed": 30,
            "requests_abandoned": 0,
            "requests_exhausted": 0,
            "goodput": 30,
            "lost_events": 11,
            "retries": 11,
            "batches": 12,
            "latency_mean_seconds": 0.03796464632123177,
            "latency_p50_seconds": 0.04177418756561544,
            "latency_p99_seconds": 0.06255360143299853,
            "max_queue_depth": 19,
            "makespan_seconds": 0.07260463706016185,
            "key_hits": 33,
            "key_misses": 2,
            "key_upload_bytes": 0,
        },
        "fault_events": [
            (0.008, "crash", 0),
            (0.014, "restart", 0),
        ],
        "scale_events": [],
        "availability": {
            0: ((0.0, 0.008), (0.014, None)),
            1: ((0.0, None),),
        },
    },
    "sjf-timer-3x3": {
        "schedule": (
            "29eb7150d1245373ea96407fbea611fb4968653a31371f7d356144b64f7997ab"
        ),
        "depth": (
            "466c0f6068cc7ac2b702c61a45d2fd1d5bf6858cc22e12a5d8163b4a1e1defc3"
        ),
        "summary": {
            "instances": 3,
            "requests_arrived": 60,
            "requests_admitted": 60,
            "requests_rejected": 0,
            "requests_completed": 60,
            "requests_abandoned": 0,
            "requests_exhausted": 0,
            "goodput": 60,
            "lost_events": 0,
            "retries": 0,
            "batches": 51,
            "latency_mean_seconds": 0.00415629677226075,
            "latency_p50_seconds": 0.004220929686956525,
            "latency_p99_seconds": 0.008724246134644644,
            "max_queue_depth": 5,
            "makespan_seconds": 0.03698674935627104,
            "key_hits": 57,
            "key_misses": 3,
            "key_upload_bytes": 0,
        },
        "fault_events": [],
        "scale_events": [],
        "availability": {
            0: ((0.0, None),),
            1: ((0.0, None),),
            2: ((0.0, None),),
        },
    },
    "straggler-hbm-crash": {
        "schedule": (
            "228c881842529db45020c81c0e08b0fdb09bdb877c04ac6a7ea90f409d652bb1"
        ),
        "depth": (
            "ccc50eb253d500347f57a370b18023d511d03d47bc04819f0c4247bea17d3b92"
        ),
        "summary": {
            "instances": 2,
            "requests_arrived": 60,
            "requests_admitted": 60,
            "requests_rejected": 0,
            "requests_completed": 60,
            "requests_abandoned": 0,
            "requests_exhausted": 0,
            "goodput": 60,
            "lost_events": 10,
            "retries": 10,
            "batches": 24,
            "latency_mean_seconds": 0.02079981563080755,
            "latency_p50_seconds": 0.01947034684323988,
            "latency_p99_seconds": 0.04317629925164669,
            "max_queue_depth": 20,
            "makespan_seconds": 0.07067698972056785,
            "key_hits": 36,
            "key_misses": 29,
            "key_upload_bytes": 16496721920,
        },
        "fault_events": [
            (0.015, "crash", 1),
            (0.025, "restart", 1),
        ],
        "scale_events": [],
        "availability": {
            0: ((0.0, None),),
            1: ((0.0, 0.015), (0.025, None)),
        },
    },
}


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_fleet_reproduces_the_lockstep_loop(name):
    result = run_fleet(name)
    result.validate()
    assert fleet_pins(result) == PINNED_FLEETS[name]
