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
"""

import hashlib

import pytest

from repro.serve import (
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    PoissonArrivals,
    TraceArrivals,
)


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
