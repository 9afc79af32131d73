"""Exact per-task schedules of the event engine, pinned by digest.

The e2e workloads and ``benchmarks/baseline.json`` run one instance per
core array on 32 HBM pseudo-channels, so they never reach the engine's
multi-instance dispatch or a transfer too wide for the free channel
slots. These cases do: seeded random task DAGs and compiled op traces
(``op_parallel`` off and on), on one to three instances per array and
1, 2, 4 or 32 channels, plus a served engine (staggered submissions,
fault derates, pausing ``advance_until`` and a crash).

Each case hashes every task's ``start``, ``end``, ``ready_seconds``,
``instance``, ``hbm_start``, ``hbm_end`` and ``hbm_channels_used``
(floats by ``float.hex``, so a last-bit move changes the digest). A
change to the engine that reorders nothing keeps every digest; one
that picks another instance, grants another transfer first or moves a
timestamp changes at least one.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.program import OperatorProgram, compile_trace
from repro.sim.config import HardwareConfig
from repro.sim.engine import PoseidonSimulator, ScheduleEngine
from repro.sim.tasks import OperatorKind, OperatorTask
from repro.sim.validate import validate_schedule

#: Instance counts per core array.
INSTANCES = {
    "x1": {},
    "x2": {"MA": 2, "MM": 2, "NTT": 2, "Automorphism": 2},
    "x3": {"MA": 3, "MM": 3, "NTT": 3, "Automorphism": 3},
    "mixed": {"MA": 3, "MM": 1, "NTT": 2, "Automorphism": 3},
}

CHANNELS = (1, 2, 4, 32)

_KINDS = tuple(OperatorKind)
_HBM_SIZES = (0, 0, 4 << 10, 64 << 10, 512 << 10, 4 << 20)
_OP_NAMES = (
    FheOpName.HADD, FheOpName.PMULT, FheOpName.CMULT,
    FheOpName.ROTATION, FheOpName.RESCALE, FheOpName.KEYSWITCH,
)


def _config(instances: str, channels: int) -> HardwareConfig:
    return replace(
        HardwareConfig(), hbm_channels=channels
    ).with_core_instances(**INSTANCES[instances])


def _dag(seed: int, n: int = 40) -> tuple[OperatorTask, ...]:
    """A topologically ordered random DAG; dependencies reach back at
    most eight tasks, so several chains run side by side."""
    rng = random.Random(seed)
    tasks = []
    for i in range(n):
        degree = rng.choice((1 << 12, 1 << 13))
        limbs = rng.randint(1, 8)
        window = range(max(0, i - 8), i)
        deps = tuple(sorted(rng.sample(window, min(len(window),
                                                   rng.randint(0, 3)))))
        tasks.append(OperatorTask(
            kind=rng.choice(_KINDS),
            elements=limbs * degree,
            degree=degree,
            limbs=limbs,
            hbm_read_bytes=rng.choice(_HBM_SIZES),
            hbm_write_bytes=rng.choice(_HBM_SIZES),
            spad_bytes=rng.choice((0, 64 << 10)),
            depends_on=deps,
            op_label=f"task{i}",
        ))
    return tuple(tasks)


def _ops(seed: int, n: int = 6) -> list[FheOp]:
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        name = rng.choice(_OP_NAMES)
        kwargs = {}
        if name in (FheOpName.CMULT, FheOpName.ROTATION,
                    FheOpName.KEYSWITCH):
            kwargs["aux_limbs"] = rng.randint(1, 4)
        ops.append(FheOp.make(
            name, 1 << rng.randint(12, 14), rng.randint(2, 12), **kwargs
        ))
    return ops


def _programs(family: str) -> list[tuple[OperatorTask, ...]]:
    if family == "dags":
        return [_dag(seed) for seed in (0, 1, 2)]
    parallel = family == "parallel"
    return [
        compile_trace(_ops(seed), op_parallel=parallel).tasks
        for seed in (10, 11)
    ]


def _record_key(r) -> tuple:
    return (
        r.start.hex(), r.end.hex(), r.ready_seconds.hex(), r.instance,
        float(r.hbm_start).hex(), float(r.hbm_end).hex(),
        r.hbm_channels_used,
    )


def _hash(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _one_shot_digest(family: str, instances: str, channels: int) -> str:
    config = _config(instances, channels)
    simulator = PoseidonSimulator(config)
    parts = []
    for tasks in _programs(family):
        engine = ScheduleEngine(config)
        engine.submit(tasks)
        engine.drain()
        result = engine.result()
        validate_schedule(result, spans=engine.spans(), config=config)
        keys = [_record_key(r) for r in result.task_records]
        # PoseidonSimulator.run drives the same engine; both agree.
        program = OperatorProgram(tasks=tasks, op_boundaries=(),
                                  source_ops=())
        one_shot = simulator.run(program)
        validate_schedule(one_shot, program=program, config=config)
        assert [_record_key(r) for r in one_shot.task_records] == keys
        parts.append(keys)
    return _hash(parts)


def _served_digest(instances: str, channels: int) -> str:
    """Staggered submissions with derates, pausing advances, a crash.

    Tuples are admitted more than once, so both the first-admission
    fill and the cached-plan path run, with and without derates.
    """
    config = _config(instances, channels)
    engine = ScheduleEngine(config)
    a = compile_trace(_ops(20, 2), op_parallel=True).tasks
    b = compile_trace(_ops(21, 1)).tasks
    dag = list(_dag(22, 24))
    log = []
    engine.submit(a, label="a0")
    engine.submit(dag, release=0.0, label="dag", compute_scale=1.5)
    step = 20e-6
    for round_ in range(12):
        paused = engine.advance_until(engine.now + step)
        log.append(("advance", paused.hex(),
                    [s.index for s in engine.completions]))
        now = engine.now
        if round_ % 3 == 0:
            engine.submit(a, release=now, label=f"a{round_}",
                          hbm_scale=2.0)
        elif round_ % 3 == 1:
            engine.submit(b, release=now + step / 4, label=f"b{round_}",
                          compute_scale=0.75, hbm_scale=1.25)
        else:
            engine.submit(a, release=now, label=f"a{round_}")
            engine.submit((), release=now, label=f"empty{round_}")
    report = engine.crash(engine.now + 3 * step)
    log.append(("crash", report.at_seconds.hex(),
                [s.index for s in report.lost],
                report.kept_tasks, report.dropped_tasks))
    result = engine.result()
    spans = engine.spans()
    validate_schedule(result, spans=spans, config=config)
    log.append([_record_key(r) for r in result.task_records])
    # Global dependency indices, as the pinned merged program held them.
    log.append([
        tuple(base + d for d in t.depends_on)
        for base, tasks in spans for t in tasks
    ])
    log.append([(s.base, s.count, s.finish_seconds)
                for s in engine.submissions])
    return _hash(log)


#: Digests recorded from the engine before its event loop was made
#: incremental (per-core earliest free times, counted HBM slots).
PINS = {
    "dags-x1-ch1": "7205ca93dc978db8",
    "dags-x1-ch2": "95db5a81cb0a1a78",
    "dags-x1-ch4": "98e73aecbb206f91",
    "dags-x1-ch32": "8585f5271fd55016",
    "dags-x2-ch1": "bb8bda4b4dd70478",
    "dags-x2-ch2": "055469fe7611d6ad",
    "dags-x2-ch4": "2b416a218ac21749",
    "dags-x2-ch32": "ec75638aa655b447",
    "dags-x3-ch1": "ebc38158cc09298a",
    "dags-x3-ch2": "88485069d9c199f1",
    "dags-x3-ch4": "6ced32fde35bf38d",
    "dags-x3-ch32": "36d7830b6b2deaf6",
    "dags-mixed-ch1": "f06a1613bf7bf653",
    "dags-mixed-ch2": "e880be52251ef1f8",
    "dags-mixed-ch4": "820c0ad1036eaf77",
    "dags-mixed-ch32": "cdce055dd08a5c8f",
    "chained-x1-ch1": "b90b34be76775857",
    "chained-x1-ch2": "5f51144a49f96935",
    "chained-x1-ch4": "659f93c165c77226",
    "chained-x1-ch32": "8711ef57e2efe71f",
    "chained-x2-ch1": "4d1c095be0830e92",
    "chained-x2-ch2": "d9883b1efd2fe0c5",
    "chained-x2-ch4": "be08e2c8c3a44377",
    "chained-x2-ch32": "5ca5020e110b23c0",
    "chained-x3-ch1": "169298d497f403a2",
    "chained-x3-ch2": "4c71ceaeefe949f1",
    "chained-x3-ch4": "744ede94e42ac5c1",
    "chained-x3-ch32": "f7de82c466661120",
    "chained-mixed-ch1": "d1693e2cb548058a",
    "chained-mixed-ch2": "4709b35f4451601a",
    "chained-mixed-ch4": "67739ae633168e67",
    "chained-mixed-ch32": "04670fd16b350472",
    "parallel-x1-ch1": "82fe37b72cd5a065",
    "parallel-x1-ch2": "ffce2e414463d839",
    "parallel-x1-ch4": "29a5dc22c63f76d6",
    "parallel-x1-ch32": "83a7f1287d19cfe6",
    "parallel-x2-ch1": "3e1b24e79eb2959d",
    "parallel-x2-ch2": "c27700f9f4bc6854",
    "parallel-x2-ch4": "ca8f77bc41ff6728",
    "parallel-x2-ch32": "df63f867d4088c53",
    "parallel-x3-ch1": "8cd37f640cab62d6",
    "parallel-x3-ch2": "053c942351c4342f",
    "parallel-x3-ch4": "f62159381bc5e623",
    "parallel-x3-ch32": "06f327462f84507f",
    "parallel-mixed-ch1": "bfaae9d517559359",
    "parallel-mixed-ch2": "a4105235d6ccb1e5",
    "parallel-mixed-ch4": "0cd1a6ae93d47524",
    "parallel-mixed-ch32": "7c09575c2f90dcdd",
    "served-x1-ch32": "866c2327b8b89e35",
    "served-x2-ch4": "c668d3ef6cd64d29",
    "served-mixed-ch2": "e1af68a7b1a37f95",
    "served-x3-ch1": "5775c937b607cdc1",
}

ONE_SHOT = [
    (family, instances, channels)
    for family in ("dags", "chained", "parallel")
    for instances in INSTANCES
    for channels in CHANNELS
]
SERVED = [("x1", 32), ("x2", 4), ("mixed", 2), ("x3", 1)]


@pytest.mark.parametrize(
    "family,instances,channels", ONE_SHOT,
    ids=[f"{f}-{i}-ch{c}" for f, i, c in ONE_SHOT],
)
def test_one_shot_schedule_is_pinned(family, instances, channels):
    case = f"{family}-{instances}-ch{channels}"
    assert _one_shot_digest(family, instances, channels) == PINS[case]


@pytest.mark.parametrize(
    "instances,channels", SERVED,
    ids=[f"served-{i}-ch{c}" for i, c in SERVED],
)
def test_served_schedule_is_pinned(instances, channels):
    case = f"served-{instances}-ch{channels}"
    assert _served_digest(instances, channels) == PINS[case]
