"""Unit tests for the schedule-invariant validator."""

import dataclasses

import pytest

from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.program import compile_trace
from repro.errors import ParameterError, SimulationError
from repro.sim.config import HardwareConfig
from repro.sim.engine import (
    PoseidonSimulator,
    ScheduleEngine,
    SimulationResult,
    TaskRecord,
)
from repro.sim.validate import validate_schedule

N = 1 << 14


@pytest.fixture()
def real_run():
    ops = [
        FheOp.make(FheOpName.CMULT, N, 8, aux_limbs=2),
        FheOp.make(FheOpName.ROTATION, N, 8, aux_limbs=2),
        FheOp.make(FheOpName.HADD, N, 8),
    ]
    program = compile_trace(ops)
    simulator = PoseidonSimulator()
    return program, simulator.config, simulator.run(program)


def fabricated(records, *, makespan=None, core_busy=None, core_stall=None):
    makespan = makespan if makespan is not None else max(
        (r.end for r in records), default=0.0
    )
    if core_busy is None:
        core_busy = {}
        core_stall = {}
        for r in records:
            held = r.end - r.start
            core_busy[r.core] = core_busy.get(r.core, 0.0) + (
                held - r.stall_seconds
            )
            core_stall[r.core] = (
                core_stall.get(r.core, 0.0) + r.stall_seconds
            )
    return SimulationResult(
        total_seconds=makespan,
        core_busy_seconds=core_busy,
        op_seconds={},
        operator_seconds={},
        hbm_busy_seconds=0.0,
        hbm_bytes=sum(r.hbm_bytes for r in records),
        task_records=records,
        core_stall_seconds=core_stall or {},
    )


def record(**kwargs):
    base = dict(
        start=0.0, end=1.0, core="MA", compute_seconds=1.0,
        hbm_seconds=0.0, hbm_bytes=0, op_label="t",
    )
    base.update(kwargs)
    return TaskRecord(**base)


class TestRealSchedules:
    def test_real_run_validates(self, real_run):
        program, config, result = real_run
        validate_schedule(result, program=program, config=config)

    def test_replicated_core_run_validates(self):
        ops = [FheOp.make(FheOpName.CMULT, N, 8, aux_limbs=2)] * 3
        program = compile_trace(ops, op_parallel=True)
        config = HardwareConfig().with_core_instances(NTT=2, MM=2)
        simulator = PoseidonSimulator(config)
        result = simulator.run(program)
        validate_schedule(result, program=program, config=config)

    def test_tampered_real_run_fails(self, real_run):
        program, config, result = real_run
        records = list(result.task_records)
        records[0] = dataclasses.replace(records[0], end=records[0].end + 1.0)
        result = dataclasses.replace(result, task_records=records)
        with pytest.raises(SimulationError):
            validate_schedule(result, program=program, config=config)


class TestOverlap:
    def test_same_instance_overlap_rejected(self):
        result = fabricated([
            record(start=0.0, end=1.0),
            record(start=0.5, end=1.5),
        ], makespan=1.5)
        with pytest.raises(SimulationError, match="double-booked"):
            validate_schedule(result)

    def test_distinct_instances_may_overlap(self):
        result = fabricated([
            record(start=0.0, end=1.0, instance=0),
            record(start=0.5, end=1.5, instance=1),
        ], makespan=1.5)
        validate_schedule(
            result, config=HardwareConfig().with_core_instances(MA=2)
        )

    @pytest.mark.parametrize("first, second, makespan", [
        ((0.0, 1.5), (1.0, 2.0), 2.0),
        ((0.0, 1e-3), (0.5e-3, 2e-3), 2e-3),
    ], ids=["seconds", "milliseconds"])
    def test_overlap_rejected_at_any_scale(self, first, second, makespan):
        result = fabricated([
            record(start=first[0], end=first[1]),
            record(start=second[0], end=second[1]),
        ], makespan=makespan)
        with pytest.raises(SimulationError, match="double-booked"):
            validate_schedule(result)

    def test_relative_epsilon_tolerates_float_noise(self):
        """Spans are ~1e-3 s: an overlap far below 1e-9 x makespan is
        rounding noise, not a double-booking (a fixed 1e-15 would
        reject it)."""
        noise = 1e-12 * 2e-3
        result = fabricated([
            record(start=0.0, end=1e-3),
            record(start=1e-3 - noise, end=2e-3),
        ], makespan=2e-3)
        validate_schedule(result)


class TestHbmBudget:
    def test_oversubscription_rejected(self):
        result = fabricated([
            record(core="MA", hbm_bytes=1, hbm_seconds=1.0,
                   hbm_start=0.0, hbm_end=1.0, hbm_channels_used=20),
            record(core="MM", hbm_bytes=1, hbm_seconds=1.0,
                   hbm_start=0.5, hbm_end=1.5, end=1.5,
                   hbm_channels_used=20),
        ], makespan=1.5)
        with pytest.raises(SimulationError, match="over-subscribed"):
            validate_schedule(result)

    def test_zero_traffic_task_claiming_channels_rejected(self):
        result = fabricated([
            record(hbm_bytes=0, hbm_channels_used=1, hbm_seconds=0.5),
        ])
        with pytest.raises(SimulationError, match="moves no bytes"):
            validate_schedule(result)

    def test_zero_traffic_task_with_span_rejected(self):
        result = fabricated([
            record(hbm_bytes=0, hbm_start=0.0, hbm_end=0.5),
        ])
        with pytest.raises(SimulationError, match="moves no bytes"):
            validate_schedule(result)


class TestConservation:
    def test_negative_busy_rejected(self):
        result = fabricated([
            record(start=0.0, end=1.0, stall_seconds=2.0),
        ])
        with pytest.raises(SimulationError, match="conserve"):
            validate_schedule(result)

    def test_end_before_start_rejected(self):
        result = fabricated([record(start=1.0, end=0.5)], makespan=1.0)
        with pytest.raises(SimulationError):
            validate_schedule(result)

    def test_aggregate_mismatch_rejected(self):
        result = fabricated(
            [record(start=0.0, end=1.0)],
            core_busy={"MA": 5.0},
            core_stall={"MA": 0.0},
        )
        with pytest.raises(SimulationError, match="core_busy_seconds"):
            validate_schedule(result)

    def test_held_time_exceeding_capacity_rejected(self):
        # Held 1.25 s on the one configured MA instance of a 0.25 s
        # run; the record ends within the makespan, so only the
        # capacity check can object.
        result = fabricated(
            [record(start=-1.0, end=0.25, ready_seconds=-1.0)],
            makespan=0.25,
        )
        with pytest.raises(SimulationError, match="capacity"):
            validate_schedule(result)


class TestDependencies:
    def test_start_before_dep_end_rejected(self, real_run):
        program, config, result = real_run
        # Find a task with a dependency and pull its start earlier
        # than the dependency's end.
        records = list(result.task_records)
        for i, task in enumerate(program.tasks):
            if task.depends_on:
                dep_end = records[task.depends_on[0]].end
                records[i] = dataclasses.replace(records[i], start=dep_end / 2)
                break
        result = dataclasses.replace(result, task_records=records)
        with pytest.raises(SimulationError, match="before"):
            validate_schedule(result, program=program, config=config)

    def test_program_length_mismatch_rejected(self, real_run):
        program, config, result = real_run
        result = dataclasses.replace(
            result, task_records=result.task_records[:-1]
        )
        with pytest.raises(SimulationError, match="recorded"):
            validate_schedule(result, program=program, config=config)


class TestInstanceRange:
    def test_instance_beyond_configuration_rejected(self):
        # The paper configuration has one MM instance: a second task
        # running beside the first on "instance 5" is a double-booking
        # in disguise, not extra capacity.
        result = fabricated([
            record(core="MM", start=0.0, end=1.0, instance=0),
            record(core="MM", start=0.0, end=1.0, instance=5),
        ])
        with pytest.raises(SimulationError, match=r"task 1 ran on MM#5"):
            validate_schedule(result)

    def test_negative_instance_rejected(self):
        result = fabricated([record(instance=-1)])
        with pytest.raises(SimulationError, match=r"MA#-1"):
            validate_schedule(result)

    def test_capacity_follows_configuration(self):
        # Three instances configured, two used: the concurrent pair
        # fits, and the third instance's idle time counts as capacity.
        result = fabricated([
            record(core="MM", start=0.0, end=1.0, instance=0),
            record(core="MM", start=0.0, end=1.0, instance=2),
        ])
        validate_schedule(
            result, config=HardwareConfig().with_core_instances(MM=3)
        )
        with pytest.raises(SimulationError, match=r"MM#2"):
            validate_schedule(
                result, config=HardwareConfig().with_core_instances(MM=2)
            )


SPAN_OPS = [
    FheOp.make(FheOpName.CMULT, N, 8, aux_limbs=2),
    FheOp.make(FheOpName.ROTATION, N, 8, aux_limbs=2),
    FheOp.make(FheOpName.HADD, N, 8),
]


def served(crash: bool):
    """Three submissions of one task tuple on a warm engine, each
    released once the previous one has finished (so bases are 0, n and
    2n, and a dependency read from the wrong submission ended long
    before). With ``crash`` the engine dies halfway through the third
    submission and keeps a renumbered prefix of it."""
    tasks = compile_trace(SPAN_OPS).tasks
    makespan = PoseidonSimulator().run(compile_trace(SPAN_OPS)).total_seconds
    engine = ScheduleEngine()
    for k in range(3):
        engine.submit(tasks, release=k * makespan, label=f"s{k}")
    if crash:
        engine.crash(2.5 * makespan)
    else:
        engine.drain()
    return engine


@pytest.fixture(params=["drained", "crashed"])
def served_run(request):
    engine = served(crash=request.param == "crashed")
    spans = engine.spans()
    assert [base > 0 for base, _ in spans] == [False, True, True]
    return engine.result(), spans, engine.config


class TestSpans:
    def test_served_schedule_validates(self, served_run):
        result, spans, config = served_run
        validate_schedule(result, spans=spans, config=config)

    def test_crash_renumbers_the_kept_prefix(self):
        engine = served(crash=True)
        (_, first), _, (base, kept) = engine.spans()
        assert 0 < len(kept) < len(first)
        assert base == 2 * len(first)
        assert any(task.depends_on for task in kept)

    def test_later_submission_started_before_dependency(self, served_run):
        result, spans, config = served_run
        records = list(result.task_records)
        base, tasks = spans[-1]
        j = next(j for j, task in enumerate(tasks) if task.depends_on)
        d = tasks[j].depends_on[0]
        dep = records[base + d]
        # Start the task halfway through its dependency, on a second
        # instance of its core that nothing else uses, so only the
        # dependency check can object.
        early = (dep.start + dep.end) / 2
        victim = records[base + j]
        records[base + j] = dataclasses.replace(
            victim, start=early, ready_seconds=early, instance=1
        )
        result = dataclasses.replace(result, task_records=records)
        spare = config.with_core_instances(**{victim.core: 2})
        with pytest.raises(
            SimulationError,
            match=rf"task {base + j} started at .* before dependency "
                  rf"{base + d} finished",
        ):
            validate_schedule(result, spans=spans, config=spare)

    @pytest.mark.parametrize("tamper", ["skip", "overlap", "over", "under"])
    def test_spans_must_tile_the_records(self, served_run, tamper):
        result, spans, config = served_run
        (b0, t0), (b1, t1), (b2, t2) = spans
        bad = {
            "skip": ((b0, t0), (b2, t2)),
            "overlap": ((b0, t0), (b1 - 1, t1), (b2, t2)),
            "over": ((b0, t0), (b1, t1), (b2, list(t2) + [t2[0]])),
            "under": ((b0, t0), (b1, t1)),
        }[tamper]
        with pytest.raises(SimulationError, match="tiling|cover"):
            validate_schedule(result, spans=bad, config=config)

    def test_dependency_outside_its_span_rejected(self, served_run):
        result, spans, config = served_run
        (b0, t0), (b1, t1), (b2, t2) = spans
        # Dependency -1 of a span's first task lies outside the span;
        # the check refuses it instead of reading another record.
        rogue = dataclasses.replace(t1[0], depends_on=(-1,))
        bad = ((b0, t0), (b1, [rogue, *t1[1:]]), (b2, t2))
        with pytest.raises(SimulationError, match="outside"):
            validate_schedule(result, spans=bad, config=config)

    def test_program_is_the_single_span(self, real_run):
        program, config, result = real_run
        validate_schedule(
            result, spans=((0, program.tasks),), config=config
        )
        with pytest.raises(ParameterError):
            validate_schedule(
                result, program=program, spans=((0, program.tasks),),
                config=config,
            )
