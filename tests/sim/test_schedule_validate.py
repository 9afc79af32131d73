"""Unit tests for the schedule-invariant validator."""

import dataclasses

import pytest

from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.program import compile_trace
from repro.errors import SimulationError
from repro.sim.config import HardwareConfig
from repro.sim.engine import PoseidonSimulator, SimulationResult, TaskRecord
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
        victim = result.task_records[0]
        result.task_records[0] = dataclasses.replace(
            victim, end=victim.end + 1.0
        )
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
        result = fabricated(
            [record(start=0.0, end=1.0)],
            makespan=0.25,
            core_busy={"MA": 1.0},
            core_stall={"MA": 0.0},
        )
        with pytest.raises(SimulationError):
            validate_schedule(result)


class TestDependencies:
    def test_start_before_dep_end_rejected(self, real_run):
        program, config, result = real_run
        # Find a task with a dependency and pull its start earlier
        # than the dependency's end.
        for i, task in enumerate(program.tasks):
            if task.depends_on:
                dep_end = result.task_records[task.depends_on[0]].end
                victim = result.task_records[i]
                result.task_records[i] = dataclasses.replace(
                    victim, start=dep_end / 2
                )
                break
        with pytest.raises(SimulationError, match="before"):
            validate_schedule(result, program=program, config=config)

    def test_program_length_mismatch_rejected(self, real_run):
        program, config, result = real_run
        result.task_records.pop()
        with pytest.raises(SimulationError, match="recorded"):
            validate_schedule(result, program=program, config=config)
