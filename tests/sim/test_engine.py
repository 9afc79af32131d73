"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.program import OperatorProgram, compile_trace
from repro.errors import SchedulingError
from repro.sim.config import HardwareConfig
from repro.sim.engine import PoseidonSimulator, in_order_makespan
from repro.sim.stats import benchmark_operator_shares
from repro.sim.tasks import OperatorKind, OperatorTask

N = 1 << 14


def program_of(tasks):
    return OperatorProgram(
        tasks=tuple(tasks),
        op_boundaries=((0, len(tasks)),),
        source_ops=(),
    )


def simple_task(kind, deps=(), label="op", elements=N):
    return OperatorTask(
        kind=kind, elements=elements, degree=N, limbs=1,
        depends_on=deps, op_label=label,
    )


class TestScheduling:
    def test_independent_tasks_on_different_cores_overlap(self):
        sim = PoseidonSimulator()
        seq = program_of([simple_task(OperatorKind.MA),
                          simple_task(OperatorKind.NTT)])
        result = sim.run(seq)
        ma = next(r for r in result.task_records if r.core == "MA")
        ntt = next(r for r in result.task_records if r.core == "NTT")
        # Both start at t = 0: different core arrays, no deps.
        assert ma.start == 0
        assert ntt.start == 0
        assert result.total_seconds < ma.end + ntt.end

    def test_same_core_serializes(self):
        sim = PoseidonSimulator()
        result = sim.run(program_of(
            [simple_task(OperatorKind.MA), simple_task(OperatorKind.MA)]
        ))
        first, second = result.task_records
        assert second.start >= first.end

    def test_dependency_enforced(self):
        sim = PoseidonSimulator()
        result = sim.run(program_of([
            simple_task(OperatorKind.MA),
            simple_task(OperatorKind.NTT, deps=(0,)),
        ]))
        first, second = result.task_records
        assert second.start >= first.end

    def test_forward_dependency_rejected(self):
        sim = PoseidonSimulator()
        bad = program_of([simple_task(OperatorKind.MA, deps=(1,)),
                          simple_task(OperatorKind.MA)])
        with pytest.raises(SchedulingError):
            sim.run(bad)

    def test_hbm_serializes_traffic(self):
        sim = PoseidonSimulator()
        heavy = OperatorTask(
            kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, op_label="x",
        )
        light = OperatorTask(
            kind=OperatorKind.NTT, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, op_label="x",
        )
        result = sim.run(program_of([heavy, light]))
        # Each read takes 100 us; serialized they bound the makespan.
        assert result.total_seconds >= 2 * 46_000_000 / 460e9

    def test_empty_program(self):
        sim = PoseidonSimulator()
        result = sim.run(program_of([]))
        assert result.total_seconds == 0


class TestOutOfOrder:
    def test_ready_transfer_not_blocked_by_earlier_submission(self):
        """Head-of-line removal: a ready transfer streams immediately
        even when an earlier-submitted task's transfer is not ready."""
        blocker = simple_task(OperatorKind.NTT, elements=64 * N)
        late_stream = OperatorTask(
            kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, depends_on=(0,), op_label="late",
        )
        early_stream = OperatorTask(
            kind=OperatorKind.MM, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, op_label="early",
        )
        program = program_of([blocker, late_stream, early_stream])
        result = PoseidonSimulator().run(program)
        early = result.task_records[2]
        # The in-order engine reserved the HBM in submission order, so
        # task 2's stream sat behind task 1's not-yet-ready one.
        assert early.hbm_start == 0.0
        assert result.total_seconds <= in_order_makespan(program)

    def test_ooo_not_slower_on_keyswitch_chain(self):
        ops = [
            FheOp.make(FheOpName.CMULT, N, 10, aux_limbs=3),
            FheOp.make(FheOpName.ROTATION, N, 10, aux_limbs=3),
        ]
        program = compile_trace(ops)
        ooo = PoseidonSimulator().run(program).total_seconds
        assert ooo <= in_order_makespan(program) * (1 + 1e-9)

    def test_replicated_core_runs_tasks_concurrently(self):
        config = HardwareConfig().with_core_instances(MA=2)
        result = PoseidonSimulator(config).run(program_of([
            simple_task(OperatorKind.MA),
            simple_task(OperatorKind.MA),
        ]))
        first, second = result.task_records
        assert first.start == second.start == 0.0
        assert {first.instance, second.instance} == {0, 1}

    def test_single_instance_still_serializes(self):
        result = PoseidonSimulator().run(program_of([
            simple_task(OperatorKind.MA),
            simple_task(OperatorKind.MA),
        ]))
        first, second = result.task_records
        assert first.instance == second.instance == 0
        assert second.start >= first.end


class TestStallAttribution:
    def test_hbm_bound_task_splits_busy_and_stall(self):
        task = OperatorTask(
            kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
            hbm_read_bytes=460_000_000, op_label="stream-bound",
        )
        result = PoseidonSimulator().run(program_of([task]))
        record = result.task_records[0]
        held = record.end - record.start
        # A 1 ms stream against microseconds of compute: the core is
        # held for the whole stream but mostly stalled.
        assert record.stall_seconds > 0
        assert record.stall_seconds < held
        assert result.core_busy_seconds["MA"] + result.core_stall_seconds[
            "MA"
        ] == pytest.approx(held)
        # Busy attribution (Figs. 7-9 basis) excludes the stall tail.
        assert result.core_busy_seconds["MA"] == pytest.approx(
            held - record.stall_seconds
        )
        assert result.op_seconds["stream-bound"] == pytest.approx(
            result.core_busy_seconds["MA"]
        )

    def test_compute_bound_task_has_no_stall(self):
        result = PoseidonSimulator().run(
            program_of([simple_task(OperatorKind.NTT, elements=64 * N)])
        )
        assert result.task_records[0].stall_seconds == 0.0
        assert result.stall_seconds == 0.0

    def test_queue_wait_includes_hbm_arbitration(self):
        """Two full-stripe transfers on different cores: the second
        waits on channel slots, not on its (free) core array."""
        a = OperatorTask(
            kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, op_label="a",
        )
        b = OperatorTask(
            kind=OperatorKind.MM, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, op_label="b",
        )
        result = PoseidonSimulator().run(program_of([a, b]))
        second = result.task_records[1]
        assert second.hbm_wait_seconds > 0
        assert second.core_wait_seconds == 0.0
        assert second.queue_wait_seconds == pytest.approx(
            max(second.core_wait_seconds, second.hbm_wait_seconds)
        )


class TestStatistics:
    def test_busy_time_attribution(self):
        sim = PoseidonSimulator()
        result = sim.run(program_of([
            simple_task(OperatorKind.MA, label="HAdd"),
            simple_task(OperatorKind.MM, label="PMult"),
        ]))
        assert set(result.op_seconds) == {"HAdd", "PMult"}
        assert result.core_busy_seconds["MA"] > 0
        assert result.core_busy_seconds["MM"] > 0

    def test_shares_sum_to_one(self):
        sim = PoseidonSimulator()
        ops = [FheOp.make(FheOpName.CMULT, N, 8, aux_limbs=2)]
        result = sim.run(compile_trace(ops))
        assert sum(result.op_share().values()) == pytest.approx(1.0)
        assert sum(
            benchmark_operator_shares(result).values()
        ) == pytest.approx(1.0)

    def test_bandwidth_utilization_bounded(self):
        sim = PoseidonSimulator()
        ops = [FheOp.make(FheOpName.HADD, N, 8)]
        result = sim.run(compile_trace(ops))
        assert 0 < result.bandwidth_utilization <= 1.0


class TestDeterminism:
    def test_identical_runs(self):
        """The DES is deterministic: same program, same schedule."""
        ops = [
            FheOp.make(FheOpName.CMULT, N, 10, aux_limbs=3),
            FheOp.make(FheOpName.ROTATION, N, 10, aux_limbs=3),
        ]
        program = compile_trace(ops)
        a = PoseidonSimulator().run(program)
        b = PoseidonSimulator().run(program)
        assert a.total_seconds == b.total_seconds
        assert a.hbm_bytes == b.hbm_bytes
        assert a.core_busy_seconds == b.core_busy_seconds
        assert [r.start for r in a.task_records] == [
            r.start for r in b.task_records
        ]


class TestOperationHelpers:
    def test_ops_per_second_inverse_of_seconds(self):
        sim = PoseidonSimulator()
        op = FheOp.make(FheOpName.PMULT, N, 8)
        assert sim.operations_per_second(op) == pytest.approx(
            1.0 / sim.operation_seconds(op)
        )

    def test_bigger_op_slower(self):
        sim = PoseidonSimulator()
        small = FheOp.make(FheOpName.CMULT, N, 4, aux_limbs=2)
        large = FheOp.make(FheOpName.CMULT, N, 16, aux_limbs=2)
        assert sim.operation_seconds(large) > sim.operation_seconds(small)

    def test_hfauto_config_speeds_rotation(self):
        op = FheOp.make(FheOpName.ROTATION, 1 << 16, 20, aux_limbs=4)
        fast = PoseidonSimulator(HardwareConfig(use_hfauto=True))
        slow = PoseidonSimulator(HardwareConfig(use_hfauto=False))
        assert slow.operation_seconds(op) > fast.operation_seconds(op)

    def test_sustained_throughput_at_least_latency_rate(self):
        sim = PoseidonSimulator()
        op = FheOp.make(FheOpName.PMULT, N, 8)
        sustained = sim.sustained_throughput(op, batch=8)
        latency_rate = sim.operations_per_second(op)
        # Pipelining can only help (or tie when one resource binds).
        assert sustained >= 0.95 * latency_rate

    def test_sustained_throughput_bad_batch(self):
        sim = PoseidonSimulator()
        op = FheOp.make(FheOpName.PMULT, N, 8)
        with pytest.raises(SchedulingError):
            sim.sustained_throughput(op, batch=0)

class TestWarmEngine:
    """Incremental admission on a live ScheduleEngine: the substrate
    of the open-system serving layer (repro.serve)."""

    def _engine(self):
        from repro.sim.engine import ScheduleEngine

        return ScheduleEngine()

    def test_release_time_delays_start(self):
        engine = self._engine()
        engine.submit([simple_task(OperatorKind.MA)], release=0.5)
        engine.drain()
        record = engine.result().task_records[0]
        assert record.start >= 0.5

    def test_matches_cold_run_when_submitted_at_zero(self):
        ops = [
            FheOp.make(FheOpName.CMULT, N, 10, aux_limbs=3),
            FheOp.make(FheOpName.ROTATION, N, 10, aux_limbs=3),
        ]
        program = compile_trace(ops)
        cold = PoseidonSimulator().run(program)
        engine = self._engine()
        engine.submit(program.tasks)
        engine.drain()
        warm = engine.result()
        assert warm.total_seconds == cold.total_seconds
        assert [r.start for r in warm.task_records] == [
            r.start for r in cold.task_records
        ]

    def test_late_submission_overlaps_inflight_work(self):
        engine = self._engine()
        first = engine.submit(
            [simple_task(OperatorKind.NTT, elements=64 * N)]
        )
        # Admit MA work mid-flight: different core array, so it should
        # run concurrently with the still-executing NTT task.
        engine.advance_until(0.0)
        second = engine.submit([simple_task(OperatorKind.MA)], release=0.0)
        engine.drain()
        result = engine.result()
        ntt, ma = result.task_records
        assert ma.start < ntt.end
        assert first.done and second.done
        assert first.finish_seconds == ntt.end
        assert second.finish_seconds == ma.end

    def test_submitting_in_the_past_rejected(self):
        engine = self._engine()
        engine.submit([simple_task(OperatorKind.MA)])
        engine.drain()
        now = engine.result().total_seconds
        with pytest.raises(SchedulingError, match="past"):
            engine.submit([simple_task(OperatorKind.MA)],
                          release=now - 1e-6)

    def test_dependencies_are_submission_local(self):
        engine = self._engine()
        engine.submit([simple_task(OperatorKind.MA)])
        # deps index into *this* submission's task list; dep 0 here is
        # the second submission's own first task, not the earlier one.
        engine.submit([
            simple_task(OperatorKind.MA),
            simple_task(OperatorKind.NTT, deps=(0,)),
        ])
        engine.drain()
        records = engine.result().task_records
        assert records[2].start >= records[1].end

    def test_forward_dependency_rejected_at_submit(self):
        engine = self._engine()
        with pytest.raises(SchedulingError, match="dependency"):
            engine.submit([simple_task(OperatorKind.MA, deps=(1,)),
                           simple_task(OperatorKind.MA)])

    def test_result_before_drain_rejected(self):
        engine = self._engine()
        engine.submit([simple_task(OperatorKind.MA)])
        with pytest.raises(SchedulingError, match="drain"):
            engine.result()

    def test_completions_record_finish_order(self):
        engine = self._engine()
        slow = engine.submit(
            [simple_task(OperatorKind.NTT, elements=64 * N)], label="slow"
        )
        fast = engine.submit([simple_task(OperatorKind.MA)], label="fast")
        engine.drain()
        assert [s.label for s in engine.completions] == ["fast", "slow"]
        assert fast.finish_seconds < slow.finish_seconds

    def test_advance_pauses_at_first_completion(self):
        engine = self._engine()
        slow = engine.submit(
            [simple_task(OperatorKind.NTT, elements=64 * N)], label="slow"
        )
        fast = engine.submit([simple_task(OperatorKind.MA)], label="fast")
        horizon = 1.0
        # The first call stops where ``fast`` completes: nothing after
        # that instant has been processed yet.
        assert engine.advance_until(horizon) == fast.finish_seconds
        assert fast.finish_seconds < slow.finish_seconds < horizon
        assert engine.now == fast.finish_seconds
        assert engine.completions == [fast]
        assert engine.advance_until(horizon) == slow.finish_seconds
        assert engine.completions == [fast, slow]
        # Nothing left to complete: the engine reaches the bound.
        assert engine.advance_until(horizon) == horizon
        assert engine.now == horizon

    def test_paused_advance_matches_one_drain(self):
        ops = [FheOp.make(FheOpName.CMULT, N, 6),
               FheOp.make(FheOpName.ROTATION, N, 6)]
        tasks = compile_trace(ops).tasks
        stepped, drained = self._engine(), self._engine()
        for engine in (stepped, drained):
            for i in range(4):
                engine.submit(tasks, label=f"s{i}")
        while stepped.advance_until(1.0) < 1.0:
            pass
        drained.drain()
        assert stepped.completions == drained.completions
        assert stepped.result().task_records == (
            drained.result().task_records
        )

    def test_empty_submission_completes_at_release(self):
        engine = self._engine()
        sub = engine.submit([], release=0.25)
        assert sub.done
        assert sub.finish_seconds == 0.25

    def test_spans_rebase_submissions_for_validation(self):
        from repro.sim.validate import validate_schedule

        engine = self._engine()
        first = [simple_task(OperatorKind.MA)]
        second = [simple_task(OperatorKind.MM),
                  simple_task(OperatorKind.NTT, deps=(0,))]
        engine.submit(first)
        engine.submit(second, release=0.001)
        engine.drain()
        spans = engine.spans()
        assert [base for base, _ in spans] == [0, 1]
        assert [list(tasks) for _, tasks in spans] == [first, second]
        # Local indices: the second submission's dep stays 0; its base
        # maps it onto record 1.
        _, tasks = spans[1]
        assert tasks[1].depends_on == (0,)
        assert tasks[1] == second[1]
        # The engine's own table, not the caller's list.
        assert all(tasks is not second for _, tasks in spans)
        validate_schedule(engine.result(), spans=spans,
                          config=engine.config)


class TestNonFiniteInputs:
    """Times and derates must be numbers the event heap can order: a
    NaN or infinite one is refused up front, and the engine carries on
    as if the call had not been made."""

    NAN = float("nan")
    INF = float("inf")

    @staticmethod
    def _chain():
        return [simple_task(OperatorKind.MA),
                simple_task(OperatorKind.NTT, deps=(0,))]

    def _assert_still_runs(self, engine, tasks=2):
        engine.submit(self._chain(), release=engine.now)
        engine.drain()
        result = engine.result()
        assert len(result.task_records) == tasks
        assert 0 < result.total_seconds < self.INF

    @pytest.mark.parametrize("release", [NAN, INF, -INF],
                             ids=["nan", "inf", "-inf"])
    def test_release_must_be_finite(self, release):
        from repro.sim.engine import ScheduleEngine

        engine = ScheduleEngine()
        with pytest.raises(SchedulingError,
                           match=r"^release must be finite, got"):
            engine.submit(self._chain(), release=release)
        assert engine.submissions == []
        self._assert_still_runs(engine)

    @pytest.mark.parametrize("scales", [
        {"compute_scale": NAN}, {"compute_scale": INF},
        {"hbm_scale": NAN}, {"hbm_scale": INF},
    ], ids=["compute-nan", "compute-inf", "hbm-nan", "hbm-inf"])
    def test_derates_must_be_finite(self, scales):
        from repro.sim.engine import ScheduleEngine

        engine = ScheduleEngine()
        with pytest.raises(SchedulingError,
                           match=r"^derate scales must be positive and "
                                 r"finite, got compute_scale="):
            engine.submit(self._chain(), **scales)
        assert engine.submissions == []
        self._assert_still_runs(engine)

    @pytest.mark.parametrize("epoch", [NAN, INF], ids=["nan", "inf"])
    def test_epoch_must_be_finite(self, epoch):
        from repro.sim.engine import ScheduleEngine

        with pytest.raises(SchedulingError,
                           match=r"^engine epoch must be finite, got"):
            ScheduleEngine(epoch=epoch)

    def test_advance_to_nan_refused(self):
        from repro.sim.engine import ScheduleEngine

        engine = ScheduleEngine()
        engine.submit(self._chain())
        with pytest.raises(SchedulingError,
                           match=r"^cannot advance to t=nan$"):
            engine.advance_until(self.NAN)
        assert engine.now == 0.0
        # Infinity is a time the heap can order: it runs to the first
        # completion.
        done = engine.advance_until(self.INF)
        assert done == engine.submissions[0].finish_seconds
        self._assert_still_runs(engine, tasks=4)

    def test_crash_at_nan_refused(self):
        from repro.sim.engine import ScheduleEngine

        engine = ScheduleEngine()
        engine.submit(self._chain())
        with pytest.raises(SchedulingError, match=r"^cannot crash at t=nan$"):
            engine.crash(self.NAN)
        assert not engine.dead
        engine.drain()
        assert len(engine.result().task_records) == 2
