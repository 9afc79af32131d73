"""Admission plans: a task tuple is costed once per engine, then reused.

Every check here compares a plan-reusing engine against one that costs
every submission afresh (equal-but-distinct task tuples never share a
plan), so any drift the plan cache introduces shows up as a differing
schedule.
"""

import copy
import pickle
from dataclasses import replace

import pytest

from repro.errors import SchedulingError
from repro.serve import request_type
from repro.sim.engine import ScheduleEngine
from repro.sim.tasks import OperatorKind, OperatorTask


def keyswitch_tasks():
    return request_type("keyswitch").program.tasks


def distinct_copy(tasks):
    """An equal task tuple that is a different object (no plan hit)."""
    return tuple(replace(t) for t in tasks)


def schedule(submissions, *, distinct):
    """Drain one engine fed ``(tasks, release, compute, hbm)`` tuples;
    with ``distinct`` every submission gets its own equal copy."""
    engine = ScheduleEngine()
    for tasks, release, compute_scale, hbm_scale in submissions:
        engine.advance_until(release)
        engine.submit(
            distinct_copy(tasks) if distinct else tasks,
            release=release,
            compute_scale=compute_scale,
            hbm_scale=hbm_scale,
        )
    engine.drain()
    return engine


def assert_same_schedule(a, b):
    ra, rb = a.result(), b.result()
    assert ra.task_records == rb.task_records
    assert ra.total_seconds == rb.total_seconds
    assert ra.core_busy_seconds == rb.core_busy_seconds
    assert ra.core_stall_seconds == rb.core_stall_seconds
    assert ra.hbm_busy_seconds == rb.hbm_busy_seconds
    assert a.as_program().tasks == b.as_program().tasks
    assert [s.finish_seconds for s in a.submissions] == [
        s.finish_seconds for s in b.submissions
    ]


class TestPlanReuse:
    def test_repeat_submissions_match_distinct_copies(self):
        tasks = keyswitch_tasks()
        subs = [(tasks, i * 2e-5, 1.0, 1.0) for i in range(6)]
        assert_same_schedule(
            schedule(subs, distinct=False), schedule(subs, distinct=True)
        )

    def test_derated_submission_leaves_later_ones_untouched(self):
        tasks = keyswitch_tasks()
        subs = [
            (tasks, 0.0, 1.0, 1.0),
            (tasks, 1e-5, 1.0, 1.0),   # plan sliced here
            (tasks, 2e-5, 2.5, 3.0),   # straggler + HBM derate
            (tasks, 3e-5, 1.0, 1.0),
            (tasks, 4e-5, 1.0, 1.75),
            (tasks, 5e-5, 1.0, 1.0),
        ]
        plain = schedule(subs, distinct=False)
        assert_same_schedule(plain, schedule(subs, distinct=True))
        # The plan still holds the unscaled costs.
        plan = plain.admission_plan(tasks)
        fresh = ScheduleEngine().admission_plan(distinct_copy(tasks))
        assert plan.durations == fresh.durations
        assert plan.mems == fresh.mems

    def test_derated_first_sight_is_not_planned(self):
        # A derated first admission must not seed the plan: the next
        # clean admission is costed afresh, not sliced from scaled
        # arrays.
        tasks = keyswitch_tasks()
        subs = [
            (tasks, 0.0, 3.0, 2.0),
            (tasks, 1e-5, 1.0, 1.0),
            (tasks, 2e-5, 1.0, 1.0),
        ]
        assert_same_schedule(
            schedule(subs, distinct=False), schedule(subs, distinct=True)
        )

    def test_plan_is_built_once_per_tuple(self):
        tasks = keyswitch_tasks()
        engine = ScheduleEngine()
        first = engine.admission_plan(tasks)
        assert engine.admission_plan(tasks) is first
        engine.submit(tasks)
        engine.submit(tasks)
        assert engine.admission_plan(tasks) is first
        assert first.tasks is tasks
        assert len(first.durations) == len(tasks)

    def test_second_sight_slices_the_first_fill(self):
        tasks = keyswitch_tasks()
        engine = ScheduleEngine()
        engine.submit(tasks)
        plan = engine.admission_plan(tasks)
        fresh = ScheduleEngine().admission_plan(distinct_copy(tasks))
        assert plan.timings == fresh.timings
        assert plan.mems == fresh.mems
        assert plan.durations == fresh.durations
        assert plan.deps == fresh.deps

    def test_lists_are_costed_afresh(self):
        # A list may change between submissions, so it is never cached.
        tasks = list(keyswitch_tasks())
        engine = ScheduleEngine()
        engine.submit(tasks)
        engine.submit(tasks)
        assert engine.admission_plan(tasks) is not engine.admission_plan(
            tasks
        )
        engine.drain()
        reference = schedule(
            [(tuple(tasks), 0.0, 1.0, 1.0)] * 2, distinct=True
        )
        assert engine.result().task_records == (
            reference.result().task_records
        )

    def test_service_seconds_is_the_serial_sum(self):
        tasks = keyswitch_tasks()
        engine = ScheduleEngine()
        cfg = engine.config
        expected = sum(
            max(
                engine.cores.task_cycles(t).cycles * cfg.cycle_seconds,
                engine.memory.task_timing(t).spad_seconds,
            )
            for t in tasks
        )
        assert engine.admission_plan(tasks).service_seconds == expected

    def test_empty_tuple_plan(self):
        plan = ScheduleEngine().admission_plan(())
        assert plan.durations == ()
        assert plan.service_seconds == 0

    def test_invalid_dependency_still_rejected(self):
        bad = (
            OperatorTask(OperatorKind.MA, 8, 8, 1),
            OperatorTask(OperatorKind.MA, 8, 8, 1, depends_on=(1,)),
        )
        with pytest.raises(SchedulingError, match="forward/invalid"):
            ScheduleEngine().submit(bad)
        with pytest.raises(SchedulingError, match="forward/invalid"):
            ScheduleEngine().admission_plan(bad)

    def test_crash_drops_first_fill_positions(self):
        tasks = keyswitch_tasks()
        engine = ScheduleEngine()
        engine.submit(tasks)
        engine.crash(1e-6)
        # The truncated arrays no longer hold the first fill; the plan
        # is costed afresh rather than sliced from them.
        plan = engine.admission_plan(tasks)
        fresh = ScheduleEngine().admission_plan(tasks)
        assert plan.durations == fresh.durations
        assert plan.mems == fresh.mems


class TestSlottedTask:
    TASK = OperatorTask(
        OperatorKind.NTT, 4096, 1024, 4, hbm_read_bytes=64,
        hbm_write_bytes=32, spad_bytes=128, depends_on=(0, 2, 2),
        op_label="Rotation",
    )

    def test_no_instance_dict(self):
        assert not hasattr(self.TASK, "__dict__")

    def test_replace_equality_hash(self):
        twin = replace(self.TASK)
        assert twin == self.TASK and twin is not self.TASK
        assert hash(twin) == hash(self.TASK)
        assert replace(self.TASK, limbs=5) != self.TASK
        assert len({self.TASK, twin}) == 1

    def test_frozen(self):
        with pytest.raises(AttributeError):
            self.TASK.limbs = 7

    def test_pickle_and_copy_round_trip(self):
        for clone in (
            pickle.loads(pickle.dumps(self.TASK)),
            copy.copy(self.TASK),
            copy.deepcopy(self.TASK),
        ):
            assert clone == self.TASK
            assert hash(clone) == hash(self.TASK)

    def test_shifted_equals_constructed_copy(self):
        moved = self.TASK.shifted(10)
        assert moved == replace(self.TASK, depends_on=(10, 12, 12))
        assert hash(moved) == hash(replace(moved))
        assert self.TASK.shifted(0) == self.TASK
        assert not hasattr(moved, "__dict__")
