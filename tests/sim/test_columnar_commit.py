"""The engine commits a schedule as columns; the per-task loop is the oracle.

``ScheduleEngine.result`` computes waits and stalls elementwise and the
busy sums as left folds per core and per label, and
``SimulationResult.task_records`` builds a :class:`TaskRecord` only
when one is read. :func:`per_task_result` below is the commit as it
was, one record and one ``+=`` per task, reading the same engine state;
every case compares the two field by field and sum by sum.
"""

from __future__ import annotations

import gc
import random
from collections import defaultdict
from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
import pytest

from repro.compiler import compile_trace
from repro.compiler.decompose import _lowering_cache
from repro.obs import collecting
from repro.sim.config import HardwareConfig
from repro.sim.cores import CoreModel, CoreTiming
from repro.sim.engine import (
    PoseidonSimulator,
    ScheduleEngine,
    SimulationResult,
    TaskRecord,
    TaskRecords,
)
from repro.sim.tasks import OperatorKind, OperatorTask
from repro.workloads import PAPER_BENCHMARKS, helr_trace
from tests.sim.test_engine_pins import _config, _dag, _ops, _programs


def _merged_length(intervals):
    """Total length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + (cur_end - cur_start)


def per_task_result(engine: ScheduleEngine) -> SimulationResult:
    """The commit task by task: one :class:`TaskRecord` and one running
    sum per task, in task order (the oracle)."""
    labels = list(engine._label_ids)
    core_busy = defaultdict(float)
    core_stall = defaultdict(float)
    op_seconds = defaultdict(float)
    operator_seconds = defaultdict(lambda: defaultdict(float))
    hbm_bytes_total = 0
    records = []
    intervals = []
    makespan = 0.0
    for (shape, label, busy, hbm_seconds, start, end, ready, hbm_start,
         hbm_end, inst) in zip(
        engine._shape_of, engine._label_of, engine._durations,
        engine._hbm_seconds, engine._start, engine._end, engine._ready,
        engine._hbm_start, engine._hbm_end, engine._instance_of,
    ):
        core = engine._shape_core[shape]
        mem = engine._shape_mem[shape]
        hbm_bytes = mem.hbm_bytes
        compute = engine._shape_compute[shape]  # cycles * cycle_seconds
        stall = end - start - busy
        stall = stall if stall > 0.0 else 0.0
        core_wait = start - ready
        core_wait = core_wait if core_wait > 0.0 else 0.0
        hbm_wait = hbm_start - ready if hbm_bytes else 0.0
        hbm_wait = hbm_wait if hbm_wait > 0.0 else 0.0
        if end > makespan:
            makespan = end
        if hbm_bytes:
            intervals.append((hbm_start, hbm_end))
        hbm_bytes_total += hbm_bytes
        core_busy[core] += busy
        core_stall[core] += stall
        name = labels[label]
        op_seconds[name] += busy
        operator_seconds[name][core] += busy
        records.append(TaskRecord(
            start, end, core, compute, hbm_seconds, hbm_bytes, name,
            core_wait if core_wait >= hbm_wait else hbm_wait,
            hbm_start, hbm_end, inst, ready, stall, core_wait, hbm_wait,
            mem.channels_used if hbm_bytes else 0,
        ))
    return SimulationResult(
        total_seconds=makespan,
        core_busy_seconds=dict(core_busy),
        op_seconds=dict(op_seconds),
        operator_seconds={k: dict(v) for k, v in operator_seconds.items()},
        hbm_busy_seconds=_merged_length(intervals),
        hbm_bytes=hbm_bytes_total,
        task_records=records,
        core_stall_seconds=dict(core_stall),
    )


def _items(value):
    """A result value with its dict key order and Python types."""
    if isinstance(value, dict):
        return [(k, _items(v)) for k, v in value.items()]
    return (type(value), value)


def assert_matches_oracle(engine: ScheduleEngine) -> SimulationResult:
    got = engine.result()
    want = per_task_result(engine)
    assert len(got.task_records) == len(want.task_records)
    for a, b in zip(got.task_records, want.task_records, strict=True):
        assert a == b
        assert [type(getattr(a, f)) for f in a.__slots__] == [
            type(getattr(b, f)) for f in b.__slots__
        ]
    assert got.task_records == list(want.task_records)
    for name in ("total_seconds", "hbm_busy_seconds", "hbm_bytes",
                 "core_busy_seconds", "core_stall_seconds", "op_seconds",
                 "operator_seconds"):
        assert _items(getattr(got, name)) == _items(getattr(want, name)), name
    return got


def _served_engine(instances: str, channels: int) -> ScheduleEngine:
    """Staggered submissions with derates, pausing advances, a crash."""
    engine = ScheduleEngine(_config(instances, channels))
    a = compile_trace(_ops(20, 2), op_parallel=True).tasks
    b = compile_trace(_ops(21, 1)).tasks
    engine.submit(a, label="a0")
    engine.submit(list(_dag(22, 24)), compute_scale=1.5, label="dag")
    step = 20e-6
    for round_ in range(12):
        engine.advance_until(engine.now + step)
        now = engine.now
        if round_ % 3 == 0:
            engine.submit(a, release=now, hbm_scale=2.0)
        elif round_ % 3 == 1:
            engine.submit(b, release=now + step / 4, compute_scale=0.75,
                          hbm_scale=1.25)
        else:
            engine.submit(a, release=now)
            engine.submit((), release=now)
    engine.crash(engine.now + 3 * step)
    return engine


CONFIGS = [("x1", 32), ("x2", 4), ("mixed", 2), ("x3", 1)]


class TestMatchesPerTaskCommit:
    @pytest.mark.parametrize("family", ["dags", "chained", "parallel"])
    @pytest.mark.parametrize("instances,channels", CONFIGS,
                             ids=[f"{i}-ch{c}" for i, c in CONFIGS])
    def test_engine_pin_families(self, family, instances, channels):
        for tasks in _programs(family):
            engine = ScheduleEngine(_config(instances, channels))
            engine.submit(tasks)
            engine.drain()
            assert_matches_oracle(engine)

    def test_compiled_table6_program(self):
        program = compile_trace(
            PAPER_BENCHMARKS["Packed Bootstrapping"](), passes="default"
        )
        engine = ScheduleEngine()
        engine.submit(program.tasks)
        engine.drain()
        got = assert_matches_oracle(engine)
        assert got.total_seconds == PoseidonSimulator().run(
            program
        ).total_seconds

    @pytest.mark.parametrize("instances,channels", CONFIGS,
                             ids=[f"{i}-ch{c}" for i, c in CONFIGS])
    def test_served_engine_with_derates_and_a_crash(self, instances,
                                                    channels):
        engine = _served_engine(instances, channels)
        assert engine.dead
        assert_matches_oracle(engine)

    def test_empty_engine(self):
        got = assert_matches_oracle(ScheduleEngine())
        assert got.total_seconds == 0.0 and len(got.task_records) == 0


class TestRecordsReadLikeAList:
    @pytest.fixture(scope="class")
    def results(self):
        program = compile_trace(helr_trace().ops[:40], passes="default")
        sim = PoseidonSimulator()
        return sim.run(program), sim.run(program)

    def test_len_indexing_iteration(self, results):
        result, _ = results
        records = result.task_records
        as_list = list(records)
        assert len(records) == len(as_list) > 10
        assert all(type(r) is TaskRecord for r in as_list)
        for i in (0, 1, 7, -1, -2, -len(as_list)):
            assert records[i] == as_list[i]
        with pytest.raises(IndexError):
            records[len(as_list)]
        with pytest.raises(IndexError):
            records[-len(as_list) - 1]
        for index in (slice(2, 9), slice(-5, None), slice(None, 3),
                      slice(9, 2), slice(None, None, 3)):
            part = records[index]
            assert type(part) is TaskRecords
            assert part == as_list[index]
            assert list(part) == as_list[index]

    def test_equality(self, results):
        result, rerun = results
        as_list = list(result.task_records)
        assert result.task_records == as_list
        assert as_list == result.task_records
        assert result.task_records == tuple(as_list)
        assert result.task_records == rerun.task_records
        assert not result.task_records != rerun.task_records
        assert result == rerun
        moved = [*as_list[:-1], replace(as_list[-1], end=as_list[-1].end * 2)]
        assert result.task_records != moved
        assert result.task_records != as_list[:-1]
        assert result.task_records != TaskRecords.from_records(moved)
        assert result != replace(rerun, task_records=moved)

    def test_values_are_python_scalars(self, results):
        result, _ = results
        record = result.task_records[-1]
        for name in record.__slots__:
            value = getattr(record, name)
            assert type(value) in (float, int, str), (name, type(value))
        assert type(result.total_seconds) is float
        assert type(result.hbm_bytes) is int
        assert type(result.hbm_busy_seconds) is float
        for sums in (result.core_busy_seconds, result.op_seconds,
                     result.core_stall_seconds,
                     *result.operator_seconds.values()):
            assert all(type(v) is float for v in sums.values())

    def test_hand_built_records_convert(self):
        records = [
            TaskRecord(0.0, 1.0, "MA", 1.0, 0.0, 0, "t"),
            TaskRecord(1.0, 2.5, "NTT", 1.5, 0.0, 0, "u", instance=1),
        ]
        result = SimulationResult(2.5, {}, {}, {}, 0.0, 0,
                                  task_records=records)
        assert type(result.task_records) is TaskRecords
        assert result.task_records == records
        assert len(SimulationResult(0.0, {}, {}, {}, 0.0, 0).task_records) == 0


def _live(cls) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_a_run_keeps_no_per_task_object():
    gc.collect()
    cached = sum(map(len, _lowering_cache.values()))
    tasks_before = _live(OperatorTask)
    records_before = _live(TaskRecord)
    with collecting() as reg:
        program = compile_trace(helr_trace(), passes="default")
    result = PoseidonSimulator().run(program)
    gc.collect()
    new_tasks = _live(OperatorTask) - tasks_before
    # The lowering cache's new entries plus the tasks the passes
    # rewrote (fusion replaces two per fused pair) bound what is new.
    cache_growth = sum(map(len, _lowering_cache.values())) - cached
    fused = reg.snapshot().get(
        "compiler.passes.fuse-elementwise.tasks_fused", 0
    )
    assert new_tasks <= cache_growth + 2 * fused
    assert new_tasks < len(program.tasks) // 4
    assert _live(TaskRecord) == records_before
    first = result.task_records[0]
    assert _live(TaskRecord) == records_before + 1
    assert first == result.task_records[0]


# ----------------------------------------------------------------------
# Exactness: the busy sums are left folds in task order
# ----------------------------------------------------------------------
def left_fold(values):
    return reduce(add, values, 0)


def compensated(values):
    """``sum()`` over floats on Python 3.12+ (Neumaier summation)."""
    total = comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


class CyclesFromElements(CoreModel):
    """Each task takes ``elements`` cycles on its kind's core, so a
    test picks every busy time (``elements * cycle_seconds``)."""

    def task_cycles(self, task):
        return CoreTiming(task.elements, super().task_cycles(task).core)


#: One long task and many short ones per core, each short one below
#: half an ulp of the running sum: a left fold drops every one, while a
#: compensated or a pairwise sum keeps some of their total.
BIG, SMALL, COUNT = 2 ** 55, 1, 40


def _fold_program(hbm: bool):
    """A chain of tasks. Without ``hbm``, busy times of :data:`BIG`
    and :data:`SMALL` cycles on two cores. With it, seeded task and
    transfer sizes spread over seven decades (seed 7 is one where the
    left fold, the compensated sum and the pairwise sum of the merged
    HBM busy intervals all differ)."""
    rng = random.Random(7)
    tasks = []
    for i in range(120 if hbm else 2 * (COUNT + 1)):
        kind = (OperatorKind.MA, OperatorKind.NTT)[
            i % 2 if hbm else i // (COUNT + 1)
        ]
        if hbm:
            elements = rng.choice((1, 3, 10 ** 4, 10 ** 6, 10 ** 7))
            read = rng.choice((1, 7, 10 ** 3, 10 ** 6, 5 * 10 ** 7))
        else:
            elements, read = (BIG if i % (COUNT + 1) == 0 else SMALL), 0
        tasks.append(OperatorTask(
            kind, elements, 1, 1, hbm_read_bytes=read,
            depends_on=(i - 1,) if i else (), op_label=f"op{i % 3}",
        ))
    return tuple(tasks)


def merged_lengths(intervals):
    """Lengths of the union's intervals, in start order."""
    intervals = sorted(intervals)
    lengths = []
    start, end = intervals[0]
    for s, e in intervals[1:]:
        if s > end:
            lengths.append(end - start)
            start, end = s, e
        else:
            end = max(end, e)
    return lengths + [end - start]


@pytest.mark.parametrize("hbm", [False, True], ids=["compute", "hbm"])
def test_busy_sums_are_left_folds_in_task_order(hbm):
    config = HardwareConfig()
    engine = ScheduleEngine(config, cores=CyclesFromElements(config))
    engine.submit(_fold_program(hbm))
    engine.drain()
    result = engine.result()
    records = list(result.task_records)
    busy = list(zip(records, engine._durations))

    def by(key, pairs):
        groups = {}
        for record, value in pairs:
            groups.setdefault(key(record), []).append(value)
        return groups

    cases = [
        (result.core_busy_seconds, by(lambda r: r.core, busy)),
        (result.op_seconds, by(lambda r: r.op_label, busy)),
        (result.core_stall_seconds,
         by(lambda r: r.core, [(r, r.stall_seconds) for r in records])),
        *(
            (sums, by(lambda r: r.core,
                      [(r, d) for r, d in busy if r.op_label == label]))
            for label, sums in result.operator_seconds.items()
        ),
    ]
    discriminating = 0
    for got, groups in cases:
        assert list(got) == list(groups)
        for key, values in groups.items():
            want = left_fold(values)
            assert got[key] == want, key
            others = (compensated(values), float(np.sum(values)))
            discriminating += all(other != want for other in others)
    if not hbm:
        assert discriminating >= 4  # both cores' busy sums, at least
    else:
        lengths = merged_lengths(
            [(r.hbm_start, r.hbm_end) for r in records if r.hbm_bytes]
        )
        assert len(lengths) > 50
        assert result.hbm_busy_seconds == left_fold(lengths)
        assert left_fold(lengths) not in (
            compensated(lengths), float(np.sum(lengths))
        )
