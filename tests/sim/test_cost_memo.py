"""Cost memo: each distinct task shape is costed once per engine.

The cost models read only a task's shape (kind, sizes and traffic),
never its dependencies or label, so the engine keeps their outputs per
shape. Every check here compares the memo against the per-task costing
loop kept below as the oracle, or against values recorded from it.
"""

import random
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.compiler import compile_trace
from repro.errors import SchedulingError
from repro.obs import collecting
from repro.sim.config import CORE_ARRAYS, HardwareConfig
from repro.sim.cores import CoreModel, CoreTiming
from repro.sim.engine import PoseidonSimulator, ScheduleEngine
from repro.sim.tasks import OperatorKind, OperatorTask
from repro.workloads import helr_trace


class PerTaskEngine(ScheduleEngine):
    """The engine with every task checked and costed on its own, row
    by row, each as a shape of its own (the oracle): it replaces the
    engine's per-shape costing seam, ``_row_shapes``."""

    def _row_shapes(self, table, base):
        shapes = []
        for local, task in enumerate(table):
            timing = self.cores.task_cycles(task)
            if timing.core not in CORE_ARRAYS:
                raise SchedulingError(
                    f"task {base + local} targets unknown core "
                    f"{timing.core!r}"
                )
            for dep in task.depends_on:
                if dep < 0 or dep >= local:
                    raise SchedulingError(
                        f"task {base + local} has forward/invalid "
                        f"dependency {dep}"
                    )
            shapes.append(
                self._add_shape(timing, self.memory.task_timing(task))
            )
        return np.array(shapes, np.int64)


#: A few shapes, so a random DAG repeats each many times with
#: different dependencies and labels.
_SHAPES = [
    dict(kind=kind, elements=limbs * degree, degree=degree, limbs=limbs,
         hbm_read_bytes=read, hbm_write_bytes=write, spad_bytes=spad)
    for kind, degree, limbs, read, write, spad in (
        (OperatorKind.NTT, 1 << 12, 4, 64 << 10, 0, 0),
        (OperatorKind.INTT, 1 << 13, 2, 0, 4 << 20, 64 << 10),
        (OperatorKind.MM, 1 << 12, 8, 512 << 10, 512 << 10, 0),
        (OperatorKind.MA, 1 << 12, 8, 0, 0, 64 << 10),
        (OperatorKind.AUTO, 1 << 13, 3, 4 << 10, 4 << 10, 0),
        (OperatorKind.SBT, 1 << 12, 1, 0, 64 << 10, 0),
    )
]


def repeated_shape_dag(seed: int, n: int = 60) -> tuple[OperatorTask, ...]:
    """A random DAG over :data:`_SHAPES`; some tasks name a dependency
    twice, so both the one-dependency and the de-duplicating paths
    run."""
    rng = random.Random(seed)
    tasks = []
    for i in range(n):
        window = range(max(0, i - 6), i)
        deps = sorted(rng.sample(window, min(len(window), rng.randint(0, 3))))
        if deps and rng.random() < 0.3:
            deps.append(deps[0])
        tasks.append(OperatorTask(
            **rng.choice(_SHAPES),
            depends_on=tuple(deps),
            op_label=rng.choice(("HAdd", "CMult", "Rotation", "")),
        ))
    return tuple(tasks)


def drain(engine_cls, submissions, config=None):
    """Drain one engine fed ``(tasks, release, compute, hbm)``."""
    engine = engine_cls(config)
    for tasks, release, compute_scale, hbm_scale in submissions:
        while engine.advance_until(release) < release:
            pass
        engine.submit(tasks, release=release, compute_scale=compute_scale,
                      hbm_scale=hbm_scale)
    engine.drain()
    return engine


def assert_matches_oracle(submissions, config=None):
    memo = drain(ScheduleEngine, submissions, config)
    oracle = drain(PerTaskEngine, submissions, config)
    a, b = memo.result(), oracle.result()
    assert a.task_records == b.task_records
    assert a.total_seconds == b.total_seconds
    assert a.core_busy_seconds == b.core_busy_seconds
    assert a.operator_seconds == b.operator_seconds
    assert a.hbm_busy_seconds == b.hbm_busy_seconds
    assert memo.spans() == oracle.spans()
    assert [s.finish_seconds for s in memo.submissions] == [
        s.finish_seconds for s in oracle.submissions
    ]


def counting_models(engine):
    """Count the engine's cost-model calls on its own model objects."""
    calls = {"cycles": 0, "timing": 0}
    cycles, timing = engine.cores.task_cycles, engine.memory.task_timing

    def count_cycles(task):
        calls["cycles"] += 1
        return cycles(task)

    def count_timing(task):
        calls["timing"] += 1
        return timing(task)

    engine.cores.task_cycles = count_cycles
    engine.memory.task_timing = count_timing
    return calls


def shape(task):
    return tuple(
        getattr(task, f.name) for f in fields(task)
        if f.name not in ("depends_on", "op_label")
    )


class TestMatchesPerTaskCosting:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_dags(self, seed):
        dags = [repeated_shape_dag(seed * 10 + k) for k in range(3)]
        subs = [
            (dags[0], 0.0, 1.0, 1.0),
            (list(dags[1]), 1e-6, 1.0, 1.0),
            (dags[0], 2e-6, 1.5, 1.0),
            (dags[2], 3e-6, 1.0, 2.0),
            (dags[0], 4e-6, 1.0, 1.0),
            (dags[0], 5e-6, 1.0, 1.0),
        ]
        assert_matches_oracle(subs)
        assert_matches_oracle(
            subs, HardwareConfig(scratchpad_bytes=48 * 1024,
                                 hbm_channels=4)
        )

    def test_compiled_lr(self):
        tasks = compile_trace(helr_trace(), passes="default").tasks
        assert_matches_oracle([(tasks, 0.0, 1.0, 1.0)])

    def test_admission_plan(self):
        dag = repeated_shape_dag(7)
        plan = ScheduleEngine().admission_plan(dag)
        oracle = PerTaskEngine().admission_plan(dag)
        assert plan == oracle


class TestOncePerShape:
    def test_each_shape_costed_once_per_engine(self):
        dags = [repeated_shape_dag(seed) for seed in range(3)]
        shapes = {shape(t) for dag in dags for t in dag}
        assert len(shapes) == len(_SHAPES)
        for _ in range(2):  # a second engine costs every shape again
            engine = ScheduleEngine()
            calls = counting_models(engine)
            for dag in dags:
                engine.submit(dag)
                engine.submit(list(dag))
            engine.admission_plan(list(dags[0]))
            assert calls == {"cycles": len(shapes), "timing": len(shapes)}

    def test_compiled_lr_costs_its_shapes(self):
        tasks = compile_trace(helr_trace(), passes="default").tasks
        engine = ScheduleEngine()
        calls = counting_models(engine)
        engine.submit(tasks)
        distinct = len({shape(t) for t in tasks})
        assert distinct < len(tasks) // 10
        assert calls == {"cycles": distinct, "timing": distinct}

    #: A value for each cost-model input that differs from BASE's.
    OTHER = dict(
        kind=OperatorKind.MM, elements=2048, degree=512, limbs=2,
        hbm_read_bytes=64, hbm_write_bytes=32, spad_bytes=16,
    )
    BASE = OperatorTask(OperatorKind.MA, 1024, 1024, 1)

    def test_every_field_but_deps_and_label_is_in_the_key(self):
        # A new OperatorTask field lands here first; the engine must
        # then cost two tasks that differ only in it separately.
        names = {f.name for f in fields(OperatorTask)}
        assert set(self.OTHER) == names - {"depends_on", "op_label"}
        for name, value in self.OTHER.items():
            engine = ScheduleEngine()
            calls = counting_models(engine)
            engine.submit((self.BASE, replace(self.BASE, **{name: value})))
            assert calls["cycles"] == 2, name

    def test_deps_and_label_are_not(self):
        engine = ScheduleEngine()
        calls = counting_models(engine)
        engine.submit((
            self.BASE,
            replace(self.BASE, depends_on=(0,), op_label="CMult"),
            replace(self.BASE, depends_on=(0, 1, 0)),
        ))
        assert calls == {"cycles": 1, "timing": 1}


#: ``sim.spad.*`` / ``sim.hbm.*`` after one ``PoseidonSimulator.run``
#: of LR compiled with the default passes, recorded from the per-task
#: costing loop: on the default scratchpad, and on one every LR task
#: spills from.
LR_MEMORY_METRICS = {
    None: {
        "sim.spad.hits": 10766,
        "sim.hbm.transfers": 3601,
        "sim.hbm.channels_used": {
            "count": 3601, "sum": 115118.0, "mean": 31.968342127186894,
            "min": 20, "max": 32, "p50": 32, "p99": 32,
        },
    },
    384 * 1024: {
        "sim.spad.misses": 10766,
        "sim.spad.spill_bytes": 2822242304,
        "sim.hbm.transfers": 10766,
        "sim.hbm.channels_used": {
            "count": 10766, "sum": 143822.0, "mean": 13.35890767230169,
            "min": 4, "max": 32, "p50": 4, "p99": 32,
        },
    },
}

MEMORY_METRICS = (
    "sim.spad.hits", "sim.spad.misses", "sim.spad.spill_bytes",
    "sim.hbm.transfers", "sim.hbm.channels_used",
)


@pytest.mark.parametrize("scratchpad", list(LR_MEMORY_METRICS))
def test_lr_memory_metrics_count_every_task(scratchpad):
    config = HardwareConfig()
    if scratchpad is not None:
        config = replace(config, scratchpad_bytes=scratchpad)
    program = compile_trace(helr_trace(), passes="default")
    with collecting() as reg:
        PoseidonSimulator(config).run(program)
    snap = reg.snapshot()
    got = {k: snap[k] for k in MEMORY_METRICS if k in snap}
    assert got == LR_MEMORY_METRICS[scratchpad]


class UnknownAutoCore(CoreModel):
    """Routes Automorphism tasks to a core the engine does not have."""

    def task_cycles(self, task):
        timing = super().task_cycles(task)
        if task.kind is OperatorKind.AUTO:
            return CoreTiming(timing.cycles, "Shuffler")
        return timing


class TestErrorsNameTheTask:
    A = OperatorTask(OperatorKind.MA, 1024, 1024, 1)
    AUTO = OperatorTask(OperatorKind.AUTO, 1024, 1024, 1)

    def test_unknown_core_on_a_repeated_shape(self):
        engine = ScheduleEngine(cores=UnknownAutoCore(HardwareConfig()))
        engine.submit((self.A, self.A))
        with pytest.raises(SchedulingError, match=r"^task 3 targets "
                           r"unknown core 'Shuffler'$"):
            engine.submit((self.A, self.AUTO))
        # The shape that failed is not remembered as costed, and the
        # core check still precedes the dependency check.
        with pytest.raises(SchedulingError, match=r"^task 1 targets"):
            engine.admission_plan((self.A, replace(self.AUTO, op_label="x")))
        with pytest.raises(SchedulingError, match=r"^task 0 targets"):
            engine.admission_plan((replace(self.AUTO, depends_on=(4,)),))

    @pytest.mark.parametrize("deps, bad", [
        ((3,), 3), ((0, 0, 5), 5), ((-1,), -1), ((1, 2), 2),
    ])
    def test_forward_dependency_on_a_repeated_shape(self, deps, bad):
        tasks = (self.A, replace(self.A, depends_on=(0,)),
                 replace(self.A, depends_on=deps))
        message = rf"^task {{}} has forward/invalid dependency {bad}$"
        engine = ScheduleEngine()
        engine.submit(tasks[:2])
        with pytest.raises(SchedulingError, match=message.format(4)):
            engine.submit(tasks)
        with pytest.raises(SchedulingError, match=message.format(2)):
            engine.admission_plan(tasks)
