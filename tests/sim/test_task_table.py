"""Task tables: a compiled program's tasks as columns.

A :class:`TaskTable` must read exactly like the tuple of
:class:`OperatorTask` it replaces, and stacking blocks of one must place
each block's dependencies as shifting every task by its offset would.
"""

import pickle
from dataclasses import replace

import pytest

from repro.compiler import compile_trace
from repro.sim.tasks import KINDS, OperatorKind, OperatorTask, TaskTable
from repro.workloads import helr_trace

TASK = OperatorTask(
    OperatorKind.NTT, 4096, 1024, 4, hbm_read_bytes=64, hbm_write_bytes=32,
    spad_bytes=128, depends_on=(0, 2, 2), op_label="Rotation",
)
ROOT = OperatorTask(OperatorKind.MA, 1024, 1024, 1, op_label="HAdd")


def tasks():
    return (
        ROOT,
        replace(ROOT, depends_on=(0,), op_label=""),
        replace(TASK, depends_on=(0, 1)),
        TASK,
        replace(ROOT, kind=OperatorKind.AUTO, depends_on=(3, 3)),
    )


class TestReadsLikeATuple:
    def test_len_index_iteration(self):
        want = tasks()
        table = TaskTable.from_tasks(want)
        assert len(table) == len(want)
        assert list(table) == list(want)
        assert [table[i] for i in range(-len(want), len(want))] == [
            want[i] for i in range(-len(want), len(want))
        ]
        assert all(type(t.depends_on) is tuple for t in table)
        with pytest.raises(IndexError):
            table[len(want)]

    @pytest.mark.parametrize("index", [
        slice(1, 4), slice(None, -2), slice(3, None), slice(4, 2),
        slice(None, None, 2), slice(None, None, -1),
    ])
    def test_slices_keep_dependency_values(self, index):
        want = tasks()
        got = TaskTable.from_tasks(want)[index]
        assert type(got) is TaskTable
        assert got == want[index]
        assert list(got) == list(want[index])

    def test_equality_and_hash(self):
        table = TaskTable.from_tasks(tasks())
        again = TaskTable.from_tasks(list(tasks()))
        assert table == again and table == tasks() and table == list(tasks())
        assert hash(table) == hash(again)
        assert table != tasks()[:-1]
        assert table != (*tasks()[:-1], replace(tasks()[-1], op_label="x"))
        assert table != TaskTable.from_tasks(
            (*tasks()[:-1], replace(tasks()[-1], limbs=2))
        )

    def test_columns(self):
        table = TaskTable.from_tasks(tasks())
        for name in ("elements", "degree", "limbs", "hbm_read_bytes",
                     "hbm_write_bytes", "spad_bytes"):
            assert table.column(name).tolist() == [
                getattr(t, name) for t in tasks()
            ]
        assert [KINDS[k] for k in table.column("kind").tolist()] == [
            t.kind for t in tasks()
        ]

    def test_pickle_round_trip(self):
        table = TaskTable.from_tasks(tasks())
        assert pickle.loads(pickle.dumps(table)) == table

    def test_compiled_program_is_a_table(self):
        program = compile_trace(helr_trace(), passes="default")
        assert type(program.tasks) is TaskTable
        start, end = program.op_boundaries[3]
        assert program.tasks_for_op(3) == tuple(program.tasks)[start:end]


class TestStack:
    def test_shifts_dependencies(self):
        # A block placed at row 10 keeps its dependencies, shifted by
        # 10, exactly as a shifted copy of each task would.
        filler = [ROOT] * 10
        library = TaskTable.from_tasks((*filler, TASK))
        table = library.stack((0, 10, 11), (0, 1), (0, 0, 0), ())
        assert table[10] == replace(TASK, depends_on=(10, 12, 12))
        assert list(table[:10]) == filler
        assert not hasattr(table[10], "__dict__")
        # At offset 0 a block is unchanged.
        assert library.stack((0, 11), (0,), (0, 0), ()) == library

    def test_roots_take_the_barrier_only(self):
        library = TaskTable.from_tasks((ROOT, TASK))
        table = library.stack((0, 2), (0, 0), (0, 0, 2), (0, 1))
        assert list(table) == [
            ROOT, TASK, replace(ROOT, depends_on=(0, 1)),
            replace(TASK, depends_on=(2, 4, 4)),
        ]
        assert library.stack((0, 2), (0,), (0, 0), ()) == (ROOT, TASK)

    def test_repeated_blocks_in_any_order(self):
        a = (ROOT, replace(ROOT, depends_on=(0,)))
        b = (TASK, ROOT, replace(ROOT, depends_on=(0, 0)))
        library = TaskTable.from_tasks(a + b)
        slots = (1, 0, 1, 1, 0)
        barriers = ((), (2,), (), (3, 4), (9,))
        blocks = (a, b)
        want = []
        for slot, barrier in zip(slots, barriers):
            offset = len(want)
            want.extend(
                replace(t, depends_on=tuple(d + offset for d in t.depends_on)
                        or barrier)
                for t in blocks[slot]
            )
        bar_offsets = [0]
        for barrier in barriers:
            bar_offsets.append(bar_offsets[-1] + len(barrier))
        got = library.stack((0, 2, 5), slots, bar_offsets, sum(barriers, ()))
        assert list(got) == want

    def test_take_renumbers_among_the_rows(self):
        table = TaskTable.from_tasks((
            ROOT, ROOT, replace(ROOT, depends_on=(0,)),
            replace(TASK, depends_on=(2, 0, 2)),
        ))
        assert list(table.take([0, 2, 3])) == [
            ROOT, replace(ROOT, depends_on=(0,)),
            replace(TASK, depends_on=(1, 0, 1)),
        ]
