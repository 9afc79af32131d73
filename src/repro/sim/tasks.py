"""Operator-level task records — the simulator's instruction set.

A task is one invocation of an operator core array over a batch of
elements (typically one polynomial: L limbs x N coefficients), plus the
memory traffic it induces. The compiler lowers every FHE basic
operation into a small DAG of these tasks (paper Table I), and the
engine schedules them onto the core/memory resources.

An :class:`OperatorTask` is one task as an object: the row type of
lowerings, passes and hand-built lists. A compiled program is a
:class:`TaskTable`, the same rows as columns, which the engine admits
without building an object per task.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np


class OperatorKind(enum.Enum):
    """The five Poseidon operators (SBT is fused into MM/NTT cores but
    tracked separately where the paper reports it standalone)."""

    MA = "MA"
    MM = "MM"
    NTT = "NTT"
    INTT = "INTT"
    AUTO = "Automorphism"
    SBT = "SBT"

    @property
    def core(self) -> str:
        """Which physical core array executes this kind."""
        if self in (OperatorKind.NTT, OperatorKind.INTT):
            return "NTT"
        if self is OperatorKind.SBT:
            return "MM"  # SBT cores are shared with the MM/NTT arrays
        return self.value


@dataclass(frozen=True, slots=True)
class OperatorTask:
    """One schedulable unit of operator work.

    Slotted, so the lowering cache's tasks carry no ``__dict__``.
    Indexing or iterating a :class:`TaskTable` builds these on demand.

    Attributes:
        kind: operator executed.
        elements: total elements processed (limbs * degree * polys).
        degree: ring degree N (NTT/AUTO cycle models need it).
        limbs: RNS limb count covered by this task.
        hbm_read_bytes / hbm_write_bytes: off-chip traffic.
        spad_bytes: on-chip scratchpad traffic (reads+writes).
        depends_on: indices of prerequisite tasks within the same
            task list (the compiler emits topologically ordered lists).
        op_label: the FHE basic operation this task was lowered from
            (for Fig. 7/8/9-style attributions).
    """

    kind: OperatorKind
    elements: int
    degree: int
    limbs: int
    hbm_read_bytes: int = 0
    hbm_write_bytes: int = 0
    spad_bytes: int = 0
    depends_on: tuple[int, ...] = ()
    op_label: str = ""

    def __post_init__(self):
        if self.elements <= 0:
            raise ValueError(f"task needs elements > 0, got {self.elements}")
        if self.limbs <= 0 or self.degree <= 0:
            raise ValueError("task needs positive limbs and degree")

    @property
    def hbm_bytes(self) -> int:
        """Total off-chip bytes moved."""
        return self.hbm_read_bytes + self.hbm_write_bytes


#: The cost-model inputs of a task: every field but ``depends_on`` and
#: ``op_label``. A :class:`TaskTable` stores each distinct combination
#: (a *shape*) once.
SHAPE_FIELDS = (
    "kind", "elements", "degree", "limbs",
    "hbm_read_bytes", "hbm_write_bytes", "spad_bytes",
)

#: Kind codes of ``TaskTable.column("kind")``, in enum order.
KINDS = tuple(OperatorKind)
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}


def offsets(counts) -> np.ndarray:
    """CSR offsets of per-row counts: ``[0, c0, c0 + c1, ...]``."""
    counts = np.asarray(counts, np.int64)
    out = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for every ``(s, n)`` pair, concatenated."""
    ends = np.cumsum(lengths)
    if not len(ends) or not ends[-1]:
        return np.zeros(0, np.int64)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


def _codes(keys: Iterable, ids: dict) -> np.ndarray:
    """Each key's id in ``ids``, adding unseen keys in order."""
    return np.array(
        [ids.setdefault(key, len(ids)) for key in keys], np.int64
    )


class TaskTable(Sequence):
    """A topologically ordered task list, held as columns.

    Row ``i`` is one task. Its cost-model inputs (:data:`SHAPE_FIELDS`)
    are ``shapes[shape[i]]``: each distinct shape is stored once, and
    :meth:`column` expands one field to a column. Its op label is
    ``labels[label[i]]``. Its dependencies are CSR, ``dep_index[
    dep_offsets[i]:dep_offsets[i + 1]]``, indices of this table's rows
    (``dep_offsets`` starts at 0 and ends at ``len(dep_index)``).

    The table reads as a sequence of :class:`OperatorTask`: an index
    builds that row's task, iteration builds them one by one, and a
    slice is a table whose dependency values are unchanged (as a tuple
    slice leaves them). ``==`` compares row by row, against another
    table or a list or tuple of tasks. The engine, the validator and
    assembly read the columns instead. Columns are never written after
    construction.
    """

    __slots__ = (
        "shapes", "shape", "labels", "label", "dep_offsets", "dep_index",
    )

    def __init__(self, shapes, shape, labels, label, dep_offsets,
                 dep_index):
        self.shapes: tuple[tuple, ...] = shapes
        self.shape: np.ndarray = shape
        self.labels: tuple[str, ...] = labels
        self.label: np.ndarray = label
        self.dep_offsets: np.ndarray = dep_offsets
        self.dep_index: np.ndarray = dep_index

    @classmethod
    def from_tasks(cls, tasks: Iterable[OperatorTask]) -> "TaskTable":
        """A table of the given tasks, or the table itself. Dependency
        indices are stored as given; the engine checks them."""
        if isinstance(tasks, TaskTable):
            return tasks
        shape_ids: dict[tuple, int] = {}
        label_ids: dict[str, int] = {}
        shape, label, counts, deps = [], [], [], []
        for t in tasks:
            shape.append(shape_ids.setdefault(
                (t.kind, t.elements, t.degree, t.limbs, t.hbm_read_bytes,
                 t.hbm_write_bytes, t.spad_bytes),
                len(shape_ids),
            ))
            label.append(label_ids.setdefault(t.op_label, len(label_ids)))
            counts.append(len(t.depends_on))
            deps.append(t.depends_on)
        return cls(
            tuple(shape_ids), np.array(shape, np.int64),
            tuple(label_ids), np.array(label, np.int64),
            offsets(counts),
            np.fromiter(chain.from_iterable(deps), np.int64),
        )

    def stack(self, bounds, slots, barrier_offsets, barrier_index):
        """A table built from blocks of this one.

        Block ``s`` of this table is rows ``bounds[s]:bounds[s + 1]``,
        with dependencies local to the block. Output block ``k`` is a
        copy of block ``slots[k]`` placed after the earlier output
        blocks: a row with dependencies keeps them, shifted by the
        output block's first row, and a row with none depends on block
        ``k``'s barrier instead, ``barrier_index[barrier_offsets[k]:
        barrier_offsets[k + 1]]`` (rows of the output). Nothing is
        built per row; a block named many times is stored here once.
        """
        bounds = np.asarray(bounds, np.int64)
        slots = np.asarray(slots, np.int64)
        barrier_offsets = np.asarray(barrier_offsets, np.int64)
        sizes = np.diff(bounds)[slots]
        starts = offsets(sizes)
        block = np.repeat(np.arange(len(slots)), sizes)
        src = ranges(bounds[:-1][slots], sizes)
        own = np.diff(self.dep_offsets)[src]
        root = own == 0
        counts = np.where(root, np.diff(barrier_offsets)[block], own)
        # Every row's dependencies are one run of ``pool`` plus a shift:
        # its own run shifted by its block's first row, or its block's
        # barrier as it is.
        pool = np.concatenate(
            (self.dep_index, np.asarray(barrier_index, np.int64))
        )
        run = np.where(
            root, barrier_offsets[:-1][block] + len(self.dep_index),
            self.dep_offsets[:-1][src],
        )
        shift = np.where(root, 0, starts[:-1][block])
        return TaskTable(
            self.shapes, self.shape[src], self.labels, self.label[src],
            offsets(counts),
            pool[ranges(run, counts)] + np.repeat(shift, counts),
        )

    def take(self, rows) -> "TaskTable":
        """The given rows (ascending), with their dependencies
        renumbered among them; every dependency must be one of them."""
        rows = np.asarray(rows, np.int64)
        remap = np.full(len(self), -1, np.int64)
        remap[rows] = np.arange(len(rows))
        counts = np.diff(self.dep_offsets)[rows]
        return TaskTable(
            self.shapes, self.shape[rows], self.labels, self.label[rows],
            offsets(counts),
            remap[self.dep_index[ranges(self.dep_offsets[rows], counts)]],
        )

    def column(self, name: str) -> np.ndarray:
        """One :data:`SHAPE_FIELDS` field per row (``kind`` as its
        :data:`KINDS` code)."""
        k = SHAPE_FIELDS.index(name)
        per_shape = [
            _KIND_CODE[s[0]] if k == 0 else s[k] for s in self.shapes
        ]
        return np.array(per_shape, np.int64)[self.shape]

    # -- sequence of OperatorTask ---------------------------------------
    def __len__(self) -> int:
        return len(self.shape)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return TaskTable.from_tasks(
                    [self[i] for i in range(start, stop, step)]
                )
            stop = max(start, stop)
            off = self.dep_offsets
            return TaskTable(
                self.shapes, self.shape[start:stop],
                self.labels, self.label[start:stop],
                off[start:stop + 1] - off[start],
                self.dep_index[off[start]:off[stop]],
            )
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("task index out of range")
        off = self.dep_offsets
        return OperatorTask(
            *self.shapes[self.shape[i]],
            tuple(self.dep_index[off[i]:off[i + 1]].tolist()),
            self.labels[self.label[i]],
        )

    def __iter__(self):
        shapes, labels = self.shapes, self.labels
        off = self.dep_offsets.tolist()
        deps = self.dep_index.tolist()
        for i, (s, lab) in enumerate(
            zip(self.shape.tolist(), self.label.tolist())
        ):
            yield OperatorTask(
                *shapes[s], tuple(deps[off[i]:off[i + 1]]), labels[lab]
            )

    def __eq__(self, other):
        if isinstance(other, TaskTable):
            shape_ids: dict[tuple, int] = {}
            label_ids: dict[str, int] = {}
            return (
                len(self) == len(other)
                and np.array_equal(self.dep_offsets, other.dep_offsets)
                and np.array_equal(self.dep_index, other.dep_index)
                and np.array_equal(
                    _codes(self.shapes, shape_ids)[self.shape],
                    _codes(other.shapes, shape_ids)[other.shape],
                )
                and np.array_equal(
                    _codes(self.labels, label_ids)[self.label],
                    _codes(other.labels, label_ids)[other.label],
                )
            )
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((
            len(self), self.dep_offsets.tobytes(), self.dep_index.tobytes()
        ))

    def __repr__(self) -> str:
        return f"TaskTable({len(self)} tasks)"
