"""The discrete-event scheduler: operator tasks onto shared resources.

Resources:

- one array per operator core type ("MA", "MM", "NTT", "Automorphism"),
  each with :meth:`HardwareConfig.instances_of` identical instances
  (the paper's prototype has one of each; the arrays are internally
  SIMD-wide, so task-level concurrency across *different* arrays is
  what the paper's operator reuse exploits);
- the HBM, modelled as ``hbm_channels`` pseudo-channel slots; a
  transfer occupies :meth:`MemoryModel.channels_for` of them, so small
  transfers can stream concurrently while full-stripe transfers
  serialize.

Scheduling is event-driven and out of order: a task enters the ready
queue when its dependencies finish, its off-chip transfer is granted
channel slots as soon as they are free (in ready order, not submission
order), and the task dispatches onto the first free instance of its
core array. A ready task is never blocked behind a stalled
earlier-submitted one — the head-of-line hazard the one-pass in-order
scheduler (kept as :func:`in_order_makespan` for comparison) suffers.

Busy time and stall time are attributed separately: a task occupies
its core for ``max(compute, residual stream time)``, but only the
compute-occupied part counts as busy; the tail spent waiting on the
HBM stream is recorded as ``stall_seconds``. Busy-time statistics per
core and per FHE basic operation feed Figs. 7/8/9, and HBM occupancy
feeds the Table VII bandwidth-utilization analysis.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SchedulingError
from repro.obs import metrics
from repro.sim.config import CORE_ARRAYS, HardwareConfig
from repro.sim.cores import CoreModel, CoreTiming
from repro.sim.memory import MemoryModel, MemoryTiming, record_memory_metrics
from repro.sim.tasks import OperatorTask, TaskTable, offsets
from repro.utils.fold import left_fold_sum

if TYPE_CHECKING:  # avoid a circular import; engine only needs the type
    from repro.compiler.program import OperatorProgram


@dataclass(slots=True)
class TaskRecord:
    """Scheduling outcome of one task.

    Wait/stall semantics:

    - ``ready_seconds`` — when every dependency had finished.
    - ``core_wait_seconds`` — ``start - ready``: time spent ready but
      waiting for a free instance of the core array.
    - ``hbm_wait_seconds`` — ``hbm_start - ready``: time the task's
      off-chip transfer sat ready waiting for HBM channel slots (zero
      when the task moves no off-chip bytes).
    - ``queue_wait_seconds`` — ``max(core_wait, hbm_wait)``: total
      time the task sat ready before *both* its core dispatch and its
      HBM grant were underway. This includes HBM arbitration, not just
      core contention.
    - ``stall_seconds`` — ``end - start - max(compute, spad)``: time
      the core instance was held but idle, waiting for the task's own
      residual HBM stream. Busy attribution everywhere downstream
      (``core_busy_seconds``, Figs. 7/8/9) excludes this.

    ``hbm_start``/``hbm_end`` bound the task's slot on the HBM
    channels and ``hbm_channels_used`` counts the pseudo-channel slots
    it occupied (all zero when the task moves no off-chip bytes).
    ``instance`` is which instance of the core array ran the task.
    These feed the Chrome-trace exporter's per-instance, stall and HBM
    tracks (:mod:`repro.obs.trace_export`).
    """

    start: float
    end: float
    core: str
    compute_seconds: float
    hbm_seconds: float
    hbm_bytes: int
    op_label: str
    queue_wait_seconds: float = 0.0
    hbm_start: float = 0.0
    hbm_end: float = 0.0
    instance: int = 0
    ready_seconds: float = 0.0
    stall_seconds: float = 0.0
    core_wait_seconds: float = 0.0
    hbm_wait_seconds: float = 0.0
    hbm_channels_used: int = 0


#: TaskRecord fields a :class:`TaskRecords` holds as float and int
#: columns under their own names (``core`` and ``op_label`` are codes).
_FLOAT_FIELDS = (
    "start", "end", "compute_seconds", "hbm_seconds", "queue_wait_seconds",
    "hbm_start", "hbm_end", "ready_seconds", "stall_seconds",
    "core_wait_seconds", "hbm_wait_seconds",
)
_INT_FIELDS = ("hbm_bytes", "instance", "hbm_channels_used")
_NUMERIC_FIELDS = _FLOAT_FIELDS + _INT_FIELDS


class TaskRecords(Sequence):
    """The per-task schedule of a :class:`SimulationResult`, as columns.

    It reads like the read-only list of :class:`TaskRecord` it stands
    for: ``len``, integer (also negative) indexing and iteration build
    records on demand, a slice is a :class:`TaskRecords`, and ``==``
    compares record by record against a list, a tuple or another
    :class:`TaskRecords`. Nothing builds a record until it is read.

    Every numeric :class:`TaskRecord` field is a numpy column under its
    own name (float64, or int64 for ``hbm_bytes``, ``instance`` and
    ``hbm_channels_used``); ``core`` and ``op_label`` are codes into
    ``core_names`` and ``label_names`` (``core_code``, ``label_code``).
    Readers that walk every task (validation, timelines, traces,
    metrics) read the columns. A record's values are Python floats,
    ints and strings, exactly as the engine committed them.
    """

    __slots__ = (*_NUMERIC_FIELDS, "core_code", "core_names", "label_code",
                 "label_names")

    def __init__(self, columns: dict[str, np.ndarray], core_code,
                 core_names, label_code, label_names):
        for name in _NUMERIC_FIELDS:
            setattr(self, name, columns[name])
        self.core_code: np.ndarray = core_code
        self.core_names: tuple[str, ...] = core_names
        self.label_code: np.ndarray = label_code
        self.label_names: tuple[str, ...] = label_names

    @classmethod
    def from_records(cls, records) -> "TaskRecords":
        """Columns of a sequence of :class:`TaskRecord`."""
        if isinstance(records, TaskRecords):
            return records
        records = list(records)
        columns = {
            name: np.array([getattr(r, name) for r in records],
                           float if name in _FLOAT_FIELDS else np.int64)
            for name in _NUMERIC_FIELDS
        }
        cores: dict[str, int] = {}
        labels: dict[str, int] = {}
        core_code = np.array(
            [cores.setdefault(r.core, len(cores)) for r in records], np.int64
        )
        label_code = np.array(
            [labels.setdefault(r.op_label, len(labels)) for r in records],
            np.int64,
        )
        return cls(columns, core_code, tuple(cores), label_code,
                   tuple(labels))

    def names(self, field: str) -> np.ndarray:
        """``core`` or ``op_label`` of every task, as an object column."""
        if field == "core":
            names, codes = self.core_names, self.core_code
        else:
            names, codes = self.label_names, self.label_code
        return np.array(names, dtype=object)[codes]

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TaskRecords(
                {name: getattr(self, name)[index] for name in _NUMERIC_FIELDS},
                self.core_code[index], self.core_names,
                self.label_code[index], self.label_names,
            )
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("task record index out of range")
        return TaskRecord(
            self.start.item(i), self.end.item(i),
            self.core_names[self.core_code.item(i)],
            self.compute_seconds.item(i), self.hbm_seconds.item(i),
            self.hbm_bytes.item(i), self.label_names[self.label_code.item(i)],
            self.queue_wait_seconds.item(i), self.hbm_start.item(i),
            self.hbm_end.item(i), self.instance.item(i),
            self.ready_seconds.item(i), self.stall_seconds.item(i),
            self.core_wait_seconds.item(i), self.hbm_wait_seconds.item(i),
            self.hbm_channels_used.item(i),
        )

    def __iter__(self):
        return map(
            TaskRecord,
            self.start.tolist(), self.end.tolist(),
            self.names("core").tolist(),
            self.compute_seconds.tolist(), self.hbm_seconds.tolist(),
            self.hbm_bytes.tolist(), self.names("op_label").tolist(),
            self.queue_wait_seconds.tolist(), self.hbm_start.tolist(),
            self.hbm_end.tolist(), self.instance.tolist(),
            self.ready_seconds.tolist(), self.stall_seconds.tolist(),
            self.core_wait_seconds.tolist(), self.hbm_wait_seconds.tolist(),
            self.hbm_channels_used.tolist(),
        )

    def __eq__(self, other):
        if isinstance(other, TaskRecords):
            return (
                len(self) == len(other)
                and all(
                    np.array_equal(getattr(self, name), getattr(other, name))
                    for name in _NUMERIC_FIELDS
                )
                and np.array_equal(self.names("core"), other.names("core"))
                and np.array_equal(
                    self.names("op_label"), other.names("op_label")
                )
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"TaskRecords({len(self)} tasks)"


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulated program.

    Attributes:
        total_seconds: makespan.
        core_busy_seconds: compute-occupied time per core array
            (stall-free: HBM-stall tails are *not* counted as busy).
        op_seconds: attributed busy time per FHE basic operation.
        operator_seconds: attributed busy time per operator core,
            nested by basic operation (Fig. 7 data).
        hbm_busy_seconds: time at least one HBM channel was streaming
            (union of transfer intervals, so it never exceeds the
            makespan).
        hbm_bytes: total off-chip traffic.
        task_records: per-task schedule (ordered as submitted), as
            :class:`TaskRecords`; a sequence of :class:`TaskRecord`
            given here is converted once.
        core_stall_seconds: per-core time instances were held but
            stalled on their task's residual HBM stream.
    """

    total_seconds: float
    core_busy_seconds: dict[str, float]
    op_seconds: dict[str, float]
    operator_seconds: dict[str, dict[str, float]]
    hbm_busy_seconds: float
    hbm_bytes: int
    task_records: TaskRecords = field(repr=False, default_factory=tuple)
    core_stall_seconds: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.task_records = TaskRecords.from_records(self.task_records)

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of the run during which the HBM was streaming."""
        if self.total_seconds <= 0:
            return 0.0
        return min(1.0, self.hbm_busy_seconds / self.total_seconds)

    @property
    def stall_seconds(self) -> float:
        """Total core-held-but-stalled time across all arrays."""
        return sum(self.core_stall_seconds.values())

    def achieved_bandwidth(self) -> float:
        """Average delivered HBM bandwidth in bytes/second."""
        if self.total_seconds <= 0:
            return 0.0
        return self.hbm_bytes / self.total_seconds

    def delivered_bandwidth_fraction(self, config: HardwareConfig) -> float:
        """Achieved bandwidth as a fraction of the configured peak."""
        return self.achieved_bandwidth() / config.hbm_bandwidth

    def op_share(self) -> dict[str, float]:
        """Normalized time share per basic operation (Fig. 8-style)."""
        total = sum(self.op_seconds.values())
        if total <= 0:
            return {name: 0.0 for name in self.op_seconds}
        return {name: t / total for name, t in self.op_seconds.items()}


def left_folds_by(values: np.ndarray, keys: np.ndarray) -> list[tuple[int, float]]:
    """``(key, sum)`` per distinct key, keys in order of first
    appearance; each sum is the left fold of that key's values in task
    order (:func:`repro.utils.fold.left_fold_sum`, which a running
    ``np.cumsum`` reproduces exactly, unlike ``sum()`` on Python 3.12
    or the pairwise ``np.sum``)."""
    if not len(keys):
        return []
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    folds = [
        (first, key, np.cumsum(part)[-1].item())
        for first, key, part in zip(
            order[np.concatenate(([0], cuts))].tolist(),
            ordered[np.concatenate(([0], cuts))].tolist(),
            np.split(values[order], cuts),
        )
    ]
    folds.sort()
    return [(key, total) for _, key, total in folds]


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length of the union of ``[start, end]`` intervals: merged
    in (start, end) order, the merged lengths left-folded."""
    if not len(starts):
        return 0.0
    order = np.lexsort((ends, starts))
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    opens = np.flatnonzero(
        np.concatenate(([True], starts[1:] > reach[:-1]))
    )
    closes = np.concatenate((opens[1:] - 1, [len(starts) - 1]))
    return np.cumsum(reach[closes] - starts[opens])[-1].item()


#: Event kinds, ordered so arrivals at a time t are visible before the
#: grant/dispatch passes triggered by releases at the same t, and both
#: before completion notifications at the same t.
_EV_READY = 0
_EV_RELEASE = 1
_EV_COMPLETE = 2

_INF = float("inf")

_CORE_CODE = {core: code for code, core in enumerate(CORE_ARRAYS)}

#: The engine's per-task lists, indexed by global task id.
_TASK_LISTS = (
    "_core", "_durations", "_hbm_seconds", "_channels", "_shape_of",
    "_label_of", "_remaining", "_ready", "_start", "_hbm_start", "_hbm_end",
    "_end", "_instance_of", "_owner",
)


@dataclass
class Submission:
    """One admitted task list on a :class:`ScheduleEngine`.

    ``finish_seconds`` stays ``None`` until every task in the
    submission has committed its end time. ``base``/``count`` locate
    the submission's tasks in the engine's global index space (and in
    the eventual :class:`SimulationResult` record list).
    """

    index: int
    base: int
    count: int
    release_seconds: float
    label: str = ""
    finish_seconds: float | None = None
    _remaining: int = field(repr=False, default=0)
    _max_end: float = field(repr=False, default=0.0)
    # The admission plan's local dependents (CSR), walked on finalize.
    _dependent_offsets: list = field(repr=False, compare=False, default=())
    _dependents: list = field(repr=False, compare=False, default=())

    @property
    def done(self) -> bool:
        return self.finish_seconds is not None


@dataclass(frozen=True)
class AdmissionPlan:
    """A task table's per-row admission state, computed once per table.

    Every FHE basic operation lowers to the same small operator DAG,
    so a served stream admits the same few programs over and over.
    The plan holds what admission derives from a table independently
    of when and where it is admitted, as lists the engine extends its
    own by: per row, the core array, the *undilated* occupancy
    ``max(compute, scratchpad)``, the HBM channel time and slots, and
    the count of distinct dependencies; the local dependents of every
    row (CSR: ``dependents[dependent_offsets[i]:dependent_offsets[i +
    1]]``, the rows that wait on row ``i``); and the root rows. All of
    it comes from the table's columns with no per-row Python loop.
    Derates (``compute_scale``/``hbm_scale``) apply on top at each
    admission, so a straggler window never leaks into later
    submissions. Indices are local to the table; the engine adds the
    submission's base when it walks them.

    ``shapes`` and ``labels`` number each row's shape and display
    label in the engine's own tables (so they are left out of ``==``).
    ``tasks`` keeps the table alive: the engine caches plans by the
    table's identity, and a live object's id cannot be recycled.
    """

    tasks: TaskTable
    cores: list[str]
    durations: list[float]
    hbm_seconds: list[float]
    channels: list[int]
    hbm_pending: list
    dep_counts: list[int]
    dependent_offsets: list[int]
    dependents: list[int]
    roots: list[int]
    shapes: list[int] = field(compare=False)
    labels: list[int] = field(compare=False)

    @property
    def service_seconds(self) -> float:
        """Serial occupancy of the whole table (left-fold of
        ``durations``, the serving layer's backlog unit)."""
        return left_fold_sum(self.durations)


def _dependency_csr(table: TaskTable):
    """De-duplicated dependencies of a checked table: per row the count
    of distinct dependencies, the dependents CSR (offsets, rows in
    ascending order) and the root rows."""
    n = len(table)
    rows = np.repeat(np.arange(n), np.diff(table.dep_offsets))
    edges = np.sort(table.dep_index * n + rows)  # (dep, row) pairs
    distinct = np.ones(len(edges), bool)
    distinct[1:] = edges[1:] != edges[:-1]
    edges = edges[distinct]
    dep = edges // n
    row = edges - dep * n
    counts = np.bincount(row, minlength=n)
    return (
        counts.tolist(),
        offsets(np.bincount(dep, minlength=n)).tolist(),
        row.tolist(),
        np.flatnonzero(counts == 0).tolist(),
    )


@dataclass(frozen=True)
class CrashReport:
    """Outcome of :meth:`ScheduleEngine.crash`.

    ``lost`` are the submissions whose completion had not been
    *observed* by the crash instant — their unfinished tasks were
    cancelled, their schedules truncated, and their ``finish_seconds``
    reset to ``None``. The serving layer re-routes or abandons them.
    """

    at_seconds: float
    lost: tuple[Submission, ...]
    kept_tasks: int
    dropped_tasks: int


class ScheduleEngine:
    """Incremental ("warm") event-driven scheduler.

    Holds the live resource state — per-instance core free times, the
    free HBM pseudo-channel slot count, ready/grant queues and the
    event heap — so task lists can be :meth:`submit`-ted at *any*
    simulated time, while previously admitted work is still in flight.
    The open-system serving layer (:mod:`repro.serve`) interleaves
    admissions with :meth:`advance_until`; the closed-system
    :meth:`PoseidonSimulator.run` is the special case of one submission
    at t=0 followed by :meth:`drain`.

    Scheduling semantics are identical to the one-shot engine: a task
    becomes ready at ``max(release, dependency ends)``, transfers are
    granted channel slots in ready order with no head-of-line blocking,
    and a ready task dispatches onto the first free instance of its
    core array.
    """

    def __init__(
        self,
        config: HardwareConfig | None = None,
        *,
        cores: CoreModel | None = None,
        memory: MemoryModel | None = None,
        epoch: float = 0.0,
    ):
        if not math.isfinite(epoch):
            raise SchedulingError(f"engine epoch must be finite, got {epoch}")
        if epoch < 0:
            raise SchedulingError(
                f"engine epoch must be >= 0, got {epoch}"
            )
        self.config = config or HardwareConfig()
        self.cores = cores or CoreModel(self.config)
        self.memory = memory or MemoryModel(self.config)
        cfg = self.config
        # Resource state: per-instance core free times (None = occupied
        # by a task whose stream has not been granted yet, so its end is
        # still unknown), and each core's earliest free time among its
        # instances that are not held (inf when every one is held).
        self._inst_free: dict[str, list[float | None]] = {
            name: [0.0] * cfg.instances_of(name) for name in CORE_ARRAYS
        }
        self._core_min: dict[str, float] = dict.fromkeys(CORE_ARRAYS, 0.0)
        # Earliest instant a dispatch pass can act: the minimum of
        # ``_core_min`` over cores with queued work (inf when none).
        self._dispatch_at = _INF
        # HBM pseudo-channel slots as a count: nothing observes which
        # slots a transfer holds, only how many. ``_chan_busy`` heaps
        # ``(free time, count)`` per granted transfer; ``_chan_min`` is
        # the earliest instant a slot is free, before which the grant
        # pass cannot act.
        self._chan_avail = cfg.hbm_channels
        self._chan_busy: list[tuple[float, int]] = []
        self._chan_min = 0.0
        self._events: list[tuple[float, int, int]] = []
        # Timestamps with a release event already queued. Releases are
        # anonymous pass triggers (payload -1), so queueing the same
        # instant twice only burns heap traffic — finalize/grant dedupe
        # through this set, and _step clears an entry when it fires.
        self._release_times: set[float] = set()
        self._core_queue: dict[str, list[tuple[float, int]]] = {
            name: [] for name in CORE_ARRAYS
        }
        self._hbm_queue: list[tuple[float, int]] = []
        self._finished = 0
        # ``epoch`` lets an instance be born mid-run on a shared master
        # clock (cluster autoscaling): the engine starts at that
        # simulated time and rejects submissions from before it, just
        # as if it had idled since t=0.
        self._now = epoch
        # Cost-model outputs by engine shape id: a shape is every field
        # but ``depends_on`` and ``op_label``, which the models never
        # read, and ``_shape_ids`` numbers each distinct one once.
        self._shape_ids: dict[tuple, int] = {}
        self._shape_core: list[str] = []
        self._shape_mem: list[MemoryTiming] = []
        self._shape_duration: list[float] = []
        self._shape_compute: list[float] = []
        # Display labels (``op_label or "unlabelled"``) by engine id.
        self._label_ids: dict[str, int] = {}
        # Per-task state, indexed by global task id (grows on submit;
        # see _TASK_LISTS). ``_hbm_end`` is None until the task's
        # transfer is granted (0.0 for a task that moves no bytes).
        self._core: list[str] = []
        self._durations: list[float] = []
        self._hbm_seconds: list[float] = []
        self._channels: list[int] = []
        self._shape_of: list[int] = []
        self._label_of: list[int] = []
        self._remaining: list[int] = []
        self._ready: list[float] = []
        self._start: list[float | None] = []
        self._hbm_start: list[float] = []
        self._hbm_end: list[float | None] = []
        self._end: list[float | None] = []
        self._instance_of: list[int] = []
        self._owner: list[Submission] = []
        # Each submission's own table (local dependency indices).
        self._tables: list[TaskTable] = []
        # Admission plans by table identity.
        self._plans: dict[int, AdmissionPlan] = {}
        self.submissions: list[Submission] = []
        #: Submissions in the order they completed (serving layer polls
        #: this after each :meth:`advance_until`).
        self.completions: list[Submission] = []
        # Set by crash(): a dead engine rejects submissions and time
        # advances; its truncated schedule stays readable via result().
        self._dead = False

    # -- admission -----------------------------------------------------
    def submit(
        self,
        tasks,
        *,
        release: float = 0.0,
        label: str = "",
        compute_scale: float = 1.0,
        hbm_scale: float = 1.0,
    ) -> Submission:
        """Admit a task table; its tasks become ready no earlier than
        ``release``.

        ``tasks`` is a :class:`~repro.sim.tasks.TaskTable` (a compiled
        program's ``tasks``) or a list or tuple of
        :class:`~repro.sim.tasks.OperatorTask`, which is converted to
        one here. Dependency indices are local to the table (the
        compiler's convention) and are re-based onto the engine's
        global index space. Every row is checked before anything is
        admitted, so a bad table raises and leaves the engine as it
        was.

        ``compute_scale`` multiplies each task's core occupancy and
        ``hbm_scale`` each transfer's channel time — the fault layer's
        straggler and HBM-degradation derates, applied at admission.
        Both default to 1.0, in which case this path is arithmetically
        untouched (no multiplication happens at all).

        A table admitted before reuses its :class:`AdmissionPlan`; the
        derates apply on top of the plan's unscaled values. A list or
        tuple is converted and planned afresh on every admission, but
        only a task shape this engine has not seen before runs the cost
        models.
        """
        if self._dead:
            raise SchedulingError(
                f"engine crashed at t={self._now}; restart as a fresh "
                "epoch to submit again"
            )
        if not (0 < compute_scale < _INF and 0 < hbm_scale < _INF):
            raise SchedulingError(
                "derate scales must be positive and finite, got "
                f"compute_scale={compute_scale} hbm_scale={hbm_scale}"
            )
        if not math.isfinite(release):
            raise SchedulingError(f"release must be finite, got {release}")
        if release < self._now:
            raise SchedulingError(
                f"cannot submit in the past: release {release} < "
                f"engine time {self._now}"
            )
        base = len(self._durations)
        table = TaskTable.from_tasks(tasks)
        plan = (
            self._plan(table, base, cache=table is tasks) if len(table)
            else None
        )
        submission = Submission(
            index=len(self.submissions),
            base=base,
            count=len(table),
            release_seconds=release,
            label=label,
            _remaining=len(table),
        )
        self.submissions.append(submission)
        self._tables.append(table)
        if plan is None:
            submission.finish_seconds = release
            heapq.heappush(
                self._events, (release, _EV_COMPLETE, submission.index)
            )
        else:
            self._admit(plan, submission, compute_scale, hbm_scale)
        return submission

    def admission_plan(self, tasks) -> AdmissionPlan:
        """The :class:`AdmissionPlan` of ``tasks`` on this engine's
        models, built on first request and cached for a table.

        Like an admission, every call counts the table's memory-model
        metrics (``sim.spad.*``, ``sim.hbm.transfers``,
        ``sim.hbm.channels_used``) once.
        """
        table = TaskTable.from_tasks(tasks)
        return self._plan(table, 0, cache=table is tasks)

    def _plan(self, table: TaskTable, base: int, *, cache: bool):
        """The plan of ``table``: a cached one replays its memory-model
        metrics, so counters stay per admitted task exactly as if the
        models had run again. ``base`` only numbers tasks in errors."""
        plan = self._plans.get(id(table))
        if plan is not None:
            reg = metrics.active()
            if reg is not None:
                self._replay(reg, plan.shapes)
            return plan
        shapes = self._row_shapes(table, base)
        counts, dependent_offsets, dependents, roots = _dependency_csr(table)
        label_ids = self._label_ids
        labels = np.array([
            label_ids.setdefault(label or "unlabelled", len(label_ids))
            for label in table.labels
        ], np.int64)

        def per_row(values):
            return np.array(values, dtype=object)[shapes].tolist()

        mems = self._shape_mem
        plan = AdmissionPlan(
            tasks=table,
            cores=per_row(self._shape_core),
            durations=per_row(self._shape_duration),
            hbm_seconds=per_row([m.hbm_seconds for m in mems]),
            channels=per_row([m.channels_used for m in mems]),
            hbm_pending=per_row([None if m.hbm_bytes else 0.0 for m in mems]),
            dep_counts=counts,
            dependent_offsets=dependent_offsets,
            dependents=dependents,
            roots=roots,
            shapes=shapes.tolist(),
            labels=labels[table.label].tolist(),
        )
        if cache:
            self._plans[id(table)] = plan
        return plan

    def _row_shapes(self, table: TaskTable, base: int) -> np.ndarray:
        """Check every row of ``table`` and return its engine shape ids.

        Each distinct shape is costed once per engine, in order of its
        first row: the cost models read only a task's shape, so a shape
        seen before (``_shape_ids``) is not costed again. The memory
        metrics are then counted per row, in row order, as a row-by-row
        costing would count them.

        A row's core is checked before its dependencies, and the first
        failing row raises, naming its global index (``base`` plus its
        local one); the rows before it count their memory metrics, and
        the models never see a shape whose first row comes after it.
        """
        n = len(table)
        rows = np.repeat(np.arange(n), np.diff(table.dep_offsets))
        bad = (table.dep_index < 0) | (table.dep_index >= rows)
        bad_entry = int(np.argmax(bad)) if bad.any() else -1
        bad_row = int(rows[bad_entry]) if bad_entry >= 0 else n
        local, first = np.unique(table.shape, return_index=True)
        ids = np.zeros(len(table.shapes), np.int64)
        reg = metrics.active()
        for row, s in sorted(zip(first.tolist(), local.tolist())):
            if row > bad_row:
                break
            key = table.shapes[s]
            eid = self._shape_ids.get(key)
            if eid is None:
                task = OperatorTask(*key)
                timing = self.cores.task_cycles(task)
                if timing.core not in CORE_ARRAYS:
                    self._replay(reg, ids[table.shape[:row]].tolist())
                    raise SchedulingError(
                        f"task {base + row} targets unknown core "
                        f"{timing.core!r}"
                    )
                if row == bad_row:
                    break  # its dependency check fails first
                if reg is None:
                    mem = self.memory.task_timing(task)
                else:  # counted per row below, in row order
                    with metrics.collecting():
                        mem = self.memory.task_timing(task)
                eid = self._shape_ids[key] = self._add_shape(timing, mem)
            ids[s] = eid
        if bad_row < n:
            self._replay(reg, ids[table.shape[:bad_row]].tolist())
            raise SchedulingError(
                f"task {base + bad_row} has forward/invalid dependency "
                f"{int(table.dep_index[bad_entry])}"
            )
        shapes = ids[table.shape]
        self._replay(reg, shapes.tolist())
        return shapes

    def _add_shape(self, timing: CoreTiming, mem: MemoryTiming) -> int:
        """Record one costed shape; returns its engine shape id."""
        compute = timing.cycles * self.config.cycle_seconds
        self._shape_core.append(timing.core)
        self._shape_mem.append(mem)
        self._shape_compute.append(compute)
        self._shape_duration.append(max(compute, mem.spad_seconds))
        return len(self._shape_mem) - 1

    def _replay(self, reg, shapes: list[int]) -> None:
        """Count the memory-model metrics of rows of these shapes."""
        if reg is not None:
            mems = self._shape_mem
            for s in shapes:
                record_memory_metrics(reg, mems[s])

    def _admit(self, plan, submission, compute_scale, hbm_scale) -> None:
        """Extend the engine's per-task lists from a plan and queue its
        roots; the only per-row work is the lists' own ``extend``."""
        n = len(plan.durations)
        base = submission.base
        release = submission.release_seconds
        self._core.extend(plan.cores)
        if compute_scale != 1.0:
            self._durations.extend(
                (np.array(plan.durations) * compute_scale).tolist()
            )
        else:
            self._durations.extend(plan.durations)
        if hbm_scale != 1.0:
            self._hbm_seconds.extend(
                (np.array(plan.hbm_seconds) * hbm_scale).tolist()
            )
        else:
            self._hbm_seconds.extend(plan.hbm_seconds)
        self._channels.extend(plan.channels)
        self._shape_of.extend(plan.shapes)
        self._label_of.extend(plan.labels)
        self._remaining.extend(plan.dep_counts)
        submission._dependent_offsets = plan.dependent_offsets
        submission._dependents = plan.dependents
        self._ready.extend([release] * n)
        self._start.extend([None] * n)
        self._hbm_start.extend([0.0] * n)
        self._hbm_end.extend(plan.hbm_pending)
        self._end.extend([None] * n)
        self._instance_of.extend([0] * n)
        self._owner.extend([submission] * n)
        events = self._events
        for local in plan.roots:
            heapq.heappush(events, (release, _EV_READY, base + local))

    # -- event processing ----------------------------------------------
    def _push_release(self, t: float) -> None:
        """Queue a release pass at ``t`` unless one is already queued."""
        if t not in self._release_times:
            self._release_times.add(t)
            heapq.heappush(self._events, (t, _EV_RELEASE, -1))

    def _finalize(self, i: int) -> None:
        """Both dispatch and grant committed: the end is known."""
        task_end = max(self._start[i] + self._durations[i], self._hbm_end[i])
        self._end[i] = task_end
        core = self._core[i]
        self._inst_free[core][self._instance_of[i]] = task_end
        if task_end < self._core_min[core]:
            self._core_min[core] = task_end
        if task_end < self._dispatch_at and self._core_queue[core]:
            self._dispatch_at = task_end
        self._push_release(task_end)
        self._finished += 1
        owner = self._owner[i]
        if task_end > owner._max_end:
            owner._max_end = task_end
        owner._remaining -= 1
        if owner._remaining == 0:
            # The end is *known* now (dispatch commits it analytically),
            # but the completion is only observable once simulated time
            # reaches it — the serving layer polls ``completions`` after
            # advance_until() and must not see a finish from the future
            # (it would free a batch slot while cores are still busy).
            owner.finish_seconds = owner._max_end
            heapq.heappush(
                self._events,
                (owner._max_end, _EV_COMPLETE, owner.index),
            )
        base = owner.base
        local = i - base
        at = owner._dependent_offsets
        ready = self._ready
        remaining = self._remaining
        for d in owner._dependents[at[local]:at[local + 1]]:
            d += base
            if task_end > ready[d]:
                ready[d] = task_end
            remaining[d] -= 1
            if remaining[d] == 0:
                heapq.heappush(self._events, (ready[d], _EV_READY, d))

    def _grant_pass(self, t: float) -> None:
        """Grant channel slots to ready transfers, in ready order.

        A transfer that does not fit is bypassed (no head-of-line
        blocking) and retried at the next release event. Called only
        while transfers wait and ``t`` has reached ``_chan_min``.
        """
        busy = self._chan_busy
        avail = self._chan_avail
        while busy and busy[0][0] <= t:
            avail += heapq.heappop(busy)[1]
        queue = self._hbm_queue
        deferred = []
        while queue and avail:
            entry = heapq.heappop(queue)
            i = entry[1]
            need = self._channels[i]
            if need > avail:
                deferred.append(entry)
                continue
            done = t + self._hbm_seconds[i]
            avail -= need
            heapq.heappush(busy, (done, need))
            self._hbm_start[i] = t
            self._hbm_end[i] = done
            self._push_release(done)
            if self._start[i] is not None:
                self._finalize(i)
        for entry in deferred:
            heapq.heappush(queue, entry)
        self._chan_avail = avail
        self._chan_min = t if avail else busy[0][0]

    def _dispatch_pass(self, t: float) -> None:
        """Dispatch ready tasks onto free core instances.

        Called only once ``t`` has reached ``_dispatch_at``. A core
        with no queued work, or whose earliest free instance lies
        ahead of ``t``, is skipped: it would dispatch nothing.
        """
        core_min = self._core_min
        dispatch_at = _INF
        for core in CORE_ARRAYS:
            queue = self._core_queue[core]
            if not queue:
                continue
            if core_min[core] > t:
                if core_min[core] < dispatch_at:
                    dispatch_at = core_min[core]
                continue
            # One walk over the instances per core per pass, lowest
            # index first. A dispatched task can re-free its own
            # instance at the same instant (zero-duration work), in
            # which case the walk stays put so the instance is reused;
            # no other instance changes during the pass.
            frees = self._inst_free[core]
            k = 0
            n = len(frees)
            while queue:
                while k < n and (frees[k] is None or frees[k] > t):
                    k += 1
                if k == n:
                    break
                i = heapq.heappop(queue)[1]
                self._start[i] = t
                self._instance_of[i] = k
                if self._hbm_end[i] is not None:
                    self._finalize(i)
                else:
                    # Core held; end unknown until the HBM grant.
                    frees[k] = None
            earliest = _INF
            for f in frees:
                if f is not None and f < earliest:
                    earliest = f
            core_min[core] = earliest
            if queue and earliest < dispatch_at:
                dispatch_at = earliest
        self._dispatch_at = dispatch_at

    def _step(self) -> None:
        """Process exactly one event from the heap."""
        t, kind, payload = heapq.heappop(self._events)
        if t > self._now:
            self._now = t
        if kind == _EV_RELEASE:
            self._release_times.discard(t)
        elif kind == _EV_READY:
            i = payload
            ready = self._ready[i]
            if self._hbm_end[i] is None:
                heapq.heappush(self._hbm_queue, (ready, i))
            core = self._core[i]
            heapq.heappush(self._core_queue[core], (ready, i))
            if self._core_min[core] < self._dispatch_at:
                self._dispatch_at = self._core_min[core]
        else:
            self.completions.append(self.submissions[payload])
            return
        if self._hbm_queue and t >= self._chan_min:
            self._grant_pass(t)
        if t >= self._dispatch_at:
            self._dispatch_pass(t)

    def advance_until(self, t: float) -> float:
        """Run the engine on its own up to ``t``, pausing at the first
        instant a submission completes.

        Every pending event at or before the returned instant is
        processed, and none after it. The return value is that
        completion instant (its submissions are appended to
        :attr:`completions`), or ``t`` when nothing completes by then;
        an engine already past ``t`` processes nothing. A caller that
        needs the engine at ``t`` calls again until ``t`` comes back;
        the serving loop instead wakes at the returned instant, since a
        completion is where it can act. ``t`` may be infinite, not NaN.
        """
        if t != t:
            raise SchedulingError(f"cannot advance to t={t}")
        events = self._events
        step = self._step
        while events and events[0][0] <= t:
            head = events[0]
            if head[1] == _EV_COMPLETE:
                # Completions sort after every other event at their
                # instant, so what is left there is completions only.
                self._run_until(head[0])
                return head[0]
            step()
        if t > self._now:
            self._now = t
        return t

    def _run_until(self, t: float) -> None:
        """Process every pending event with timestamp <= ``t``."""
        events = self._events
        while events and events[0][0] <= t:
            self._step()
        if t > self._now:
            self._now = t

    def drain(self) -> None:
        """Process all pending events (run the admitted work dry)."""
        while self._events:
            self._step()

    # -- failure -------------------------------------------------------
    def crash(self, at: float) -> CrashReport:
        """Fail the instance at simulated time ``at``.

        Everything that finished by ``at`` stays in the schedule;
        every task still running or not yet started is cancelled and
        *erased* (a crashed accelerator leaves no partial results —
        the work must be redone elsewhere). Submissions whose
        completion had not been observed by ``at`` are reported lost
        with ``finish_seconds`` reset to ``None``; their kept prefix of
        finished tasks remains in the truncated schedule, its
        dependency indices renumbered within the prefix, so
        :meth:`result` and :meth:`spans` stay mutually consistent and
        the truncated schedule passes
        :func:`repro.sim.validate.validate_schedule`.

        The engine is dead afterwards: :meth:`submit` raises. Recovery
        is a *new* engine at a later ``epoch=`` (cluster restart
        semantics — fresh queues, cold caches).
        """
        if self._dead:
            raise SchedulingError(
                f"engine already crashed at t={self._now}"
            )
        if at != at:
            raise SchedulingError(f"cannot crash at t={at}")
        if at < self._now:
            raise SchedulingError(
                f"cannot crash in the past: {at} < engine time "
                f"{self._now}"
            )
        # Events at exactly ``at`` land before the failure: a task (or
        # submission) finishing at the crash instant survived it.
        self._run_until(at)
        kept = np.array(self._end, dtype=float) <= at  # unfinished: NaN
        keep = np.flatnonzero(kept)
        dropped = len(kept) - len(keep)
        mask = kept.tolist()
        for name in _TASK_LISTS:
            setattr(self, name, list(compress(getattr(self, name), mask)))
        # A dead engine processes no more events.
        self._remaining = [0] * len(keep)
        # Re-base every submission onto the truncated index space.
        # Bases are contiguous and ``keep`` ascending, so each
        # submission's kept tasks are one run of it; a lost submission
        # keeps its finished prefix (possibly empty). A kept task's
        # dependencies are provably kept (dep end <= task ready <=
        # start <= end <= at) and local to its submission, so its
        # table's rows renumber among themselves.
        lost = []
        tables = []
        cursor = 0
        for sub, table in zip(self.submissions, self._tables):
            lo, hi = np.searchsorted(keep, (sub.base, sub.base + sub.count))
            if hi - lo < sub.count:
                table = table.take(keep[lo:hi] - sub.base)
            tables.append(table)
            if sub.finish_seconds is None or sub.finish_seconds > at:
                # Either still running, or committed analytically for
                # a future instant the crash pre-empted — the serving
                # layer never observed the completion, so it is lost.
                sub.finish_seconds = None
                lost.append(sub)
            sub.base = cursor
            sub.count = len(table)
            cursor += sub.count
        self._tables = tables
        self._events.clear()
        self._release_times.clear()
        for queue in self._core_queue.values():
            queue.clear()
        self._hbm_queue.clear()
        self._finished = len(keep)
        self._dead = True
        return CrashReport(
            at_seconds=at,
            lost=tuple(lost),
            kept_tasks=len(keep),
            dropped_tasks=dropped,
        )

    @property
    def dead(self) -> bool:
        """True once :meth:`crash` has fired."""
        return self._dead

    @property
    def now(self) -> float:
        """Current engine time (latest processed event or advance)."""
        return self._now

    # -- results -------------------------------------------------------
    def spans(self) -> tuple[tuple[int, TaskTable], ...]:
        """Every submission's ``(base, tasks)``, in admission order.

        ``tasks`` is the submission's own table (truncated by a crash),
        with dependency indices local to it, so record ``base + j`` of
        :meth:`result` is its row ``j`` and a local dependency ``d`` is
        record ``base + d``. The spans tile the records in order, and
        :func:`repro.sim.validate.validate_schedule` checks dependency
        ordering across a served run from them; no task is copied.
        """
        return tuple(
            (s.base, table) for s, table in zip(self.submissions, self._tables)
        )

    def result(self) -> SimulationResult:
        """Aggregate statistics over every submitted task.

        Requires the engine to be drained (every task finished). The
        schedule is committed as columns, elementwise; the per-core and
        per-label busy sums are left folds in task order.
        """
        n = len(self._durations)
        if self._finished != n:
            raise SchedulingError(
                f"engine finished {self._finished}/{n} tasks; call "
                "drain() before result()"
            )
        shape = np.array(self._shape_of, np.int64)
        core = np.array(
            [_CORE_CODE[c] for c in self._shape_core], np.int64
        )[shape]
        label = np.array(self._label_of, np.int64)
        mems = self._shape_mem
        hbm_bytes = np.array([m.hbm_bytes for m in mems], np.int64)[shape]
        moves = hbm_bytes != 0
        start = np.array(self._start, float)
        end = np.array(self._end, float)
        ready = np.array(self._ready, float)
        busy = np.array(self._durations, float)
        hbm_start = np.array(self._hbm_start, float)
        hbm_end = np.array(self._hbm_end, float)
        # Clamp tiny float-negative residues so stall stays a physical
        # (non-negative) quantity and monotone counters downstream
        # never see a negative increment (``where`` is exactly the
        # conditional ``x if x > 0.0 else 0.0``).
        stall = end - start - busy
        stall = np.where(stall > 0.0, stall, 0.0)
        core_wait = start - ready
        core_wait = np.where(core_wait > 0.0, core_wait, 0.0)
        hbm_wait = np.where(moves, hbm_start - ready, 0.0)
        hbm_wait = np.where(hbm_wait > 0.0, hbm_wait, 0.0)
        records = TaskRecords(
            {
                "start": start,
                "end": end,
                "compute_seconds": np.array(self._shape_compute, float)[shape],
                "hbm_seconds": np.array(self._hbm_seconds, float),
                "hbm_bytes": hbm_bytes,
                "queue_wait_seconds": np.where(
                    core_wait >= hbm_wait, core_wait, hbm_wait
                ),
                "hbm_start": hbm_start,
                "hbm_end": hbm_end,
                "instance": np.array(self._instance_of, np.int64),
                "ready_seconds": ready,
                "stall_seconds": stall,
                "core_wait_seconds": core_wait,
                "hbm_wait_seconds": hbm_wait,
                "hbm_channels_used": np.where(
                    moves,
                    np.array([m.channels_used for m in mems], np.int64)[shape],
                    0,
                ),
            },
            core, CORE_ARRAYS, label, tuple(self._label_ids),
        )
        labels = records.label_names
        operator_seconds: dict[str, dict[str, float]] = {}
        for key, total in left_folds_by(busy, label * len(CORE_ARRAYS) + core):
            lab, c = divmod(key, len(CORE_ARRAYS))
            operator_seconds.setdefault(labels[lab], {})[CORE_ARRAYS[c]] = total
        makespan = end.max().item() if n else 0.0
        return SimulationResult(
            total_seconds=makespan if makespan > 0.0 else 0.0,
            core_busy_seconds={
                CORE_ARRAYS[c]: total for c, total in left_folds_by(busy, core)
            },
            op_seconds={
                labels[lab]: total for lab, total in left_folds_by(busy, label)
            },
            operator_seconds=operator_seconds,
            hbm_busy_seconds=_union_length(hbm_start[moves], hbm_end[moves]),
            hbm_bytes=int(hbm_bytes.sum()),
            task_records=records,
            core_stall_seconds={
                CORE_ARRAYS[c]: total for c, total in left_folds_by(stall, core)
            },
        )


class PoseidonSimulator:
    """Schedules compiled operator programs on the modelled hardware."""

    def __init__(self, config: HardwareConfig | None = None):
        self.config = config or HardwareConfig()
        self.cores = CoreModel(self.config)
        self.memory = MemoryModel(self.config)

    # ------------------------------------------------------------------
    def run(self, program: "OperatorProgram") -> SimulationResult:
        """Simulate a compiled program and return aggregate statistics.

        The closed-system special case of :class:`ScheduleEngine`: one
        submission at t=0, drained to completion.
        """
        engine = ScheduleEngine(
            self.config, cores=self.cores, memory=self.memory
        )
        engine.submit(program.tasks)
        engine.drain()
        result = engine.result()

        reg = metrics.active()
        if reg is not None:
            self._record_metrics(
                reg,
                result.task_records,
                result.total_seconds,
                result.hbm_busy_seconds,
                result.core_busy_seconds,
                result.core_stall_seconds,
            )
        return result

    @staticmethod
    def _record_metrics(
        reg, records, makespan, hbm_busy, core_busy, core_stall
    ) -> None:
        """Publish one run's spans into the active metrics registry.

        Kept out of the scheduling loop so the disabled path costs a
        single ``metrics.active()`` check per run. ``records`` is a
        :class:`TaskRecords`, read by column: the histograms observe
        every task in order, the counters add per-label task counts
        and the byte total.
        """
        reg.counter("sim.tasks").inc(len(records))
        reg.gauge("sim.makespan_seconds").set(makespan)
        reg.gauge("sim.hbm.busy_seconds").set(hbm_busy)
        for core, busy in core_busy.items():
            reg.counter(f"sim.core.{core}.busy_seconds").inc(busy)
        for core, stall in core_stall.items():
            reg.counter(f"sim.core.{core}.stall_seconds").inc(stall)
        wait = reg.histogram("sim.task.queue_wait_seconds")
        busy_h = reg.histogram("sim.task.busy_seconds")
        stall_h = reg.histogram("sim.task.stall_seconds")
        reg.counter("sim.hbm.bytes").inc(int(records.hbm_bytes.sum()))
        for w, held, stall in zip(
            records.queue_wait_seconds.tolist(),
            (records.end - records.start).tolist(),
            records.stall_seconds.tolist(),
        ):
            wait.observe(w)
            busy_h.observe(held)
            stall_h.observe(stall)
        tasks = np.bincount(
            records.label_code, minlength=len(records.label_names)
        ).tolist()
        for label, count in zip(records.label_names, tasks):
            if count:
                reg.counter(f"sim.op.{label}.tasks").inc(count)

    # ------------------------------------------------------------------
    def run_ops(self, ops) -> SimulationResult:
        """Convenience: compile an op stream then simulate it."""
        from repro.compiler.program import compile_trace

        return self.run(compile_trace(ops))

    def operation_seconds(self, op) -> float:
        """Makespan of a single basic operation (Table IV latencies)."""
        return self.run_ops([op]).total_seconds

    def operations_per_second(self, op) -> float:
        """Steady-state throughput of one basic operation."""
        seconds = self.operation_seconds(op)
        if seconds <= 0:
            raise SchedulingError("operation simulated to zero time")
        return 1.0 / seconds

    def sustained_throughput(self, op, *, batch: int = 8) -> float:
        """Throughput of a pipelined batch of independent operations.

        Independent instances overlap across core arrays and the HBM,
        so the sustained rate can exceed 1/latency — the number a
        served accelerator actually delivers (and closer to how
        hardware papers report ops/s).
        """
        from repro.compiler.program import compile_trace

        if batch < 1:
            raise SchedulingError(f"batch must be >= 1, got {batch}")
        program = compile_trace([op] * batch, op_parallel=True)
        result = self.run(program)
        if result.total_seconds <= 0:
            raise SchedulingError("batch simulated to zero time")
        return batch / result.total_seconds


# ----------------------------------------------------------------------
def in_order_makespan(
    program: "OperatorProgram", config: HardwareConfig | None = None
) -> float:
    """Makespan under the legacy one-pass in-order scheduler.

    This is the pre-event-driven engine, kept verbatim as a comparison
    oracle: it reserves the (single, fully serialized) HBM channel and
    each core array in *submission* order, so a ready later task can
    sit blocked behind a stalled earlier one. Tests use it to show that
    the out-of-order scheduler removes that head-of-line blocking (its
    makespan should not exceed this one on the paper workloads).
    """
    config = config or HardwareConfig()
    cores = CoreModel(config)
    memory = MemoryModel(config)
    tasks = program.tasks
    finish = [0.0] * len(tasks)
    core_free: dict[str, float] = {name: 0.0 for name in CORE_ARRAYS}
    hbm_free = 0.0
    makespan = 0.0
    for i, task in enumerate(tasks):
        timing = cores.task_cycles(task)
        if timing.core not in core_free:
            raise SchedulingError(
                f"task {i} targets unknown core {timing.core!r}"
            )
        compute = timing.cycles * config.cycle_seconds
        mem = memory.task_timing(task)
        deps_done = 0.0
        for dep in task.depends_on:
            if dep < 0 or dep >= i:
                raise SchedulingError(
                    f"task {i} has forward/invalid dependency {dep}"
                )
            deps_done = max(deps_done, finish[dep])
        hbm_start = max(deps_done, hbm_free)
        hbm_free = hbm_start + mem.hbm_seconds
        start = max(deps_done, core_free[timing.core])
        duration = max(compute, mem.spad_seconds)
        task_end = max(start + duration, hbm_free)
        core_free[timing.core] = task_end
        finish[i] = task_end
        makespan = max(makespan, task_end)
    return makespan
