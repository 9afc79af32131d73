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
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import SchedulingError
from repro.obs import metrics
from repro.sim.config import CORE_ARRAYS, HardwareConfig
from repro.sim.cores import CoreModel, CoreTiming
from repro.sim.memory import MemoryModel, MemoryTiming, record_memory_metrics
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
        task_records: per-task schedule (ordered as submitted).
        core_stall_seconds: per-core time instances were held but
            stalled on their task's residual HBM stream.
    """

    total_seconds: float
    core_busy_seconds: dict[str, float]
    op_seconds: dict[str, float]
    operator_seconds: dict[str, dict[str, float]]
    hbm_busy_seconds: float
    hbm_bytes: int
    task_records: list[TaskRecord] = field(repr=False, default_factory=list)
    core_stall_seconds: dict[str, float] = field(default_factory=dict)

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


def _merged_length(intervals: list[tuple[float, float]]) -> float:
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


#: Event kinds, ordered so arrivals at a time t are visible before the
#: grant/dispatch passes triggered by releases at the same t, and both
#: before completion notifications at the same t.
_EV_READY = 0
_EV_RELEASE = 1
_EV_COMPLETE = 2

_INF = float("inf")


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

    @property
    def done(self) -> bool:
        return self.finish_seconds is not None


@dataclass(frozen=True, slots=True)
class AdmissionPlan:
    """A task list's cost-model outputs, computed once per list.

    Every FHE basic operation lowers to the same small operator DAG,
    so a served stream admits the same few programs over and over.
    The plan holds what admission derives from a list independently of
    when and where it is admitted: per task, the core timing, the
    memory timing and the *undilated* occupancy ``max(compute,
    scratchpad)``, the de-duplicated local dependencies and the local
    dependents (the tasks that wait on it), plus the list's root
    tasks. Derates (``compute_scale``/``hbm_scale``) apply on top at
    each admission, so a straggler window never leaks into later
    submissions. Indices are local to the list; the engine adds the
    submission's base when it walks them, so an admission copies no
    task and builds no per-task list.

    ``tasks`` keeps the list alive: the engine caches plans by the
    list's identity, and a live object's id cannot be recycled.
    """

    tasks: tuple
    timings: tuple[CoreTiming, ...]
    mems: tuple[MemoryTiming, ...]
    durations: tuple[float, ...]
    deps: tuple[tuple[int, ...], ...]
    dependents: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]

    @classmethod
    def build(cls, tasks, timings, mems, durations, deps) -> "AdmissionPlan":
        """A plan from per-task model outputs; derives the dependents
        and roots from ``deps``."""
        deps = tuple(deps)
        dependents: list[list[int]] = [[] for _ in deps]
        for local, task_deps in enumerate(deps):
            for dep in task_deps:
                dependents[dep].append(local)
        return cls(
            tasks, tuple(timings), tuple(mems), tuple(durations), deps,
            tuple(map(tuple, dependents)),
            tuple(local for local, d in enumerate(deps) if not d),
        )

    @property
    def service_seconds(self) -> float:
        """Serial occupancy of the whole list (left-fold of
        ``durations``, the serving layer's backlog unit)."""
        return left_fold_sum(self.durations)



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
        self._hbm_intervals: list[tuple[float, float]] = []
        self._finished = 0
        # ``epoch`` lets an instance be born mid-run on a shared master
        # clock (cluster autoscaling): the engine starts at that
        # simulated time and rejects submissions from before it, just
        # as if it had idled since t=0.
        self._now = epoch
        # Per-task state, indexed by global task id (grows on submit).
        # ``_tasks`` holds the submitted tasks themselves and
        # ``_dependents`` their local dependents (a plan's own tuples on
        # repeat admissions): both keep indices local to the task's
        # submission, and the owner's ``base`` globalizes them
        # (:meth:`_finalize`, :meth:`spans`).
        self._tasks: list = []
        self._timings: list = []
        self._mems: list = []
        self._durations: list[float] = []
        self._remaining: list[int] = []
        self._dependents: list = []
        self._ready: list[float] = []
        self._start: list[float | None] = []
        self._hbm_span: list[tuple[float, float] | None] = []
        self._end: list[float | None] = []
        self._instance_of: list[int] = []
        self._owner: list[Submission] = []
        # Admission plans by task-tuple identity. A tuple's first
        # undilated admission only records where its tasks landed; the
        # second slices the plan from those arrays, so a one-shot run
        # never holds a second copy of its cost-model outputs.
        self._plans: dict[int, AdmissionPlan] = {}
        self._first_fill: dict[int, tuple[tuple, int]] = {}
        # Cost-model outputs ``(core timing, memory timing, undilated
        # duration)`` by task shape: every field but ``depends_on`` and
        # ``op_label``, which the models never read.
        self._costs: dict[tuple, tuple[CoreTiming, MemoryTiming, float]] = {}
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
        """Admit a task list; its tasks become ready no earlier than
        ``release``.

        Dependency indices in ``tasks`` are local to the list (the
        compiler's convention) and are re-based onto the engine's
        global index space.

        ``compute_scale`` multiplies each task's core occupancy and
        ``hbm_scale`` each transfer's channel time — the fault layer's
        straggler and HBM-degradation derates, applied at admission.
        Both default to 1.0, in which case this path is arithmetically
        untouched (no multiplication happens at all).

        A tuple admitted before reuses its :class:`AdmissionPlan`
        instead of walking its tasks again; the derates apply on top of
        the plan's unscaled values. A list is walked afresh on every
        admission, since it may change between them, but only a task
        shape this engine has not seen before runs the cost models.
        """
        if self._dead:
            raise SchedulingError(
                f"engine crashed at t={self._now}; restart as a fresh "
                "epoch to submit again"
            )
        if compute_scale <= 0 or hbm_scale <= 0:
            raise SchedulingError(
                "derate scales must be positive, got "
                f"compute_scale={compute_scale} hbm_scale={hbm_scale}"
            )
        if release < self._now:
            raise SchedulingError(
                f"cannot submit in the past: release {release} < "
                f"engine time {self._now}"
            )
        base = len(self._tasks)
        submission = Submission(
            index=len(self.submissions),
            base=base,
            count=len(tasks),
            release_seconds=release,
            label=label,
            _remaining=len(tasks),
        )
        self.submissions.append(submission)
        if not tasks:
            submission.finish_seconds = release
            heapq.heappush(
                self._events, (release, _EV_COMPLETE, submission.index)
            )
            return submission
        plan = self._cached_plan(tasks)
        if plan is None:
            try:
                self._fill(
                    tasks, base, release, submission, compute_scale,
                    hbm_scale,
                )
            except BaseException:
                self._rollback(base)
                raise
        else:
            self._admit(
                plan, base, release, submission, compute_scale, hbm_scale
            )
        return submission

    def admission_plan(self, tasks) -> AdmissionPlan:
        """The :class:`AdmissionPlan` of ``tasks`` on this engine's
        models, built on first request and cached for a tuple.

        Like an admission, every call counts the list's memory-model
        metrics (``sim.spad.*``, ``sim.hbm.transfers``,
        ``sim.hbm.channels_used``) once.
        """
        plan = self._cached_plan(tasks)
        if plan is None:
            timings, mems, durations, deps = (
                list(zip(*self._model(tasks, 0))) or [()] * 4
            )
            plan = AdmissionPlan.build(tasks, timings, mems, durations, deps)
            if type(tasks) is tuple:
                self._plans[id(tasks)] = plan
        return plan

    def _model(self, tasks, base: int):
        """Validate and cost each task of a list, yielding ``(core
        timing, memory timing, undilated duration, de-duplicated local
        dependencies)``. ``base`` only numbers tasks in errors.

        The cost models read only a task's shape, so each distinct
        shape is costed once per engine (``_costs``); a repeat replays
        its memory-model metrics instead, so the counters stay per
        task. Dependencies are checked on every task, after the core
        check and before the memory model, so a bad list raises the
        same error and counts the same metrics as per-task costing.
        """
        costs = self._costs
        cycle_seconds = self.config.cycle_seconds
        reg = metrics.active()
        for local, task in enumerate(tasks):
            key = (
                task.kind, task.elements, task.degree, task.limbs,
                task.hbm_read_bytes, task.hbm_write_bytes, task.spad_bytes,
            )
            cost = costs.get(key)
            if cost is None:
                timing = self.cores.task_cycles(task)
                if timing.core not in CORE_ARRAYS:
                    raise SchedulingError(
                        f"task {base + local} targets unknown core "
                        f"{timing.core!r}"
                    )
            deps = task.depends_on
            for dep in deps:
                if dep < 0 or dep >= local:
                    raise SchedulingError(
                        f"task {base + local} has forward/invalid "
                        f"dependency {dep}"
                    )
            if len(deps) > 1:
                deps = tuple(dict.fromkeys(deps))
            if cost is None:
                mem = self.memory.task_timing(task)
                cost = costs[key] = (
                    timing, mem,
                    max(timing.cycles * cycle_seconds, mem.spad_seconds),
                )
            elif reg is not None:
                record_memory_metrics(reg, cost[1])
            yield *cost, deps

    def _cached_plan(self, tasks) -> AdmissionPlan | None:
        """The plan of a tuple admitted before, else ``None``.

        A hit replays the list's memory-model metrics, so counters stay
        per admitted task exactly as if the models had run again.
        """
        if type(tasks) is not tuple:
            return None
        key = id(tasks)
        plan = self._plans.get(key)
        if plan is None:
            first = self._first_fill.pop(key, None)
            if first is None:
                return None
            base = first[1]
            end = base + len(tasks)
            plan = self._plans[key] = AdmissionPlan.build(
                tasks,
                self._timings[base:end],
                self._mems[base:end],
                self._durations[base:end],
                (tuple(dict.fromkeys(t.depends_on)) for t in tasks),
            )
        reg = metrics.active()
        if reg is not None:
            for mem in plan.mems:
                record_memory_metrics(reg, mem)
        return plan

    def _fill(
        self, tasks, base, release, submission, compute_scale, hbm_scale
    ) -> None:
        """First admission of a list: cost it task by task (see
        :meth:`_model`) straight into the engine arrays."""
        dependents: list[list[int]] = []
        for local, (timing, mem, duration, deps) in enumerate(
            self._model(tasks, base)
        ):
            i = base + local
            if hbm_scale != 1.0 and mem.hbm_bytes:
                mem = replace(
                    mem, hbm_seconds=mem.hbm_seconds * hbm_scale
                )
            if compute_scale != 1.0:
                duration *= compute_scale
            self._tasks.append(tasks[local])
            self._timings.append(timing)
            self._mems.append(mem)
            self._durations.append(duration)
            self._remaining.append(len(deps))
            dependents.append([])
            for dep in deps:
                dependents[dep].append(local)
            self._ready.append(release)
            self._start.append(None)
            self._hbm_span.append(
                (0.0, 0.0) if mem.hbm_bytes == 0 else None
            )
            self._end.append(None)
            self._instance_of.append(0)
            self._owner.append(submission)
            if not deps:
                heapq.heappush(self._events, (release, _EV_READY, i))
        self._dependents.extend(dependents)
        if (
            compute_scale == 1.0 and hbm_scale == 1.0
            and type(tasks) is tuple
        ):
            self._first_fill[id(tasks)] = (tasks, base)

    def _rollback(self, base: int) -> None:
        """Undo a :meth:`_fill` that raised part-way: drop the tasks
        from ``base`` on, their queued READY events and the last
        submission, so the engine is as it was before the submit."""
        for arr in (
            self._tasks, self._timings, self._mems, self._durations,
            self._remaining, self._dependents, self._ready, self._start,
            self._hbm_span, self._end, self._instance_of, self._owner,
        ):
            del arr[base:]
        events = self._events
        events[:] = [
            ev for ev in events if ev[1] != _EV_READY or ev[2] < base
        ]
        heapq.heapify(events)
        self.submissions.pop()

    def _admit(
        self, plan, base, release, submission, compute_scale, hbm_scale
    ) -> None:
        """Repeat admission: extend the engine arrays from a plan and
        queue its roots. The tasks and their dependents are the plan's
        own tuples; nothing is copied per task."""
        tasks = plan.tasks
        n = len(tasks)
        self._tasks.extend(tasks)
        self._timings.extend(plan.timings)
        mems = plan.mems
        if hbm_scale != 1.0:
            mems = [
                replace(m, hbm_seconds=m.hbm_seconds * hbm_scale)
                if m.hbm_bytes else m
                for m in mems
            ]
        self._mems.extend(mems)
        if compute_scale != 1.0:
            self._durations.extend(
                [d * compute_scale for d in plan.durations]
            )
        else:
            self._durations.extend(plan.durations)
        self._remaining.extend(map(len, plan.deps))
        self._dependents.extend(plan.dependents)
        events = self._events
        for local in plan.roots:
            heapq.heappush(events, (release, _EV_READY, base + local))
        self._ready.extend([release] * n)
        self._start.extend([None] * n)
        self._hbm_span.extend(
            [None if m.hbm_bytes else (0.0, 0.0) for m in mems]
        )
        self._end.extend([None] * n)
        self._instance_of.extend([0] * n)
        self._owner.extend([submission] * n)

    # -- event processing ----------------------------------------------
    def _push_release(self, t: float) -> None:
        """Queue a release pass at ``t`` unless one is already queued."""
        if t not in self._release_times:
            self._release_times.add(t)
            heapq.heappush(self._events, (t, _EV_RELEASE, -1))

    def _finalize(self, i: int) -> None:
        """Both dispatch and grant committed: the end is known."""
        task_end = max(self._start[i] + self._durations[i],
                       self._hbm_span[i][1])
        self._end[i] = task_end
        core = self._timings[i].core
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
        ready = self._ready
        remaining = self._remaining
        for d in self._dependents[i]:
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
            mem = self._mems[i]
            need = mem.channels_used
            if need > avail:
                deferred.append(entry)
                continue
            done = t + mem.hbm_seconds
            avail -= need
            heapq.heappush(busy, (done, need))
            self._hbm_span[i] = (t, done)
            self._hbm_intervals.append((t, done))
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
                if self._hbm_span[i] is not None:
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
            if self._mems[i].hbm_bytes > 0:
                heapq.heappush(self._hbm_queue, (ready, i))
            core = self._timings[i].core
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
        completion is where it can act.
        """
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
        if at < self._now:
            raise SchedulingError(
                f"cannot crash in the past: {at} < engine time "
                f"{self._now}"
            )
        # Events at exactly ``at`` land before the failure: a task (or
        # submission) finishing at the crash instant survived it.
        self._run_until(at)
        keep = [
            i for i, end in enumerate(self._end)
            if end is not None and end <= at
        ]
        dropped = len(self._tasks) - len(keep)
        self._timings = [self._timings[o] for o in keep]
        self._mems = [self._mems[o] for o in keep]
        self._durations = [self._durations[o] for o in keep]
        self._ready = [self._ready[o] for o in keep]
        self._start = [self._start[o] for o in keep]
        self._hbm_span = [self._hbm_span[o] for o in keep]
        self._end = [self._end[o] for o in keep]
        self._instance_of = [self._instance_of[o] for o in keep]
        self._owner = [self._owner[o] for o in keep]
        # A dead engine processes no more events.
        self._remaining = [0] * len(keep)
        self._dependents = [()] * len(keep)
        self._hbm_intervals = [
            self._hbm_span[i]
            for i in range(len(keep))
            if self._mems[i].hbm_bytes > 0
        ]
        # Re-base every submission onto the truncated index space.
        # Bases are contiguous and ``keep`` ascending, so one cursor
        # walk assigns each kept task to its owning submission; a lost
        # submission keeps its finished prefix (possibly empty). A kept
        # task's dependencies are provably kept (dep end <= task ready
        # <= start <= end <= at) and local to its submission, so its
        # local dependency indices remap within the kept prefix.
        lost = []
        new_tasks = []
        cursor = 0
        for sub in self.submissions:
            sub_end = sub.base + sub.count
            new_base = cursor
            local = {}
            while cursor < len(keep) and keep[cursor] < sub_end:
                old = keep[cursor]
                local[old - sub.base] = cursor - new_base
                task = self._tasks[old]
                if task.depends_on:
                    deps = tuple(local[d] for d in task.depends_on)
                    if deps != task.depends_on:
                        task = replace(task, depends_on=deps)
                new_tasks.append(task)
                cursor += 1
            if sub.finish_seconds is None or sub.finish_seconds > at:
                # Either still running, or committed analytically for
                # a future instant the crash pre-empted — the serving
                # layer never observed the completion, so it is lost.
                sub.finish_seconds = None
                lost.append(sub)
            sub.base = new_base
            sub.count = cursor - new_base
        self._tasks = new_tasks
        self._events.clear()
        self._release_times.clear()
        for queue in self._core_queue.values():
            queue.clear()
        self._hbm_queue.clear()
        self._first_fill.clear()  # its array positions are gone
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
    def spans(self) -> tuple[tuple[int, list], ...]:
        """Every submission's ``(base, tasks)``, in admission order.

        ``tasks`` is a slice of the engine's own task list: the
        submission's tasks, with dependency indices local to it, so
        record ``base + j`` of :meth:`result` is its task ``j`` and a
        local dependency ``d`` is record ``base + d``. The spans tile
        the records in order, and
        :func:`repro.sim.validate.validate_schedule` checks dependency
        ordering across a served run from them; no task is copied.
        """
        tasks = self._tasks
        return tuple(
            (s.base, tasks[s.base:s.base + s.count])
            for s in self.submissions
        )

    def result(self) -> SimulationResult:
        """Aggregate statistics over every submitted task.

        Requires the engine to be drained (every task finished).
        """
        n = len(self._tasks)
        if self._finished != n:
            raise SchedulingError(
                f"engine finished {self._finished}/{n} tasks; call "
                "drain() before result()"
            )
        cfg = self.config
        core_busy: dict[str, float] = defaultdict(float)
        core_stall: dict[str, float] = defaultdict(float)
        op_seconds: dict[str, float] = defaultdict(float)
        operator_seconds: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        hbm_bytes_total = 0
        records: list[TaskRecord] = []
        append = records.append
        cycle_seconds = cfg.cycle_seconds
        makespan = 0.0
        for task, timing, mem, busy, start, end, ready, span, inst in zip(
            self._tasks, self._timings, self._mems, self._durations,
            self._start, self._end, self._ready, self._hbm_span,
            self._instance_of,
        ):
            core = timing.core
            hbm_start, hbm_end = span
            hbm_bytes = mem.hbm_bytes
            # Clamp tiny float-negative residues so stall stays a
            # physical (non-negative) quantity and monotone counters
            # downstream never see a negative increment. (Written as
            # conditionals, these are exactly ``max(0.0, x)``.)
            stall = end - start - busy
            stall = stall if stall > 0.0 else 0.0
            core_wait = start - ready
            core_wait = core_wait if core_wait > 0.0 else 0.0
            hbm_wait = hbm_start - ready if hbm_bytes else 0.0
            hbm_wait = hbm_wait if hbm_wait > 0.0 else 0.0
            if end > makespan:
                makespan = end
            hbm_bytes_total += hbm_bytes
            core_busy[core] += busy
            core_stall[core] += stall
            label = task.op_label or "unlabelled"
            op_seconds[label] += busy
            operator_seconds[label][core] += busy
            append(TaskRecord(
                start, end, core, timing.cycles * cycle_seconds,
                mem.hbm_seconds, hbm_bytes, label,
                core_wait if core_wait >= hbm_wait else hbm_wait,
                hbm_start, hbm_end, inst, ready, stall, core_wait,
                hbm_wait, mem.channels_used if hbm_bytes else 0,
            ))
        return SimulationResult(
            total_seconds=makespan,
            core_busy_seconds=dict(core_busy),
            op_seconds=dict(op_seconds),
            operator_seconds={
                k: dict(v) for k, v in operator_seconds.items()
            },
            hbm_busy_seconds=_merged_length(list(self._hbm_intervals)),
            hbm_bytes=hbm_bytes_total,
            task_records=records,
            core_stall_seconds=dict(core_stall),
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
        single ``metrics.active()`` check per run.
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
        hbm_bytes = reg.counter("sim.hbm.bytes")
        for record in records:
            wait.observe(record.queue_wait_seconds)
            busy_h.observe(record.end - record.start)
            stall_h.observe(record.stall_seconds)
            hbm_bytes.inc(record.hbm_bytes)
            reg.counter(f"sim.op.{record.op_label}.tasks").inc()

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
