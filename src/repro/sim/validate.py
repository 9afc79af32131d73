"""Schedule-invariant validator for simulated runs.

Checks a committed :class:`~repro.sim.engine.SimulationResult` against
the physical invariants the event-driven scheduler must uphold:

1. **No overlap per core instance** — one task at a time on each
   instance of each operator core array, and every task on an instance
   the configuration has (``[0, config.instances_of(core))``).
2. **No HBM over-subscription** — at every instant the pseudo-channel
   slots engaged by concurrent transfers sum to at most
   ``config.hbm_channels``; tasks with zero off-chip traffic never
   occupy a channel.
3. **Dependencies respected** — a task neither starts on its core nor
   begins its HBM stream before every dependency has finished. This
   needs the tasks behind the records: either the compiled ``program``
   of a one-shot run, or a served engine's ``spans`` — each
   submission's ``(base, tasks)`` from
   :meth:`~repro.sim.engine.ScheduleEngine.spans`, with dependency
   indices local to the submission. A program is the single span
   ``(0, program.tasks)``; the spans must tile the records in order,
   and a local dependency ``d`` of task ``j`` is record ``base + d``.
4. **Conservation** — per task, ``end - start == busy + stall``; per
   core array, held time + idle time == configured instances x
   makespan; the per-core busy/stall aggregates match the record sums.

All comparisons use a tolerance relative to the makespan, since the
schedule's floats are sums of ~1e-3 s spans. Violations raise
:class:`~repro.errors.SimulationError` with the offending task index.

Used by the scheduler tests, by the simulated measurements of
``benchmarks/baseline.py`` (so every exact baseline pin self-checks),
by :meth:`repro.serve.ClusterResult.validate` (per instance epoch,
from its spans) and behind the CLI's ``--validate`` flag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ParameterError, SimulationError
from repro.sim.config import HardwareConfig
from repro.sim.engine import SimulationResult, left_folds_by
from repro.sim.tasks import TaskTable

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from collections.abc import Sequence

    from repro.compiler.program import OperatorProgram
    from repro.sim.tasks import OperatorTask


def validate_program(program: "OperatorProgram") -> None:
    """Static sanity check of a compiled program's task DAG.

    Verifies what must hold *before* any simulation — used by the
    compiler pass tests and benchmarks to reject a malformed rewrite
    without paying for a run:

    - every dependency index is in range and strictly backward (the
      task list is topologically ordered by construction, so this is
      also the acyclicity proof);
    - op boundaries partition ``[0, task_count)`` in order with
      non-empty spans, so per-op attribution (Fig. 7-9) stays
      coherent after any rewrite.

    Raises:
        SimulationError: on the first violated property.
    """
    tasks = program.tasks
    rows = np.repeat(np.arange(len(tasks)), np.diff(tasks.dep_offsets))
    bad = np.flatnonzero((tasks.dep_index < 0) | (tasks.dep_index >= rows))
    if len(bad):
        raise SimulationError(
            f"task {rows[bad[0]].item()} depends on "
            f"{tasks.dep_index[bad[0]].item()}: "
            "dependencies must be strictly backward in-range indices"
        )
    cursor = 0
    for oi, (start, end) in enumerate(program.op_boundaries):
        if start != cursor or end <= start:
            raise SimulationError(
                f"op {oi} boundary ({start}, {end}) does not continue "
                f"the partition at {cursor}"
            )
        cursor = end
    if cursor != len(tasks):
        raise SimulationError(
            f"op boundaries cover {cursor} tasks, program has "
            f"{len(tasks)}"
        )
    if len(program.op_boundaries) != len(program.source_ops):
        raise SimulationError(
            f"{len(program.op_boundaries)} boundary spans for "
            f"{len(program.source_ops)} source ops"
        )


def _check_record(i: int, rec, makespan: float, eps: float,
                  config: HardwareConfig) -> None:
    """The per-task checks on one record; raises on the first failed."""
    if rec.end < rec.start - eps:
        raise SimulationError(f"task {i}: end {rec.end} < start {rec.start}")
    if rec.end > makespan + eps:
        raise SimulationError(
            f"task {i}: end {rec.end} exceeds makespan {makespan}"
        )
    if rec.start < rec.ready_seconds - eps:
        raise SimulationError(
            f"task {i}: started at {rec.start} before ready "
            f"{rec.ready_seconds}"
        )
    held = rec.end - rec.start
    busy = held - rec.stall_seconds
    if rec.stall_seconds < -eps or busy < -eps:
        raise SimulationError(
            f"task {i}: busy/stall split ({busy}, {rec.stall_seconds}) "
            f"does not conserve held time {held}"
        )
    if rec.hbm_bytes == 0:
        if rec.hbm_seconds or rec.hbm_channels_used:
            raise SimulationError(
                f"task {i}: moves no bytes but claims HBM time "
                f"{rec.hbm_seconds} on {rec.hbm_channels_used} channels"
            )
        if rec.hbm_start or rec.hbm_end:
            raise SimulationError(
                f"task {i}: moves no bytes but occupies the HBM span "
                f"[{rec.hbm_start}, {rec.hbm_end}]"
            )
    else:
        if rec.hbm_channels_used < 1:
            raise SimulationError(
                f"task {i}: moves {rec.hbm_bytes} bytes on zero channels"
            )
        if rec.hbm_channels_used > config.hbm_channels:
            raise SimulationError(
                f"task {i}: uses {rec.hbm_channels_used} channels, "
                f"budget is {config.hbm_channels}"
            )
        if rec.hbm_start < rec.ready_seconds - eps:
            raise SimulationError(
                f"task {i}: HBM stream granted at {rec.hbm_start} "
                f"before ready {rec.ready_seconds}"
            )
        if rec.hbm_end < rec.hbm_start - eps:
            raise SimulationError(
                f"task {i}: HBM span [{rec.hbm_start}, {rec.hbm_end}] "
                "is reversed"
            )
        if rec.hbm_end > rec.end + eps:
            raise SimulationError(
                f"task {i}: HBM stream ends at {rec.hbm_end} after "
                f"task end {rec.end}"
            )


def validate_schedule(
    result: SimulationResult,
    *,
    program: "OperatorProgram | None" = None,
    spans: "Sequence[tuple[int, Sequence[OperatorTask]]] | None" = None,
    config: HardwareConfig | None = None,
    rel_eps: float = 1e-9,
) -> None:
    """Check every schedule invariant; raise on the first violation.

    The checks run on the record columns, elementwise; the first
    flagged task (in the order a task-by-task walk would meet it) is
    then re-checked on its own record to raise that walk's error.

    Args:
        result: the committed schedule to check.
        program: the compiled program a one-shot run executed; enables
            the dependency-ordering check (record ``i`` corresponds to
            ``program.tasks[i]``). The same as ``spans=((0,
            program.tasks),)``.
        spans: a served engine's submissions as ``(base, tasks)``
            pairs (:meth:`~repro.sim.engine.ScheduleEngine.spans`);
            enables the dependency-ordering check (record ``base + j``
            corresponds to ``tasks[j]``, whose dependency indices are
            local to ``tasks``). ``tasks`` is a task table or a list of
            tasks. Give ``program`` or ``spans``, not both.
        config: hardware configuration of the run: its HBM channel
            budget and core instance counts. Defaults to the paper
            configuration.
        rel_eps: tolerance as a fraction of the makespan.

    Raises:
        SimulationError: on any violated invariant.
        ParameterError: when both ``program`` and ``spans`` are given.
    """
    if program is not None:
        if spans is not None:
            raise ParameterError("pass program= or spans=, not both")
        spans = ((0, program.tasks),)
    config = config or HardwareConfig()
    records = result.task_records
    n = len(records)
    makespan = result.total_seconds
    eps = max(1e-15, rel_eps * makespan)
    start, end = records.start, records.end
    ready, stall = records.ready_seconds, records.stall_seconds
    hbm_start, hbm_end = records.hbm_start, records.hbm_end
    channels = records.hbm_channels_used
    moves = records.hbm_bytes != 0

    # --- per-task sanity + conservation -------------------------------
    held = end - start
    busy = held - stall
    flagged = (
        (end < start - eps) | (end > makespan + eps) | (start < ready - eps)
        | (stall < -eps) | (busy < -eps)
        | np.where(
            moves,
            (channels < 1) | (channels > config.hbm_channels)
            | (hbm_start < ready - eps) | (hbm_end < hbm_start - eps)
            | (hbm_end > end + eps),
            (records.hbm_seconds != 0) | (channels != 0)
            | (hbm_start != 0) | (hbm_end != 0),
        )
    )
    for i in np.flatnonzero(flagged).tolist():
        _check_record(i, records[i], makespan, eps, config)

    # --- no overlap per (core, instance) ------------------------------
    # Instances are checked in order of their first task, each one's
    # tasks in (start, end, index) order.
    cores = records.core_names
    instance = records.instance - (records.instance.min() if n else 0)
    group = records.core_code * (int(instance.max()) + 1 if n else 1) + instance
    order = np.lexsort((np.arange(n), end, start, group))
    same = group[order][1:] == group[order][:-1]
    clash = same & (start[order][1:] < end[order][:-1] - eps)
    groups, first = np.unique(group, return_index=True)
    instances = {}
    for g, i in sorted(zip(groups.tolist(), first.tolist()),
                       key=lambda pair: pair[1]):
        core = cores[records.core_code[i]]
        instance = records.instance.item(i)
        count = instances.setdefault(core, config.instances_of(core))
        if not 0 <= instance < count:
            raise SimulationError(
                f"task {np.flatnonzero(group == g)[0]} ran on {core}"
                f"#{instance}, but the configuration has "
                f"{count} {core} instance(s)"
            )
        pairs = np.flatnonzero(clash & (group[order][1:] == g))
        if len(pairs):
            i0, i1 = order[pairs[0]].item(), order[pairs[0] + 1].item()
            raise SimulationError(
                f"core {core}#{instance} double-booked: task {i0} "
                f"[{start[i0]:.3e}, {end[i0]:.3e}] overlaps task {i1} "
                f"[{start[i1]:.3e}, {end[i1]:.3e}]"
            )

    # --- HBM channel budget -------------------------------------------
    # Sweep transfer edges; at every instant the engaged channel slots
    # must fit the budget. Shrink each span by eps so abutting
    # transfers (one ends exactly when the next starts) don't double
    # count.
    streams = moves & (hbm_end - hbm_start > eps)
    times = np.concatenate((hbm_start[streams] + eps, hbm_end[streams] - eps))
    deltas = np.concatenate((channels[streams], -channels[streams]))
    order = np.lexsort((deltas, times))
    engaged = np.cumsum(deltas[order])
    over = np.flatnonzero(engaged > config.hbm_channels)
    if len(over):
        k = over[0]
        raise SimulationError(
            f"HBM over-subscribed at t={times[order][k]:.3e}: {engaged[k].item()} "
            f"channel slots engaged, budget is {config.hbm_channels}"
        )

    # --- dependency ordering ------------------------------------------
    # The spans tile the records in order; task ``j`` of the span at
    # ``base`` is record ``base + j``, and its local dependency ``d``
    # (which must lie in ``[0, j)``) is record ``base + d``.
    if spans is not None:
        spans = [(base, TaskTable.from_tasks(tasks)) for base, tasks in spans]
        covered = 0
        for base, tasks in spans:
            if base != covered:
                raise SimulationError(
                    f"span at base {base} does not continue the tiling "
                    f"of the records at {covered}"
                )
            covered += len(tasks)
        if covered != n:
            raise SimulationError(
                f"spans cover {covered} tasks but the result recorded "
                f"{n}"
            )
        if spans:
            _check_dependencies(spans, records, eps)

    # --- aggregate consistency ----------------------------------------
    busy_sum = dict(
        (cores[c], total) for c, total in left_folds_by(busy, records.core_code)
    )
    stall_sum = dict(
        (cores[c], total) for c, total in left_folds_by(stall, records.core_code)
    )
    agg_eps = max(eps, rel_eps * makespan * max(1, n))
    for core, value in result.core_busy_seconds.items():
        if abs(value - busy_sum.get(core, 0.0)) > agg_eps:
            raise SimulationError(
                f"core {core}: core_busy_seconds {value} != record sum "
                f"{busy_sum.get(core, 0.0)}"
            )
    for core, value in result.core_stall_seconds.items():
        if abs(value - stall_sum.get(core, 0.0)) > agg_eps:
            raise SimulationError(
                f"core {core}: core_stall_seconds {value} != record sum "
                f"{stall_sum.get(core, 0.0)}"
            )
    # Per-core conservation: held + idle spans the configured
    # instances' makespan.
    for core, count in instances.items():
        total = busy_sum[core] + stall_sum[core]
        capacity = count * makespan
        if total > capacity + agg_eps:
            raise SimulationError(
                f"core {core}: held time {total} exceeds capacity "
                f"{capacity} ({count} instance(s) x makespan)"
            )


def _check_dependencies(spans, records, eps: float) -> None:
    """No record starts, or streams, before its dependencies end.

    ``spans`` tile the records; every span's dependency CSR is checked
    at once, and the first failing entry (span, task, dependency order)
    raises."""
    counts = np.concatenate([np.diff(t.dep_offsets) for _, t in spans])
    deps = np.concatenate([t.dep_index for _, t in spans])
    bases = np.repeat(
        [base for base, _ in spans], [len(t) for _, t in spans]
    )
    task = np.repeat(np.arange(len(counts)), counts)  # global record
    base = bases[task]
    j = task - base
    outside = (deps < 0) | (deps >= j)
    dep = np.where(outside, task, base + deps)
    dep_end = records.end[dep]
    early = records.start[task] < dep_end - eps
    streamed = (
        (records.hbm_bytes[task] != 0)
        & (records.hbm_start[task] < dep_end - eps)
    )
    bad = np.flatnonzero(outside | early | streamed)
    if not len(bad):
        return
    k = bad[0]
    i, d, b = int(task[k]), int(deps[k]), int(base[k])
    if outside[k]:
        raise SimulationError(
            f"task {i} depends on local index {d}, "
            f"outside [0, {i - b}) of its span at base {b}"
        )
    if early[k]:
        raise SimulationError(
            f"task {i} started at {records.start.item(i)} "
            f"before dependency {b + d} finished at {dep_end.item(k)}"
        )
    raise SimulationError(
        f"task {i} streamed at {records.hbm_start.item(i)} "
        f"before dependency {b + d} finished at {dep_end.item(k)}"
    )
