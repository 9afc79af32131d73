"""Schedule-invariant validator for simulated runs.

Checks a committed :class:`~repro.sim.engine.SimulationResult` against
the physical invariants the event-driven scheduler must uphold:

1. **No overlap per core instance** — one task at a time on each
   instance of each operator core array.
2. **No HBM over-subscription** — at every instant the pseudo-channel
   slots engaged by concurrent transfers sum to at most
   ``config.hbm_channels``; tasks with zero off-chip traffic never
   occupy a channel.
3. **Dependencies respected** — a task neither starts on its core nor
   begins its HBM stream before every dependency has finished
   (requires the ``program``).
4. **Conservation** — per task, ``end - start == busy + stall``; per
   core array, held time + idle time == instances x makespan; the
   per-core busy/stall aggregates match the record sums.

All comparisons use a tolerance relative to the makespan, since the
schedule's floats are sums of ~1e-3 s spans. Violations raise
:class:`~repro.errors.SimulationError` with the offending task index.

Used by the scheduler tests, by the simulated measurements of
``benchmarks/baseline.py`` (so every exact baseline pin self-checks),
and behind the CLI's ``--validate`` flag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.config import HardwareConfig
from repro.sim.engine import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.compiler.program import OperatorProgram


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
    for i, task in enumerate(tasks):
        for dep in task.depends_on:
            if not 0 <= dep < i:
                raise SimulationError(
                    f"task {i} depends on {dep}: dependencies must be "
                    "strictly backward in-range indices"
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


def validate_schedule(
    result: SimulationResult,
    *,
    program: "OperatorProgram | None" = None,
    config: HardwareConfig | None = None,
    rel_eps: float = 1e-9,
) -> None:
    """Check every schedule invariant; raise on the first violation.

    Args:
        result: the committed schedule to check.
        program: the compiled program the run executed; enables the
            dependency-ordering check (record ``i`` corresponds to
            ``program.tasks[i]``).
        config: hardware configuration of the run; enables the HBM
            channel-budget check. Defaults to the paper configuration.
        rel_eps: tolerance as a fraction of the makespan.

    Raises:
        SimulationError: on any violated invariant.
    """
    config = config or HardwareConfig()
    records = result.task_records
    makespan = result.total_seconds
    eps = max(1e-15, rel_eps * makespan)

    # --- per-task sanity + conservation -------------------------------
    for i, rec in enumerate(records):
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

    # --- no overlap per (core, instance) ------------------------------
    by_instance: dict[tuple[str, int], list[tuple[float, float, int]]] = {}
    for i, rec in enumerate(records):
        by_instance.setdefault((rec.core, rec.instance), []).append(
            (rec.start, rec.end, i)
        )
    for (core, instance), spans in by_instance.items():
        spans.sort()
        for (s0, e0, i0), (s1, e1, i1) in zip(spans, spans[1:]):
            if s1 < e0 - eps:
                raise SimulationError(
                    f"core {core}#{instance} double-booked: task {i0} "
                    f"[{s0:.3e}, {e0:.3e}] overlaps task {i1} "
                    f"[{s1:.3e}, {e1:.3e}]"
                )

    # --- HBM channel budget -------------------------------------------
    # Sweep transfer edges; at every instant the engaged channel slots
    # must fit the budget. Shrink each span by eps so abutting
    # transfers (one ends exactly when the next starts) don't double
    # count.
    edges: list[tuple[float, int]] = []
    for rec in records:
        if rec.hbm_bytes and rec.hbm_end - rec.hbm_start > eps:
            edges.append((rec.hbm_start + eps, rec.hbm_channels_used))
            edges.append((rec.hbm_end - eps, -rec.hbm_channels_used))
    edges.sort()
    engaged = 0
    for t, delta in edges:
        engaged += delta
        if engaged > config.hbm_channels:
            raise SimulationError(
                f"HBM over-subscribed at t={t:.3e}: {engaged} channel "
                f"slots engaged, budget is {config.hbm_channels}"
            )

    # --- dependency ordering ------------------------------------------
    if program is not None:
        tasks = program.tasks
        if len(tasks) != len(records):
            raise SimulationError(
                f"program has {len(tasks)} tasks but the result recorded "
                f"{len(records)}"
            )
        for i, (task, rec) in enumerate(zip(tasks, records)):
            for dep in task.depends_on:
                dep_end = records[dep].end
                if rec.start < dep_end - eps:
                    raise SimulationError(
                        f"task {i} started at {rec.start} before "
                        f"dependency {dep} finished at {dep_end}"
                    )
                if rec.hbm_bytes and rec.hbm_start < dep_end - eps:
                    raise SimulationError(
                        f"task {i} streamed at {rec.hbm_start} before "
                        f"dependency {dep} finished at {dep_end}"
                    )

    # --- aggregate consistency ----------------------------------------
    busy_sum: dict[str, float] = {}
    stall_sum: dict[str, float] = {}
    for rec in records:
        held = rec.end - rec.start
        busy_sum[rec.core] = busy_sum.get(rec.core, 0.0) + (
            held - rec.stall_seconds
        )
        stall_sum[rec.core] = stall_sum.get(rec.core, 0.0) + rec.stall_seconds
    agg_eps = max(eps, rel_eps * makespan * max(1, len(records)))
    for core, busy in result.core_busy_seconds.items():
        if abs(busy - busy_sum.get(core, 0.0)) > agg_eps:
            raise SimulationError(
                f"core {core}: core_busy_seconds {busy} != record sum "
                f"{busy_sum.get(core, 0.0)}"
            )
    for core, stall in result.core_stall_seconds.items():
        if abs(stall - stall_sum.get(core, 0.0)) > agg_eps:
            raise SimulationError(
                f"core {core}: core_stall_seconds {stall} != record sum "
                f"{stall_sum.get(core, 0.0)}"
            )
    # Per-core conservation: held + idle spans the instances' makespan.
    instances: dict[str, int] = {}
    for rec in records:
        instances[rec.core] = max(
            instances.get(rec.core, 1), rec.instance + 1
        )
    for core, count in instances.items():
        held = busy_sum[core] + stall_sum[core]
        capacity = count * makespan
        if held > capacity + agg_eps:
            raise SimulationError(
                f"core {core}: held time {held} exceeds capacity "
                f"{capacity} ({count} instance(s) x makespan)"
            )
