"""Compiler pass pipeline over the lowered task graph.

``compile_trace`` lowers each FHE basic operation independently and, by
default, sequences operations behind pipeline-drain barriers. That is
the conservative model — Poseidon's dataflow planning does better by
exploiting cross-op structure. This module is that layer: a
:class:`ProgramDraft` sits between ``decompose_operation`` and
:class:`~repro.compiler.program.OperatorProgram` assembly, and a
configurable pipeline of named passes rewrites it.

Shipped passes (default order):

- ``hoist-rotations`` — rewrite runs of consecutive rotations of the
  same ciphertext into hoisted-rotation graphs that share the first
  rotation's digit decomposition (ModUp reuse).
- ``relax-barriers`` — replace the inter-op drain barrier with true
  producer->consumer edges derived from declared ciphertext ``reads``/
  ``writes`` annotations, so independent chains overlap under the OOO
  engine. Unannotated ops remain full barriers.
- ``fuse-elementwise`` — hand adjacent elementwise MA/MM results over
  in the scratchpad: the producer's HBM write and the consumer's
  re-read of it are elided when the value has exactly one consumer.
- ``dce`` — drop tasks whose results are never consumed on-chip and
  never written back to HBM.

Passes report per-pass task/byte deltas through the active
:mod:`repro.obs` metrics registry under ``compiler.pass.<name>.*``.

The shape follows the classic pass-list idiom: a pipeline is a tuple
of registered pass names, ``apply_pipeline`` folds it over a draft,
and callers select pipelines by spec string (``"none"``, ``"default"``,
or a comma-separated pass list).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from repro.compiler.decompose import decompose_operation
from repro.compiler.ops import FheOp, FheOpName
from repro.errors import WorkloadError
from repro.obs import metrics
from repro.sim.tasks import OperatorKind, OperatorTask, TaskTable, offsets

#: Meta keys carrying dataflow annotations (ciphertext value tokens).
#: They drive ``relax-barriers``/``hoist-rotations`` and are ignored by
#: every lowering, so annotated and bare ops lower identically.
ANNOTATION_KEYS = ("reads", "writes")


# ----------------------------------------------------------------------
# The inter-stage IR
# ----------------------------------------------------------------------
@dataclass
class ProgramDraft:
    """Mutable whole-program IR the passes rewrite.

    Attributes:
        ops: the (possibly rewritten) source operations.
        task_lists: per-op task lists; ``depends_on`` indices are local
            to each list.
        op_deps: per-op sets of producer op indices. At assembly, each
            op's entry tasks (no local deps) gain a dependency on the
            sink task of every producer. The default is the serial
            chain ``{i-1}`` (the drain-barrier model); ``op_parallel``
            traces start with no edges at all.
        pinned_deps: op edges that must survive every pass (e.g. a
            hoisted rotation's edge to the rotation whose digit
            decomposition it reuses). ``relax-barriers`` rebuilds
            ``op_deps`` from annotations but always unions these back.
        op_parallel: the trace was compiled for independent streams.
    """

    ops: list[FheOp]
    task_lists: list[list[OperatorTask]]
    op_deps: list[set[int]]
    pinned_deps: list[set[int]] = field(default_factory=list)
    op_parallel: bool = False

    def __post_init__(self):
        if not self.pinned_deps:
            self.pinned_deps = [set() for _ in self.ops]

    @classmethod
    def from_ops(
        cls, ops: list[FheOp], *, op_parallel: bool = False
    ) -> "ProgramDraft":
        """Lower every op and wire the default sequencing edges."""
        task_lists = [decompose_operation(op) for op in ops]
        if op_parallel:
            op_deps = [set() for _ in ops]
        else:
            op_deps = [({i - 1} if i else set()) for i in range(len(ops))]
        return cls(
            ops=list(ops),
            task_lists=task_lists,
            op_deps=op_deps,
            op_parallel=op_parallel,
        )

    def effective_deps(self, index: int) -> set[int]:
        """Op-level producers of op ``index`` (pass edges + pinned)."""
        return self.op_deps[index] | self.pinned_deps[index]

    def consumers(self) -> list[set[int]]:
        """Inverse of :meth:`effective_deps`: who reads each op."""
        out: list[set[int]] = [set() for _ in self.ops]
        for i in range(len(self.ops)):
            for p in self.effective_deps(i):
                out[p].add(i)
        return out

    def assemble(
        self,
    ) -> tuple[TaskTable, tuple[tuple[int, int], ...]]:
        """Flatten to one topologically ordered task table + boundaries.

        Entry tasks of op ``i`` depend on the sink (last) task of every
        producer in ``effective_deps(i)``; sink-transitivity makes that
        sufficient for whole-op ordering. With the default serial
        chain this reproduces the legacy drain-barrier assembly
        byte for byte.

        The table is written one op block at a time
        (:meth:`TaskTable.stack`): placing a block adds its offset to
        its dependency column and gives its entry rows the barrier, so
        no task is copied. Ops whose lists hold the same task objects
        (every unrewritten op of one lowering-cache entry) share one
        converted block.
        """
        slot_of: dict[tuple[int, ...], int] = {}
        distinct: list[list[OperatorTask]] = []
        slots = []
        for tasks in self.task_lists:
            key = tuple(map(id, tasks))
            slot = slot_of.get(key)
            if slot is None:
                slot = slot_of[key] = len(distinct)
                distinct.append(tasks)
            slots.append(slot)
        n = len(self.task_lists)
        ends = offsets(list(map(len, self.task_lists)))[1:]
        # Op i's barrier: the sinks of its producers p < i (op edges and
        # pinned edges, each producer once), ascending. Sinks ascend
        # with the producer, so (op, producer) order is barrier order.
        edges = [self.op_deps, self.pinned_deps]
        op = np.concatenate([
            np.repeat(np.arange(n), list(map(len, deps))) for deps in edges
        ])
        edge = np.sort(op * n + np.fromiter(
            chain.from_iterable(chain.from_iterable(edges)), np.int64
        ))
        op, producer = np.divmod(edge, n) if n else (edge, edge)
        keep = producer < op
        keep[1:] &= edge[1:] != edge[:-1]
        library = TaskTable.from_tasks(chain.from_iterable(distinct))
        table = library.stack(
            offsets(list(map(len, distinct))), slots,
            offsets(np.bincount(op[keep], minlength=n)),
            ends[producer[keep]] - 1,
        )
        ends = ends.tolist()
        return table, tuple(zip([0, *ends[:-1]], ends))


def _tokens(op: FheOp, key: str) -> tuple[str, ...] | None:
    """Normalized annotation tokens, or None when undeclared."""
    value = op.get_meta(key)
    if value is None:
        return None
    if isinstance(value, str):
        return (value,)
    return tuple(value)


# ----------------------------------------------------------------------
# Pass: hoist-rotations
# ----------------------------------------------------------------------
def hoist_rotations_pass(draft: ProgramDraft) -> dict[str, int]:
    """Rewrite repeated rotations of one ciphertext to hoisted graphs.

    A run of >= 2 consecutive ``Rotation`` ops at the same shape whose
    declared ``reads`` are identical (and disjoint from their
    ``writes``) all rotate the same ciphertext value: rotations 2..k
    can reuse the first one's digit decomposition + extended-basis
    NTTs. They are re-lowered as ``HoistedRotation`` and pinned behind
    the first (cold) rotation, which is what makes the reuse legal
    even after ``relax-barriers`` rebuilds the op edges.
    """
    stats = {"rotations_hoisted": 0, "tasks_removed": 0,
             "elements_removed": 0}
    ops = draft.ops
    i = 0
    while i < len(ops):
        run = [i]
        if ops[i].name is FheOpName.ROTATION:
            src = _tokens(ops[i], "reads")
            dst = _tokens(ops[i], "writes")
            if src and dst and not set(src) & set(dst):
                j = i + 1
                while j < len(ops):
                    cand = ops[j]
                    if cand.name is not FheOpName.ROTATION:
                        break
                    if (cand.degree, cand.level, cand.aux_limbs) != (
                        ops[i].degree, ops[i].level, ops[i].aux_limbs
                    ):
                        break
                    c_src = _tokens(cand, "reads")
                    c_dst = _tokens(cand, "writes")
                    if c_src != src or not c_dst or set(c_src) & set(c_dst):
                        break
                    run.append(j)
                    j += 1
        if len(run) >= 2:
            for k in run[1:]:
                old = draft.task_lists[k]
                hoisted = FheOp(
                    name=FheOpName.HOISTED_ROTATION,
                    degree=ops[k].degree,
                    level=ops[k].level,
                    aux_limbs=ops[k].aux_limbs,
                    meta=ops[k].meta,
                )
                new = decompose_operation(hoisted)
                draft.ops[k] = hoisted
                draft.task_lists[k] = new
                draft.pinned_deps[k].add(run[0])
                draft.op_deps[k].add(run[0])
                stats["rotations_hoisted"] += 1
                stats["tasks_removed"] += len(old) - len(new)
                stats["elements_removed"] += (
                    sum(t.elements for t in old)
                    - sum(t.elements for t in new)
                )
        i = run[-1] + 1
    return stats


# ----------------------------------------------------------------------
# Pass: relax-barriers
# ----------------------------------------------------------------------
def relax_barriers_pass(draft: ProgramDraft) -> dict[str, int]:
    """Replace drain barriers with true dataflow edges.

    Ops declaring ciphertext ``reads``/``writes`` tokens get exact
    RAW/WAW/WAR edges; an op declaring neither is a full barrier (it
    may touch anything), which keeps fully-unannotated traces on the
    legacy serial chain. ``op_parallel`` traces have no barriers to
    relax and are left untouched.
    """
    stats = {"ops_relaxed": 0, "barrier_edges_removed": 0}
    if draft.op_parallel:
        return stats
    last_writer: dict[str, int] = {}
    readers: dict[str, set[int]] = {}
    undominated: set[int] = set()
    last_barrier = -1
    new_deps: list[set[int]] = []
    for i, op in enumerate(draft.ops):
        reads = _tokens(op, "reads")
        writes = _tokens(op, "writes")
        deps: set[int] = set()
        if reads is None and writes is None:
            # Barrier op: waits for every unconsumed predecessor and
            # resets the token tables (it may have written anything).
            deps = set(undominated)
            if not deps and last_barrier >= 0:
                deps = {last_barrier}
            last_writer.clear()
            readers.clear()
            last_barrier = i
        else:
            for t in reads or ():
                w = last_writer.get(t)
                if w is not None:
                    deps.add(w)
                elif last_barrier >= 0:
                    deps.add(last_barrier)
            for t in writes or ():
                w = last_writer.get(t)
                if w is not None:
                    deps.add(w)
                elif last_barrier >= 0:
                    deps.add(last_barrier)
                deps.update(r for r in readers.get(t, ()) if r != i)
            for t in writes or ():
                last_writer[t] = i
                readers[t] = set()
            for t in reads or ():
                readers.setdefault(t, set()).add(i)
        deps |= draft.pinned_deps[i]
        deps.discard(i)
        undominated -= deps
        undominated.add(i)
        new_deps.append(deps)
        if deps != ({i - 1} if i else set()):
            stats["ops_relaxed"] += 1
        if i and (i - 1) not in deps:
            stats["barrier_edges_removed"] += 1
    draft.op_deps = new_deps
    return stats


# ----------------------------------------------------------------------
# Pass: fuse-elementwise
# ----------------------------------------------------------------------
_ELEMENTWISE = (OperatorKind.MA, OperatorKind.MM)


def fuse_elementwise_pass(draft: ProgramDraft) -> dict[str, int]:
    """Keep single-consumer elementwise results scratchpad-resident.

    When op ``p``'s sink task is an elementwise MA/MM that writes its
    result to HBM and exactly one op ``r`` consumes it through an
    elementwise entry task of the same operand shape, the value can be
    handed over in the scratchpad instead: the producer's HBM write is
    dropped and the consumer's read shrinks by the handed-over bytes.
    The last op of the program is never fused (its write is the
    program output), and multi-consumer values keep their HBM copy.
    """
    stats = {"tasks_fused": 0, "hbm_bytes_elided": 0}
    consumers = draft.consumers()
    last = len(draft.ops) - 1
    for p, users in enumerate(consumers):
        if p == last or len(users) != 1:
            continue
        (r,) = users
        producer_tasks = draft.task_lists[p]
        sink = producer_tasks[-1]
        if sink.kind not in _ELEMENTWISE or sink.hbm_write_bytes <= 0:
            continue
        reader_tasks = draft.task_lists[r]
        entry_idx = None
        for idx, task in enumerate(reader_tasks):
            if (
                not task.depends_on
                and task.kind in _ELEMENTWISE
                and task.hbm_read_bytes > 0
                and task.degree == sink.degree
                and task.limbs == sink.limbs
            ):
                entry_idx = idx
                break
        if entry_idx is None:
            continue
        entry = reader_tasks[entry_idx]
        write = sink.hbm_write_bytes
        elided = write + min(write, entry.hbm_read_bytes)
        producer_tasks[-1] = replace(sink, hbm_write_bytes=0)
        reader_tasks[entry_idx] = replace(
            entry,
            hbm_read_bytes=max(0, entry.hbm_read_bytes - write),
        )
        stats["tasks_fused"] += 1
        stats["hbm_bytes_elided"] += elided
    return stats


# ----------------------------------------------------------------------
# Pass: dce
# ----------------------------------------------------------------------
def dead_task_elimination_pass(draft: ProgramDraft) -> dict[str, int]:
    """Drop tasks whose results nothing consumes.

    A task is dead when no other task in its op depends on it, it is
    not the op's sink (the op result the inter-op edges anchor on),
    and it writes nothing back to HBM. Runs to a fixpoint per op; dep
    indices are remapped after each sweep. The stock lowerings emit no
    dead tasks — this pass is the safety net that keeps future
    rewrites (and hand-built drafts) honest.
    """
    stats = {"tasks_removed": 0, "elements_removed": 0}
    for oi, tasks in enumerate(draft.task_lists):
        while True:
            n = len(tasks)
            dependents = [0] * n
            for task in tasks:
                for d in task.depends_on:
                    dependents[d] += 1
            dead = {
                i
                for i in range(n - 1)
                if not dependents[i] and tasks[i].hbm_write_bytes == 0
            }
            if not dead:
                break
            remap: dict[int, int] = {}
            kept: list[OperatorTask] = []
            for i, task in enumerate(tasks):
                if i in dead:
                    stats["tasks_removed"] += 1
                    stats["elements_removed"] += task.elements
                    continue
                remap[i] = len(kept)
                kept.append(task)
            tasks = [
                replace(
                    t,
                    depends_on=tuple(remap[d] for d in t.depends_on),
                )
                if t.depends_on
                else t
                for t in kept
            ]
        draft.task_lists[oi] = tasks
    return stats


# ----------------------------------------------------------------------
# Pipeline composition
# ----------------------------------------------------------------------
#: Registry in canonical application order.
PASS_REGISTRY = {
    "hoist-rotations": hoist_rotations_pass,
    "relax-barriers": relax_barriers_pass,
    "fuse-elementwise": fuse_elementwise_pass,
    "dce": dead_task_elimination_pass,
}


#: The full pipeline, in order.
DEFAULT_PIPELINE = tuple(PASS_REGISTRY)


def resolve_passes(spec) -> tuple[str, ...]:
    """Resolve a pass spec to an ordered pass-name tuple.

    Accepts ``None``/``"none"``/``""`` (no passes), ``"default"`` (the
    whole pipeline), a comma-separated name string, or an iterable of
    names. Unknown names raise :class:`~repro.errors.WorkloadError`.
    """
    if spec is None:
        return ()
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key in ("", "none"):
            return ()
        if key == "default":
            return DEFAULT_PIPELINE
        names = [p for p in (part.strip() for part in key.split(",")) if p]
    else:
        names = [str(p).strip() for p in spec]
    for name in names:
        if name not in PASS_REGISTRY:
            raise WorkloadError(
                f"unknown compiler pass {name!r}; known passes: "
                f"{', '.join(PASS_REGISTRY)} (or 'none'/'default')"
            )
    return tuple(names)


def apply_pipeline(
    draft: ProgramDraft, passes: tuple[str, ...]
) -> ProgramDraft:
    """Run each pass over the draft, reporting per-pass deltas."""
    reg = metrics.active()
    for name in passes:
        stats = PASS_REGISTRY[name](draft)
        if reg is not None:
            reg.counter(f"compiler.passes.{name}.runs").inc()
            for key, value in stats.items():
                if value:
                    reg.counter(f"compiler.passes.{name}.{key}").inc(value)
    return draft
