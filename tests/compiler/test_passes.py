"""Tests for the compiler pass pipeline (repro.compiler.passes)."""

import itertools
from dataclasses import fields, replace

import pytest

from repro.compiler import compile_trace
from repro.compiler.decompose import decompose_operation
from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.passes import (
    DEFAULT_PIPELINE,
    PASS_REGISTRY,
    ProgramDraft,
    apply_pipeline,
    dead_task_elimination_pass,
    resolve_passes,
)
from repro.errors import WorkloadError
from repro.serve.requests import _keyswitch_ops, _rotations_ops
from repro.sim.engine import PoseidonSimulator
from repro.sim.tasks import OperatorKind, OperatorTask
from repro.sim.validate import validate_program, validate_schedule
from repro.workloads.common import WorkloadBuilder

N, L, AUX = 1 << 14, 10, 2

ALL_COMBOS = [
    dict(zip(PASS_REGISTRY, bits))
    for bits in itertools.product((False, True), repeat=len(PASS_REGISTRY))
]


def small_transform_trace():
    """An annotated two-transform trace (hoisted rotation groups)."""
    wb = WorkloadBuilder(degree=N, start_level=L, aux_limbs=AUX)
    wb.linear_transform(8)
    wb.linear_transform(8)
    return wb.build()


TRACES = {
    "keyswitch-mix": lambda: _keyswitch_ops(),
    "rotations-mix": lambda: _rotations_ops(),
    "linear-transforms": small_transform_trace,
}


# ----------------------------------------------------------------------
# Pipeline resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_none_specs(self):
        assert resolve_passes(None) == ()
        assert resolve_passes("none") == ()
        assert resolve_passes("") == ()

    def test_default_specs(self):
        assert resolve_passes("default") == DEFAULT_PIPELINE
        assert DEFAULT_PIPELINE == (
            "hoist-rotations", "relax-barriers", "fuse-elementwise", "dce"
        )

    def test_comma_list_and_iterable(self):
        assert resolve_passes("dce, relax-barriers") == (
            "dce", "relax-barriers"
        )
        assert resolve_passes(["fuse-elementwise"]) == ("fuse-elementwise",)

    def test_unknown_pass_raises(self):
        for spec in ("loop-unrolling", "all", "full", "off", ["none"]):
            with pytest.raises(WorkloadError):
                resolve_passes(spec)


# ----------------------------------------------------------------------
# Legacy equivalence: passes=None is byte-identical to the old assembly
# ----------------------------------------------------------------------
class TestLegacyAssembly:
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    def test_serial_barrier_chain(self, trace_name):
        """passes=None reproduces the drain-barrier assembly: every
        op's entry tasks depend on exactly the previous op's sink."""
        ops = list(TRACES[trace_name]())
        program = compile_trace(ops)
        validate_program(program)
        for oi, (start, end) in enumerate(program.op_boundaries):
            local = decompose_operation(program.source_ops[oi])
            for li, task in enumerate(local):
                got = program.tasks[start + li]
                if li == 0 or not task.depends_on:
                    expected = (start - 1,) if start else ()
                    if task.depends_on:
                        expected = tuple(
                            d + start for d in task.depends_on
                        )
                    assert got.depends_on == expected
                else:
                    assert got.depends_on == tuple(
                        d + start for d in task.depends_on
                    )

    def test_compile_is_deterministic(self):
        for spec in (None, "default"):
            a = compile_trace(_keyswitch_ops(), passes=spec)
            b = compile_trace(_keyswitch_ops(), passes=spec)
            assert a.tasks == b.tasks
            assert a.op_boundaries == b.op_boundaries


# ----------------------------------------------------------------------
# Equivalence suite over every pass combination
# ----------------------------------------------------------------------
class TestPassCombinations:
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize(
        "combo", ALL_COMBOS,
        ids=lambda c: "+".join(
            k.replace("-", "_") for k, v in c.items() if v
        ) or "none",
    )
    def test_invariants_hold(self, trace_name, combo):
        ops = TRACES[trace_name]()
        pipeline = tuple(n for n in PASS_REGISTRY if combo[n])
        baseline = compile_trace(ops)
        program = compile_trace(ops, passes=pipeline)
        # Static DAG sanity: backward deps (acyclic), boundary
        # partition, op bookkeeping.
        validate_program(program)
        assert len(program.op_boundaries) == len(list(ops))
        # The program output (the last op's sink write) must survive
        # every pass combination.
        assert (
            program.tasks[-1].hbm_write_bytes
            == baseline.tasks[-1].hbm_write_bytes
        )
        assert program.tasks[-1].hbm_write_bytes > 0
        # Dynamic invariants: the schedule stays validator-clean.
        sim = PoseidonSimulator()
        result = sim.run(program)
        validate_schedule(result, program=program, config=sim.config)
        # Without the hoist rewrite, compute totals are preserved
        # (fusion/relax/dce only touch HBM traffic and edges).
        if not combo["hoist-rotations"]:
            assert sum(t.elements for t in program.tasks) == sum(
                t.elements for t in baseline.tasks
            )
            assert len(program.tasks) == len(baseline.tasks)

    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    def test_full_pipeline_never_slower(self, trace_name):
        """The gate the benchmarks enforce, at test scale: the full
        pipeline must not regress the makespan on any suite trace."""
        ops = TRACES[trace_name]()
        sim = PoseidonSimulator()
        none = sim.run(compile_trace(ops)).total_seconds
        full = sim.run(
            compile_trace(ops, passes="default")
        ).total_seconds
        assert full <= none * (1 + 1e-9)

    def test_op_parallel_composes_with_passes(self):
        ops = _rotations_ops()
        program = compile_trace(ops, op_parallel=True, passes="default")
        validate_program(program)
        # Hoisted rotations keep their pinned edge on the cold
        # rotation even though op_parallel drops every barrier.
        start, _ = program.op_boundaries[1]
        cold_sink = program.op_boundaries[0][1] - 1
        assert cold_sink in program.tasks[start].depends_on


def shift_then_replace_assembly(draft):
    """``ProgramDraft.assemble`` as it was before each task was copied
    at most once (the oracle): a shifted copy of every task, then a
    second copy for each entry task behind a barrier."""
    all_tasks, boundaries, sink = [], [], []
    for i, tasks in enumerate(draft.task_lists):
        offset = len(all_tasks)
        barrier = tuple(
            sorted(sink[p] for p in draft.effective_deps(i) if p < i)
        )
        for task in tasks:
            shifted = replace(
                task, depends_on=tuple(d + offset for d in task.depends_on)
            )
            if not shifted.depends_on and barrier:
                shifted = replace(shifted, depends_on=barrier)
            all_tasks.append(shifted)
        boundaries.append((offset, len(all_tasks)))
        sink.append(len(all_tasks) - 1)
    return tuple(all_tasks), tuple(boundaries)


def field_rows(tasks):
    """Every field of every task, with the dependency tuple's type."""
    return [
        (type(t.depends_on), *(getattr(t, f.name) for f in fields(t)))
        for t in tasks
    ]


class TestOneCopyAssembly:
    @pytest.mark.parametrize("op_parallel", (False, True))
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize(
        "combo", ALL_COMBOS,
        ids=lambda c: "+".join(
            k.replace("-", "_") for k, v in c.items() if v
        ) or "none",
    )
    def test_matches_shift_then_replace(self, trace_name, combo,
                                        op_parallel):
        draft = ProgramDraft.from_ops(
            TRACES[trace_name](), op_parallel=op_parallel
        )
        apply_pipeline(draft, tuple(n for n in PASS_REGISTRY if combo[n]))
        tasks, bounds = draft.assemble()
        want_tasks, want_bounds = shift_then_replace_assembly(draft)
        assert bounds == want_bounds
        assert field_rows(tasks) == field_rows(want_tasks)


# ----------------------------------------------------------------------
# Golden per-pass fixtures on the serve mixes
# ----------------------------------------------------------------------
def _totals(program):
    return (
        len(program.tasks),
        sum(t.hbm_read_bytes for t in program.tasks),
        sum(t.hbm_write_bytes for t in program.tasks),
        sum(t.elements for t in program.tasks),
    )


class TestGoldenDeltas:
    """Exact task-count/byte fixtures per pass (keyswitch and
    rotations mixes at the serve shape: N=2^16, L=30, aux=4)."""

    KEYSWITCH = {
        None: (84, 453382272, 97517568, 293404672),
        "hoist-rotations": (84, 453382272, 97517568, 293404672),
        "relax-barriers": (84, 453382272, 97517568, 293404672),
        "fuse-elementwise": (84, 420876416, 65011712, 293404672),
        "dce": (84, 453382272, 97517568, 293404672),
        "default": (84, 420876416, 65011712, 293404672),
    }
    ROTATIONS = {
        None: (164, 760488192, 130023424, 566493184),
        "hoist-rotations": (107, 687350016, 81264640, 420610048),
        "relax-barriers": (164, 760488192, 130023424, 566493184),
        "fuse-elementwise": (164, 760488192, 130023424, 566493184),
        "dce": (164, 760488192, 130023424, 566493184),
        "default": (107, 687350016, 81264640, 420610048),
    }

    @pytest.mark.parametrize("spec", sorted(KEYSWITCH, key=str))
    def test_keyswitch_mix(self, spec):
        program = compile_trace(_keyswitch_ops(), passes=spec)
        assert _totals(program) == self.KEYSWITCH[spec]

    @pytest.mark.parametrize("spec", sorted(ROTATIONS, key=str))
    def test_rotations_mix(self, spec):
        program = compile_trace(_rotations_ops(), passes=spec)
        assert _totals(program) == self.ROTATIONS[spec]


# ----------------------------------------------------------------------
# Individual pass behavior
# ----------------------------------------------------------------------
class TestHoistRotations:
    def test_rewrites_annotated_run(self):
        program = compile_trace(_rotations_ops(), passes="hoist-rotations")
        names = [op.name for op in program.source_ops]
        assert names == [
            FheOpName.ROTATION,
            FheOpName.HOISTED_ROTATION,
            FheOpName.HOISTED_ROTATION,
            FheOpName.HOISTED_ROTATION,
        ]

    def test_unannotated_rotations_untouched(self):
        ops = [
            FheOp.make(FheOpName.ROTATION, N, L, aux_limbs=AUX)
            for _ in range(3)
        ]
        program = compile_trace(ops, passes="hoist-rotations")
        assert all(
            op.name is FheOpName.ROTATION for op in program.source_ops
        )

    def test_different_sources_break_the_run(self):
        ops = [
            FheOp.make(FheOpName.ROTATION, N, L, aux_limbs=AUX,
                       reads=("a",), writes=("a1",)),
            FheOp.make(FheOpName.ROTATION, N, L, aux_limbs=AUX,
                       reads=("b",), writes=("b1",)),
        ]
        program = compile_trace(ops, passes="hoist-rotations")
        assert all(
            op.name is FheOpName.ROTATION for op in program.source_ops
        )

    def test_in_place_rotation_not_hoisted(self):
        # Writing onto the source kills the value the later rotations
        # would need to share.
        ops = [
            FheOp.make(FheOpName.ROTATION, N, L, aux_limbs=AUX,
                       reads=("a",), writes=("a",))
            for _ in range(3)
        ]
        program = compile_trace(ops, passes="hoist-rotations")
        assert all(
            op.name is FheOpName.ROTATION for op in program.source_ops
        )

    def test_hoisted_graph_skips_digit_ntts(self):
        none = compile_trace(_rotations_ops())
        hoisted = compile_trace(_rotations_ops(), passes="hoist-rotations")

        def ntt_elems(p):
            return sum(
                t.elements for t in p.tasks
                if t.kind in (OperatorKind.NTT, OperatorKind.INTT)
            )

        assert ntt_elems(hoisted) < ntt_elems(none)


class TestRelaxBarriers:
    def test_independent_annotated_chains_overlap(self):
        chain_a = [
            FheOp.make(FheOpName.HADD, N, L, reads=("a",), writes=("a1",)),
            FheOp.make(FheOpName.PMULT, N, L, reads=("a1",), writes=("a2",)),
        ]
        chain_b = [
            FheOp.make(FheOpName.HADD, N, L, reads=("b",), writes=("b1",)),
            FheOp.make(FheOpName.PMULT, N, L, reads=("b1",), writes=("b2",)),
        ]
        ops = [chain_a[0], chain_b[0], chain_a[1], chain_b[1]]
        serial = compile_trace(ops)
        relaxed = compile_trace(ops, passes="relax-barriers")
        # Chain b's head must have lost its dependency on chain a.
        start_b = relaxed.op_boundaries[1][0]
        assert relaxed.tasks[start_b].depends_on == ()
        sim = PoseidonSimulator()
        r_serial = sim.run(serial)
        r_relaxed = sim.run(relaxed)
        assert r_relaxed.total_seconds <= r_serial.total_seconds * (1 + 1e-9)
        # Chain b's head is dependency-ready at t=0 now (it still
        # queues for HBM channels); serially it only became ready once
        # chain a's head finished.
        assert r_relaxed.task_records[start_b].ready_seconds == 0.0
        assert (
            r_serial.task_records[start_b].ready_seconds
            >= r_serial.task_records[serial.op_boundaries[0][1] - 1].end
        )

    def test_unannotated_trace_keeps_serial_chain(self):
        ops = _keyswitch_ops()
        serial = compile_trace(ops)
        relaxed = compile_trace(ops, passes="relax-barriers")
        assert relaxed.tasks == serial.tasks

    def test_war_and_waw_edges(self):
        ops = [
            FheOp.make(FheOpName.HADD, N, L, reads=("x",), writes=("y",)),
            FheOp.make(FheOpName.HADD, N, L, reads=("y",), writes=("z",)),
            # Overwrites y: must wait for the reader above (WAR) and
            # the writer (WAW).
            FheOp.make(FheOpName.HADD, N, L, reads=("x",), writes=("y",)),
        ]
        program = compile_trace(ops, passes="relax-barriers")
        sinks = [end - 1 for _, end in program.op_boundaries]
        entry2 = program.op_boundaries[2][0]
        deps = program.tasks[entry2].depends_on
        assert sinks[0] in deps and sinks[1] in deps

    def test_unknown_token_defers_to_barrier(self):
        ops = [
            FheOp.make(FheOpName.HADD, N, L),  # unannotated barrier
            FheOp.make(FheOpName.HADD, N, L, reads=("fresh",),
                       writes=("out",)),
        ]
        program = compile_trace(ops, passes="relax-barriers")
        entry1 = program.op_boundaries[1][0]
        sink0 = program.op_boundaries[0][1] - 1
        assert program.tasks[entry1].depends_on == (sink0,)


class TestFuseElementwise:
    def test_handoff_elides_write_and_read(self):
        none = compile_trace(_keyswitch_ops())
        fused = compile_trace(_keyswitch_ops(), passes="fuse-elementwise")
        # HAdd -> CMult handoff: the HAdd's result write disappears.
        hadd_sink = none.op_boundaries[0][1] - 1
        assert none.tasks[hadd_sink].hbm_write_bytes > 0
        assert fused.tasks[hadd_sink].hbm_write_bytes == 0
        # The CMult entry re-read shrinks by exactly that write.
        cm_entry = none.op_boundaries[1][0]
        assert (
            none.tasks[cm_entry].hbm_read_bytes
            - fused.tasks[cm_entry].hbm_read_bytes
            == none.tasks[hadd_sink].hbm_write_bytes
        )

    def test_last_op_write_is_never_fused(self):
        for trace_name, thunk in TRACES.items():
            none = compile_trace(thunk())
            fused = compile_trace(thunk(), passes="fuse-elementwise")
            assert (
                fused.tasks[-1].hbm_write_bytes
                == none.tasks[-1].hbm_write_bytes
            ), trace_name

    def test_multi_consumer_values_keep_hbm_copy(self):
        ops = [
            FheOp.make(FheOpName.HADD, N, L, reads=("a",), writes=("v",)),
            FheOp.make(FheOpName.HADD, N, L, reads=("v",), writes=("w1",)),
            FheOp.make(FheOpName.HADD, N, L, reads=("v",), writes=("w2",)),
        ]
        program = compile_trace(
            ops, passes="relax-barriers,fuse-elementwise"
        )
        sink0 = program.op_boundaries[0][1] - 1
        assert program.tasks[sink0].hbm_write_bytes > 0


class TestDeadTaskElimination:
    def test_noop_on_stock_lowerings(self):
        for thunk in TRACES.values():
            assert compile_trace(thunk(), passes="dce").tasks == (
                compile_trace(thunk()).tasks
            )

    def test_removes_synthetic_dead_chain(self):
        op = FheOp.make(FheOpName.HADD, N, L)

        def t(deps=(), write=0):
            return OperatorTask(
                kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
                hbm_write_bytes=write, depends_on=deps, op_label="HAdd",
            )

        # 0 -> 1 (dead pair: no write, no consumer), 2 -> 3 (sink).
        draft = ProgramDraft(
            ops=[op],
            task_lists=[[t(), t(deps=(0,)), t(), t(deps=(2,), write=8)]],
            op_deps=[set()],
        )
        stats = dead_task_elimination_pass(draft)
        assert stats["tasks_removed"] == 2
        tasks, bounds = draft.assemble()
        assert len(tasks) == 2
        assert tasks[1].depends_on == (0,)
        validate_program_like(tasks, bounds)

    def test_keeps_hbm_writing_leaves(self):
        op = FheOp.make(FheOpName.HADD, N, L)

        def t(deps=(), write=0):
            return OperatorTask(
                kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
                hbm_write_bytes=write, depends_on=deps, op_label="HAdd",
            )

        draft = ProgramDraft(
            ops=[op],
            task_lists=[[t(write=8), t(write=8)]],
            op_deps=[set()],
        )
        assert dead_task_elimination_pass(draft)["tasks_removed"] == 0
        assert len(draft.task_lists[0]) == 2


def validate_program_like(tasks, boundaries):
    for i, task in enumerate(tasks):
        for dep in task.depends_on:
            assert 0 <= dep < i
    cursor = 0
    for start, end in boundaries:
        assert start == cursor and end > start
        cursor = end
    assert cursor == len(tasks)


# ----------------------------------------------------------------------
# Metrics integration
# ----------------------------------------------------------------------
class TestPassMetrics:
    def test_per_pass_counters_recorded(self):
        from repro.obs import collecting

        with collecting() as registry:
            compile_trace(_rotations_ops(), passes="default")
        snap = registry.snapshot()
        assert snap["compiler.passes.hoist-rotations.runs"] == 1
        assert (
            snap["compiler.passes.hoist-rotations.rotations_hoisted"] == 3
        )
        assert snap["compiler.passes.relax-barriers.runs"] == 1
        assert snap["compiler.passes.dce.runs"] == 1

    def test_lowering_cache_counters(self):
        from repro.compiler.decompose import clear_lowering_cache
        from repro.obs import collecting

        clear_lowering_cache()
        with collecting() as registry:
            compile_trace(_streaming_like())
        snap = registry.snapshot()
        assert snap["compiler.lowering_cache.misses"] == 2
        assert snap["compiler.lowering_cache.hits"] == 6


def _streaming_like():
    ops = []
    for _ in range(4):
        ops.append(FheOp.make(FheOpName.HADD, N, L))
        ops.append(FheOp.make(FheOpName.PMULT, N, L))
    return ops


# ----------------------------------------------------------------------
# Pipeline equivalence pinning the two lowering bugfixes end to end
# ----------------------------------------------------------------------
class TestDraftRoundTrip:
    def test_apply_pipeline_returns_same_draft(self):
        draft = ProgramDraft.from_ops(_keyswitch_ops())
        out = apply_pipeline(draft, resolve_passes("default"))
        assert out is draft

    def test_from_ops_serial_chain(self):
        draft = ProgramDraft.from_ops(_keyswitch_ops())
        assert draft.op_deps == [set(), {0}, {1}, {2}]
        assert draft.pinned_deps == [set()] * 4

    def test_from_ops_op_parallel(self):
        draft = ProgramDraft.from_ops(_keyswitch_ops(), op_parallel=True)
        assert draft.op_deps == [set()] * 4
