"""Property-based scheduler invariants on random task DAGs.

Two input families:

- fully synthetic :class:`OperatorTask` DAGs with arbitrary dependency
  edges, random cores, random HBM traffic — the harshest structural
  input for the schedule validator;
- compiler-generated programs from random FHE op traces (chained,
  ``op_parallel=False``) — the realistic input for the makespan
  comparison against the legacy in-order engine.

The "out-of-order never slower" and "more cores never slower"
properties are asserted only for chained programs: greedy list
scheduling is subject to Graham anomalies on arbitrary parallel DAGs
(an early-dispatched long independent task can delay a critical one
that becomes ready slightly later), so the guarantees target the
dependent-ciphertext-chain regime the in-order engine modelled — and
the one the paper's Table VI latencies measure. Four op-parallel
programs on which doubled core arrays lose to single ones are pinned
with their exact makespans (see docs/SCHEDULER.md, "More cores can be
slower").
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.program import OperatorProgram, compile_trace
from repro.sim.config import CORE_ARRAYS, HardwareConfig
from repro.sim.engine import PoseidonSimulator, in_order_makespan
from repro.sim.tasks import OperatorKind, OperatorTask
from repro.sim.validate import validate_schedule

_KINDS = (
    OperatorKind.MA,
    OperatorKind.MM,
    OperatorKind.NTT,
    OperatorKind.INTT,
    OperatorKind.AUTO,
    OperatorKind.SBT,
)

#: Small-but-real transfer sizes: zero, sub-channel, a few channels,
#: and full-stripe (engages all 32 pseudo-channels).
_HBM_SIZES = (0, 0, 4 << 10, 64 << 10, 512 << 10, 4 << 20)

#: Every core array at two instances.
DOUBLED = HardwareConfig().with_core_instances(
    **{core: 2 for core in CORE_ARRAYS}
)


def _op(name, degree, level, aux=1):
    return FheOp.make(name, degree, level, aux_limbs=aux)


_H, _P, _C = FheOpName.HADD, FheOpName.PMULT, FheOpName.CMULT

#: name -> (ops, single-array makespan, doubled-array makespan) of
#: op-parallel programs on which doubled core arrays are slower.
PARALLEL_ANOMALIES = {
    "hadd-cmult8-hadd-cmult2": (
        (_op(_H, 4096, 2), _op(_C, 4096, 8, 3), _op(_H, 4096, 2),
         _op(_C, 4096, 2)),
        2.745377855072464e-05,
        2.841665855072464e-05,
    ),
    "cmult3-hadd-hadd-cmult2": (
        (_op(_C, 4096, 3, 4), _op(_H, 4096, 2), _op(_H, 4096, 2),
         _op(_C, 4096, 2)),
        2.3222771014492752e-05,
        2.3249437681159423e-05,
    ),
    "cmult16k-pmult-cmult4": (
        (_op(_C, 16384, 5), _op(_P, 4096, 2), _op(_C, 4096, 4)),
        6.446707109974423e-05,
        6.464024211423699e-05,
    ),
    "cmult16k-hadd-cmult2": (
        (_op(_C, 16384, 2, 3), _op(_H, 4096, 2), _op(_C, 4096, 2)),
        3.291610434782609e-05,
        3.3081889855072465e-05,
    ),
}


@st.composite
def task_dags(draw, max_tasks: int = 24):
    """Random topologically-ordered DAGs of operator tasks."""
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    tasks = []
    for i in range(n):
        kind = draw(st.sampled_from(_KINDS))
        degree = draw(st.sampled_from((1 << 12, 1 << 13)))
        limbs = draw(st.integers(min_value=1, max_value=8))
        deps = ()
        if i:
            deps = tuple(
                sorted(
                    draw(
                        st.sets(
                            st.integers(min_value=0, max_value=i - 1),
                            max_size=3,
                        )
                    )
                )
            )
        tasks.append(
            OperatorTask(
                kind=kind,
                elements=limbs * degree,
                degree=degree,
                limbs=limbs,
                hbm_read_bytes=draw(st.sampled_from(_HBM_SIZES)),
                hbm_write_bytes=draw(st.sampled_from(_HBM_SIZES)),
                spad_bytes=draw(st.sampled_from((0, 64 << 10))),
                depends_on=deps,
                op_label=f"task{i}",
            )
        )
    return OperatorProgram(
        tasks=tuple(tasks),
        op_boundaries=((0, n),),
        source_ops=(),
    )


@st.composite
def op_traces(draw, max_ops: int = 8):
    """Random FHE basic-operation traces at small (fast) scales."""
    names = st.sampled_from((
        FheOpName.HADD,
        FheOpName.PMULT,
        FheOpName.CMULT,
        FheOpName.ROTATION,
        FheOpName.RESCALE,
        FheOpName.KEYSWITCH,
    ))
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        name = draw(names)
        degree = 1 << draw(st.integers(min_value=12, max_value=14))
        limbs = draw(st.integers(min_value=2, max_value=16))
        kwargs = {}
        if name in (FheOpName.CMULT, FheOpName.ROTATION, FheOpName.KEYSWITCH):
            kwargs["aux_limbs"] = draw(st.integers(min_value=1, max_value=4))
        ops.append(FheOp.make(name, degree, limbs, **kwargs))
    return ops


class TestValidatorOnRandomDags:
    @given(program=task_dags())
    def test_schedule_invariants_hold(self, program):
        simulator = PoseidonSimulator()
        result = simulator.run(program)
        validate_schedule(
            result, program=program, config=simulator.config
        )

    @given(
        program=task_dags(),
        ntt_instances=st.integers(min_value=1, max_value=3),
        ma_instances=st.integers(min_value=1, max_value=2),
    )
    def test_invariants_hold_with_replicated_cores(
        self, program, ntt_instances, ma_instances
    ):
        config = HardwareConfig().with_core_instances(
            NTT=ntt_instances, MA=ma_instances
        )
        simulator = PoseidonSimulator(config)
        result = simulator.run(program)
        validate_schedule(result, program=program, config=config)

    @given(program=task_dags())
    def test_zero_hbm_tasks_never_occupy_the_channel(self, program):
        result = PoseidonSimulator().run(program)
        for record in result.task_records:
            if record.hbm_bytes == 0:
                assert record.hbm_channels_used == 0
                assert record.hbm_seconds == 0.0
                assert record.hbm_start == record.hbm_end == 0.0
        streamed = sum(
            r.hbm_end - r.hbm_start
            for r in result.task_records
            if r.hbm_bytes
        )
        # The HBM-occupancy union can only come from traffic-moving
        # tasks; with no traffic at all the channel is never busy.
        assert result.hbm_busy_seconds <= streamed + 1e-15


class TestOutOfOrderNeverSlower:
    @given(ops=op_traces())
    def test_chained_makespan_at_most_in_order(self, ops):
        program = compile_trace(ops, op_parallel=False)
        ooo = PoseidonSimulator().run(program).total_seconds
        in_order = in_order_makespan(program)
        assert ooo <= in_order * (1 + 1e-9)

    @given(ops=op_traces(max_ops=4))
    @example(ops=list(PARALLEL_ANOMALIES["hadd-cmult8-hadd-cmult2"][0]))
    @example(ops=list(PARALLEL_ANOMALIES["cmult3-hadd-hadd-cmult2"][0]))
    @example(ops=list(PARALLEL_ANOMALIES["cmult16k-pmult-cmult4"][0]))
    @example(ops=list(PARALLEL_ANOMALIES["cmult16k-hadd-cmult2"][0]))
    def test_replicated_cores_never_slower_than_single(self, ops):
        program = compile_trace(ops, op_parallel=False)
        single = PoseidonSimulator().run(program).total_seconds
        doubled = PoseidonSimulator(DOUBLED).run(program).total_seconds
        # Not a theorem for greedy schedulers (Graham), but on chained
        # programs no counterexample turned up in a 1,500-example
        # search; doubling every array must not lose to the
        # single-instance schedule by more than float noise.
        assert doubled <= single * (1 + 1e-9)

    @pytest.mark.parametrize("name", sorted(PARALLEL_ANOMALIES))
    def test_parallel_anomaly_makespans_are_pinned(self, name):
        # Op-parallel programs where doubled arrays lose: extra
        # concurrent streams hold HBM pseudo-channel slots that a wide
        # critical transfer then waits for. Exact values pin the
        # single- and multi-instance dispatch paths byte for byte.
        ops, single, doubled = PARALLEL_ANOMALIES[name]
        program = compile_trace(list(ops), op_parallel=True)
        assert PoseidonSimulator().run(program).total_seconds == single
        assert (
            PoseidonSimulator(DOUBLED).run(program).total_seconds == doubled
        )
        assert doubled > single
