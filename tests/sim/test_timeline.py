"""Unit tests for the simulation timeline (Gantt view and utilization)."""

import pytest

from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.program import compile_trace
from repro.errors import SimulationError
from repro.sim.config import HardwareConfig
from repro.sim.engine import PoseidonSimulator, SimulationResult, TaskRecord
from repro.sim.timeline import Timeline
from repro.sim.validate import validate_schedule

N = 1 << 14


@pytest.fixture(scope="module")
def mixed_timeline():
    ops = [
        FheOp.make(FheOpName.CMULT, N, 10, aux_limbs=4),
        FheOp.make(FheOpName.ROTATION, N, 10, aux_limbs=4),
        FheOp.make(FheOpName.HADD, N, 10),
        FheOp.make(FheOpName.PMULT, N, 10),
    ]
    result = PoseidonSimulator().run(compile_trace(ops))
    return Timeline(result)


class TestInvariants:
    def test_no_core_overlap(self, mixed_timeline):
        """The central scheduler invariant: one task per core at a time."""
        validate_schedule(mixed_timeline.result)


class TestOverlapTolerance:
    def test_distinct_instances_may_overlap(self):
        """Concurrent tasks on two instances of one array are no
        double-booking, and occupancy is normalized by instance count."""
        result = SimulationResult(
            total_seconds=1e-3,
            core_busy_seconds={"MM": 1.5e-3},
            op_seconds={},
            operator_seconds={},
            hbm_busy_seconds=0,
            hbm_bytes=0,
            task_records=[
                TaskRecord(start=0.0, end=1e-3, core="MM",
                           compute_seconds=1e-3, hbm_seconds=0,
                           hbm_bytes=0, op_label="a", instance=0),
                TaskRecord(start=0.0, end=0.5e-3, core="MM",
                           compute_seconds=0.5e-3, hbm_seconds=0,
                           hbm_bytes=0, op_label="b", instance=1),
            ],
        )
        validate_schedule(
            result, config=HardwareConfig().with_core_instances(MM=2)
        )
        timeline = Timeline(result)
        assert timeline.instance_counts["MM"] == 2
        assert timeline.utilization("MM") == pytest.approx(0.75)
        assert timeline.idle_gaps("MM") == []


class TestStatistics:
    def test_utilization_bounded(self, mixed_timeline):
        for core in ("MA", "MM", "NTT", "Automorphism"):
            u = mixed_timeline.utilization(core)
            assert 0 <= u <= 1

    def test_compute_utilization_excludes_stall(self, mixed_timeline):
        for core in mixed_timeline.intervals:
            occupancy = mixed_timeline.utilization(core)
            compute = mixed_timeline.compute_utilization(core)
            assert 0 <= compute <= occupancy

    def test_ntt_is_busiest_in_keyswitch_mix(self, mixed_timeline):
        """CMult+Rotation traces keep the NTT array hottest (Fig. 9)."""
        assert mixed_timeline.busiest_core() == "NTT"

    def test_idle_gaps_well_formed(self, mixed_timeline):
        for core in mixed_timeline.intervals:
            for start, end in mixed_timeline.idle_gaps(core):
                assert end > start

    def test_unknown_core_zero(self, mixed_timeline):
        assert mixed_timeline.utilization("GPU") == 0.0
        assert mixed_timeline.idle_gaps("GPU") == []


class TestRendering:
    def test_render_shape(self, mixed_timeline):
        text = mixed_timeline.render(width=40)
        lines = text.splitlines()
        assert len(lines) == len(mixed_timeline.intervals)
        for line in lines:
            assert "|" in line and "%" in line

    def test_empty_timeline(self):
        result = SimulationResult(
            total_seconds=0.0,
            core_busy_seconds={},
            op_seconds={},
            operator_seconds={},
            hbm_busy_seconds=0,
            hbm_bytes=0,
            task_records=[],
        )
        assert Timeline(result).render() == "(empty timeline)"
        with pytest.raises(SimulationError):
            Timeline(result).busiest_core()
