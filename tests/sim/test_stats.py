"""Unit tests for post-simulation statistics."""

import pytest

from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.program import compile_trace
from repro.sim.engine import PoseidonSimulator
from repro.sim.stats import benchmark_operator_shares, operator_core_shares

N = 1 << 14


@pytest.fixture(scope="module")
def sim():
    return PoseidonSimulator()


@pytest.fixture(scope="module")
def mixed_result(sim):
    ops = [
        FheOp.make(FheOpName.HADD, N, 8),
        FheOp.make(FheOpName.CMULT, N, 8, aux_limbs=2),
        FheOp.make(FheOpName.ROTATION, N, 8, aux_limbs=2),
    ]
    return sim.run(compile_trace(ops))


class TestBandwidthReports:
    def test_hadd_is_bandwidth_bound(self, sim):
        """Table VII headline: HAdd pins the HBM (>90%)."""
        result = sim.run_ops([FheOp.make(FheOpName.HADD, 1 << 16, 44)])
        assert 100 * result.bandwidth_utilization > 90

    def test_keyswitch_lower_utilization(self, sim):
        """Complex ops are compute-bound, so utilization drops."""
        hadd = sim.run_ops([FheOp.make(FheOpName.HADD, 1 << 16, 44)])
        ks = sim.run_ops(
            [FheOp.make(FheOpName.KEYSWITCH, 1 << 16, 44, aux_limbs=4)]
        )
        assert ks.bandwidth_utilization < hadd.bandwidth_utilization

    def test_report_fields(self, mixed_result):
        assert mixed_result.hbm_bytes > 0
        assert 0 <= mixed_result.bandwidth_utilization <= 1

    def test_delivered_fraction_uses_configured_peak(self, sim, mixed_result):
        """The config argument must actually matter: the delivered
        fraction is achieved bytes/s over *that config's* peak."""
        achieved = mixed_result.achieved_bandwidth()
        assert achieved == pytest.approx(
            mixed_result.hbm_bytes / mixed_result.total_seconds
        )
        delivered = mixed_result.delivered_bandwidth_fraction(sim.config)
        assert delivered == pytest.approx(
            achieved / sim.config.hbm_bandwidth
        )
        fat_pipe = sim.config.__class__(hbm_bandwidth=2 * 460e9)
        assert mixed_result.delivered_bandwidth_fraction(
            fat_pipe
        ) == pytest.approx(delivered / 2)


class TestShares:
    def test_operator_core_shares_normalized(self, mixed_result):
        shares = operator_core_shares(mixed_result)
        for op_label, cores in shares.items():
            assert sum(cores.values()) == pytest.approx(1.0), op_label

    def test_benchmark_op_shares(self, mixed_result):
        shares = mixed_result.op_share()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert set(shares) == {"HAdd", "CMult", "Rotation"}

    def test_benchmark_operator_shares(self, mixed_result):
        shares = benchmark_operator_shares(mixed_result)
        assert sum(shares.values()) == pytest.approx(1.0)
        # CMult + Rotation push most time into NTT/MM (paper Fig. 9).
        assert shares["NTT"] > shares["MA"]
