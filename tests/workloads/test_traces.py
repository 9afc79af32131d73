"""Unit tests for the four paper benchmark traces (Table V)."""

import pytest

from repro.compiler.ops import FheOpName
from repro.compiler.program import compile_trace
from repro.sim.engine import PoseidonSimulator
from repro.workloads import (
    PAPER_BENCHMARKS,
    helr_trace,
    lstm_trace,
    packed_bootstrapping_trace,
    resnet20_trace,
)
from repro.workloads.bootstrap_wl import exit_level


@pytest.fixture(scope="module")
def small_kwargs():
    """Scaled-down traces for fast structural checks."""
    return dict(degree=1 << 12)


class TestHelrTrace:
    def test_structure(self):
        trace = helr_trace(
            degree=1 << 12, iterations=3, bootstraps=0,
            start_level=25, top_level=25,
        )
        hist = trace.op_histogram()
        # 3 iterations x 2 CMults each for the sigmoid (no bootstraps).
        assert hist["CMult"] == 6
        assert hist["Rotation"] > 0
        assert hist["PMult"] > 0

    def test_level_discipline(self):
        trace = helr_trace(degree=1 << 12, iterations=2, bootstraps=1)
        assert {op.degree for op in trace.ops} == {1 << 12}
        assert max(op.level for op in trace.ops) <= 44
        assert all(
            op.limbs >= 2
            for op in trace.ops
            if op.name is FheOpName.RESCALE
        )

    def test_bootstrap_count_respected(self):
        trace = helr_trace(degree=1 << 12, iterations=10, bootstraps=2)
        # Two sparse bootstraps must appear (each has its EvalMod
        # conjugation rotations and C2S/S2C PMult batches).
        assert len(trace) > 100

    def test_refresh_counting_on_real_trace(self):
        trace = helr_trace(degree=1 << 12, iterations=10, bootstraps=2)
        # Each refresh jumps back up to the chain top. The two EvalMod
        # halves inside one bootstrap run level-parallel, a smaller
        # upward jump that must not count as a second refresh.
        levels = [op.level for op in trace.ops]
        top = max(levels)
        refreshes = sum(
            1
            for prev, cur in zip(levels, levels[1:])
            if cur - prev >= 4 and cur == top
        )
        assert refreshes == 2

    def test_paper_scale_defaults(self):
        trace = helr_trace()
        assert trace.ops[0].degree == 1 << 16


class TestLstmTrace:
    def test_structure(self):
        trace = lstm_trace(degree=1 << 12, steps=3, hidden=64)
        hist = trace.op_histogram()
        # Each step: 2 matvecs (PMult-heavy) + 2 activation CMults.
        assert hist["CMult"] >= 6
        assert hist["PMult"] >= 3 * 2 * 64

    def test_step_scaling(self):
        short = lstm_trace(degree=1 << 12, steps=2, hidden=64)
        long = lstm_trace(degree=1 << 12, steps=6, hidden=64)
        assert len(long) > 2 * len(short)


class TestResnetTrace:
    def test_structure(self):
        trace = resnet20_trace(degree=1 << 12, top_level=30)
        hist = trace.op_histogram()
        assert hist["CMult"] >= 2 * 19  # 19 conv layers x ReLU depth 2
        assert hist["Rotation"] > 50

    def test_levels_never_negative(self):
        # Building raises WorkloadError if the chain underflows.
        trace = resnet20_trace(degree=1 << 12, top_level=30)
        assert all(op.level >= 0 for op in trace.ops)


class TestReluSurrogate:
    def test_matches_reference(self, params, encoder, encryptor,
                               decryptor, evaluator):
        import numpy as np

        from repro.workloads.resnet20 import (
            relu_surrogate_functional,
            relu_surrogate_reference,
        )

        rng = np.random.default_rng(6)
        values = rng.uniform(-1, 1, 16)
        got = relu_surrogate_functional(
            evaluator, encoder, encryptor, decryptor, values
        )
        assert np.max(np.abs(got - relu_surrogate_reference(values))) < 5e-2

    def test_surrogate_approximates_relu(self):
        import numpy as np

        from repro.workloads.resnet20 import relu_surrogate_reference

        xs = np.linspace(-1, 1, 101)
        err = np.abs(relu_surrogate_reference(xs) - np.maximum(0, xs))
        # A quadratic fit of ReLU on [-1,1] carries ~0.12 max error.
        assert float(np.max(err)) < 0.15


class TestBootstrapTrace:
    def test_single_bootstrap(self):
        trace = packed_bootstrapping_trace(degree=1 << 12)
        hist = trace.op_histogram()
        assert hist["CMult"] > 10  # EvalMod ladders
        assert hist["PMult"] > 50  # C2S/S2C diagonals

    def test_exit_level(self):
        assert exit_level(top_level=60) == 60 - 20

    def test_all_levels_within_chain(self):
        trace = packed_bootstrapping_trace(degree=1 << 12)
        assert all(0 <= op.level <= 60 for op in trace.ops)


class TestPaperRegistry:
    def test_four_benchmarks(self):
        assert set(PAPER_BENCHMARKS) == {
            "LR", "LSTM", "ResNet-20", "Packed Bootstrapping"
        }

    @pytest.mark.parametrize("name", list(PAPER_BENCHMARKS))
    def test_traces_compile_and_simulate(self, name):
        """Every paper trace compiles and runs on the simulator.

        Uses scaled-down degree for speed; full-scale runs live in the
        benchmark harness.
        """
        if name == "LSTM":
            trace = lstm_trace(degree=1 << 12, steps=2, hidden=32)
        elif name == "LR":
            trace = helr_trace(degree=1 << 12, iterations=2, bootstraps=1)
        elif name == "ResNet-20":
            trace = resnet20_trace(degree=1 << 12, top_level=30)
        else:
            trace = packed_bootstrapping_trace(degree=1 << 12)
        result = PoseidonSimulator().run(compile_trace(trace))
        assert result.total_seconds > 0
        assert result.hbm_bytes > 0
