"""Instrumentation hooks: the layers report into an active registry.

Also asserts the inverse: with collection disabled, simulated results
are identical and no registry is touched (the zero-overhead contract).
"""

import numpy as np
import pytest

from repro import kernels
from repro.compiler.program import compile_trace
from repro.ntt.negacyclic import ntt_negacyclic
from repro.obs import collecting
from repro.rns.barrett import BarrettReducer
from repro.rns.context import RnsContext
from repro.rns.poly import Domain, RnsPolynomial
from repro.sim.engine import PoseidonSimulator
from repro.utils.primes import find_ntt_primes
from repro.workloads import helr_trace


@pytest.fixture(scope="module")
def program():
    return compile_trace(
        helr_trace(degree=1 << 12, iterations=2, bootstraps=1)
    )


class TestSimulatorMetrics:
    def test_run_reports_spans_and_counters(self, program):
        with collecting() as reg:
            result = PoseidonSimulator().run(program)
        snap = reg.snapshot()
        assert snap["sim.tasks"] == len(result.task_records)
        assert snap["sim.makespan_seconds"] == result.total_seconds
        assert snap["sim.hbm.bytes"] == result.hbm_bytes
        assert snap["sim.task.busy_seconds"]["count"] == len(
            result.task_records
        )
        assert snap["sim.task.queue_wait_seconds"]["min"] >= 0.0
        per_core = sum(
            v for k, v in snap.items()
            if k.startswith("sim.core.") and k.endswith(".busy_seconds")
        )
        assert per_core == pytest.approx(
            sum(result.core_busy_seconds.values())
        )

    def test_memory_model_reports_spad_and_channels(self, program):
        with collecting() as reg:
            PoseidonSimulator().run(program)
        snap = reg.snapshot()
        hits = snap.get("sim.spad.hits", 0)
        misses = snap.get("sim.spad.misses", 0)
        assert hits + misses == len(program.tasks)
        assert snap["sim.hbm.transfers"] <= len(program.tasks)
        assert 1 <= snap["sim.hbm.channels_used"]["max"] <= 32

    def test_disabled_mode_changes_nothing(self, program):
        baseline = PoseidonSimulator().run(program)
        with collecting():
            observed = PoseidonSimulator().run(program)
        again = PoseidonSimulator().run(program)
        assert baseline.total_seconds == observed.total_seconds
        assert baseline.total_seconds == again.total_seconds
        assert baseline.task_records == observed.task_records


class TestKernelMetrics:
    def test_ntt_butterflies_counted(self):
        n = 64
        q = find_ntt_primes(30, 1, n)[0]
        ctx = RnsContext((q,))
        poly = RnsPolynomial(
            np.arange(n, dtype=np.uint64).reshape(1, n) % np.uint64(q),
            ctx,
            Domain.COEFFICIENT,
        )
        with collecting() as reg:
            ntt_negacyclic(poly)
        snap = reg.snapshot()
        assert snap["ntt.transforms.forward"] == 1
        # (n/2) * log2(n) TAM butterflies for one length-n transform
        assert snap["ntt.butterflies"] == (n // 2) * 6

    def test_barrett_reductions_counted(self):
        q = find_ntt_primes(30, 1, 64)[0]
        reducer = BarrettReducer(q)
        with collecting() as reg:
            reducer.reduce(np.arange(100, dtype=np.uint64))
            reducer.reduce_scalar(5)
        assert reg.snapshot()["rns.barrett.reductions"] == 101

    def test_keyswitch_and_evaluator_counters(
        self, encryptor, encoder, evaluator, params
    ):
        data = np.linspace(-1, 1, params.slot_count)
        ct = encryptor.encrypt(encoder.encode(data))
        with collecting() as reg:
            evaluator.multiply(ct, ct)
        snap = reg.snapshot()
        assert snap["ckks.keyswitch.calls"] == 1
        assert snap["ckks.keyswitch.digits"] >= 1
        assert snap["ckks.keyswitch.ntt_limb_transforms"] > 0
        assert snap["ckks.op.CMult"] == 1
        assert snap["ntt.butterflies"] > 0


#: The functional-plane snapshot of ``rotate(multiply(ct, ct), 1)`` at
#: N=64, levels=4, scale 2^30, pinned from the per-digit/per-part code
#: it must not drift from. Kernel batching may change only ``.calls``.
PINNED_ROTATE_MULTIPLY = {
    "ntt.transforms.forward": 56,
    "ntt.transforms.inverse": 32,
    "ntt.butterflies": 16896,
    "ckks.keyswitch.calls": 2,
    "ckks.keyswitch.digits": 8,
    "ckks.keyswitch.ntt_limb_transforms": 60,
    "kernels.{backend}.ntt.elements": 3584,
    "kernels.{backend}.intt.elements": 2048,
}


class TestPinnedFunctionalCounters:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.ckks import (
            CkksEncoder,
            CkksEncryptor,
            CkksParameters,
            KeyChain,
        )

        params = CkksParameters.default(degree=64, levels=4, scale_bits=30)
        keys = KeyChain.generate(params, seed=0)
        keys.rotation_key(1)  # before collection starts
        encoder = CkksEncoder(params)
        ct = CkksEncryptor(params, keys, seed=0).encrypt(
            encoder.encode(np.linspace(-1, 1, params.slot_count))
        )
        return params, keys, ct

    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    def test_rotate_multiply_snapshot(self, setup, backend):
        from repro.ckks import CkksEvaluator

        params, keys, ct = setup
        evaluator = CkksEvaluator(params, keys)
        with kernels.use_backend(backend), collecting() as reg:
            evaluator.rotate(evaluator.multiply(ct, ct), 1)
        snap = reg.snapshot()
        for name, value in PINNED_ROTATE_MULTIPLY.items():
            assert snap[name.format(backend=backend)] == value, name
