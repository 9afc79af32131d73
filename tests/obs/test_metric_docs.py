"""The metric names in docs/OBSERVABILITY.md match the code.

A faulted, autoscaled fleet run exercises every path of the serving
loop's metric publishing; the ``cluster.*`` names it emits (per-instance
names templated as ``cluster.instance.<i>.*``) must be exactly the ones
the observability doc lists, and the doc must list no ``serve.*``
metric.

The functional plane gets the same check on each kernel backend:
``rescale(rotate(multiply(ct, ct), 1))`` at N=64 plus one call of every
kernel op must emit exactly the documented ``ntt.*``, ``kernels.*``,
``ckks.*`` and ``rns.*`` names (``kernels.<backend>.*``,
``ckks.op.<Op>``), brace groups in the doc expanded.

So does the performance plane: compiling annotated request mixes with
every pass, removing a dead chain, and simulating on the default and on
a spilling scratchpad must emit exactly the documented ``sim.*`` and
``compiler.*`` names (``sim.core.<CORE>.*``, ``sim.op.<label>.tasks``,
``compiler.passes.<pass>.runs``).
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.compiler import compile_trace
from repro.compiler.decompose import clear_lowering_cache
from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.passes import ProgramDraft, apply_pipeline
from repro.obs import collecting
from repro.serve import (
    AutoscalerPolicy,
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    FaultPlan,
    InstanceCrash,
    PoissonArrivals,
    ResiliencePolicy,
    RetryPolicy,
    TenantPopulation,
)
from repro.serve.requests import _keyswitch_ops, _rotations_ops
from repro.sim.config import HardwareConfig
from repro.sim.engine import PoseidonSimulator
from repro.sim.tasks import OperatorKind, OperatorTask

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def _expand(name: str) -> set[str]:
    """Expand ``a.{b,c}.d`` brace groups into every spelled-out name."""
    group = re.search(r"\{([^{}]*)\}", name)
    if group is None:
        return {name}
    head, tail = name[:group.start()], name[group.end():]
    return set().union(
        *(_expand(head + alt + tail) for alt in group.group(1).split(","))
    )


def documented(*prefixes: str) -> set[str]:
    text = DOC.read_text(encoding="utf-8")
    names = set()
    for prefix in prefixes:
        for name in re.findall(
            "`(" + re.escape(prefix) + r"[A-Za-z0-9_.<>{},-]+)`", text
        ):
            names |= _expand(name)
    return names


@pytest.fixture(scope="module")
def emitted() -> set[str]:
    sim = ClusterSimulator(
        policy=ClusterPolicy(
            instances=1,
            key_cache_capacity=2,
            key_upload_bytes=300_000,
            max_tenant_share=0.5,
            autoscaler=AutoscalerPolicy(max_instances=3, queue_high=2.0),
        ),
        batch_policy=BatchPolicy(max_batch_size=2, max_queue_depth=6),
    )
    with collecting() as reg:
        result = sim.run(
            "keyswitch",
            PoissonArrivals(rate=1500.0, count=40, seed=3),
            seed=3,
            population=TenantPopulation(tenants=4, key_sets=6, skew=0.8),
            faults=FaultPlan((
                InstanceCrash(instance=0, at_seconds=0.01,
                              restart_after=0.005),
            )),
            resilience=ResiliencePolicy(
                deadline_seconds=0.03,
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.001),
            ),
        )
    assert result.scale_events and result.crashes and result.restarts
    return {
        re.sub(r"^cluster\.instance\.\d+\.", "cluster.instance.<i>.", name)
        for name in reg.snapshot()
        if name.startswith("cluster.")
    }


def test_every_emitted_cluster_metric_is_documented(emitted):
    assert emitted - documented("cluster.") == set()


def test_every_documented_cluster_metric_is_emitted(emitted):
    assert documented("cluster.") - emitted == set()


def test_no_serve_metrics_documented():
    assert documented("serve.") == set()


FUNCTIONAL = ("ntt.", "kernels.", "ckks.", "rns.")

#: Counted only inside ``BarrettReducer``, which only the reference
#: backend's ``barrett_reduce`` calls (and no CKKS operation calls that).
REFERENCE_ONLY = {"rns.barrett.reductions"}


def _call_every_kernel_op(backend: kernels.KernelBackend) -> None:
    moduli = (97, 193)
    a = np.arange(16, dtype=np.uint64).reshape(2, 8)
    backend.ntt(a, moduli)
    backend.intt(a, moduli)
    backend.mod_add(a, a, moduli)
    backend.mod_sub(a, a, moduli)
    backend.mod_neg(a, moduli)
    backend.mod_mul(a, a, moduli)
    backend.mod_scalar_mul(a, (3, 5), moduli)
    backend.barrett_reduce(a * a, moduli)
    backend.lift(a[0], moduli)
    backend.basis_convert(a, np.ones((2, 2), dtype=np.uint64), moduli)


@pytest.fixture(scope="module")
def ciphertext():
    from repro.ckks import (
        CkksEncoder,
        CkksEncryptor,
        CkksParameters,
        KeyChain,
    )

    params = CkksParameters.default(degree=64, levels=4, scale_bits=30)
    keys = KeyChain.generate(params, seed=0)
    keys.rotation_key(1)  # before collection starts
    ct = CkksEncryptor(params, keys, seed=0).encrypt(
        CkksEncoder(params).encode(np.linspace(-1, 1, params.slot_count))
    )
    return params, keys, ct


@pytest.fixture(scope="module", params=kernels.available_backends())
def functional_emitted(request, ciphertext) -> tuple[str, set[str]]:
    from repro.ckks import CkksEvaluator

    params, keys, ct = ciphertext
    evaluator = CkksEvaluator(params, keys)
    with kernels.use_backend(request.param) as backend, collecting() as reg:
        evaluator.rescale(evaluator.rotate(evaluator.multiply(ct, ct), 1))
        _call_every_kernel_op(backend)
    names = set()
    for name in reg.snapshot():
        if not name.startswith(FUNCTIONAL):
            continue
        name = re.sub(
            rf"^kernels\.{request.param}\.", "kernels.<backend>.", name
        )
        names.add(re.sub(r"^ckks\.op\.\w+$", "ckks.op.<Op>", name))
    return request.param, names


def test_every_emitted_functional_metric_is_documented(functional_emitted):
    _, emitted = functional_emitted
    assert emitted - documented(*FUNCTIONAL) == set()


def test_every_documented_functional_metric_is_emitted(functional_emitted):
    backend, emitted = functional_emitted
    missing = documented(*FUNCTIONAL) - emitted
    assert missing == (set() if backend == "reference" else REFERENCE_ONLY)


PERFORMANCE = ("sim.", "compiler.")


def _dead_chain_draft() -> ProgramDraft:
    """One op whose first two tasks feed nothing and write nothing."""
    n = 1 << 10

    def task(deps=(), write=0):
        return OperatorTask(
            kind=OperatorKind.MA, elements=n, degree=n, limbs=1,
            hbm_write_bytes=write, depends_on=deps, op_label="HAdd",
        )

    return ProgramDraft(
        ops=[FheOp.make(FheOpName.HADD, n, 2)],
        task_lists=[[task(), task(deps=(0,)), task(write=8)]],
        op_deps=[set()],
    )


@pytest.fixture(scope="module")
def performance_emitted() -> set[str]:
    # Passes publish only non-zero stats: the rotation burst is hoisted
    # and relaxed, the keyswitch mix fused, and only a dead chain gives
    # dce work. A cold lowering cache misses before it hits, and a
    # 64 KiB scratchpad spills every working set.
    clear_lowering_cache()
    spilling = dataclasses.replace(HardwareConfig(), scratchpad_bytes=1 << 16)
    with collecting() as reg:
        program = compile_trace(_rotations_ops(), passes="default")
        compile_trace(_keyswitch_ops(), passes="default")
        apply_pipeline(_dead_chain_draft(), ("dce",))
        PoseidonSimulator().run(program)
        PoseidonSimulator(spilling).run(program)
    names = set()
    for name in reg.snapshot():
        if not name.startswith(PERFORMANCE):
            continue
        name = re.sub(r"^sim\.core\.[^.]+\.", "sim.core.<CORE>.", name)
        name = re.sub(r"^sim\.op\..+\.tasks$", "sim.op.<label>.tasks", name)
        names.add(re.sub(
            r"^compiler\.passes\.[^.]+\.runs$",
            "compiler.passes.<pass>.runs", name,
        ))
    return names


def test_performance_metrics_match_docs(performance_emitted):
    assert performance_emitted == documented(*PERFORMANCE)
