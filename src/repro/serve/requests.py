"""Requests: FHE job types, arrived requests and their lifecycle records.

A *request* is one tenant's unit of work: a short serial chain of FHE
basic operations (ops within one request depend on each other — it is
one ciphertext's pipeline). Concurrency in the served system comes
only from *cross-request* overlap, which is exactly the operator-reuse
effect the paper pitches: one stream's HAdd on the MA array while
another's keyswitch holds NTT/MM.

Two light mixes cover the two contention regimes (see
``examples/batch_serving.py``), and every paper benchmark is also
accepted as a (heavyweight) request body via its usual aliases.
Programs are compiled once per job type and resubmitted per request —
requests of one type share the compiled task DAG, offset into the warm
engine's index space at admission.

Each arrival becomes a :class:`Request` (what the router and batcher
act on) and a :class:`RequestRecord` (its lifecycle, which the served
run returns).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.program import OperatorProgram, compile_trace
from repro.serve.knobs import Range, check_knobs, knob
from repro.sim.config import LIMB_BYTES

#: Ring shape of the light request mixes (matches the batch-serving
#: example: paper-scale degree, mid-depth level).
MIX_DEGREE = 1 << 16
MIX_LEVEL = 30
MIX_AUX = 4


def switch_key_bytes(degree: int, chain_limbs: int, aux_limbs: int) -> int:
    """Bytes of one gadget switch key in the 32-bit limb format.

    :class:`repro.ckks.keys.SwitchKey` stores one pair of polynomials
    per chain limb, each over the extended (chain + aux) basis.
    """
    return chain_limbs * 2 * degree * (chain_limbs + aux_limbs) * LIMB_BYTES


#: Bytes of one tenant's switch-key set at the mix shape. This is what
#: a key-cache miss charges as an HBM upload (~569 MB at the mix shape:
#: key movement is the fleet-scaling hazard).
KEY_SET_BYTES = switch_key_bytes(MIX_DEGREE, MIX_LEVEL + 1, MIX_AUX)


def _keyswitch_ops() -> list[FheOp]:
    """One interactive request: add, multiply, rotate, scale."""
    return [
        FheOp.make(FheOpName.HADD, MIX_DEGREE, MIX_LEVEL),
        FheOp.make(FheOpName.CMULT, MIX_DEGREE, MIX_LEVEL,
                   aux_limbs=MIX_AUX),
        FheOp.make(FheOpName.ROTATION, MIX_DEGREE, MIX_LEVEL,
                   aux_limbs=MIX_AUX),
        FheOp.make(FheOpName.PMULT, MIX_DEGREE, MIX_LEVEL),
    ]


def _streaming_ops() -> list[FheOp]:
    """A bandwidth-bound request: element-wise adds and plain muls."""
    ops = []
    for _ in range(4):
        ops.append(FheOp.make(FheOpName.HADD, MIX_DEGREE, MIX_LEVEL))
        ops.append(FheOp.make(FheOpName.PMULT, MIX_DEGREE, MIX_LEVEL))
    return ops


def _rotations_ops() -> list[FheOp]:
    """A rotation burst over one ciphertext (BSGS-style baby steps).

    All four rotations read the same source ciphertext — declared via
    ``reads``/``writes`` tokens — so the ``hoist-rotations`` compiler
    pass can rewrite rotations 2..4 to reuse the first one's digit
    decomposition. Without passes it compiles as four cold rotations.
    """
    return [
        FheOp.make(
            FheOpName.ROTATION, MIX_DEGREE, MIX_LEVEL,
            aux_limbs=MIX_AUX,
            reads=("src",), writes=(f"rot{i}",),
        )
        for i in range(4)
    ]


#: Light request mixes, by name. Paper benchmarks are resolved
#: dynamically (see :func:`request_type`) so this table stays cheap to
#: import.
REQUEST_MIXES = {
    "keyswitch": _keyswitch_ops,
    "streaming": _streaming_ops,
    "rotations": _rotations_ops,
}


@dataclass(frozen=True)
class RequestType:
    """One job type: a name plus its compiled operator program."""

    name: str
    program: OperatorProgram = field(repr=False)

    @property
    def task_count(self) -> int:
        return len(self.program.tasks)


@dataclass(frozen=True)
class Request:
    """One arrived request: a job type at an arrival instant.

    ``tenant`` and ``key_set`` identify who sent the request and which
    rotation/relinearization key bundle its keyswitches stream; the
    router and fair admission (:mod:`repro.serve.cluster`) act on them.

    ``deadline_seconds`` is the *absolute* instant the client abandons
    the request (original arrival + the resilience policy's relative
    deadline; ``None`` = no deadline) and ``attempt`` counts delivery
    tries — a retry after a crash loss is a new :class:`Request` with
    the same ``request_id`` and deadline but ``attempt + 1``. Fault-free
    runs keep both defaults.
    """

    request_id: int
    job: RequestType
    arrival_seconds: float
    service_estimate: float
    tenant: str = "tenant0"
    key_set: int = 0
    deadline_seconds: float | None = None
    attempt: int = 1


@dataclass
class RequestRecord:
    """Lifecycle of one request through the served system.

    ``admit/start/finish`` stay ``None`` for rejected requests.
    ``start_seconds`` is when the request's first task actually
    occupied a core (a batch admits all members at once, but the
    engine dispatches them as resources free up).

    ``instance`` is the accelerator that served the request (or, for a
    rejected request, the one it was routed to); ``tenant``/``key_set``
    carry its identity, ``key_hit`` whether its key set was resident at
    admission (``None`` until admitted), and ``reject_reason`` tells
    ``"queue-full"`` backpressure from ``"tenant-share"`` fair
    admission.

    Resilience state: ``deadline_seconds`` (absolute client deadline),
    ``lost`` (how many times a crash destroyed this request in queue
    or in flight), ``retries`` (re-deliveries actually scheduled) and
    ``outcome`` — exactly one of :data:`repro.serve.faults.OUTCOMES`
    once the run ends (the conservation invariant). On a loss,
    ``admit/batch`` state is reset; ``latency_seconds`` stays anchored
    at the *original* arrival, so failover and cold key re-uploads
    show up in the client-observed tail.
    """

    request_id: int
    job: str
    arrival_seconds: float
    admit_seconds: float | None = None
    start_seconds: float | None = None
    finish_seconds: float | None = None
    batch_index: int | None = None
    rejected: bool = False
    tenant: str = "tenant0"
    key_set: int = 0
    instance: int = 0
    key_hit: bool | None = None
    reject_reason: str | None = None
    deadline_seconds: float | None = None
    lost: int = 0
    retries: int = 0
    outcome: str | None = None

    @property
    def latency_seconds(self) -> float | None:
        """Arrival-to-finish time (the number a client experiences)."""
        if self.finish_seconds is None:
            return None
        return self.finish_seconds - self.arrival_seconds

    @property
    def queue_wait_seconds(self) -> float | None:
        """Arrival-to-admission time spent in the batcher's queue."""
        if self.admit_seconds is None:
            return None
        return self.admit_seconds - self.arrival_seconds

    @property
    def slo_met(self) -> bool | None:
        """Did the request complete within its deadline?

        ``None`` for requests that never completed; ``True`` for
        completions without a deadline. A completion past its deadline
        is the "served too late" case — counted completed but an SLO
        violation, excluded from goodput.
        """
        if self.finish_seconds is None:
            return None
        if self.deadline_seconds is None:
            return True
        return self.finish_seconds <= self.deadline_seconds


@lru_cache(maxsize=None)
def request_type(name: str, passes: tuple[str, ...] = ()) -> RequestType:
    """Resolve a job-type name to its compiled :class:`RequestType`.

    Accepts the light mix names (``keyswitch``, ``streaming``,
    ``rotations``) and any paper-benchmark spelling that
    :func:`repro.workloads.resolve_benchmark` knows (``resnet20``,
    ``lr``, ...). ``passes`` is a resolved compiler pass-name tuple
    (see :func:`repro.compiler.passes.resolve_passes`); the compiled
    program is cached once per (name, passes) per process, and the
    lowering cache below it dedupes identical ops across job types.
    """
    key = name.strip().lower()
    if key in REQUEST_MIXES:
        ops = REQUEST_MIXES[key]()
        return RequestType(
            name=key, program=compile_trace(ops, passes=passes)
        )
    from repro.workloads import PAPER_BENCHMARKS, resolve_benchmark

    try:
        canonical = resolve_benchmark(name)
    except KeyError:
        raise KeyError(
            f"unknown request workload {name!r}; expected one of "
            f"{sorted(REQUEST_MIXES)} or a paper benchmark alias"
        ) from None
    program = compile_trace(PAPER_BENCHMARKS[canonical](), passes=passes)
    return RequestType(name=canonical, program=program)


@dataclass(frozen=True)
class TenantPopulation:
    """Who sends requests: tenant labels and key-set popularity.

    Each arrived request carries a *tenant* label (fair-admission
    accounting) and a *key-set* id (which rotation/relinearization
    bundle its keyswitches stream). Key-set draws follow a Zipf-like
    popularity curve — weight ``1 / rank^skew`` — because real key
    reuse is skewed: a few hot tenants dominate traffic, which is
    exactly when key-affinity routing pays.

    ``skew=0`` is uniform. The default population is a single tenant
    with a single key set, which reduces the cluster to pure
    load-balancing (the first request per instance uploads, everything
    after hits).
    """

    tenants: int = knob(
        1, Range(lo=1), flag="--tenants",
        help="tenant population size for request labeling "
             "(default {default})",
    )
    key_sets: int = knob(
        1, Range(lo=1), flag="--key-sets",
        help="distinct rotation/relin key sets across the population "
             "(default {default})",
    )
    skew: float = knob(
        0.0, Range(lo=0), flag="--key-skew",
        help="Zipf-like popularity skew of tenant/key-set draws; 0 is "
             "uniform (default {default})",
    )

    def __post_init__(self):
        check_knobs(self)

    def draw(self, count: int, *, seed: int = 0) -> list[tuple[str, int]]:
        """``count`` seeded ``(tenant, key_set)`` draws.

        Tenants are drawn uniformly; key sets follow the skewed
        popularity weights. A private RNG keyed on the seed keeps the
        draw bit-stable and independent of every other RNG stream in
        the served run.
        """
        rng = random.Random(f"repro.serve.population:{seed}")
        weights = [
            1.0 / (rank + 1) ** self.skew for rank in range(self.key_sets)
        ]
        out = []
        for _ in range(count):
            tenant = f"tenant{rng.randrange(self.tenants)}"
            key_set = rng.choices(range(self.key_sets), weights)[0]
            out.append((tenant, key_set))
        return out


def resolve_request_mix(
    spec: str, *, passes=None
) -> tuple[RequestType, ...]:
    """Parse a comma-separated workload spec into job types.

    ``"keyswitch"`` serves one job type; ``"keyswitch,streaming"``
    serves both, chosen per request by the simulator's seeded RNG.
    ``passes`` selects the compiler pass pipeline applied to every job
    type's program (anything ``resolve_passes`` accepts).
    """
    from repro.compiler.passes import resolve_passes

    pipeline = resolve_passes(passes)
    names = [part for part in (p.strip() for p in spec.split(",")) if part]
    if not names:
        raise KeyError(f"empty request workload spec {spec!r}")
    return tuple(request_type(name, pipeline) for name in names)
