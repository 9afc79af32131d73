"""What the end-to-end benchmark measures: workloads, metrics, spans.

Everything here is data. ``run.py`` reports exactly these names,
``tracer.py`` wraps exactly these spans, and ``BENCHMARK.json`` at the
repository root lists the metrics a benchmark runner reads (see
``listed_end_to_end`` and ``per_layer_metrics``); a test keeps the
three in agreement.

Two clocks appear in the names. *Host* metrics are what this machine
spent producing a result (seconds, megabytes) and vary from run to run.
*Simulated* metrics are outputs of the Poseidon model, in unit
``sim_s`` for simulated seconds: they are deterministic for a given
seed, so they are compared for exact equality, never within a band.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Workload name -> why it is in the benchmark (one line each).
WORKLOADS = {
    "table6": (
        "Table VI programs built, compiled with the default passes and "
        "simulated: the compiler's heaviest use plus one big engine drain"
    ),
    "serve-overload": (
        "one instance at 8000 req/s, 3000 arrivals: the engine's "
        "submit/advance_until loop at saturation, routing idle"
    ),
    "fleet-crash": (
        "4-instance key-affinity fleet at ~75% load with a crash and "
        "restart: router, key cache, crash truncation and retries busy"
    ),
    "ckks-ops": (
        "functional CKKS at N=4096, L=8 on numpy: CMult, relin, rescale, "
        "rotate, add; kernel-bound on large rows, no compiler or engine"
    ),
    "ckks-bootstrap": (
        "functional bootstrapping at N=64 on numpy: thousands of kernel "
        "calls on 64-point rows, where per-call overhead dominates"
    ),
}

ALL = tuple(WORKLOADS)
SERVE = ("serve-overload", "fleet-crash")

#: Simulated latency limit of ``sim_slo_miss_fraction`` (seconds).
SLO_SECONDS = 0.010


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    ``bound`` is the share of the baseline median by which the metric
    may worsen before a comparison calls it regressed; ``0.0`` means
    any worsening counts. ``kind`` is ``host`` (measured, noisy),
    ``simulated`` (model output, exact) or ``count`` (exact tally).
    """

    name: str
    unit: str
    better: str
    bound: float
    kind: str
    workloads: tuple[str, ...]


#: The end-to-end metrics, in report order.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25, "host", ALL),
    Metric("setup_s", "s", "lower", 0.25, "host", ALL),
    Metric("peak_rss_mb", "MB", "lower", 0.10, "host", ALL),
    Metric("host_latency_p50_ms", "ms", "lower", 0.25, "host", ALL),
    Metric("host_latency_p80_ms", "ms", "lower", 0.25, "host", ("ckks-ops",)),
    Metric("sim_makespan_s.lr", "sim_s", "lower", 0.0, "simulated", ("table6",)),
    Metric("sim_makespan_s.lstm", "sim_s", "lower", 0.0, "simulated", ("table6",)),
    Metric("sim_makespan_s.resnet20", "sim_s", "lower", 0.0, "simulated", ("table6",)),
    Metric("sim_makespan_s.bootstrap", "sim_s", "lower", 0.0, "simulated", ("table6",)),
    Metric("sim_latency_p50_s", "sim_s", "lower", 0.0, "simulated", SERVE),
    Metric("sim_latency_p99_s", "sim_s", "lower", 0.0, "simulated", SERVE),
    Metric("sim_goodput_rps", "req/s", "higher", 0.0, "simulated", SERVE),
    Metric("sim_slo_miss_fraction", "ratio", "lower", 0.0, "simulated", ("fleet-crash",)),
    Metric("check_fail_fraction", "ratio", "lower", 0.0, "count", ALL),
)

#: Table VI benchmark name -> suffix of its ``sim_makespan_s`` metric.
TABLE6_KEYS = {
    "LR": "lr",
    "LSTM": "lstm",
    "ResNet-20": "resnet20",
    "Packed Bootstrapping": "bootstrap",
}


def metrics_for(workload: str) -> tuple[Metric, ...]:
    """End-to-end metrics reported on ``workload``."""
    return tuple(m for m in END_TO_END if workload in m.workloads)


def listed_end_to_end() -> tuple[Metric, ...]:
    """End-to-end metrics that exist, nonzero, on every workload.

    ``BENCHMARK.json`` may list only metrics every workload emits and
    that are never zero, so the workload-specific simulated metrics go
    to the per-layer list and ``check_fail_fraction`` to the result's
    ``failed`` count.
    """
    return tuple(m for m in END_TO_END if m.kind == "host" and m.workloads == ALL)


@dataclass(frozen=True)
class Span:
    """A public function the traced sample wraps, by lookup site.

    Each target is ``"module:attr.path"``; ``"module:DICT[key]"`` wraps
    one dict entry and ``"module:DICT[]"`` every entry. ``elements``
    names how a kernel call's L x N element count is read from its
    arguments (``None`` for non-kernel spans).
    """

    name: str
    layer: str
    targets: tuple[str, ...]
    elements: str | None = None


def _kernel(op: str, elements: str = "first") -> Span:
    return Span(
        f"kernels.{op}",
        "kernels",
        (f"repro.kernels.numpy_backend:NumpyBackend.{op}",),
        elements,
    )


_PASSES = ("hoist-rotations", "relax-barriers", "fuse-elementwise", "dce")
_ROUTERS = ("RoundRobinRouter", "LeastQueueRouter", "ShortestExpectedJobRouter",
            "KeyAffinityRouter")
_BATCHER = ("offer", "should_launch", "take_batch", "expired", "drain",
            "next_deadline", "next_expiry")

SPANS = (
    Span("workloads.build", "compiler", ("repro.workloads:PAPER_BENCHMARKS[]",)),
    Span("compiler.lower", "compiler", ("repro.compiler.passes:ProgramDraft.from_ops",)),
    *(
        Span(f"compiler.pass.{p}", "compiler", (f"repro.compiler.passes:PASS_REGISTRY[{p}]",))
        for p in _PASSES
    ),
    Span("compiler.assemble", "compiler", ("repro.compiler.passes:ProgramDraft.assemble",)),
    *(
        Span(f"sim.engine.{m}", "sim", (f"repro.sim.engine:ScheduleEngine.{m}",))
        for m in ("submit", "advance_until", "drain", "result", "crash")
    ),
    Span("sim.cost.task_cycles", "sim", ("repro.sim.cores:CoreModel.task_cycles",)),
    Span("sim.cost.task_timing", "sim", ("repro.sim.memory:MemoryModel.task_timing",)),
    Span("sim.validate", "sim", ("repro.sim.validate:validate_schedule",)),
    Span("serve.loop", "serve", ("repro.serve.cluster:ClusterSimulator.run",)),
    Span("serve.route", "serve", tuple(f"repro.serve.router:{r}.route" for r in _ROUTERS)),
    Span("serve.batcher", "serve",
         tuple(f"repro.serve.batcher:DynamicBatcher.{m}" for m in _BATCHER)),
    Span("serve.keycache", "serve", ("repro.serve.router:KeyCache.admit",)),
    Span("serve.estimate", "serve", ("repro.serve.estimate:ServiceEstimator.estimate",)),
    *(_kernel(op) for op in ("ntt", "intt", "mod_mul", "mod_add", "mod_sub",
                             "mod_scalar_mul")),
    _kernel("basis_convert", "basis_convert"),
    _kernel("lift", "lift"),
    Span("ckks.keyswitch", "ckks", ("repro.ckks.evaluator:apply_switch_key",)),
    Span("ckks.automorphism", "ckks", ("repro.ckks.evaluator:CkksEvaluator._automorphism",)),
    Span("ckks.rescale", "ckks", ("repro.ckks.evaluator:CkksEvaluator.rescale",)),
    *(
        Span(f"ckks.bootstrap.{m}", "ckks", (f"repro.ckks.bootstrap:Bootstrapper.{m}",))
        for m in ("mod_raise", "coeff_to_slot", "eval_mod", "slot_to_coeff")
    ),
)

#: Layer -> the workload that uses it most: every span of the layer
#: must fire there. README.md maps each layer to the end-to-end metrics
#: it should move.
HEAVIEST_USER = {
    "compiler": "table6",
    "sim": "serve-overload",
    "serve": "fleet-crash",
    "kernels": "ckks-ops",
    "ckks": "ckks-ops",
}
#: Spans whose heaviest user differs from their layer's.
HEAVIEST_USER_OVERRIDES = {
    "sim.engine.crash": "fleet-crash",
    "sim.validate": "table6",
    **{
        f"ckks.bootstrap.{m}": "ckks-bootstrap"
        for m in ("mod_raise", "coeff_to_slot", "eval_mod", "slot_to_coeff")
    },
}


def heaviest_user(span: Span) -> str:
    return HEAVIEST_USER_OVERRIDES.get(span.name, HEAVIEST_USER[span.layer])


#: Per-layer counters: (name, unit, better). Read from the program's
#: own results and ``repro.obs`` counters, not from spans.
COUNTERS = (
    ("compiler.lowering_cache.hit_ratio", "ratio", "higher"),
    ("compiler.tasks", "count", "lower"),
    ("sim.tasks", "count", "lower"),
    ("sim.tasks_per_host_s", "1/s", "higher"),
    ("sim.hbm_utilization", "ratio", "higher"),
    ("sim.stall_fraction", "ratio", "lower"),
    *((f"sim.core.{c}.busy_share", "ratio", "higher")
      for c in ("MA", "MM", "NTT", "Automorphism")),
    ("sim.core_wait_s", "sim_s", "lower"),
    ("sim.hbm_wait_s", "sim_s", "lower"),
    ("serve.key_hit_rate", "ratio", "higher"),
    ("serve.upload_bytes", "bytes", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.mean_batch_size", "count", "higher"),
    ("serve.max_queue_depth", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.lost_events", "count", "lower"),
    ("serve.queue_wait_p99_s", "sim_s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_fraction", "ratio", "lower"),
    ("trace.missing_spans", "count", "lower"),
)


def per_layer_metrics() -> tuple[tuple[str, str, str], ...]:
    """Every per-layer metric a traced run emits: (name, unit, better).

    Span self time is reported as a share of the traced sample's
    timed section plus its checks, so a span that does not
    fire on a workload reads 0 without posing as a measured time. The
    workload-specific simulated end-to-end metrics are listed here too:
    every workload's traced run emits them (0 where they do not apply).
    """
    out = []
    for span in SPANS:
        out.append((f"{span.name}.calls", "count", "lower"))
        out.append((f"{span.name}.self_share", "ratio", "lower"))
        if span.elements is not None:
            out.append((f"{span.name}.elements", "count", "lower"))
    out.extend(COUNTERS)
    out.extend(
        (m.name, m.unit, m.better) for m in END_TO_END if m.kind == "simulated"
    )
    return tuple(out)
