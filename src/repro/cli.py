"""Command-line interface: regenerate any paper table or figure, and
drive the open-system serving simulator.

Usage::

    python -m repro.cli list
    python -m repro.cli table4
    python -m repro.cli fig10 --radix 2 3 4 5 6
    python -m repro.cli table6 --lanes 256
    python -m repro.cli fig11 --workload LR
    python -m repro.cli trace --benchmark resnet20 -o trace.json
    python -m repro.cli metrics --benchmark lr -o metrics.json
    python -m repro.cli serve --workload keyswitch --arrival-rate 300 \
        --requests 64 --seed 0 --validate

Each command is an argparse *subparser* carrying only the flags it
understands, so out-of-scope flags (``table9 --validate``,
``trace --radix 4``) error out instead of being silently ignored.

Each table/figure command prints the same rows the corresponding bench
target asserts on, so results can be inspected without running pytest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro import serve
from repro.analysis import (
    fig7_operator_analysis,
    fig8_benchmark_op_breakdown,
    fig9_operator_breakdown,
    fig10_k_sweep,
    fig11_lane_scaling,
    fig12_energy_breakdown,
    table1_operator_usage,
    table2_ntt_fusion,
    table4_basic_ops,
    table6_full_system,
    table7_bandwidth,
    table8_hfauto_resources,
    table9_hfauto_ablation,
    table10_edp,
    table11_core_resources,
    table12_fpga_comparison,
)
from repro.analysis.report import render_shares, render_table
from repro.errors import ParameterError
from repro.serve import knobs
from repro.sim.config import HardwareConfig
from repro.sim.ntt_cores import DEFAULT_NTT_CORE, available_ntt_cores

#: Canonical workload spellings for fig11/design.
PAPER_WORKLOADS = ("LR", "LSTM", "ResNet-20", "Packed Bootstrapping")

#: The classes whose flagged knobs ``serve`` takes, in ``--help`` order.
SERVE_KNOBS = (
    serve.PoissonArrivals,
    serve.BatchPolicy,
    serve.ClusterPolicy,
    serve.TenantPopulation,
    serve.AutoscalerPolicy,
    serve.ResiliencePolicy,
    serve.RetryPolicy,
)

#: ``serve``'s repeatable fault flags: each takes one event of the
#: class, its fields colon-separated in declaration order.
FAULT_FLAGS = (
    ("--crash", serve.InstanceCrash,
     "inject an instance crash: instance index, crash time in "
     "simulated seconds, and an optional restart delay "
     "(e.g. 0:0.02:0.01); repeatable"),
    ("--straggler", serve.Straggler,
     "inject a straggler window: instance, start, duration, "
     "compute slowdown factor >= 1 (e.g. 1:0.01:0.05:2.0); "
     "repeatable"),
    ("--hbm-derate", serve.HBMDegradation,
     "inject an HBM-degradation window: instance, start, "
     "duration, bandwidth factor in (0,1] "
     "(e.g. 0:0.0:0.03:0.5); repeatable"),
)


def _config_from_args(args) -> HardwareConfig:
    config = HardwareConfig(use_hfauto=not args.naive_auto)
    if args.lanes != 512:
        config = config.with_lanes(args.lanes)
    ntt_core = getattr(args, "ntt_core", DEFAULT_NTT_CORE)
    if ntt_core != DEFAULT_NTT_CORE:
        config = config.with_ntt_core(ntt_core)
    return config


def _print_table(data: dict, title: str) -> None:
    print(render_table(data["columns"], data["rows"], title=title))


def cmd_table1(args) -> None:
    _print_table(table1_operator_usage(), "Table I — operator usage")


def cmd_table2(args) -> None:
    _print_table(table2_ntt_fusion(), "Table II — NTT-fusion counts")


def cmd_table4(args) -> None:
    _print_table(
        table4_basic_ops(_config_from_args(args)),
        "Table IV — basic-operation throughput (ops/s)",
    )


def cmd_table6(args) -> None:
    _print_table(
        table6_full_system(_config_from_args(args)),
        "Table VI — full-system benchmark times (ms)",
    )


def cmd_table7(args) -> None:
    data = table7_bandwidth(_config_from_args(args))
    print(render_table(
        ["name", "utilization_pct", "paper_pct"], data["operations"],
        title="Table VII — bandwidth utilization per operation",
    ))
    print()
    print(render_table(
        ["name", "utilization_pct", "paper_pct"], data["benchmarks"],
        title="per benchmark:",
    ))


def cmd_table8(args) -> None:
    _print_table(table8_hfauto_resources(), "Table VIII — Auto vs HFAuto")


def cmd_table9(args) -> None:
    _print_table(table9_hfauto_ablation(), "Table IX — HFAuto ablation (ms)")


def cmd_table10(args) -> None:
    _print_table(
        table10_edp(_config_from_args(args)),
        "Table X — energy-delay product (J*s)",
    )


def cmd_table11(args) -> None:
    _print_table(
        table11_core_resources(_config_from_args(args)),
        "Table XI — per-core resources",
    )


def cmd_table12(args) -> None:
    _print_table(
        table12_fpga_comparison(_config_from_args(args)),
        "Table XII — FPGA prototype comparison",
    )


def cmd_fig7(args) -> None:
    fig = fig7_operator_analysis(_config_from_args(args))
    print(render_shares(
        fig["series"], title="Fig. 7 — operator share per basic operation"
    ))


def cmd_fig8(args) -> None:
    fig = fig8_benchmark_op_breakdown(_config_from_args(args))
    print(render_shares(
        fig["series"], title="Fig. 8 — operation share per benchmark"
    ))
    for name, ms in fig["total_ms"].items():
        print(f"  total {name}: {ms:.1f} ms")


def cmd_fig9(args) -> None:
    fig = fig9_operator_breakdown(_config_from_args(args))
    print(render_shares(
        fig["series"], title="Fig. 9 — operator share per benchmark"
    ))


def cmd_fig10(args) -> None:
    fig = fig10_k_sweep(k_values=tuple(args.radix))
    print(render_table(
        ["k", "lut", "ff", "dsp", "bram", "ntt_us"], fig["rows"],
        title="Fig. 10 — NTT-fusion radix sweep",
    ))
    print(f"optimal k: {fig['best_k']}")


def cmd_fig11(args) -> None:
    fig = fig11_lane_scaling(benchmark=args.workload)
    print(render_table(
        ["lanes", "seconds", "edp", "bandwidth_utilization"], fig["rows"],
        title=f"Fig. 11 — lane scaling ({args.workload})",
    ))


def cmd_summary(args) -> None:
    from repro.analysis.summary import render_markdown

    print(render_markdown())


def cmd_design(args) -> None:
    from repro.compiler.program import compile_trace
    from repro.sim.designer import DesignExplorer
    from repro.workloads import PAPER_BENCHMARKS

    program = compile_trace(PAPER_BENCHMARKS[args.workload]())
    base = HardwareConfig()
    if args.ntt_core != DEFAULT_NTT_CORE:
        base = base.with_ntt_core(args.ntt_core)
    explorer = DesignExplorer(program, base_config=base)
    points = explorer.sweep()
    frontier = explorer.pareto(points)
    rows = [
        {
            "lanes": p.lanes,
            "k": p.radix_log2,
            "ms": p.seconds * 1e3,
            "energy_J": p.energy_joules,
            "lut": p.resources.lut,
            "dsp": p.resources.dsp,
            "fits": p.fits,
            "pareto": p in frontier,
        }
        for p in points
    ]
    print(render_table(
        ["lanes", "k", "ms", "energy_J", "lut", "dsp", "fits", "pareto"],
        rows,
        title=f"Design-space exploration — {args.workload} "
              f"[{args.ntt_core}] (U280 budget)",
    ))
    best = explorer.best(objective="seconds")
    print(f"best (time): {best.label}")


def _simulate_benchmark(args, *, validate: bool = False):
    """Shared setup for the observability commands.

    Checks the schedule against the program once when ``validate`` or
    ``--validate`` is set; only ``--validate`` reports the check.

    Returns ``(name, result, registry)`` — the canonical benchmark
    name, the simulation result, and the metrics registry that was
    active while it ran.
    """
    from repro.compiler.program import compile_trace
    from repro.errors import WorkloadError
    from repro.obs import collecting
    from repro.sim.engine import PoseidonSimulator
    from repro.workloads import PAPER_BENCHMARKS, resolve_benchmark

    try:
        name = resolve_benchmark(args.benchmark)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    simulator = PoseidonSimulator(_config_from_args(args))
    # Compile inside the collection scope so the compiler.* counters
    # (per-pass stats, lowering-cache hits/misses) land in the
    # snapshot alongside the sim.* ones.
    with collecting() as registry:
        try:
            program = compile_trace(
                PAPER_BENCHMARKS[name](), passes=args.passes
            )
        except WorkloadError as exc:
            raise SystemExit(f"error: {exc}") from None
        result = simulator.run(program)
    if validate or args.validate:
        from repro.sim.validate import validate_schedule

        validate_schedule(
            result, program=program, config=simulator.config
        )
    if args.validate:
        print(f"schedule invariants OK ({name}, {len(program.tasks)} tasks)")
    return name, result, registry


def cmd_trace(args) -> None:
    """Export one benchmark run as Chrome-trace/Perfetto JSON.

    The exported schedule is always validated, ``--validate`` or not.
    """
    from repro.obs import write_chrome_trace

    name, result, _ = _simulate_benchmark(args, validate=True)
    out = args.output or "trace.json"
    doc = write_chrome_trace(result, out, label=name)
    print(
        f"wrote {out}: {len(doc['traceEvents'])} events, "
        f"{result.total_seconds * 1e3:.2f} ms simulated ({name}); "
        "open at https://ui.perfetto.dev"
    )


def cmd_metrics(args) -> None:
    """Export one benchmark run's metrics snapshot as flat JSON."""
    from repro.obs import write_metrics_json

    name, result, registry = _simulate_benchmark(args)
    out = args.output or "metrics.json"
    doc = write_metrics_json(
        registry.snapshot(),
        out,
        meta={
            "benchmark": name,
            "lanes": args.lanes,
            "simulated_seconds": result.total_seconds,
            "bandwidth_utilization": result.bandwidth_utilization,
        },
    )
    print(f"wrote {out}: {len(doc['metrics'])} metrics ({name})")


def _build(cls, args, **extra):
    """``cls`` built from the ``serve`` flags of its knobs; a flag left
    at ``None`` keeps the field's default."""
    values = {}
    for f, k in knobs.declared(cls):
        if k.flag is not None:
            value = getattr(args, k.flag[2:].replace("-", "_"))
            if value is not None:
                values[f.name] = value
    return cls(**values, **extra)


def _trace_arrivals(path: str) -> serve.TraceArrivals:
    """Arrivals replayed from a JSON list of timestamps."""
    try:
        with open(path, encoding="utf-8") as fh:
            stamps = json.load(fh)
    except OSError as exc:
        raise ParameterError(
            f"cannot read --arrival-trace {path}: {exc.strerror or exc}"
        ) from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterError(
            f"--arrival-trace {path} is not JSON: {exc}"
        ) from None
    if not isinstance(stamps, list) or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool)
        for t in stamps
    ):
        raise ParameterError(
            f"--arrival-trace {path} must hold a JSON list of numbers"
        )
    return serve.TraceArrivals(stamps)


def _serve_inputs(args) -> argparse.Namespace:
    """The policies, arrivals and fault plan ``serve``'s flags ask for;
    the autoscaler, retry and resilience policies only when given."""
    events = [
        knobs.parse_spec(cls, spec, flag)
        for flag, cls, _ in FAULT_FLAGS
        for spec in getattr(args, flag[2:].replace("-", "_")) or ()
    ]
    plan = serve.FaultPlan(tuple(events)) if events else None
    tuned = args.retry_backoff is not None or args.retry_jitter is not None
    if tuned and args.retry_max is None:
        raise ParameterError(
            "--retry-backoff and --retry-jitter need --retry-max"
        )
    retry = None
    if args.retry_max is not None:
        retry = _build(serve.RetryPolicy, args)
    resilience = None
    if args.deadline is not None or retry or args.detect_delay != 0:
        resilience = _build(serve.ResiliencePolicy, args, retry=retry)
    batch = _build(serve.BatchPolicy, args)
    autoscaler = None
    if args.autoscale_max is not None:
        autoscaler = _build(serve.AutoscalerPolicy, args)
    cluster = _build(serve.ClusterPolicy, args, autoscaler=autoscaler)
    population = _build(serve.TenantPopulation, args)
    if args.arrival_trace is not None:
        arrivals = _trace_arrivals(args.arrival_trace)
        arrival_desc = f"trace({len(arrivals.times())} arrivals)"
    else:
        arrivals = _build(serve.PoissonArrivals, args)
        arrival_desc = (
            f"Poisson rate={args.arrival_rate}/s n={args.requests} "
            f"seed={args.seed}"
        )
    return argparse.Namespace(
        plan=plan, resilience=resilience, batch=batch, cluster=cluster,
        population=population, arrivals=arrivals, arrival_desc=arrival_desc,
    )


def cmd_serve(args) -> None:
    """Run the open-system serving simulator and report load metrics."""
    from repro.errors import WorkloadError
    from repro.obs import collecting, write_cluster_trace, write_metrics_json

    try:
        run = _serve_inputs(args)
    except ParameterError as exc:
        raise SystemExit(f"error: {exc}") from None
    policy, cluster_policy, population = run.batch, run.cluster, run.population
    config = _config_from_args(args)
    with collecting() as registry:
        try:
            sim = serve.ClusterSimulator(config, cluster_policy, policy)
            result = sim.run(
                args.workload, run.arrivals,
                seed=args.seed, population=population,
                passes=args.passes,
                faults=run.plan, resilience=run.resilience,
            )
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from None
        except (ParameterError, WorkloadError) as exc:
            raise SystemExit(f"error: {exc}") from None
    if args.validate:
        result.validate()
        print(
            "schedule invariants OK per instance "
            f"({len({r.index for r in result.instances})} instances, "
            f"{result.admitted} requests)"
        )

    s = result.summary()
    print(f"--- serving: {args.workload} | {run.arrival_desc} ---")
    print(
        f"policy: batch<={policy.max_batch_size} "
        f"delay={policy.max_queue_delay} order={policy.order} "
        f"depth_bound={policy.max_queue_depth} "
        f"inflight<={policy.max_inflight_batches}"
    )
    print(
        f"fleet: {s['instances']} instances router={s['router']} "
        f"key_cache={cluster_policy.key_cache_capacity} "
        f"tenants={population.tenants} "
        f"key_sets={population.key_sets} skew={population.skew}"
    )
    print(
        f"keys: {s['key_hits']} hits / {s['key_misses']} misses "
        f"(rate {s['key_hit_rate']:.2f}), "
        f"{s['key_upload_bytes'] / 1e9:.2f} GB uploaded, "
        f"{s['scale_events']} scale events"
    )
    if run.plan is not None or run.resilience is not None:
        print(
            f"faults: {s['crashes']} crashes, {s['restarts']} "
            f"restarts, {s['lost_events']} lost submissions, "
            f"{s['retries']} retries"
        )
        print(
            f"outcomes: {s['requests_completed']} completed, "
            f"{s['requests_rejected']} rejected, "
            f"{s['requests_abandoned']} abandoned, "
            f"{s['requests_exhausted']} exhausted; "
            f"goodput {s['goodput_rps']:.2f} req/s, "
            f"SLO violations {s['slo_violation_rate']:.3f}"
        )
    print(
        f"requests: {s['requests_arrived']} arrived, "
        f"{s['requests_admitted']} admitted, "
        f"{s['requests_rejected']} rejected, "
        f"{s['requests_completed']} completed "
        f"in {s['batches']} batches"
    )
    print(
        f"throughput: {s['throughput_rps']:.2f} req/s over "
        f"{s['makespan_seconds'] * 1e3:.2f} ms simulated"
    )
    print(
        "latency: "
        f"p50 {s['latency_p50_seconds'] * 1e3:.3f} ms, "
        f"p95 {s['latency_p95_seconds'] * 1e3:.3f} ms, "
        f"p99 {s['latency_p99_seconds'] * 1e3:.3f} ms "
        f"(mean {s['latency_mean_seconds'] * 1e3:.3f} ms)"
    )
    print(f"max queue depth: {s['max_queue_depth']}")

    if args.output is not None:
        doc = write_metrics_json(
            registry.snapshot(),
            args.output,
            meta={
                "workload": args.workload,
                "arrivals": run.arrival_desc,
                "seed": args.seed,
                "lanes": args.lanes,
                "passes": args.passes or "none",
                "policy": dataclasses.asdict(policy),
                **s,
            },
        )
        print(f"wrote {args.output}: {len(doc['metrics'])} metrics")
    if args.trace_output is not None:
        doc = write_cluster_trace(
            result, args.trace_output, label=args.workload
        )
        print(
            f"wrote {args.trace_output}: {len(doc['traceEvents'])} "
            "events; open at https://ui.perfetto.dev"
        )


def cmd_fig12(args) -> None:
    fig = fig12_energy_breakdown(_config_from_args(args))
    print("Fig. 12 — energy consumption and breakdown")
    for row in fig["rows"]:
        print(f"\n{row['benchmark']}: {row['total_joules']:.2f} J")
        for key, share in sorted(
            row["shares"].items(), key=lambda kv: -kv[1]
        ):
            print(f"    {key:14s} {100 * share:5.1f}%")


def cmd_list(args) -> None:
    print("available targets:")
    for name in sorted(COMMANDS):
        print(f"  {name}")


#: Command name -> (handler, which option groups it takes).
#: Groups: "hw" = --lanes/--naive-auto; "obs" = --benchmark/--validate/-o.
COMMANDS = {
    "table1": (cmd_table1, ()),
    "table2": (cmd_table2, ()),
    "table4": (cmd_table4, ("hw",)),
    "table6": (cmd_table6, ("hw",)),
    "table7": (cmd_table7, ("hw",)),
    "table8": (cmd_table8, ()),
    "table9": (cmd_table9, ()),
    "table10": (cmd_table10, ("hw",)),
    "table11": (cmd_table11, ("hw",)),
    "table12": (cmd_table12, ("hw",)),
    "fig7": (cmd_fig7, ("hw",)),
    "fig8": (cmd_fig8, ("hw",)),
    "fig9": (cmd_fig9, ("hw",)),
    "fig10": (cmd_fig10, ("radix",)),
    "fig11": (cmd_fig11, ("workload",)),
    "fig12": (cmd_fig12, ("hw",)),
    "summary": (cmd_summary, ()),
    "design": (cmd_design, ("workload", "nttcore")),
    "trace": (cmd_trace, ("hw", "obs")),
    "metrics": (cmd_metrics, ("hw", "obs")),
    "serve": (cmd_serve, ("hw", "serve")),
    "list": (cmd_list, ()),
}


def _add_hw_options(sub) -> None:
    sub.add_argument(
        "--lanes", type=int, default=512,
        help="vector lanes (default 512)",
    )
    sub.add_argument(
        "--naive-auto", action="store_true",
        help="use the naive Auto core instead of HFAuto",
    )
    sub.add_argument(
        "--ntt-core", default=DEFAULT_NTT_CORE,
        choices=available_ntt_cores(),
        help="NTT core microarchitecture variant "
             f"(default '{DEFAULT_NTT_CORE}'; see docs/CORES.md)",
    )


def _add_obs_options(sub) -> None:
    sub.add_argument(
        "--benchmark", default="resnet20",
        help="benchmark to simulate (accepts aliases: resnet20, "
             "lr, lstm, bootstrapping)",
    )
    sub.add_argument(
        "--validate", action="store_true",
        help="check schedule invariants (no overlap per core instance, "
             "HBM channel budget, dependency order, time conservation) "
             "on the simulated run before exporting",
    )
    sub.add_argument(
        "--passes", default=None,
        help="compiler pass pipeline for the benchmark program: 'none' "
             "(default, legacy barriers), 'default' (full pipeline), "
             "or a comma-separated pass list (see docs/COMPILER.md)",
    )
    sub.add_argument(
        "-o", "--output", default=None,
        help="output path for trace/metrics JSON "
             "(default trace.json / metrics.json)",
    )


def _add_serve_options(sub) -> None:
    sub.add_argument(
        "--workload", default="keyswitch",
        help="request job mix: keyswitch, streaming, a comma-separated "
             "combination, or any paper-benchmark alias (resnet20, lr, "
             "lstm, bootstrapping)",
    )
    sub.add_argument(
        "--arrival-trace", default=None,
        help="replay arrivals from a JSON file holding a list of "
             "timestamps in seconds (overrides --arrival-rate/--requests)",
    )
    sub.add_argument(
        "--passes", default=None,
        help="compiler pass pipeline for the request programs: 'none' "
             "(default), 'default' (full pipeline), or a "
             "comma-separated pass list (see docs/COMPILER.md)",
    )
    for cls in SERVE_KNOBS:
        for f, k in knobs.declared(cls):
            if k.flag is not None:
                sub.add_argument(
                    k.flag, type=knobs.field_type(f),
                    default=knobs.flag_default(f, k),
                    choices=getattr(k.accepts, "choices", None),
                    metavar=k.metavar, help=knobs.flag_help(f, k),
                )
    for flag, cls, help_text in FAULT_FLAGS:
        sub.add_argument(
            flag, action="append", default=None,
            metavar=knobs.spec_metavar(cls),
            help=help_text,
        )
    sub.add_argument(
        "--validate", action="store_true",
        help="check every instance's served schedule against every "
             "engine invariant, and request conservation, before "
             "reporting",
    )
    sub.add_argument(
        "-o", "--output", default=None,
        help="write the serving metrics snapshot as JSON "
             "(bit-identical across runs with the same seed)",
    )
    sub.add_argument(
        "--trace", dest="trace_output", default=None,
        help="write a Chrome trace to this path: one process per "
             "instance (core/HBM tracks, request spans) plus the "
             "router's queue-depth counter",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate Poseidon (HPCA 2023) tables and figures, "
                    "or serve an open-system request stream.",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="command",
        help="which table/figure to regenerate (see 'list'), or 'serve'",
    )
    for name, (handler, groups) in sorted(COMMANDS.items()):
        sub = subparsers.add_parser(
            name, help=(handler.__doc__ or "").split("\n")[0] or None
        )
        sub.set_defaults(func=handler)
        if "hw" in groups:
            _add_hw_options(sub)
        if "obs" in groups:
            _add_obs_options(sub)
        if "serve" in groups:
            _add_serve_options(sub)
        if "radix" in groups:
            sub.add_argument(
                "--radix", type=int, nargs="+", default=[2, 3, 4, 5, 6],
                help="fusion radices to sweep",
            )
        if "workload" in groups:
            sub.add_argument(
                "--workload", default="ResNet-20",
                choices=PAPER_WORKLOADS,
                help="paper workload",
            )
        if "nttcore" in groups:
            sub.add_argument(
                "--ntt-core", default=DEFAULT_NTT_CORE,
                choices=available_ntt_cores(),
                help="NTT core microarchitecture to sweep with "
                     f"(default '{DEFAULT_NTT_CORE}'; see docs/CORES.md)",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
