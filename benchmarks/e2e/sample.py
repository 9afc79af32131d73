"""One benchmark sample in a fresh process: set up, time once, check.

``run.py`` starts this once per sample, one process at a time, with a
scrubbed environment, and reads the JSON object printed as the last
line of stdout. Set-up time runs from just before ``repro`` is
imported to the end of the set-up, so cold caches and imports are paid
where a command-line user pays them. While the timed section runs,
``calibration.Sampler`` times a fixed chunk of work every 0.1 s, and
host times are reported normalized by it, beside the raw ones. Checks
run untimed.

With ``--trace-file`` the sample is a traced one: spans are wrapped
after set-up, the timed section and the checks run inside
``repro.obs.collecting()``, the per-layer metrics are added to the
result and a Chrome trace is written to the file.

    python benchmarks/e2e/sample.py --workload table6 --seed 0 [--quick]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext

import calibration
import spec


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-file", default=None)
    return parser.parse_args(argv)


def _traced_metrics(tracer, registry, checked: dict, traced_s: float) -> dict:
    """Every per-layer metric but ``trace.wall_s`` and
    ``trace.overhead_fraction``, which ``run.py`` adds."""
    out = {name: 0 for name, _, _ in spec.per_layer_metrics()}
    del out["trace.wall_s"], out["trace.overhead_fraction"]
    out.update(tracer.per_layer(traced_s))
    out.update(checked.get("model", {}))
    out.update(checked.get("sim", {}))
    counters = registry.snapshot()
    hits = counters.get("compiler.lowering_cache.hits", 0)
    misses = counters.get("compiler.lowering_cache.misses", 0)
    out["compiler.lowering_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    engine_s = sum(
        tracer.self_seconds(span.name) for span in tracer.spans
        if span.name.startswith(("sim.engine.", "sim.cost."))
    )
    out["sim.tasks_per_host_s"] = out["sim.tasks"] / engine_s if engine_s else 0.0
    out["trace.missing_spans"] = len(tracer.missing_spans())
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    import workloads  # numpy, then repro inside the set-up functions

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.quick)
    setup_s = time.perf_counter() - t0
    sampler = calibration.Sampler()

    tracer = registry = None
    collect = nullcontext()
    if args.trace_file:
        import tracer as tracing
        from repro import obs

        tracer = tracing.Tracer(clock=sampler.clock)
        tracer.install()
        collect = obs.collecting()

    def phase(name):
        return tracer.phase(name) if tracer else nullcontext()

    with collect as registry:
        with sampler.running():
            start = sampler.clock()
            with phase("sample.timed"):
                out, requests = workload.run(state, sampler.clock)
            end = sampler.clock()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks_start = sampler.clock()
        try:
            with phase("sample.checks"):
                checked = workload.check(state, out)
        except Exception:  # a failed check is a result, not a crash
            checked = {"errors": [traceback.format_exc(limit=3)]}
        traced_s = end - start + sampler.clock() - checks_start

    requests = requests or [(start, end)]
    result = {
        "ok": not checked["errors"],
        "errors": checked["errors"],
        "setup_s": setup_s * sampler.first_rate,
        "raw_setup_s": setup_s,
        "wall_s": sampler.normalized(start, end),
        "raw_wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "requests_s": [sampler.normalized(a, b) for a, b in requests],
        "sim": checked.get("sim", {}),
        "digest": checked.get("digest"),
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = _traced_metrics(tracer, registry, checked, traced_s)
        result["missing"] = tracer.missing
        with open(args.trace_file, "w") as fh:
            json.dump(tracer.chrome_trace(args.workload), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
