"""Observability: metrics and trace export.

The subsystem has two parts, neither of which costs anything when unused:

- :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters, gauges, histograms). Disabled by default; instrumented
  call sites throughout the simulator, CKKS evaluator, NTT and Barrett
  kernels check :func:`active` (a single attribute read) and skip all
  recording when no registry is installed.
- :mod:`repro.obs.trace_export` — converts a simulated run's per-task
  spans into Chrome-trace/Perfetto JSON (one track per operator core
  plus an HBM track) and the flat metrics snapshot into JSON.

Nothing here imports the simulator at module scope, so the sim/ckks/ntt
layers can import ``repro.obs.metrics`` without cycles.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active,
    collecting,
    disable,
    enable,
)
from repro.obs.trace_export import (
    chrome_trace,
    chrome_trace_events,
    cluster_chrome_trace,
    cluster_trace_events,
    write_chrome_trace,
    write_cluster_trace,
    write_metrics_json,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active",
    "chrome_trace",
    "chrome_trace_events",
    "cluster_chrome_trace",
    "cluster_trace_events",
    "collecting",
    "disable",
    "enable",
    "write_chrome_trace",
    "write_cluster_trace",
    "write_metrics_json",
]
