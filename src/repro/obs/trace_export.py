"""Export simulated runs as Chrome-trace JSON and metrics snapshots.

The Chrome trace format (also read by Perfetto, ``ui.perfetto.dev``) is
a JSON object with a ``traceEvents`` list. We emit:

- one *thread* per operator core array *instance* (MA, MM, NTT,
  Automorphism; replicated instances get their own ``MA#1``-style
  tracks) and one for the HBM channels, named via ``M`` metadata
  events;
- one complete (``ph: "X"``) event per task span — ``ts``/``dur`` in
  microseconds of *simulated* time — carrying the task's compute time,
  HBM time, bytes moved, waits, stall and instance in ``args``;
- a nested ``cat: "stall"`` slice over the tail of any span whose core
  instance sat waiting on the task's residual HBM stream, so stall
  shows up visually inside the occupancy span;
- an ``hbm_bytes`` counter (``ph: "C"``) track accumulating off-chip
  traffic over the run.

Only simulated time appears in the trace, so exports are deterministic:
the same program on the same config produces byte-identical JSON.

This module deliberately imports nothing from :mod:`repro.sim` at
module scope (the sim layer imports :mod:`repro.obs.metrics`); the
functions duck-type over :class:`~repro.sim.engine.SimulationResult`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid an import cycle with the sim layer
    from repro.sim.engine import SimulationResult

#: Stable thread ids per track, in paper core order; HBM and the
#: serving-layer request track after the cores.
TRACK_IDS = {"MA": 1, "MM": 2, "NTT": 3, "Automorphism": 4, "HBM": 9,
             "Requests": 10}

_SECONDS_TO_US = 1e6


def _track_id(core: str, instance: int = 0) -> int:
    # Unknown cores (future core types) get ids past the fixed block;
    # replicated instances get their own track past the instance-0 ones.
    base = TRACK_IDS.get(core, 100 + sum(map(ord, core)) % 100)
    return base + 16 * instance


def _track_name(core: str, instance: int = 0) -> str:
    return core if instance == 0 else f"{core}#{instance}"


def chrome_trace_events(
    result: "SimulationResult",
    *,
    pid: int = 0,
    process_name: str = "poseidon-sim",
) -> list[dict]:
    """The ``traceEvents`` list for one simulated run.

    ``pid``/``process_name`` place the run in its own Chrome-trace
    process — the fleet exporter gives every accelerator instance one
    process so its core/HBM tracks group visually.
    """
    events: list[dict] = [
        {
            "ph": "M", "pid": pid, "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    records = result.task_records
    rows = list(zip(
        records.names("core").tolist(), records.instance.tolist(),
        records.start.tolist(), records.end.tolist(),
        records.names("op_label").tolist(),
        records.compute_seconds.tolist(), records.hbm_seconds.tolist(),
        records.hbm_bytes.tolist(), records.queue_wait_seconds.tolist(),
        records.core_wait_seconds.tolist(), records.hbm_wait_seconds.tolist(),
        records.stall_seconds.tolist(), records.hbm_channels_used.tolist(),
        records.hbm_start.tolist(), records.hbm_end.tolist(),
    ))
    tracks = sorted(
        {(row[0], row[1]) for row in rows} | {("HBM", 0)},
        key=lambda pair: _track_id(*pair),
    )
    for core, instance in tracks:
        events.append({
            "ph": "M", "pid": pid, "tid": _track_id(core, instance),
            "name": "thread_name",
            "args": {"name": _track_name(core, instance)},
        })

    hbm_cumulative = 0
    for (core, instance, start, end, label, compute, hbm_seconds, hbm_bytes,
         queue_wait, core_wait, hbm_wait, stall, channels, hbm_start,
         hbm_end) in rows:
        tid = _track_id(core, instance)
        events.append({
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": start * _SECONDS_TO_US,
            "dur": (end - start) * _SECONDS_TO_US,
            "name": label,
            "cat": core,
            "args": {
                "compute_seconds": compute,
                "hbm_seconds": hbm_seconds,
                "hbm_bytes": hbm_bytes,
                "queue_wait_seconds": queue_wait,
                "core_wait_seconds": core_wait,
                "hbm_wait_seconds": hbm_wait,
                "stall_seconds": stall,
                "instance": instance,
                "hbm_channels_used": channels,
            },
        })
        if stall > 0:
            # Nested sub-slice marking the held-but-stalled tail.
            events.append({
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": (end - stall) * _SECONDS_TO_US,
                "dur": stall * _SECONDS_TO_US,
                "name": f"{label} stall",
                "cat": "stall",
                "args": {"stall_seconds": stall},
            })
        if hbm_seconds > 0:
            events.append({
                "ph": "X",
                "pid": pid,
                "tid": TRACK_IDS["HBM"],
                "ts": hbm_start * _SECONDS_TO_US,
                "dur": (hbm_end - hbm_start) * _SECONDS_TO_US,
                "name": f"{label} stream",
                "cat": "HBM",
                "args": {"bytes": hbm_bytes, "channels": channels},
            })
        if hbm_bytes:
            hbm_cumulative += hbm_bytes
            events.append({
                "ph": "C",
                "pid": pid,
                "ts": hbm_end * _SECONDS_TO_US,
                "name": "hbm_bytes",
                "args": {"cumulative": hbm_cumulative},
            })
    return events


def chrome_trace(result: "SimulationResult", *, label: str = "") -> dict:
    """Full Chrome-trace document for one simulated run."""
    return {
        "traceEvents": chrome_trace_events(result),
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "generator": "repro.obs.trace_export",
            "simulated_seconds": result.total_seconds,
            "hbm_bytes": result.hbm_bytes,
            "bandwidth_utilization": result.bandwidth_utilization,
        },
    }


def write_chrome_trace(
    result: "SimulationResult", path, *, label: str = ""
) -> dict:
    """Write the Chrome-trace JSON to ``path``; returns the document."""
    doc = chrome_trace(result, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


#: Chrome-trace pid of the fleet-level router/meta process (instances
#: use their own index as pid, so this just needs to be out of range).
CLUSTER_PID = 1000

#: Pid offset per engine epoch for crash-restarted instance lifetimes
#: (epoch 1 of instance 2 renders at pid 2 + _EPOCH_PID_STRIDE).
_EPOCH_PID_STRIDE = 10_000


def cluster_trace_events(cluster) -> list[dict]:
    """Trace events for a routed fleet run (see
    :mod:`repro.serve.cluster`).

    Every accelerator instance becomes its own Chrome-trace *process*
    (``poseidon-i<N>``) holding its core/HBM tracks plus a per-instance
    request track: async spans for admitted requests (``key_hit`` and
    routing in ``args``) and instant markers for arrivals the router
    sent there but admission rejected. A separate ``poseidon-router``
    process carries the fleet-wide queue-depth counter, a marker per
    autoscale event, and — for faulted runs — ``crash``/``restart``
    instant markers (also mirrored onto the affected instance's
    process). Duck-types over :class:`repro.serve.ClusterResult`.

    A crashed-and-restarted instance yields one report per engine
    epoch; epoch > 0 lifetimes get their own trace process
    (``poseidon-i<N>.e<epoch>``) at a shifted pid so their core/HBM
    tracks do not collide with the original lifetime's.
    """
    events: list[dict] = []
    for report in cluster.instances:
        epoch = getattr(report, "epoch", 0)
        pid = report.index + epoch * _EPOCH_PID_STRIDE
        name = f"poseidon-i{report.index}"
        if epoch:
            name = f"{name}.e{epoch}"
        events.extend(chrome_trace_events(
            report.sim,
            pid=pid,
            process_name=name,
        ))
        events.append({
            "ph": "M", "pid": pid, "tid": TRACK_IDS["Requests"],
            "name": "thread_name",
            "args": {"name": "Requests"},
        })
    for rec in cluster.records:
        tid = TRACK_IDS["Requests"]
        if rec.rejected:
            events.append({
                "ph": "i", "pid": rec.instance, "tid": tid, "s": "t",
                "ts": rec.arrival_seconds * _SECONDS_TO_US,
                "name": (
                    f"req{rec.request_id} rejected"
                    f" ({rec.reject_reason})"
                ),
                "cat": "request",
                "args": {
                    "tenant": rec.tenant,
                    "key_set": rec.key_set,
                    "reject_reason": rec.reject_reason,
                },
            })
            continue
        if rec.admit_seconds is None or rec.finish_seconds is None:
            continue
        name = f"req{rec.request_id}:{rec.job}"
        common = {
            "pid": rec.instance, "tid": tid, "cat": "request",
            "id": rec.request_id, "name": name,
        }
        events.append({
            "ph": "b",
            "ts": rec.admit_seconds * _SECONDS_TO_US,
            "args": {
                "arrival_seconds": rec.arrival_seconds,
                "queue_wait_seconds": rec.queue_wait_seconds,
                "batch_index": rec.batch_index,
                "tenant": rec.tenant,
                "key_set": rec.key_set,
                "key_hit": rec.key_hit,
            },
            **common,
        })
        events.append({
            "ph": "e",
            "ts": rec.finish_seconds * _SECONDS_TO_US,
            "args": {"latency_seconds": rec.latency_seconds},
            **common,
        })
    events.append({
        "ph": "M", "pid": CLUSTER_PID, "tid": 0,
        "name": "process_name",
        "args": {"name": "poseidon-router"},
    })
    for t, depth in cluster.queue_depth_series:
        events.append({
            "ph": "C", "pid": CLUSTER_PID,
            "ts": t * _SECONDS_TO_US,
            "name": "cluster_queue_depth",
            "args": {"depth": depth},
        })
    for t, count in cluster.scale_events:
        events.append({
            "ph": "i", "pid": CLUSTER_PID, "tid": 0, "s": "p",
            "ts": t * _SECONDS_TO_US,
            "name": f"scale-out to {count} instances",
            "cat": "autoscale",
        })
    for t, kind, index in getattr(cluster, "fault_events", ()):
        marker = {
            "ph": "i", "tid": 0, "s": "p",
            "ts": t * _SECONDS_TO_US,
            "name": f"{kind} i{index}",
            "cat": "fault",
            "args": {"instance": index, "kind": kind},
        }
        events.append({**marker, "pid": CLUSTER_PID})
        events.append({**marker, "pid": index})
    return events


def cluster_chrome_trace(cluster, *, label: str = "") -> dict:
    """Chrome-trace document for a routed fleet run."""
    return {
        "traceEvents": cluster_trace_events(cluster),
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "generator": "repro.obs.trace_export",
            "cluster": cluster.summary(),
        },
    }


def write_cluster_trace(cluster, path, *, label: str = "") -> dict:
    """Write a fleet run's Chrome-trace JSON; returns the document."""
    doc = cluster_chrome_trace(cluster, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def write_metrics_json(snapshot: dict, path, *, meta: dict | None = None) -> dict:
    """Write a flat metrics snapshot (plus optional metadata) as JSON."""
    doc = {"schema": 1, "meta": meta or {}, "metrics": snapshot}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc
