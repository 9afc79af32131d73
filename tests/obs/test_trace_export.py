"""Chrome-trace export: valid JSON, spans match Timeline intervals."""

import json

import pytest

from repro.compiler.program import compile_trace
from repro.obs.trace_export import (
    TRACK_IDS,
    chrome_trace,
    chrome_trace_events,
    write_chrome_trace,
    write_metrics_json,
)
from repro.sim.engine import PoseidonSimulator
from repro.sim.timeline import Timeline
from repro.sim.validate import validate_schedule
from repro.workloads import helr_trace


@pytest.fixture(scope="module")
def result():
    trace = helr_trace(degree=1 << 12, iterations=2, bootstraps=1)
    return PoseidonSimulator().run(compile_trace(trace))


def _span_events(events):
    # Task occupancy spans only: HBM stream spans live on their own
    # track and stall slices nest inside the task spans.
    return [
        e for e in events
        if e["ph"] == "X" and e["cat"] not in ("HBM", "stall")
    ]


class TestChromeTraceEvents:
    def test_metadata_names_every_track(self, result):
        events = chrome_trace_events(result)
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        used_cores = {r.core for r in result.task_records}
        assert used_cores <= names
        assert "HBM" in names

    def test_one_span_per_task_record(self, result):
        spans = _span_events(chrome_trace_events(result))
        assert len(spans) == len(result.task_records)

    def test_spans_match_timeline_intervals(self, result):
        timeline = Timeline(result)
        events = chrome_trace_events(result)
        for core, intervals in timeline.intervals.items():
            tid = TRACK_IDS[core]
            spans = sorted(
                (e for e in _span_events(events) if e["tid"] == tid),
                key=lambda e: e["ts"],
            )
            assert len(spans) == len(intervals)
            for span, interval in zip(spans, intervals):
                assert span["ts"] == pytest.approx(interval.start * 1e6)
                assert span["ts"] + span["dur"] == pytest.approx(
                    interval.end * 1e6
                )
                assert span["name"] == interval.op_label

    def test_per_core_spans_do_not_overlap(self, result):
        validate_schedule(result)
        events = _span_events(chrome_trace_events(result))
        by_tid: dict[int, list] = {}
        for e in events:
            by_tid.setdefault(e["tid"], []).append(e)
        for spans in by_tid.values():
            spans.sort(key=lambda e: e["ts"])
            for prev, cur in zip(spans, spans[1:]):
                assert cur["ts"] >= prev["ts"] + prev["dur"] - 1e-6

    def test_queue_wait_includes_hbm_arbitration(self, result):
        """queue_wait = max(core wait, HBM wait): the exported wait
        covers HBM-stream arbitration, not just core contention."""
        spans = _span_events(chrome_trace_events(result))
        assert spans, "expected task spans"
        for span in spans:
            args = span["args"]
            assert args["queue_wait_seconds"] == pytest.approx(
                max(args["core_wait_seconds"], args["hbm_wait_seconds"])
            )
            assert args["queue_wait_seconds"] >= args["hbm_wait_seconds"]

    def test_stall_slices_nest_inside_their_span(self, result):
        events = chrome_trace_events(result)
        stalls = [e for e in events if e["ph"] == "X" and e["cat"] == "stall"]
        spans = {
            (e["tid"], e["name"], e["ts"]): e for e in _span_events(events)
        }
        expected = sum(
            1 for r in result.task_records if r.stall_seconds > 0
        )
        assert len(stalls) == expected
        for stall in stalls:
            parents = [
                s for s in spans.values()
                if s["tid"] == stall["tid"]
                and s["ts"] <= stall["ts"] + 1e-9
                and stall["ts"] + stall["dur"] <= s["ts"] + s["dur"] + 1e-9
            ]
            assert parents, f"stall slice {stall['name']} has no parent span"

    def test_hbm_counter_monotonic_and_totals(self, result):
        events = chrome_trace_events(result)
        counters = [e for e in events if e["ph"] == "C"]
        values = [e["args"]["cumulative"] for e in counters]
        assert values == sorted(values)
        assert values[-1] == result.hbm_bytes


class TestDocuments:
    def test_round_trip_through_json(self, result, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(result, path, label="synthetic")
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert loaded["otherData"]["label"] == "synthetic"
        assert loaded["otherData"]["simulated_seconds"] == pytest.approx(
            result.total_seconds
        )

    def test_deterministic_export(self, result):
        assert chrome_trace(result) == chrome_trace(result)

    def test_metrics_json_round_trip(self, tmp_path):
        path = tmp_path / "metrics.json"
        doc = write_metrics_json(
            {"a.count": 3, "b.hist": {"count": 1, "mean": 2.0}},
            path,
            meta={"benchmark": "LR"},
        )
        loaded = json.loads(path.read_text())
        assert loaded == doc
        assert loaded["schema"] == 1
        assert loaded["metrics"]["a.count"] == 3
        assert loaded["meta"]["benchmark"] == "LR"
