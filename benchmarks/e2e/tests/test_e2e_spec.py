"""BENCHMARK.json agrees with the names, units and bounds the benchmark emits."""

from __future__ import annotations

import json
import re
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parents[3]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_shape():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60


def test_workloads_match_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == spec.WORKLOADS[w["name"]]
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_end_to_end_match_spec():
    assert len(spec.END_TO_END) == 14
    listed = BENCHMARK["end_to_end"]
    assert 1 <= len(listed) <= 16
    assert listed == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.listed_end_to_end()
    ]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in listed)
    for m in listed:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in listed if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in listed)


def test_per_layer_match_spec():
    listed = BENCHMARK["per_layer"]
    assert 1 <= len(listed) <= 128
    assert listed == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in spec.per_layer_metrics()
    ]


def test_names_and_units_are_well_formed():
    entries = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"] + BENCHMARK["workloads"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for e in entries:
        assert NAME.fullmatch(e["name"]), e["name"]
        if "unit" in e:
            assert UNIT.fullmatch(e["unit"]), e["unit"]
            assert e["better"] in ("higher", "lower")
    for m in spec.END_TO_END:
        assert NAME.fullmatch(m.name) and UNIT.fullmatch(m.unit)


def test_every_span_has_a_heaviest_user():
    for span in spec.SPANS:
        assert spec.heaviest_user(span) in spec.WORKLOADS
        assert span.layer in spec.HEAVIEST_USER
