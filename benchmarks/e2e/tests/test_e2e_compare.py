"""compare.py verdicts on synthetic reports."""

from __future__ import annotations

import copy
import json

import pytest

import compare


def _host(values, bound=0.10, better="lower"):
    values = sorted(values)
    n = len(values)
    return {
        "unit": "s", "better": better, "bound": bound, "kind": "host",
        "median": values[n // 2], "q1": values[n // 4], "q3": values[(3 * n) // 4],
        "n": n, "values": values,
    }


def _exact(value, kind="simulated"):
    return {"unit": "sim_s", "better": "lower", "bound": 0.0, "kind": kind,
            "median": value, "q1": value, "q3": value, "n": 1, "values": [value]}


def _report(metrics, *, seed=0, digest="d0", calibration=0.07, correct=True):
    return {
        "schema": 1, "seed": seed, "quick": False,
        "calibration_s": {"start": calibration, "end": calibration},
        "workloads": {"w": {"correct": correct, "digest": digest, "metrics": metrics}},
    }


STEADY = [1.00, 1.01, 1.02, 0.99, 1.00]


@pytest.mark.parametrize("b_values, expected", [
    ([1.00, 1.01, 1.02, 0.99, 1.00], "unchanged"),
    ([1.20, 1.21, 1.22, 1.19, 1.20], "regressed"),
    ([0.80, 0.81, 0.82, 0.79, 0.80], "improved"),
    ([0.70, 0.90, 1.00, 1.12, 1.30], "unresolved"),  # spread wider than the bound
    ([0.40, 0.60, 0.85, 0.88, 0.98], "improved"),  # wide, but every B beats every A
])
def test_host_verdicts(b_values, expected):
    assert compare.verdict(_host(STEADY), _host(b_values)) == expected


def test_higher_is_better_flips_direction():
    a = _host([100, 101, 102], better="higher")
    assert compare.verdict(a, _host([80, 81, 82], better="higher")) == "regressed"
    assert compare.verdict(a, _host([130, 131, 132], better="higher")) == "improved"


def test_exact_metrics_compare_for_equality():
    assert compare.verdict(_exact(1.5), _exact(1.5)) == "unchanged"
    assert compare.verdict(_exact(1.5), _exact(1.5 + 1e-12)) == "regressed"
    assert compare.verdict(_exact(1.5), _exact(1.4)) == "improved"
    assert compare.verdict(_exact(1.5), _exact(1.6), same_inputs=False) == "unresolved"
    fails = _exact(0.0, kind="count")
    assert compare.verdict(fails, _exact(0.2, kind="count")) == "regressed"


def test_digest_mismatch_regresses_and_exits_nonzero(tmp_path):
    a = _report({"wall_s": _host(STEADY)})
    b = copy.deepcopy(a)
    b["workloads"]["w"]["digest"] = "d1"
    rows, notes, failed = compare.compare(a, b)
    assert ("w", "output_digest", "d0", "d1", "regressed") in rows
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert compare.main([str(pa), str(pb)]) == 1
    pb.write_text(json.dumps(a))
    assert compare.main([str(pa), str(pb)]) == 0


def test_failed_check_in_b_exits_nonzero(tmp_path):
    a = _report({"wall_s": _host(STEADY)})
    b = _report({"wall_s": _host(STEADY)}, correct=False)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert compare.main([str(pa), str(pb)]) == 1


def test_calibration_drift_is_flagged():
    a = _report({"wall_s": _host(STEADY)}, calibration=0.070)
    _, notes, _ = compare.compare(a, _report({"wall_s": _host(STEADY)}, calibration=0.072))
    assert not any("drift" in n for n in notes)
    _, notes, _ = compare.compare(a, _report({"wall_s": _host(STEADY)}, calibration=0.080))
    assert any("drift" in n for n in notes)


def test_different_seeds_leave_exact_metrics_unresolved():
    a = _report({"sim": _exact(1.0)})
    b = _report({"sim": _exact(2.0)}, seed=1, digest="d1")
    rows, notes, _ = compare.compare(a, b)
    assert {row[-1] for row in rows} == {"unresolved"}
