#!/usr/bin/env python3
"""Compare two benchmark reports: improved, unchanged, regressed, unresolved.

    python3 benchmarks/e2e/compare.py base.json new.json

Both files come from ``run.py --out``. For every (workload, metric)
pair the verdict follows the benchmark's rule:

- a host metric whose median is worse than A's by more than its bound
  is *regressed*;
- otherwise, if either run's quartile spread (as a share of its median)
  is wider than the bound, it is *unresolved*, unless every sample of B
  beats every sample of A;
- a median better by more than the bound is *improved*, anything else
  *unchanged*;
- simulated metrics, counts and output digests are compared for
  equality, and only between runs with the same seed and inputs.

Each report carries a calibration loop timed at its start and end; when
the two runs' calibrations differ by more than 10% the comparison is
flagged as machine drift. Exit status is 1 on any regression or failed
check in B, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

#: Calibration change between runs that flags machine drift.
DRIFT = 0.10


def _worse(better: str, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (of 1
    when ``a`` is 0, as a failure fraction can be)."""
    change = (b - a) / (abs(a) or 1.0)
    return change if better == "lower" else -change


def _spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0


def verdict(a: dict, b: dict, *, same_inputs: bool = True) -> str:
    """Verdict for one metric, given its entries in reports A and B."""
    better, bound = a["better"], a["bound"]
    if a["kind"] != "host":
        if not same_inputs:
            return "unresolved"
        if b["median"] == a["median"]:
            return "unchanged"
        return "regressed" if _worse(better, a["median"], b["median"]) > 0 else "improved"
    worse = _worse(better, a["median"], b["median"])
    if worse > bound:
        return "regressed"
    if better == "lower":
        beats_all = max(b["values"]) < min(a["values"])
    else:
        beats_all = min(b["values"]) > max(a["values"])
    if max(_spread(a), _spread(b)) > bound and not beats_all:
        return "unresolved"
    return "improved" if -worse > bound else "unchanged"


def calibration(report: dict) -> float:
    return statistics.median(report["calibration_s"].values())


def compare(a: dict, b: dict) -> tuple[list[tuple], list[str], bool]:
    """Rows ``(workload, metric, A, B, verdict)``, notes, and whether B
    failed a check."""
    rows: list[tuple] = []
    notes: list[str] = []
    same_inputs = (a["seed"], a["quick"]) == (b["seed"], b["quick"])
    if not same_inputs:
        notes.append("different seed or --quick: exact metrics and digests unresolved")
    cal_a, cal_b = calibration(a), calibration(b)
    if abs(cal_b / cal_a - 1.0) > DRIFT:
        notes.append(
            f"machine drift: calibration {cal_a:.4f} s in A, {cal_b:.4f} s in B "
            f"({100 * (cal_b / cal_a - 1):+.0f}%)"
        )
    failed = False
    for workload, wb in b["workloads"].items():
        failed |= not wb["correct"]
        wa = a["workloads"].get(workload)
        if wa is None:
            notes.append(f"{workload}: not in A")
            continue
        for name, mb in wb["metrics"].items():
            ma = wa["metrics"].get(name)
            if ma is not None:
                rows.append((workload, name, ma["median"], mb["median"],
                             verdict(ma, mb, same_inputs=same_inputs)))
        if not same_inputs:
            digest = "unresolved"
        else:
            digest = "unchanged" if wa["digest"] == wb["digest"] else "regressed"
        rows.append((workload, "output_digest", wa["digest"], wb["digest"], digest))
    return rows, notes, failed


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline report (run.py --out)")
    parser.add_argument("b", help="report to judge against it")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    rows, notes, failed = compare(a, b)
    print(f"{'workload':15} {'metric':26} {'A':>12} {'B':>12}  verdict")
    for workload, name, va, vb, v in rows:
        print(f"{workload:15} {name:26} {_fmt(va):>12} {_fmt(vb):>12}  {v}")
    for note in notes:
        print(f"note: {note}")
    regressed = sum(1 for row in rows if row[-1] == "regressed")
    if failed:
        print("B failed a check")
    print(f"{regressed} regressed, "
          f"{sum(1 for row in rows if row[-1] == 'unresolved')} unresolved")
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
