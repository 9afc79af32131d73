"""Exact pin: the live model reproduces every ``benchmarks/baseline.json``
simulated time byte-for-byte.

Each parametrized case re-runs one pinned workload through the live
model stack with its measurement from ``benchmarks/baseline.py`` (the
Table VI, serving and fleet measurements validate their schedules) and
asserts *exact float equality* against the stored value. An intended
model change re-pins with ``python benchmarks/baseline.py`` and shows
the movement in ``git diff benchmarks/baseline.json``.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent.parent / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

import baseline  # noqa: E402  (path bootstrap must come first)

PINNED = baseline.load()


def test_covers_every_simulated_entry():
    """The file pins exactly the workloads baseline.py measures."""
    assert sorted(PINNED) == sorted(baseline.MEASUREMENTS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_default_variant_reproduces_baseline(name):
    got = baseline.MEASUREMENTS[name]()
    want = PINNED[name]
    assert got == want, (
        f"{name}: simulated time drifted from baseline "
        f"({got!r} != {want!r})"
    )
