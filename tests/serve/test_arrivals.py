"""Arrival processes: determinism, statistics, and validation."""

import pytest

from repro.errors import ParameterError
from repro.serve import PoissonArrivals, TraceArrivals


class TestPoissonArrivals:
    def test_deterministic_per_seed(self):
        a = PoissonArrivals(rate=100.0, count=50, seed=3).times()
        b = PoissonArrivals(rate=100.0, count=50, seed=3).times()
        assert a == b  # bit-identical, not just approximately equal

    def test_seed_changes_stream(self):
        a = PoissonArrivals(rate=100.0, count=50, seed=0).times()
        b = PoissonArrivals(rate=100.0, count=50, seed=1).times()
        assert a != b

    def test_sorted_positive_and_counted(self):
        times = PoissonArrivals(rate=40.0, count=200, seed=0).times()
        assert len(times) == 200
        assert all(t > 0 for t in times)
        assert list(times) == sorted(times)

    def test_mean_gap_tracks_rate(self):
        # 2000 draws: the mean inter-arrival gap should sit within a
        # few percent of 1/rate for any reasonable seed.
        rate = 250.0
        times = PoissonArrivals(rate=rate, count=2000, seed=0).times()
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.10)

    def test_does_not_disturb_global_rng(self):
        import random

        random.seed(1234)
        expected = random.random()
        random.seed(1234)
        PoissonArrivals(rate=10.0, count=100, seed=9).times()
        assert random.random() == expected

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0, "count": 1},
        {"rate": -5.0, "count": 1},
        {"rate": 1.0, "count": 0},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            PoissonArrivals(**kwargs)


class TestTraceArrivals:
    def test_sorts_unordered_trace(self):
        trace = TraceArrivals([0.5, 0.1, 0.3])
        assert trace.times() == (0.1, 0.3, 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError, match="empty"):
            TraceArrivals([])

    def test_rejects_negative(self):
        with pytest.raises(ParameterError, match="negative"):
            TraceArrivals([0.1, -0.2])

    def test_rejects_infinite(self):
        with pytest.raises(ParameterError, match="infinite"):
            TraceArrivals([0.1, float("inf")])

    @pytest.mark.parametrize("stamps", [
        [0.1, float("nan"), 0.3],
        [float("nan"), float("inf"), 0.1],
    ])
    def test_rejects_nan_anywhere(self, stamps):
        """Every timestamp is checked, not the ends of a sorted trace
        (with a NaN present, the sort order is undefined)."""
        with pytest.raises(ParameterError, match="NaN"):
            TraceArrivals(stamps)

    def test_rejects_infinite_beside_nan(self):
        with pytest.raises(ParameterError):
            TraceArrivals([float("inf"), float("nan")])
