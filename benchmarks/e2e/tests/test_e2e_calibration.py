"""The calibration sampler scales each interval by its own speed."""

from __future__ import annotations

import time

import pytest

import calibration


class _FakeTime:
    """A perf_counter the test advances; chunks take a scripted time."""

    def __init__(self):
        self.now = 0.0
        self.chunk_seconds = calibration.REFERENCE_S

    def perf_counter(self) -> float:
        return self.now

    def chunk(self) -> None:
        self.now += self.chunk_seconds


@pytest.fixture
def fake(monkeypatch):
    fake = _FakeTime()
    monkeypatch.setattr(calibration.time, "perf_counter", fake.perf_counter)
    monkeypatch.setattr(calibration, "chunk", fake.chunk)
    return fake


def test_intervals_are_scaled_by_the_speed_at_their_ends(fake):
    sampler = calibration.Sampler()
    sampler._tick()  # full speed: rate 1
    fake.now += 1.0
    fake.chunk_seconds = 2 * calibration.REFERENCE_S  # half speed from here
    sampler._tick()
    fake.now += 1.0
    sampler._tick()
    # Chunk time is not on the clock.
    assert sampler.clock() == pytest.approx(2.0)
    assert sampler.first_rate == pytest.approx(1.0)
    # First second at mean rate 0.75, second at 0.5.
    assert sampler.normalized(0.0, 2.0) == pytest.approx(1.25)
    assert sampler.normalized(0.5, 1.5) == pytest.approx(0.375 + 0.25)
    # Beyond the last chunk, the last interval's rate carries on.
    assert sampler.normalized(2.0, 3.0) == pytest.approx(0.5)


def test_running_brackets_a_short_block_with_chunks():
    sampler = calibration.Sampler()
    with sampler.running():
        start = sampler.clock()
        time.sleep(0.01)
        end = sampler.clock()
    assert len(sampler._rates) == 2
    assert sampler.normalized(start, end) > 0
