"""Unit tests for the memory-system model."""

import pytest

from repro.sim.config import HardwareConfig, LIMB_BYTES
from repro.sim.memory import MemoryModel
from repro.sim.tasks import OperatorKind, OperatorTask

N = 1 << 14


def task(hbm_read=0, hbm_write=0, spad=0, elements=N, degree=N):
    return OperatorTask(
        kind=OperatorKind.MA,
        elements=elements,
        degree=degree,
        limbs=1,
        hbm_read_bytes=hbm_read,
        hbm_write_bytes=hbm_write,
        spad_bytes=spad,
    )


@pytest.fixture(scope="module")
def model():
    return MemoryModel(HardwareConfig())


class TestTiming:
    def test_hbm_time_full_stripe(self, model):
        """Transfers wide enough to engage all 32 channels see the
        aggregate 460 GB/s."""
        big = 32 * 64 * 1024 * 4  # 8 MB: 128 stripes >> 32 channels
        t = task(hbm_read=big)
        timing = model.task_timing(t)
        assert timing.channels_used == 32
        assert timing.hbm_seconds == pytest.approx(big / 460e9)

    def test_hbm_small_transfer_penalty(self, model):
        """A sub-stripe transfer only engages one pseudo-channel."""
        t = task(hbm_read=1024)
        timing = model.task_timing(t)
        assert timing.channels_used == 1
        assert timing.hbm_seconds == pytest.approx(
            1024 / (460e9 / 32)
        )

    def test_read_write_summed(self, model):
        t = task(hbm_read=1000, hbm_write=3000)
        assert model.task_timing(t).hbm_bytes == 4000

    def test_spad_time(self, model):
        t = task(spad=3_400_000)
        assert model.task_timing(t).spad_seconds == pytest.approx(
            3_400_000 / 3.4e12
        )

    def test_zero_traffic(self, model):
        timing = model.task_timing(task())
        assert timing.hbm_seconds == 0
        assert timing.spill_bytes == 0


class TestSpill:
    def test_no_spill_when_fits(self, model):
        t = task(elements=1024, degree=1024)
        assert model.task_timing(t).spill_bytes == 0

    def test_spill_on_small_scratchpad(self):
        tiny = HardwareConfig(scratchpad_bytes=1024)
        model = MemoryModel(tiny)
        t = task(elements=N, degree=N)
        timing = model.task_timing(t)
        assert timing.spill_bytes > 0
        # Spill = 2x the overflow (write out + read back).
        working = 2 * N * LIMB_BYTES
        assert timing.spill_bytes == 2 * (working - 1024)

    def test_spill_charged_as_hbm_time(self):
        tiny = HardwareConfig(scratchpad_bytes=1024)
        big = HardwareConfig()
        t = task(elements=N, degree=N)
        assert (
            MemoryModel(tiny).task_timing(t).hbm_seconds
            > MemoryModel(big).task_timing(t).hbm_seconds
        )
