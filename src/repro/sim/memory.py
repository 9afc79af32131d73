"""Memory-system model: HBM and scratchpad.

The HBM is modelled as a shared bandwidth resource with channel
granularity: Alveo U280 HBM2 exposes 32 pseudo-channels of ~14.4 GB/s
each, and a transfer only reaches the aggregate 460 GB/s if its
footprint stripes across all of them. Each task's off-chip traffic
occupies the HBM for ``bytes / effective_bandwidth`` seconds,
serialized against other tasks' traffic (the engine overlaps it with
compute where dependencies allow).

The scratchpad provides enough bandwidth (3.4 TB/s) that it is never
the bottleneck at 512 lanes — but the model still checks the working
set against its capacity and charges spill traffic when a task's
footprint exceeds it, which is what makes small-scratchpad
configurations degrade (see the scratchpad-ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import metrics
from repro.sim.config import HardwareConfig, LIMB_BYTES

#: Bytes one HBM pseudo-channel serves per striping unit. Transfers
#: smaller than ``stripe * channels`` cannot engage every channel.
HBM_STRIPE_BYTES = 64 * 1024


@dataclass(frozen=True)
class MemoryTiming:
    """Timing/traffic summary of one task's memory behaviour."""

    hbm_seconds: float
    hbm_bytes: int
    spad_seconds: float
    spill_bytes: int
    channels_used: int


def record_memory_metrics(reg, timing: MemoryTiming) -> None:
    """Count one task's scratchpad and HBM behaviour into ``reg``.

    :meth:`MemoryModel.task_timing` calls this for every task it
    models; the engine's admission plans call it again for every task
    they replay, so the counters stay per admitted task.
    """
    if timing.spill_bytes:
        reg.counter("sim.spad.misses").inc()
        reg.counter("sim.spad.spill_bytes").inc(timing.spill_bytes)
    else:
        reg.counter("sim.spad.hits").inc()
    if timing.hbm_bytes:
        reg.counter("sim.hbm.transfers").inc()
        reg.histogram("sim.hbm.channels_used").observe(timing.channels_used)


class MemoryModel:
    """Traffic/timing model bound to one hardware configuration."""

    def __init__(self, config: HardwareConfig):
        self.config = config

    def working_set_bytes(self, task) -> int:
        """Scratchpad bytes a task needs resident (in + out tiles)."""
        return 2 * min(task.elements, task.degree) * LIMB_BYTES

    def channels_for(self, transfer_bytes: int) -> int:
        """HBM pseudo-channels a transfer of this size can engage."""
        if transfer_bytes <= 0:
            return self.config.hbm_channels
        stripes = -(-transfer_bytes // HBM_STRIPE_BYTES)
        return max(1, min(self.config.hbm_channels, stripes))

    def effective_hbm_bandwidth(self, transfer_bytes: int) -> float:
        """Delivered bandwidth after channel-granularity effects."""
        cfg = self.config
        used = self.channels_for(transfer_bytes)
        return cfg.hbm_bandwidth * used / cfg.hbm_channels

    def task_timing(self, task) -> MemoryTiming:
        """Memory timing for one task.

        If the task's streaming working set exceeds the scratchpad, the
        overflow is charged as extra HBM traffic (spill + refill).
        """
        cfg = self.config
        spill = 0
        working = self.working_set_bytes(task)
        if working > cfg.scratchpad_bytes:
            spill = 2 * (working - cfg.scratchpad_bytes)
        hbm_bytes = task.hbm_bytes + spill
        channels = self.channels_for(hbm_bytes)
        if hbm_bytes:
            hbm_seconds = hbm_bytes / self.effective_hbm_bandwidth(
                hbm_bytes
            )
        else:
            hbm_seconds = 0.0
        spad_seconds = task.spad_bytes / cfg.scratchpad_bandwidth
        timing = MemoryTiming(
            hbm_seconds=hbm_seconds,
            hbm_bytes=hbm_bytes,
            spad_seconds=spad_seconds,
            spill_bytes=spill,
            channels_used=channels,
        )
        reg = metrics.active()
        if reg is not None:
            record_memory_metrics(reg, timing)
        return timing
