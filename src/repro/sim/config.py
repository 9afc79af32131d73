"""Hardware configuration of the modelled Poseidon accelerator.

Defaults mirror the paper's prototype on the Xilinx Alveo U280:
512 vector lanes, 64 radix-8 NTT cores, an 8.6 MB scratchpad at
3.4 TB/s, two HBM2 stacks at 460 GB/s, 300 MHz core clock, 32-bit
limbs. Every field is sweepable — Fig. 10 sweeps ``ntt_radix_log2``,
Fig. 11 sweeps ``lanes``, Table IX toggles ``use_hfauto``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ParameterError
from repro.sim.ntt_cores import DEFAULT_NTT_CORE, available_ntt_cores
from repro.utils.bitops import is_power_of_two

#: Bytes per RNS limb element (the paper's 32-bit datapath).
LIMB_BYTES = 4

#: The physical operator core arrays the scheduler manages (NTT/INTT
#: share the NTT array, SBT shares the MM array; see
#: :class:`repro.sim.tasks.OperatorKind`).
CORE_ARRAYS = ("MA", "MM", "NTT", "Automorphism")


@dataclass(frozen=True)
class HardwareConfig:
    """Immutable accelerator configuration.

    Attributes:
        lanes: vector-lane width C (elements processed per cycle).
        frequency_hz: core clock.
        hbm_bandwidth: off-chip HBM bandwidth in bytes/second.
        hbm_channels: HBM pseudo-channel count (access granularity).
        scratchpad_bytes: on-chip scratchpad capacity.
        scratchpad_bandwidth: on-chip bandwidth in bytes/second.
        ntt_radix_log2: NTT-fusion parameter k (paper default 3).
        ntt_cores: parallel NTT butterfly cores (64 x 8-input = 512).
        ntt_core: NTT core microarchitecture variant (see
            :mod:`repro.sim.ntt_cores` and ``docs/CORES.md``); the
            default ``"poseidon"`` is the paper's fused radix-2^k
            design and reproduces every baseline number byte-for-byte.
        use_hfauto: HFAuto (True) vs naive one-element Auto (False).
        pcie_bandwidth: host link bandwidth (staging only).
        core_instances: per-core-array instance counts as sorted
            ``(core, count)`` pairs; arrays not listed have one
            instance (the paper's prototype). Stored as a tuple so the
            config stays hashable/frozen.
    """

    lanes: int = 512
    frequency_hz: float = 300e6
    hbm_bandwidth: float = 460e9
    hbm_channels: int = 32
    scratchpad_bytes: int = int(8.6 * 2**20)
    scratchpad_bandwidth: float = 3.4e12
    ntt_radix_log2: int = 3
    ntt_cores: int = 64
    use_hfauto: bool = True
    pcie_bandwidth: float = 16e9
    core_instances: tuple[tuple[str, int], ...] = ()
    ntt_core: str = DEFAULT_NTT_CORE

    def __post_init__(self):
        if not is_power_of_two(self.lanes):
            raise ParameterError(f"lanes must be a power of two, got {self.lanes}")
        if self.frequency_hz <= 0:
            raise ParameterError("frequency must be positive")
        if self.ntt_radix_log2 < 1:
            raise ParameterError(
                f"NTT radix exponent must be >= 1, got {self.ntt_radix_log2}"
            )
        if self.hbm_bandwidth <= 0 or self.scratchpad_bandwidth <= 0:
            raise ParameterError("bandwidths must be positive")
        if self.hbm_channels < 1:
            raise ParameterError(
                f"need at least one HBM channel, got {self.hbm_channels}"
            )
        for core, count in self.core_instances:
            if core not in CORE_ARRAYS:
                raise ParameterError(
                    f"unknown core array {core!r} in core_instances "
                    f"(known: {', '.join(CORE_ARRAYS)})"
                )
            if not isinstance(count, int) or count < 1:
                raise ParameterError(
                    f"core {core} needs a positive instance count, got {count!r}"
                )
        if self.ntt_core not in available_ntt_cores():
            raise ParameterError(
                f"unknown NTT core variant {self.ntt_core!r} "
                f"(registered: {', '.join(available_ntt_cores())})"
            )

    # ------------------------------------------------------------------
    @property
    def cycle_seconds(self) -> float:
        """Duration of one core clock cycle."""
        return 1.0 / self.frequency_hz

    @property
    def hbm_bytes_per_cycle(self) -> float:
        """HBM bytes deliverable per core cycle."""
        return self.hbm_bandwidth / self.frequency_hz

    def with_lanes(self, lanes: int) -> "HardwareConfig":
        """Copy with a different lane count (Fig. 11 sweeps).

        NTT cores scale with lanes (each 2^k-input core consumes 2^k
        lanes' worth of operands per cycle), and the scratchpad is
        sized proportionally as in the paper (8.6 MB at 512 lanes).
        Both scale from *this* config's values — not the paper default
        — so a customized scratchpad (or core count) survives a sweep,
        and chained ``with_lanes`` calls compose instead of compounding
        against a stale base.
        """
        ratio = lanes / self.lanes
        return replace(
            self,
            lanes=lanes,
            ntt_cores=max(1, int(self.ntt_cores * ratio)),
            scratchpad_bytes=max(1, int(self.scratchpad_bytes * ratio)),
        )

    def with_radix(self, radix_log2: int) -> "HardwareConfig":
        """Copy with a different NTT-fusion k (Fig. 10 sweeps)."""
        return replace(self, ntt_radix_log2=radix_log2)

    def with_hfauto(self, enabled: bool) -> "HardwareConfig":
        """Copy toggling HFAuto (Table IX ablation)."""
        return replace(self, use_hfauto=enabled)

    def with_ntt_core(self, name: str) -> "HardwareConfig":
        """Copy with a different NTT core microarchitecture.

        ``name`` must be registered in
        :mod:`repro.sim.ntt_cores` (``poseidon``, ``hermes``,
        ``hf-ntt``, ``digit-serial`` out of the box); validation
        happens in ``__post_init__``.
        """
        return replace(self, ntt_core=name)

    # ------------------------------------------------------------------
    def instances_of(self, core: str) -> int:
        """Instance count of one core array (1 unless overridden)."""
        for name, count in self.core_instances:
            if name == core:
                return count
        return 1

    def with_core_instances(self, **counts: int) -> "HardwareConfig":
        """Copy with per-array instance counts, e.g. ``NTT=2, MA=2``.

        Unnamed arrays keep their current count. Replicating an array
        lets the scheduler dispatch multiple tasks of that operator
        concurrently (an area-for-latency trade the paper's single
        prototype does not take, but the design space supports).
        """
        merged = dict(self.core_instances)
        merged.update(counts)
        return replace(self, core_instances=tuple(sorted(merged.items())))


#: The paper's default Poseidon configuration.
POSEIDON_U280 = HardwareConfig()

#: The ablation configuration with the naive automorphism core.
POSEIDON_U280_NAIVE_AUTO = HardwareConfig(use_hfauto=False)
