"""Energy model: per-operator dynamic energy plus memory access energy.

Fig. 12 of the paper shows memory access dominating benchmark energy,
with the MM and NTT core arrays leading the compute share and MA
nearly free. The model charges:

- a per-element dynamic energy per core array (MM/NTT high, MA low),
- a per-byte energy for HBM and scratchpad traffic,
- static power integrated over the makespan.

Constants are calibrated to the U280's ~60-90 W envelope at full tilt
and, relatively, to Fig. 12's breakdown shape. EDP (energy x delay) is
the Table X efficiency metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import HardwareConfig
from repro.sim.engine import SimulationResult
from repro.sim.ntt_cores import get_ntt_core
from repro.sim.tasks import KINDS

#: Dynamic energy per processed element, in joules (32-bit datapath).
#: The NTT entry is the default ``poseidon`` variant's coefficient;
#: :class:`EnergyModel` swaps in the configured variant's own value
#: (see :mod:`repro.sim.ntt_cores`) so the design explorer prices
#: alternative microarchitectures honestly.
CORE_ENERGY_PER_ELEMENT = {
    "MA": 2.0e-12,          # compare + conditional subtract
    "MM": 28.0e-12,         # DSP multiply + Barrett reduce
    "NTT": 45.0e-12,        # butterfly network + twiddle fetch + reduce
    "Automorphism": 6.0e-12,  # permutation network + FIFO moves
}

#: Memory access energy per byte.
HBM_ENERGY_PER_BYTE = 60.0e-12
SPAD_ENERGY_PER_BYTE = 2.0e-12

#: Static (leakage + clocking) power of the configured FPGA, watts.
STATIC_POWER_WATTS = 18.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy attribution of one simulated run (joules)."""

    core_energy: dict[str, float]
    hbm_energy: float
    spad_energy: float
    static_energy: float

    @property
    def total(self) -> float:
        return (
            sum(self.core_energy.values())
            + self.hbm_energy
            + self.spad_energy
            + self.static_energy
        )

    @property
    def memory_energy(self) -> float:
        """Combined off-chip + on-chip memory energy (Fig. 12's bar)."""
        return self.hbm_energy + self.spad_energy

    def shares(self) -> dict[str, float]:
        """Normalized breakdown: memory + each core array."""
        total = self.total
        if total <= 0:
            return {}
        out = {"memory": self.memory_energy / total,
               "static": self.static_energy / total}
        for core, e in self.core_energy.items():
            out[core] = e / total
        return out


class EnergyModel:
    """Computes energy and EDP for simulation results."""

    def __init__(self, config: HardwareConfig):
        self.config = config
        # Lane-count scaling: wider arrays burn proportionally more
        # per cycle but the per-element energy is constant, so only
        # static power needs adjusting (bigger deployed design).
        self._static_watts = STATIC_POWER_WATTS * (
            0.5 + 0.5 * config.lanes / 512
        )
        # The configured NTT core variant sets the NTT per-element
        # energy (identical to the table above for ``poseidon``).
        self._core_energy_per_element = dict(CORE_ENERGY_PER_ELEMENT)
        self._core_energy_per_element["NTT"] = get_ntt_core(
            config.ntt_core
        ).energy_per_element

    def breakdown(
        self, result: SimulationResult, program
    ) -> EnergyBreakdown:
        """Energy attribution for a simulated program."""
        core_energy: dict[str, float] = {
            name: 0.0 for name in self._core_energy_per_element
        }
        spad_bytes = 0
        tasks = program.tasks
        for kind, elements, spad in zip(
            tasks.column("kind").tolist(), tasks.column("elements").tolist(),
            tasks.column("spad_bytes").tolist(),
        ):
            core = KINDS[kind].core
            per_elem = self._core_energy_per_element.get(core)
            if per_elem is None:
                continue
            core_energy[core] += per_elem * elements
            spad_bytes += spad
        hbm_energy = result.hbm_bytes * HBM_ENERGY_PER_BYTE
        spad_energy = spad_bytes * SPAD_ENERGY_PER_BYTE
        static = self._static_watts * result.total_seconds
        return EnergyBreakdown(
            core_energy=core_energy,
            hbm_energy=hbm_energy,
            spad_energy=spad_energy,
            static_energy=static,
        )

    def edp(self, result: SimulationResult, program) -> float:
        """Energy-delay product in joule-seconds (Table X metric)."""
        return self.breakdown(result, program).total * result.total_seconds

    def average_power(self, result: SimulationResult, program) -> float:
        """Average power draw over the run, watts."""
        if result.total_seconds <= 0:
            return 0.0
        return self.breakdown(result, program).total / result.total_seconds
