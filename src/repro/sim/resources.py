"""FPGA resource model: LUT/FF/DSP/BRAM per operator core array.

The paper reports resource consumption per core (Table XI), the
Auto-vs-HFAuto tradeoff (Table VIII), an NTT-fusion resource sweep
(Fig. 10) and a cross-prototype comparison (Table XII). Synthesis is
obviously out of reach in Python; this model is *structural*: each core
array's resources are derived from its datapath composition (lane
count, multiplier width, fused-butterfly operation counts) with unit
costs calibrated so the default configuration reproduces the paper's
Table VIII/XI rows, and it extrapolates for sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automorphism.hfauto import hfauto_cycles_per_limb
from repro.sim.config import HardwareConfig
from repro.sim.ntt_cores import (
    BRAM_PER_KB,  # noqa: F401  (canonical home moved; re-exported)
    NTT_BASE,
    NTT_SHAPE,
    get_ntt_core,
)

#: Unit costs of one 32-bit datapath element on UltraScale+ fabric.
LUT_PER_ADDER = 32          # 32-bit add/sub + compare
FF_PER_STAGE = 36           # pipeline register per 32-bit value
DSP_PER_MULT = 3            # 32x32 multiply = 3 DSP48 slices
LUT_PER_MULT_GLUE = 58      # reduction glue logic around the DSPs


@dataclass(frozen=True)
class ResourceVector:
    """FPGA resource counts."""

    lut: int
    ff: int
    dsp: int
    bram: int

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.lut + other.lut,
            self.ff + other.ff,
            self.dsp + other.dsp,
            self.bram + other.bram,
        )

    def scaled(self, factor: float) -> "ResourceVector":
        return ResourceVector(
            int(self.lut * factor),
            int(self.ff * factor),
            int(self.dsp * factor),
            int(self.bram * factor),
        )


#: Paper Table VIII rows (naive Auto vs HFAuto, C = 512).
PAPER_AUTO = {"ff": 88, "dsp": 0, "lut": 0, "bram": 0, "latency": 65536}
PAPER_HFAUTO = {"ff": 572, "dsp": 0, "lut": 25751, "bram": 512,
                "latency": 512}


class ResourceModel:
    """Structural resource estimates for one configuration."""

    def __init__(self, config: HardwareConfig):
        self.config = config

    # ------------------------------------------------------------------
    # Per-core arrays
    # ------------------------------------------------------------------
    def ma_core(self) -> ResourceVector:
        """MA array: one adder + compare/subtract per lane."""
        lanes = self.config.lanes
        return ResourceVector(
            lut=2 * LUT_PER_ADDER * lanes,
            ff=2 * FF_PER_STAGE * lanes,
            dsp=0,
            bram=0,
        )

    def mm_core(self) -> ResourceVector:
        """MM array: multiplier + Barrett reduction per lane."""
        lanes = self.config.lanes
        return ResourceVector(
            lut=LUT_PER_MULT_GLUE * lanes,
            ff=6 * FF_PER_STAGE * lanes,
            dsp=DSP_PER_MULT * lanes,
            bram=0,
        )

    def sbt_core(self) -> ResourceVector:
        """Shared Barrett reduction array (reciprocal mults + shifts).

        One DSP per lane: the second Barrett multiply rides the MM
        array's multipliers (that sharing is the point of SBT).
        """
        lanes = self.config.lanes
        return ResourceVector(
            lut=(LUT_PER_MULT_GLUE // 2) * lanes,
            ff=4 * FF_PER_STAGE * lanes,
            dsp=lanes,
            bram=0,
        )

    #: Fused-core (``poseidon``) shape/base tables — canonical values
    #: live in :mod:`repro.sim.ntt_cores`; kept here as class attrs for
    #: backwards compatibility.
    NTT_SHAPE = NTT_SHAPE
    NTT_BASE = NTT_BASE

    def ntt_core(self) -> ResourceVector:
        """NTT array resources of the configured core variant.

        The default ``poseidon`` variant models the 2^k-input fused
        butterflies + twiddle BRAM: logic scales with lanes and with
        the Fig.-10-calibrated shape factor over the fusion radix (see
        :attr:`NTT_SHAPE`), and BRAM also carries the fused twiddle
        factors of Table II. The competing variants carry their own
        structural formulas in :mod:`repro.sim.ntt_cores` (e.g.
        ``hf-ntt`` is a fixed-size array independent of lanes,
        ``digit-serial`` trades nearly all DSPs for LUT digit
        arithmetic).
        """
        variant = get_ntt_core(self.config.ntt_core)
        return ResourceVector(**variant.resources(self.config))

    def automorphism_core(self) -> ResourceVector:
        """HFAuto (C-wide crossbar + FIFOs + BRAM) or naive Auto."""
        if not self.config.use_hfauto:
            return ResourceVector(
                lut=0, ff=PAPER_AUTO["ff"], dsp=0, bram=0
            )
        c = self.config.lanes
        # Calibrated to Table VIII at C = 512: LUT ~= 25,751, FF 572,
        # BRAM 512 (one column per lane for the dimension switch).
        return ResourceVector(
            lut=int(25751 * c / 512),
            ff=int(572 * c / 512),
            dsp=0,
            bram=int(512 * c / 512),
        )

    def scratchpad(self) -> ResourceVector:
        """Scratchpad BRAM (capacity / 4KB per 36Kb block)."""
        blocks = int(self.config.scratchpad_bytes / 1024 * BRAM_PER_KB)
        return ResourceVector(lut=0, ff=0, dsp=0, bram=blocks)

    # ------------------------------------------------------------------
    def per_core_table(self) -> dict[str, ResourceVector]:
        """Table XI: resources per operator core array."""
        return {
            "MA": self.ma_core(),
            "MM": self.mm_core(),
            "SBT": self.sbt_core(),
            "NTT": self.ntt_core(),
            "Automorphism": self.automorphism_core(),
        }

    def total(self, *, include_scratchpad: bool = True) -> ResourceVector:
        """Whole-accelerator resource total."""
        total = ResourceVector(0, 0, 0, 0)
        for vec in self.per_core_table().values():
            total = total + vec
        if include_scratchpad:
            total = total + self.scratchpad()
        return total

    def automorphism_latency_cycles(self, degree: int) -> int:
        """Latency of one automorphism pass (Table VIII's last column).

        Delegates to the same stage-cost formula the functional
        :class:`~repro.automorphism.hfauto.HFAutoPlan` reports, so the
        published-table renderer and the cycle model agree by
        construction.
        """
        if not self.config.use_hfauto:
            return degree
        c = min(self.config.lanes, degree)
        return hfauto_cycles_per_limb(degree, c)


#: Published resource totals of competing FPGA prototypes (Table XII).
PAPER_FPGA_PROTOTYPES = {
    "Kim et al. [25][26]": {"lut": 798000, "ff": 1232000, "dsp": 3584,
                            "bram": 3360},
    "HEAX [32]": {"lut": 569000, "ff": 1261000, "dsp": 8448, "bram": 2528},
}
