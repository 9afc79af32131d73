"""Baseline comparators for the paper's evaluation tables.

Two kinds:

- **Analytical**: :mod:`repro.baselines.cpu` models the single-thread
  Xeon baseline from operation counts (the paper's CPU column).
- **Published numbers**: :mod:`repro.baselines.gpu` (over100x, Jung et
  al.), :mod:`repro.baselines.heax` (the HEAX FPGA) and
  :mod:`repro.baselines.asics` (F1+, CraterLake, BTS, ARK) encode the
  figures the paper itself compares against — those systems are closed,
  so the paper (and we) cite their reported results.
"""

from repro.baselines.asics import ASIC_BENCHMARK_MS, AsicModel
from repro.baselines.cpu import CpuModel
from repro.baselines.gpu import GPU_BASIC_OPS, GPU_BENCHMARK_MS
from repro.baselines.heax import HEAX_BASIC_OPS, HEAX_RESOURCES

__all__ = [
    "ASIC_BENCHMARK_MS",
    "AsicModel",
    "CpuModel",
    "GPU_BASIC_OPS",
    "GPU_BENCHMARK_MS",
    "HEAX_BASIC_OPS",
    "HEAX_RESOURCES",
]
