"""Sanity tests on the published-number baselines (GPU/HEAX/ASICs)."""

import pytest

from repro import baselines
from repro.baselines.asics import (
    ASIC_BENCHMARK_MS,
    ASIC_ENVELOPES,
    AsicModel,
    all_asics,
)
from repro.baselines.gpu import GPU_BASIC_OPS, GPU_BENCHMARK_MS, gpu_edp
from repro.baselines.heax import HEAX_BASIC_OPS, HEAX_RESOURCES, KIM_RESOURCES


class TestAsicModels:
    def test_four_asics(self):
        names = [a.name for a in all_asics()]
        assert names == ["F1+", "CraterLake", "BTS", "ARK"]

    def test_every_asic_has_power(self):
        for name in ASIC_BENCHMARK_MS:
            assert ASIC_ENVELOPES[name]["power_w"] > 0

    def test_edp_computation(self):
        ark = AsicModel("ARK")
        edp = ark.edp("LR")
        seconds = ASIC_BENCHMARK_MS["ARK"]["LR"] / 1e3
        assert edp == pytest.approx(
            ASIC_ENVELOPES["ARK"]["power_w"] * seconds**2
        )

    def test_missing_benchmark_none(self):
        assert AsicModel("F1+").benchmark_ms("LSTM") is None
        assert AsicModel("F1+").edp("LSTM") is None

    def test_ark_fastest_asic(self):
        """Paper ordering: ARK dominates the other ASICs."""
        for bench in ("LR", "Packed Bootstrapping"):
            ark = ASIC_BENCHMARK_MS["ARK"][bench]
            for other in ("F1+", "CraterLake", "BTS"):
                ms = ASIC_BENCHMARK_MS[other].get(bench)
                if ms is not None:
                    assert ark < ms


class TestGpuHeax:
    def test_gpu_numbers_present(self):
        assert GPU_BASIC_OPS["PMult"] == 7407.0
        assert "LR" in GPU_BENCHMARK_MS

    def test_heax_numbers_present(self):
        assert HEAX_BASIC_OPS["CMult"] == 119.0

    def test_gpu_edp(self):
        assert gpu_edp("LR") > 0
        assert gpu_edp("ResNet-20") is None

    def test_heax_resources_vs_kim(self):
        assert HEAX_RESOURCES["dsp"] > KIM_RESOURCES["dsp"]
        assert set(HEAX_RESOURCES) == {"lut", "ff", "dsp", "bram"}


class TestRegistry:
    """The package exports are the comparator lookup tables."""

    def test_gpu_lookup(self):
        assert baselines.GPU_BASIC_OPS.get("PMult") == 7407.0
        assert baselines.GPU_BASIC_OPS.get("NTT") is None
