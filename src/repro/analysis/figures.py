"""Regeneration of the paper's figures as data series.

Each function returns the series that, plotted, reproduce the figure:
shares per category (Figs. 7-9, 12) or sweep curves (Figs. 10-11).
"""

from __future__ import annotations

from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.program import compile_trace
from repro.sim.config import HardwareConfig
from repro.sim.energy import EnergyModel
from repro.sim.engine import PoseidonSimulator
from repro.sim.resources import ResourceModel
from repro.sim.stats import benchmark_operator_shares, operator_core_shares
from repro.sim.tasks import OperatorKind, OperatorTask
from repro.workloads import PAPER_BENCHMARKS

#: Fig. 7's parameter context (the paper caption's N/L setting).
FIG7_DEGREE = 1 << 16
FIG7_LEVEL = 44
FIG7_AUX = 4

#: Paper Fig. 9 headline: MM and NTT dominate operator time.
PAPER_FIG9_DOMINANT = ("MM", "NTT")


# ----------------------------------------------------------------------
# Fig. 7 — operator-core composition of each basic operation
# ----------------------------------------------------------------------
def fig7_operator_analysis(config: HardwareConfig | None = None) -> dict:
    """Per basic operation, the time share spent in each core array."""
    sim = PoseidonSimulator(config)
    shares: dict[str, dict[str, float]] = {}
    for name in (
        FheOpName.HADD,
        FheOpName.PMULT,
        FheOpName.CMULT,
        FheOpName.RESCALE,
        FheOpName.KEYSWITCH,
        FheOpName.ROTATION,
    ):
        op = FheOp.make(name, FIG7_DEGREE, FIG7_LEVEL, aux_limbs=FIG7_AUX)
        result = sim.run_ops([op])
        shares.update(operator_core_shares(result))
    return {
        "series": shares,
        "parameters": {"degree": FIG7_DEGREE, "level": FIG7_LEVEL},
    }


# ----------------------------------------------------------------------
# Fig. 8 — basic-operation time share per benchmark
# ----------------------------------------------------------------------
def fig8_benchmark_op_breakdown(
    config: HardwareConfig | None = None,
) -> dict:
    """Per benchmark, the share of time in each basic operation."""
    sim = PoseidonSimulator(config)
    series = {}
    totals = {}
    for bench, builder in PAPER_BENCHMARKS.items():
        result = sim.run(compile_trace(builder()))
        series[bench] = result.op_share()
        totals[bench] = result.total_seconds * 1e3
    return {"series": series, "total_ms": totals}


# ----------------------------------------------------------------------
# Fig. 9 — key-operator time share per benchmark
# ----------------------------------------------------------------------
def fig9_operator_breakdown(config: HardwareConfig | None = None) -> dict:
    """Per benchmark, the share of time in each operator core array."""
    sim = PoseidonSimulator(config)
    series = {}
    for bench, builder in PAPER_BENCHMARKS.items():
        result = sim.run(compile_trace(builder()))
        series[bench] = benchmark_operator_shares(result)
    return {"series": series, "paper_dominant": PAPER_FIG9_DOMINANT}


# ----------------------------------------------------------------------
# Fig. 10 — NTT-fusion parameter sweep
# ----------------------------------------------------------------------
def fig10_k_sweep(
    *,
    degree: int = 1 << 16,
    limbs: int = 44,
    k_values=(2, 3, 4, 5, 6),
) -> dict:
    """Resources and NTT execution time vs fusion radix k.

    The paper's headline: every metric inflects at k = 3.
    """
    rows = []
    for k in k_values:
        config = HardwareConfig().with_radix(k)
        resources = ResourceModel(config).ntt_core()
        sim = PoseidonSimulator(config)
        task = OperatorTask(
            kind=OperatorKind.NTT,
            elements=limbs * degree,
            degree=degree,
            limbs=limbs,
            op_label="NTT",
        )
        seconds = sim.cores.task_seconds(task)
        rows.append(
            {
                "k": k,
                "lut": resources.lut,
                "ff": resources.ff,
                "dsp": resources.dsp,
                "bram": resources.bram,
                "ntt_us": seconds * 1e6,
            }
        )
    best = min(rows, key=lambda r: r["ntt_us"])
    return {"rows": rows, "best_k": best["k"]}


# ----------------------------------------------------------------------
# Fig. 11 — lane-count sensitivity
# ----------------------------------------------------------------------
def fig11_lane_scaling(
    *,
    benchmark: str = "ResNet-20",
    lanes=(64, 128, 256, 512),
) -> dict:
    """Execution time and EDP of a benchmark vs vector-lane count."""
    trace = PAPER_BENCHMARKS[benchmark]()
    program = compile_trace(trace)
    rows = []
    for lane_count in lanes:
        config = HardwareConfig().with_lanes(lane_count)
        sim = PoseidonSimulator(config)
        result = sim.run(program)
        energy = EnergyModel(config)
        rows.append(
            {
                "lanes": lane_count,
                "seconds": result.total_seconds,
                "edp": energy.edp(result, program),
                "bandwidth_utilization": result.bandwidth_utilization,
            }
        )
    return {"rows": rows, "benchmark": benchmark}


# ----------------------------------------------------------------------
# Fig. 12 — energy consumption and breakdown
# ----------------------------------------------------------------------
def fig12_energy_breakdown(config: HardwareConfig | None = None) -> dict:
    """Per benchmark: total energy and memory/core attribution."""
    cfg = config or HardwareConfig()
    sim = PoseidonSimulator(cfg)
    energy_model = EnergyModel(cfg)
    rows = []
    for bench, builder in PAPER_BENCHMARKS.items():
        program = compile_trace(builder())
        result = sim.run(program)
        breakdown = energy_model.breakdown(result, program)
        rows.append(
            {
                "benchmark": bench,
                "total_joules": breakdown.total,
                "shares": breakdown.shares(),
            }
        )
    return {"rows": rows}
