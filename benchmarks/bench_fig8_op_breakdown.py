"""Fig. 8: basic-operation time share per benchmark.

The paper's finding: Keyswitch-bearing operations (CMult, Rotation —
i.e. keyswitch under the hood) occupy the largest proportion of every
benchmark's execution time.
"""

from repro.workloads import PAPER_BENCHMARKS

from _shared import benchmark_result, print_banner


def collect():
    return {
        name: benchmark_result(name).op_share()
        for name in PAPER_BENCHMARKS
    }


def test_fig8_breakdown(benchmark):
    series = benchmark.pedantic(collect, rounds=1, iterations=1)
    print_banner("Fig. 8 — basic operation time share per benchmark")
    from repro.analysis.report import render_shares

    print(render_shares(series))

    for name, shares in series.items():
        # Keyswitch-carrying ops (CMult + Rotation family) dominate.
        ks_heavy = (
            shares.get("CMult", 0)
            + shares.get("Rotation", 0)
            + shares.get("HoistedRotation", 0)
            + shares.get("Keyswitch", 0)
        )
        assert ks_heavy > 0.45, (name, shares)
        assert sum(shares.values()) > 0.999
