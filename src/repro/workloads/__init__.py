"""The paper's four evaluation benchmarks as operation traces.

Each workload module builds the FHE basic-operation stream (Table V)
that drives the cycle-level simulator, and — where feasible at toy
parameters — a functional variant that really encrypts/evaluates via
:mod:`repro.ckks` (used by the examples and integration tests).

- :mod:`repro.workloads.helr` — logistic regression (HELR), L = 38,
  10 iterations, 2 bootstraps.
- :mod:`repro.workloads.lstm` — LSTM inference, 128x128 recurrent
  matrix, 50 bootstraps.
- :mod:`repro.workloads.resnet20` — ResNet-20 image inference.
- :mod:`repro.workloads.bootstrap_wl` — fully packed bootstrapping,
  refreshing L = 3 to L = 57.

:mod:`repro.workloads.statistics` holds the functional encrypted
mean/variance behind the private-statistics example; it has no trace.
"""

from repro.workloads.bootstrap_wl import packed_bootstrapping_trace
from repro.workloads.helr import helr_trace
from repro.workloads.lstm import lstm_trace
from repro.workloads.resnet20 import resnet20_trace

#: Name -> trace builder for all four paper benchmarks (Table V/VI).
PAPER_BENCHMARKS = {
    "LR": helr_trace,
    "LSTM": lstm_trace,
    "ResNet-20": resnet20_trace,
    "Packed Bootstrapping": packed_bootstrapping_trace,
}

#: Lowercased CLI-friendly spellings -> canonical benchmark names.
BENCHMARK_ALIASES = {
    "lr": "LR",
    "helr": "LR",
    "lstm": "LSTM",
    "resnet": "ResNet-20",
    "resnet20": "ResNet-20",
    "resnet-20": "ResNet-20",
    "bootstrap": "Packed Bootstrapping",
    "bootstrapping": "Packed Bootstrapping",
    "packed-bootstrapping": "Packed Bootstrapping",
    "packed bootstrapping": "Packed Bootstrapping",
}


def resolve_benchmark(name: str) -> str:
    """Canonical benchmark name for a CLI spelling (case-insensitive).

    Raises:
        KeyError: with the accepted spellings, when nothing matches.
    """
    if name in PAPER_BENCHMARKS:
        return name
    canonical = BENCHMARK_ALIASES.get(name.strip().lower())
    if canonical is None:
        raise KeyError(
            f"unknown benchmark {name!r}; expected one of "
            f"{sorted(PAPER_BENCHMARKS)} or aliases "
            f"{sorted(BENCHMARK_ALIASES)}"
        )
    return canonical


__all__ = [
    "BENCHMARK_ALIASES",
    "PAPER_BENCHMARKS",
    "resolve_benchmark",
    "helr_trace",
    "lstm_trace",
    "packed_bootstrapping_trace",
    "resnet20_trace",
]
