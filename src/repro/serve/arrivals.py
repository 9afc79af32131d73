"""Deterministic arrival processes for the open-system simulator.

Both processes produce a finite, sorted tuple of arrival timestamps in
*simulated* seconds. Determinism is a hard requirement (the CLI's
metrics JSON must be bit-identical across runs with the same seed), so
the Poisson process draws from a private :class:`random.Random`
instance — never the global RNG — and trace replay normalizes its
input once, up front.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.serve.knobs import Range, check_knobs, knob


@dataclass(frozen=True)
class PoissonArrivals:
    """A homogeneous Poisson process: i.i.d. exponential gaps at
    ``rate`` per simulated second; equal seeds give bit-identical
    timestamps."""

    rate: float = knob(
        accepts=Range(lo=0, lo_open=True), flag="--arrival-rate",
        flag_default=100.0,
        help="Poisson arrival rate in requests per simulated second "
             "(default {default})",
    )
    count: int = knob(
        accepts=Range(lo=1), flag="--requests", flag_default=16,
        help="number of requests to generate (default {default}; raise "
             "it for tighter percentiles on the light mixes)",
    )
    seed: int = knob(
        0, flag="--seed",
        help="RNG seed for arrivals and job-type choice; equal seeds "
             "give bit-identical metrics (default {default})",
    )

    def __post_init__(self):
        check_knobs(self)

    def times(self) -> tuple[float, ...]:
        """The sorted arrival timestamps, starting after t=0."""
        rng = random.Random(self.seed)
        t = 0.0
        out = []
        for _ in range(self.count):
            t += rng.expovariate(self.rate)
            out.append(t)
        return tuple(out)


@dataclass(frozen=True)
class TraceArrivals:
    """Replay of an explicit arrival-timestamp trace.

    Timestamps are sorted on construction (an unordered trace is
    accepted, as real request logs often are); each must be
    non-negative and finite.
    """

    timestamps: tuple[float, ...]

    def __init__(self, timestamps):
        stamps = [float(t) for t in timestamps]
        if not stamps:
            raise ParameterError("arrival trace is empty")
        for t in stamps:
            if not t >= 0:
                raise ParameterError(
                    f"arrival trace has a negative or NaN timestamp: {t}"
                )
            if t == float("inf"):
                raise ParameterError("arrival trace has an infinite timestamp")
        object.__setattr__(self, "timestamps", tuple(sorted(stamps)))

    def times(self) -> tuple[float, ...]:
        return self.timestamps
