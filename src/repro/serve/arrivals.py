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


@dataclass(frozen=True)
class PoissonArrivals:
    """A homogeneous Poisson process: i.i.d. exponential gaps.

    Attributes:
        rate: expected arrivals per simulated second (lambda).
        count: number of requests to generate.
        seed: RNG seed; equal seeds give bit-identical timestamps.
    """

    rate: float
    count: int
    seed: int = 0

    def __post_init__(self):
        if not self.rate > 0:
            raise ParameterError(
                f"arrival rate must be positive, got {self.rate}"
            )
        if not self.count >= 1:
            raise ParameterError(
                f"need at least one arrival, got {self.count}"
            )

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
