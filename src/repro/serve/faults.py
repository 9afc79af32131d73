"""Deterministic fault injection and client-side resilience policy.

A served fleet is only as good as its behavior when an accelerator
dies: a crashed instance loses every in-flight and queued request *and*
its resident key sets (~569 MB per set,
:data:`~repro.serve.requests.KEY_SET_BYTES`), so failover is never
free — re-routed requests pay cold key uploads on whichever instance
picks them up. This module defines the seeded, fully deterministic
fault model the cluster simulator executes:

- :class:`InstanceCrash` — the instance dies at a simulated instant;
  in-flight and queued requests are lost, the schedule is truncated at
  the crash point (still validator-clean), and the instance optionally
  restarts later as a fresh engine epoch with a *cold* key cache.
- :class:`Straggler` — a cycle-time multiplier over a window: work
  admitted to the instance while the window is open runs slower.
- :class:`HBMDegradation` — a bandwidth derate over a window: streams
  admitted while the window is open take ``1/factor`` longer.
- :class:`FaultPlan` — an ordered, validated collection of the above;
  :func:`poisson_crashes` generates seeded Poisson crash processes.

Client-side resilience is policy, not magic: :class:`RetryPolicy`
(bounded attempts, exponential backoff, deterministic seeded jitter)
and :class:`ResiliencePolicy` (per-request deadlines and a modeled
failure-detection delay during which the router still routes to the
dead instance's last-known state). The cluster guarantees request
*conservation* under any plan: every arrival ends in exactly one of
``completed`` / ``rejected`` / ``abandoned`` / ``exhausted``
(:data:`OUTCOMES`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ParameterError

#: Terminal request outcomes; conservation means every arrival lands in
#: exactly one. ``completed`` includes deadline-missing completions
#: (those are SLO violations, not drops); ``abandoned`` is a deadline
#: expiry before service; ``exhausted`` is a loss with no retry
#: attempts left.
OUTCOMES = ("completed", "rejected", "abandoned", "exhausted")


@dataclass(frozen=True)
class InstanceCrash:
    """Instance ``instance`` dies at ``at_seconds``.

    Everything in flight or queued there at that instant is lost (the
    serving layer retries or abandons per its
    :class:`ResiliencePolicy`); the engine's schedule is truncated at
    the crash point. With ``restart_after`` set, the instance comes
    back that many seconds later as a fresh engine epoch — empty queue,
    cold key cache; ``None`` means it stays down for the rest of the
    run.
    """

    instance: int
    at_seconds: float
    restart_after: float | None = None

    def __post_init__(self):
        if not self.instance >= 0:
            raise ParameterError(
                f"crash instance must be >= 0, got {self.instance}"
            )
        if not self.at_seconds >= 0:
            raise ParameterError(
                f"crash at_seconds must be >= 0, got {self.at_seconds}"
            )
        if self.restart_after is not None and not self.restart_after > 0:
            raise ParameterError(
                "restart_after must be positive or None, got "
                f"{self.restart_after}"
            )


@dataclass(frozen=True)
class Straggler:
    """A slow instance: cycle time multiplied by ``slowdown`` over
    ``[start_seconds, start_seconds + duration_seconds)``.

    The derate applies at admission: work submitted to the instance
    while the window is open occupies its cores ``slowdown`` times
    longer (thermal throttling, a sick clock domain). Work admitted
    before or after the window runs at full speed.
    """

    instance: int
    start_seconds: float
    duration_seconds: float
    slowdown: float

    def __post_init__(self):
        if not self.instance >= 0:
            raise ParameterError(
                f"straggler instance must be >= 0, got {self.instance}"
            )
        if not (self.start_seconds >= 0 and self.duration_seconds > 0):
            raise ParameterError(
                "straggler window must have start >= 0 and positive "
                f"duration, got [{self.start_seconds}, "
                f"+{self.duration_seconds})"
            )
        if not self.slowdown >= 1.0:
            raise ParameterError(
                f"slowdown must be >= 1.0, got {self.slowdown}"
            )

    def covers(self, t: float) -> bool:
        return (
            self.start_seconds <= t
            < self.start_seconds + self.duration_seconds
        )


@dataclass(frozen=True)
class HBMDegradation:
    """Degraded HBM: delivered bandwidth scaled by ``factor`` (in
    ``(0, 1]``) over ``[start_seconds, start + duration_seconds)``.

    Streams admitted to the instance while the window is open take
    ``1/factor`` longer on their channel slots (a flaky pseudo-channel,
    a thermally derated stack). Channel *count* is unchanged — the
    transfer occupies the same slots, just longer.
    """

    instance: int
    start_seconds: float
    duration_seconds: float
    factor: float

    def __post_init__(self):
        if not self.instance >= 0:
            raise ParameterError(
                f"degradation instance must be >= 0, got {self.instance}"
            )
        if not (self.start_seconds >= 0 and self.duration_seconds > 0):
            raise ParameterError(
                "degradation window must have start >= 0 and positive "
                f"duration, got [{self.start_seconds}, "
                f"+{self.duration_seconds})"
            )
        if not 0.0 < self.factor <= 1.0:
            raise ParameterError(
                f"bandwidth factor must be in (0, 1], got {self.factor}"
            )

    def covers(self, t: float) -> bool:
        return (
            self.start_seconds <= t
            < self.start_seconds + self.duration_seconds
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of typed fault events for one cluster run.

    Events targeting instances that do not exist when they fire (an
    index never activated by the initial fleet or the autoscaler, or an
    instance already down) are skipped — a plan can therefore be reused
    across fleet sizes. Crash events fire in ``(at_seconds, instance)``
    order.
    """

    events: tuple = ()

    def __post_init__(self):
        for ev in self.events:
            if not isinstance(
                ev, (InstanceCrash, Straggler, HBMDegradation)
            ):
                raise ParameterError(
                    f"unknown fault event type {type(ev).__name__!r}"
                )

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def crashes(self) -> tuple[InstanceCrash, ...]:
        """Crash events in deterministic firing order."""
        return tuple(sorted(
            (e for e in self.events if isinstance(e, InstanceCrash)),
            key=lambda e: (e.at_seconds, e.instance),
        ))

    def compute_scale(self, instance: int, t: float) -> float:
        """Cycle-time multiplier for work admitted to ``instance`` at
        ``t`` (product of all open straggler windows; 1.0 = healthy)."""
        scale = 1.0
        for ev in self.events:
            if (
                isinstance(ev, Straggler)
                and ev.instance == instance
                and ev.covers(t)
            ):
                scale *= ev.slowdown
        return scale

    def hbm_scale(self, instance: int, t: float) -> float:
        """HBM stream-time multiplier for work admitted to ``instance``
        at ``t`` (product of ``1/factor`` over open windows)."""
        scale = 1.0
        for ev in self.events:
            if (
                isinstance(ev, HBMDegradation)
                and ev.instance == instance
                and ev.covers(t)
            ):
                scale /= ev.factor
        return scale


def poisson_crashes(
    *,
    rate: float,
    horizon_seconds: float,
    instances: int,
    seed: int = 0,
    restart_after: float | None = None,
) -> FaultPlan:
    """A seeded Poisson crash process per instance.

    Each instance draws independent exponential inter-crash gaps at
    ``rate`` crashes per simulated second until ``horizon_seconds``;
    equal seeds give identical plans. ``restart_after`` applies to
    every generated crash.
    """
    if rate <= 0:
        raise ParameterError(f"crash rate must be positive, got {rate}")
    if horizon_seconds <= 0:
        raise ParameterError(
            f"horizon must be positive, got {horizon_seconds}"
        )
    if instances < 1:
        raise ParameterError(
            f"need at least one instance, got {instances}"
        )
    events = []
    for i in range(instances):
        rng = random.Random(f"repro.serve.faults:{seed}:{i}")
        t = rng.expovariate(rate)
        while t < horizon_seconds:
            events.append(InstanceCrash(
                instance=i, at_seconds=t, restart_after=restart_after,
            ))
            t += rng.expovariate(rate)
    return FaultPlan(tuple(events))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``max_attempts`` counts the *initial* try: a request lost on its
    ``max_attempts``-th attempt ends ``exhausted``. Backoff after
    losing attempt ``k`` is ``backoff_seconds * 2**(k - 1)``,
    stretched by up to ``jitter`` (a fraction) using a private RNG
    seeded per ``(run seed, request, attempt)`` — so retry storms
    de-synchronize, deterministically.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0005
    jitter: float = 0.0

    def __post_init__(self):
        if not self.max_attempts >= 1:
            raise ParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not self.backoff_seconds >= 0:
            raise ParameterError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ParameterError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay_seconds(
        self, attempt: int, *, seed: int, request_id: int
    ) -> float:
        """Backoff before the retry that follows losing ``attempt``."""
        delay = self.backoff_seconds * 2.0 ** (attempt - 1)
        if self.jitter:
            rng = random.Random(
                f"repro.serve.retry:{seed}:{request_id}:{attempt}"
            )
            delay *= 1.0 + self.jitter * rng.random()
        return delay


@dataclass(frozen=True)
class ResiliencePolicy:
    """Client-side deadline/retry/detection knobs for a cluster run.

    Attributes:
        deadline_seconds: per-request deadline, relative to the
            *original* arrival (retries do not reset it). A request
            still queued at its deadline is ``abandoned``; a completion
            after the deadline still counts ``completed`` but is an
            SLO violation and excluded from goodput. ``None`` disables
            deadlines.
        retry: retry policy for requests lost to crashes; ``None``
            means a lost request immediately ends ``exhausted``.
        detection_seconds: modeled failure-detection delay. For this
            long after a crash the router still sees the dead
            instance's last-known (ghost) state and requests routed to
            it are lost on arrival; afterwards the instance drops out
            of the routable view until it restarts.
    """

    deadline_seconds: float | None = None
    retry: RetryPolicy | None = None
    detection_seconds: float = 0.0

    def __post_init__(self):
        if (
            self.deadline_seconds is not None
            and not self.deadline_seconds > 0
        ):
            raise ParameterError(
                "deadline_seconds must be positive or None, got "
                f"{self.deadline_seconds}"
            )
        if not self.detection_seconds >= 0:
            raise ParameterError(
                "detection_seconds must be >= 0, got "
                f"{self.detection_seconds}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts a request gets (1 without a retry policy)."""
        return self.retry.max_attempts if self.retry else 1
