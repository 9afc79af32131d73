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

import math
import random
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.serve.knobs import Range, check_knobs, knob

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

    instance: int = knob(accepts=Range(lo=0), metavar="I")
    at_seconds: float = knob(accepts=Range(lo=0), metavar="AT")
    restart_after: float | None = knob(
        None, Range(lo=0, lo_open=True, optional=True), metavar="REST"
    )

    def __post_init__(self):
        check_knobs(self)


@dataclass(frozen=True)
class Straggler:
    """A slow instance: cycle time multiplied by ``slowdown`` over
    ``[start_seconds, start_seconds + duration_seconds)``.

    The derate applies at admission: work submitted to the instance
    while the window is open occupies its cores ``slowdown`` times
    longer (thermal throttling, a sick clock domain). Work admitted
    before or after the window runs at full speed.
    """

    instance: int = knob(accepts=Range(lo=0), metavar="I")
    start_seconds: float = knob(accepts=Range(lo=0), metavar="START")
    duration_seconds: float = knob(accepts=Range(lo=0, lo_open=True), metavar="DUR")
    slowdown: float = knob(accepts=Range(lo=1, hi_open=True), metavar="SLOW")

    def __post_init__(self):
        check_knobs(self)

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

    instance: int = knob(accepts=Range(lo=0), metavar="I")
    start_seconds: float = knob(accepts=Range(lo=0), metavar="START")
    duration_seconds: float = knob(accepts=Range(lo=0, lo_open=True), metavar="DUR")
    factor: float = knob(accepts=Range(lo=0, hi=1, lo_open=True), metavar="FACTOR")

    def __post_init__(self):
        check_knobs(self)

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

    Derates multiply where windows overlap, so a plan is refused when
    an instance's derates overflow with every window open: work
    admitted there would never finish.
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
        for instance in sorted({ev.instance for ev in self.events}):
            if math.inf in self.derates(instance):
                raise ParameterError(
                    f"fault plan overflows on instance {instance}: its "
                    "derates multiply to infinity with every window open"
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

    def derates(
        self, instance: int, t: float | None = None
    ) -> tuple[float, float]:
        """Cycle-time and HBM stream-time multipliers for work admitted
        to ``instance`` at ``t``: the product of the slowdowns of its
        open straggler windows, and of ``1/factor`` over its open
        degradation windows (1.0 = healthy). ``t=None`` opens every
        window, the worst case."""
        compute = hbm = 1.0
        for ev in self.events:
            if isinstance(ev, InstanceCrash) or ev.instance != instance:
                continue
            if t is not None and not ev.covers(t):
                continue
            if isinstance(ev, Straggler):
                compute *= ev.slowdown
            else:
                hbm /= ev.factor
        return compute, hbm


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
    every generated crash. ``rate`` and ``horizon_seconds`` must be
    positive and finite: an infinite rate draws zero gaps forever.
    """
    positive = Range(lo=0, lo_open=True, hi_open=True)
    positive.check("crash rate", rate)
    positive.check("horizon_seconds", horizon_seconds)
    Range(lo=1).check("instances", instances)
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

    max_attempts: int = knob(
        3, Range(lo=1), flag="--retry-max", flag_default=None,
        help="client retry budget: total attempts per request after "
             "losses to crashes (default: no retries)",
    )
    backoff_seconds: float = knob(
        0.0005, Range(lo=0, hi_open=True), flag="--retry-backoff",
        flag_default=None,
        help="base retry backoff in simulated seconds, doubled per "
             "attempt; needs --retry-max (default {default})",
    )
    jitter: float = knob(
        0.0, Range(lo=0, hi=1), flag="--retry-jitter", flag_default=None,
        help="seeded-deterministic jitter fraction added to each retry "
             "delay, in [0,1]; needs --retry-max (default {default})",
    )

    def __post_init__(self):
        check_knobs(self)
        # The longest delay, after losing attempt max_attempts - 1, is
        # at most worst * 2**(max_attempts - 2). Its exponent is
        # counted with frexp, since 2.0 ** n raises once n reaches 1024.
        worst = self.backoff_seconds * (1.0 + self.jitter)
        if self.max_attempts > 1 and worst and (
            worst == math.inf
            or math.frexp(worst)[1] + self.max_attempts - 2 > 1024
        ):
            raise ParameterError(
                f"retry backoff {self.backoff_seconds} with jitter "
                f"{self.jitter} overflows over {self.max_attempts} "
                "attempts"
            )

    def delay_seconds(
        self, attempt: int, *, seed: int, request_id: int
    ) -> float:
        """Backoff before the retry that follows losing ``attempt``."""
        delay = math.ldexp(self.backoff_seconds, attempt - 1)
        if self.jitter:
            rng = random.Random(
                f"repro.serve.retry:{seed}:{request_id}:{attempt}"
            )
            delay *= 1.0 + self.jitter * rng.random()
        return delay


@dataclass(frozen=True)
class ResiliencePolicy:
    """Client-side deadline/retry/detection knobs for a cluster run,
    each described by its flag's help.

    A deadline counts from the *original* arrival (retries do not reset
    it); a completion past it counts ``completed`` but is excluded from
    goodput. Without ``retry`` a lost request ends ``exhausted``. A
    request routed to a crashed instance within ``detection_seconds``
    is lost on arrival; afterwards the instance leaves the routable
    view until it restarts.
    """

    deadline_seconds: float | None = knob(
        None, Range(lo=0, lo_open=True, optional=True), flag="--deadline",
        help="per-request deadline in simulated seconds from arrival; "
             "queued requests past it are abandoned, completions past "
             "it count as SLO violations",
    )
    retry: RetryPolicy | None = None
    detection_seconds: float = knob(
        0.0, Range(lo=0), flag="--detect-delay",
        help="failure-detection delay: the router keeps dispatching to "
             "a crashed instance's last-known view for this many "
             "seconds (default {default}: instant detection)",
    )

    def __post_init__(self):
        check_knobs(self)

    @property
    def max_attempts(self) -> int:
        """Total attempts a request gets (1 without a retry policy)."""
        return self.retry.max_attempts if self.retry else 1
