"""Dynamic batching and admission control for one accelerator instance.

The batcher sits between the arrival process and the warm engine. It
holds the request queue, rejects arrivals when the queue is full
(backpressure), and decides *when* a batch launches and *which*
requests it contains:

- a batch launches when it is full (``max_batch_size``), when the
  oldest queued request has waited ``max_queue_delay`` simulated
  seconds, when the engine has a free batch slot and nothing is in
  flight (work conservation), or when no further arrivals are coming
  (tail drain);
- request order is FIFO (arrival order) or SJF (shortest estimated
  service time first; ties broken by arrival order so the schedule
  stays deterministic).

The batcher is pure policy — it never touches the engine. The serving
loop (:class:`repro.serve.cluster.ClusterSimulator`, one batcher per
instance) asks it what to do at each decision instant, which keeps the
policy unit-testable without a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.serve.knobs import OneOf, Range, check_knobs, knob
from repro.utils.fold import left_fold_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.requests import Request

#: Accepted queue-ordering policies.
ORDERS = ("fifo", "sjf")

#: Sort keys: arrival order, and shortest-estimate-first with arrival
#: order breaking ties (request ids make both total orders).
_ARRIVAL_ORDER = attrgetter("arrival_seconds", "request_id")
_SJF_ORDER = attrgetter("service_estimate", "arrival_seconds", "request_id")


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the dynamic batcher, each described by its flag's help.

    Without a ``max_queue_delay`` timer, batches launch full,
    work-conserving, or at tail drain; without a ``max_queue_depth``
    the queue is unbounded. A ``max_inflight_batches`` of 1 models a
    strict batch server; higher values pipeline admission against
    in-flight work.
    """

    max_batch_size: int = knob(
        8, Range(lo=1), flag="--max-batch",
        help="dynamic batcher: max requests admitted per batch "
             "(default {default})",
    )
    max_queue_delay: float | None = knob(
        None, Range(lo=0, optional=True), flag="--max-queue-delay",
        help="force a partial batch out once the oldest queued request "
             "has waited this many simulated seconds (default: no timer)",
    )
    order: str = knob(
        "fifo", OneOf(ORDERS), flag="--policy",
        help="queue order: fifo (arrival) or sjf (shortest job first)",
    )
    max_queue_depth: int | None = knob(
        None, Range(lo=1, optional=True), flag="--max-queue-depth",
        help="admission control: reject arrivals beyond this queue "
             "depth (default: unbounded)",
    )
    max_inflight_batches: int = knob(
        1, Range(lo=1), flag="--max-inflight",
        help="batches allowed in flight concurrently (default {default})",
    )

    def __post_init__(self):
        check_knobs(self)


class DynamicBatcher:
    """The request queue plus the launch/ordering/backpressure policy."""

    def __init__(self, policy: BatchPolicy | None = None):
        self.policy = policy or BatchPolicy()
        self._key = (
            _SJF_ORDER if self.policy.order == "sjf" else _ARRIVAL_ORDER
        )
        self._queue: list["Request"] = []
        # Whether the queue is in the policy's order, so a batch is its
        # head. Offers append in arrival order, which is FIFO order
        # unless a retry lands behind a later arrival; removals keep an
        # ordered queue ordered.
        self._ordered = True
        # Left-fold of the queue's service estimates in queue order:
        # ``offer`` appends, so adding to the fold gives exactly the
        # floats a refold of the list would; removals refold.
        self._backlog = 0

    @property
    def depth(self) -> int:
        """Current queue depth."""
        return len(self._queue)

    def offer(self, request: "Request") -> bool:
        """Enqueue an arrival; ``False`` means rejected (queue full)."""
        bound = self.policy.max_queue_depth
        if bound is not None and len(self._queue) >= bound:
            return False
        if self._ordered and self._queue and (
            self._key(request) < self._key(self._queue[-1])
        ):
            self._ordered = False
        self._queue.append(request)
        self._backlog += request.service_estimate
        return True

    def _set_queue(self, queue: list["Request"]) -> None:
        """Replace the queue after removals (a subsequence of it, in
        order) and refold its backlog."""
        self._queue = queue
        if not queue:
            self._ordered = True
        self._backlog = left_fold_sum(r.service_estimate for r in queue)

    def queued_estimate_seconds(self) -> float:
        """Summed service estimates of every queued request.

        The cluster router's shortest-expected-job and key-affinity
        policies use this (plus the inflight estimate the cluster
        tracks) as the instance's expected backlog. O(1): a running
        fold, bit-identical to summing the queue.
        """
        return self._backlog

    def queued_count_for(self, tenant: str) -> int:
        """How many queued requests belong to ``tenant``.

        Per-tenant fair admission (cluster ``max_tenant_share``) caps
        this count against the queue depth.
        """
        return sum(1 for r in self._queue if r.tenant == tenant)

    def oldest_arrival(self) -> float | None:
        """Arrival time of the longest-queued request, if any."""
        if not self._queue:
            return None
        return min(r.arrival_seconds for r in self._queue)

    def next_deadline(self) -> float | None:
        """When the queue-delay timer next forces a batch out."""
        if self.policy.max_queue_delay is None:
            return None
        oldest = self.oldest_arrival()
        if oldest is None:
            return None
        return oldest + self.policy.max_queue_delay

    def should_launch(
        self, now: float, inflight_batches: int, arrivals_pending: bool
    ) -> bool:
        """Whether a batch should launch at simulated time ``now``."""
        if not self._queue:
            return False
        if inflight_batches >= self.policy.max_inflight_batches:
            return False
        if len(self._queue) >= self.policy.max_batch_size:
            return True
        deadline = self.next_deadline()
        if deadline is not None and deadline <= now:
            return True
        if inflight_batches == 0:
            return True  # work conservation: never idle with work queued
        return not arrivals_pending  # tail drain

    def drain(self) -> list["Request"]:
        """Remove and return *every* queued request, in arrival order.

        The fault layer calls this when the instance crashes: queued
        requests are lost with the instance and re-enter the cluster's
        retry/abandon machinery.
        """
        lost = sorted(self._queue, key=_ARRIVAL_ORDER)
        self._set_queue([])
        return lost

    def expired(self, now: float) -> list["Request"]:
        """Remove and return queued requests whose deadline has passed.

        A request still queued at ``deadline_seconds <= now`` will
        never be served in time — the client has abandoned it, so it
        leaves the queue (freeing backpressure capacity) instead of
        wasting a batch slot.
        """
        out = [
            r for r in self._queue
            if r.deadline_seconds is not None
            and r.deadline_seconds <= now
        ]
        if out:
            gone = {r.request_id for r in out}
            self._set_queue(
                [r for r in self._queue if r.request_id not in gone]
            )
            out.sort(key=_ARRIVAL_ORDER)
        return out

    def next_expiry(self) -> float | None:
        """Earliest queued-request deadline, if any request has one."""
        deadlines = [
            r.deadline_seconds for r in self._queue
            if r.deadline_seconds is not None
        ]
        return min(deadlines) if deadlines else None

    def take_batch(self, now: float) -> list["Request"]:
        """Remove and return the next batch, in admission order.

        An ordered queue gives up its head; otherwise the queue is
        sorted for the batch, and the rest stays in queue order.
        """
        size = self.policy.max_batch_size
        if self._ordered:
            batch = self._queue[:size]
            self._set_queue(self._queue[size:])
            return batch
        batch = sorted(self._queue, key=self._key)[:size]
        taken = {r.request_id for r in batch}
        self._set_queue(
            [r for r in self._queue if r.request_id not in taken]
        )
        return batch
