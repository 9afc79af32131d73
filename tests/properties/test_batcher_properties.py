"""The batcher's O(1) queued backlog equals a fresh fold, bit for bit.

``DynamicBatcher.queued_estimate_seconds`` keeps a running left-fold of
the queued service estimates instead of re-summing the queue on every
routed arrival. Float addition is not associative, so "close" is not
enough: after any sequence of offers, batch takes, deadline expiries
and crash drains, the fold must be exactly the left fold over the
queue in order (:func:`repro.utils.fold.left_fold_sum`, which is what
``sum()`` returned before Python 3.12 made float sums compensated).
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.serve import BatchPolicy, DynamicBatcher
from repro.serve.requests import Request
from repro.utils.fold import left_fold_sum

#: Estimates spanning many magnitudes, so fold order matters.
_ESTIMATES = st.one_of(
    st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    st.floats(min_value=1e-9, max_value=10.0, allow_nan=False),
    st.sampled_from([0.0, 1e-17, 0.1, 0.2, 0.3, 1e16]),
)

_OPS = st.one_of(
    st.tuples(
        st.just("offer"),
        _ESTIMATES,
        st.floats(min_value=0.0, max_value=2.0),  # arrival
        st.none() | st.floats(min_value=0.0, max_value=2.0),  # deadline
    ),
    st.tuples(st.just("take"), st.floats(min_value=0.0, max_value=2.0)),
    st.tuples(st.just("expire"), st.floats(min_value=0.0, max_value=2.0)),
    st.tuples(st.just("drain")),
)

_POLICIES = st.builds(
    BatchPolicy,
    max_batch_size=st.integers(min_value=1, max_value=5),
    order=st.sampled_from(["fifo", "sjf"]),
    max_queue_depth=st.none() | st.integers(min_value=1, max_value=12),
)


def _exact(value) -> str:
    """Bit-level identity, telling 0 from 0.0 from -0.0."""
    return f"{type(value).__name__}:{value!r}"


@given(policy=_POLICIES, ops=st.lists(_OPS, max_size=60))
def test_running_backlog_is_the_queue_sum(policy, ops):
    batcher = DynamicBatcher(policy)
    for rid, op in enumerate(ops):
        kind = op[0]
        if kind == "offer":
            _, estimate, arrival, deadline = op
            batcher.offer(Request(
                request_id=rid, job=None, arrival_seconds=arrival,
                service_estimate=estimate, deadline_seconds=deadline,
            ))
        elif kind == "take":
            batcher.take_batch(op[1])
        elif kind == "expire":
            batcher.expired(op[1])
        else:
            batcher.drain()
        expected = left_fold_sum(r.service_estimate for r in batcher._queue)
        assert _exact(batcher.queued_estimate_seconds()) == _exact(expected)


def _request(rid, estimate):
    return Request(
        request_id=rid, job=None, arrival_seconds=float(rid),
        service_estimate=estimate,
    )


def test_left_fold_is_not_compensated():
    # A compensated sum (Python >= 3.12's ``sum()``) gives 0.6 here.
    assert _exact(left_fold_sum([0.1, 0.2, 0.3])) == "float:0.6000000000000001"
    assert _exact(left_fold_sum([])) == "int:0"


def test_refold_after_a_take_is_the_left_fold():
    batcher = DynamicBatcher(BatchPolicy(max_batch_size=1))
    for rid, estimate in enumerate((0.4, 0.1, 0.2, 0.3)):
        batcher.offer(_request(rid, estimate))
    batcher.take_batch(0.0)  # removes 0.4, refolds the rest
    assert _exact(batcher.queued_estimate_seconds()) == (
        "float:0.6000000000000001"
    )


#: The policies' orders, restated: arrival order, and shortest estimate
#: first with arrival order breaking ties.
_ORDER_KEYS = {
    "fifo": lambda r: (r.arrival_seconds, r.request_id),
    "sjf": lambda r: (r.service_estimate, r.arrival_seconds, r.request_id),
}

#: Offers arrive in time order, except that a step back models a retry
#: whose due time lies behind an arrival already queued.
_TAKE_OPS = st.one_of(
    st.tuples(
        st.just("offer"),
        st.sampled_from([0.0, 0.1, 0.2, 0.5, 1.0]),  # estimate
        st.floats(min_value=-1.0, max_value=1.0),  # arrival step
    ),
    st.tuples(st.just("take")),
    st.tuples(st.just("expire"), st.floats(min_value=0.0, max_value=4.0)),
)


@given(
    order=st.sampled_from(["fifo", "sjf"]),
    size=st.integers(min_value=1, max_value=4),
    ops=st.lists(_TAKE_OPS, max_size=60),
)
def test_take_batch_is_the_sorted_head(order, size, ops):
    key = _ORDER_KEYS[order]
    batcher = DynamicBatcher(BatchPolicy(max_batch_size=size, order=order))
    clock = 0.0
    for rid, op in enumerate(ops):
        if op[0] == "offer":
            _, estimate, step = op
            arrival = max(0.0, clock + step)
            clock = max(clock, arrival)
            batcher.offer(Request(
                request_id=rid, job=None, arrival_seconds=arrival,
                service_estimate=estimate, deadline_seconds=arrival + 2.0,
            ))
        elif op[0] == "expire":
            batcher.expired(op[1])
        else:
            queue = [r.request_id for r in batcher._queue]
            expected = [
                r.request_id for r in sorted(batcher._queue, key=key)[:size]
            ]
            batch = batcher.take_batch(clock)
            assert [r.request_id for r in batch] == expected
            assert [r.request_id for r in batcher._queue] == [
                rid for rid in queue if rid not in expected
            ]
