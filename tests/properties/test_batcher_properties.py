"""The batcher's O(1) queued backlog equals a fresh sum, bit for bit.

``DynamicBatcher.queued_estimate_seconds`` keeps a running left-fold of
the queued service estimates instead of re-summing the queue on every
routed arrival. Float addition is not associative, so "close" is not
enough: after any sequence of offers, batch takes, deadline expiries
and crash drains, the fold must be exactly what ``sum()`` over the
queue in order returns — the value the routers and the backlog views
used to see.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.serve import BatchPolicy, DynamicBatcher
from repro.serve.requests import Request

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
        expected = sum(r.service_estimate for r in batcher._queue)
        assert _exact(batcher.queued_estimate_seconds()) == _exact(expected)
