"""Serving knobs: every declared value builds, and every flag round-trips.

Each scalar knob of the ten serving classes declares what it accepts
(:mod:`repro.serve.knobs`). Any value drawn from a declaration — inside
its range or on a boundary — must construct its class, and for a knob
with a ``serve`` flag, ``<flag> str(v)`` must build a policy whose field
reads back ``v``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.cli import SERVE_KNOBS, _serve_inputs, build_parser
from repro.serve import RetryPolicy
from repro.serve.knobs import declared

from ._support import KNOB_CLASSES, knob_values

#: A retry's longest backoff must stay finite, so a drawn attempt count
#: builds with no backoff and a drawn backoff with a single attempt.
_PARTNERS = {
    (RetryPolicy, "max_attempts"): {"backoff_seconds": 0.0},
    (RetryPolicy, "backoff_seconds"): {"max_attempts": 1},
}

#: Flags that a drawn flag needs beside it for its class to be built,
#: and to take any valid value.
_WITH = {
    "--retry-max": ["--retry-backoff", "0"],
    "--retry-backoff": ["--retry-max", "1"],
    "--retry-jitter": ["--retry-max", "1"],
    "--detect-delay": ["--retry-max", "1"],
}

PARSER = build_parser()
KNOBS = [(cls, f.name) for cls in KNOB_CLASSES for f, _ in declared(cls)]
FLAGS = [
    (cls, f.name, k.flag)
    for cls in SERVE_KNOBS for f, k in declared(cls) if k.flag is not None
]


def _ids(cases):
    return [f"{c[0].__name__}.{c[1]}" for c in cases]


@pytest.mark.parametrize("cls, name", KNOBS, ids=_ids(KNOBS))
@given(data=st.data())
def test_declared_values_construct(cls, name, data):
    value = data.draw(knob_values(cls, name))
    kwargs = {**KNOB_CLASSES[cls], **_PARTNERS.get((cls, name), {})}
    cls(**{**kwargs, name: value})


def _built(inputs, cls):
    """The instance of ``cls`` among ``serve``'s built inputs."""
    todo = list(vars(inputs).values())
    while todo:
        obj = todo.pop()
        if isinstance(obj, cls):
            return obj
        if dataclasses.is_dataclass(obj):
            todo += [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    raise AssertionError(f"serve built no {cls.__name__}")


@pytest.mark.parametrize("cls, name, flag", FLAGS, ids=_ids(FLAGS))
@given(data=st.data())
def test_flags_round_trip(cls, name, flag, data):
    value = data.draw(knob_values(cls, name).filter(lambda v: v is not None))
    args = PARSER.parse_args(
        ["serve", flag, str(value), *_WITH.get(flag, ())]
    )
    assert getattr(_built(_serve_inputs(args), cls), name) == value
