"""What each serving knob accepts, pinned, and the docs' flag table.

``PINNED`` records, for every scalar knob of the ten serving classes,
which probe values construction accepted before the knobs were
declared (``tests/properties/_support.py``'s ``knob_probes``: the
bounds of the declared range and the floats next to them, 0, -1, NaN,
both infinities, None for optional knobs and each choice of a named
one), each built with the class's least arguments. The declarations
must keep every answer except the refusals in ``NEW_REFUSALS``.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import FAULT_FLAGS, SERVE_KNOBS
from repro.errors import ParameterError
from repro.serve import ClusterPolicy, InstanceCrash, PoissonArrivals
from repro.serve.knobs import (
    declared,
    flag_default,
    flag_help,
    show,
    spec_metavar,
)
from tests.properties._support import KNOB_CLASSES, declaration, knob_probes

#: "Class.field": (probes accepted, probes refused), as reprs.
PINNED = {
    "PoissonArrivals.rate": (
        "inf 5e-324 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf -5e-324",
    ),
    "PoissonArrivals.count": (
        "inf 1.0 1.0000000000000002 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf 0.9999999999999999",
    ),
    "PoissonArrivals.seed": (
        "0.0 -1.0 nan inf -inf",
        "",
    ),
    "BatchPolicy.max_batch_size": (
        "inf 1.0 1.0000000000000002 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf 0.9999999999999999",
    ),
    "BatchPolicy.max_queue_delay": (
        "0.0 inf 5e-324 1.7976931348623157e+308 None",
        "-1.0 nan -inf -5e-324",
    ),
    "BatchPolicy.order": (
        "'fifo' 'sjf'",
        "0.0 -1.0 nan inf -inf",
    ),
    "BatchPolicy.max_queue_depth": (
        "inf 1.0 1.0000000000000002 1.7976931348623157e+308 None",
        "0.0 -1.0 nan -inf 0.9999999999999999",
    ),
    "BatchPolicy.max_inflight_batches": (
        "inf 1.0 1.0000000000000002 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf 0.9999999999999999",
    ),
    "AutoscalerPolicy.max_instances": (
        "inf 1.0 1.0000000000000002 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf 0.9999999999999999",
    ),
    "AutoscalerPolicy.queue_high": (
        "inf 5e-324 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf -5e-324",
    ),
    "AutoscalerPolicy.cooldown_seconds": (
        "0.0 inf 5e-324 1.7976931348623157e+308",
        "-1.0 nan -inf -5e-324",
    ),
    "ClusterPolicy.instances": (
        "nan inf 1.0 1.0000000000000002 1.7976931348623157e+308",
        "0.0 -1.0 -inf 0.9999999999999999",
    ),
    "ClusterPolicy.router": (
        "0.0 -1.0 nan inf -inf 'key-affinity' 'least-queue' 'round-robin' 'shortest-job'",
        "",
    ),
    "ClusterPolicy.key_cache_capacity": (
        "0.0 -1.0 nan inf -inf -5e-324 5e-324 1.7976931348623157e+308 None",
        "",
    ),
    "ClusterPolicy.key_upload_bytes": (
        "0.0 nan inf 5e-324 1.7976931348623157e+308 None",
        "-1.0 -inf -5e-324",
    ),
    "ClusterPolicy.max_tenant_share": (
        "5e-324 1.0 0.9999999999999999 None",
        "0.0 -1.0 nan inf -inf -5e-324 1.0000000000000002",
    ),
    "InstanceCrash.instance": (
        "0.0 inf 5e-324 1.7976931348623157e+308",
        "-1.0 nan -inf -5e-324",
    ),
    "InstanceCrash.at_seconds": (
        "0.0 inf 5e-324 1.7976931348623157e+308",
        "-1.0 nan -inf -5e-324",
    ),
    "InstanceCrash.restart_after": (
        "inf 5e-324 1.7976931348623157e+308 None",
        "0.0 -1.0 nan -inf -5e-324",
    ),
    "Straggler.instance": (
        "0.0 inf 5e-324 1.7976931348623157e+308",
        "-1.0 nan -inf -5e-324",
    ),
    "Straggler.start_seconds": (
        "0.0 inf 5e-324 1.7976931348623157e+308",
        "-1.0 nan -inf -5e-324",
    ),
    "Straggler.duration_seconds": (
        "inf 5e-324 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf -5e-324",
    ),
    "Straggler.slowdown": (
        "inf 1.0 1.0000000000000002 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf 0.9999999999999999",
    ),
    "HBMDegradation.instance": (
        "0.0 inf 5e-324 1.7976931348623157e+308",
        "-1.0 nan -inf -5e-324",
    ),
    "HBMDegradation.start_seconds": (
        "0.0 inf 5e-324 1.7976931348623157e+308",
        "-1.0 nan -inf -5e-324",
    ),
    "HBMDegradation.duration_seconds": (
        "inf 5e-324 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf -5e-324",
    ),
    "HBMDegradation.factor": (
        "5e-324 1.0 0.9999999999999999",
        "0.0 -1.0 nan inf -inf -5e-324 1.0000000000000002",
    ),
    "RetryPolicy.max_attempts": (
        "inf 1.0 1.0000000000000002 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf 0.9999999999999999",
    ),
    "RetryPolicy.backoff_seconds": (
        "0.0 inf 5e-324 1.7976931348623157e+308",
        "-1.0 nan -inf -5e-324",
    ),
    "RetryPolicy.jitter": (
        "0.0 5e-324 1.0 0.9999999999999999",
        "-1.0 nan inf -inf -5e-324 1.0000000000000002",
    ),
    "ResiliencePolicy.deadline_seconds": (
        "inf 5e-324 1.7976931348623157e+308 None",
        "0.0 -1.0 nan -inf -5e-324",
    ),
    "ResiliencePolicy.detection_seconds": (
        "0.0 inf 5e-324 1.7976931348623157e+308",
        "-1.0 nan -inf -5e-324",
    ),
    "TenantPopulation.tenants": (
        "inf 1.0 1.0000000000000002 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf 0.9999999999999999",
    ),
    "TenantPopulation.key_sets": (
        "inf 1.0 1.0000000000000002 1.7976931348623157e+308",
        "0.0 -1.0 nan -inf 0.9999999999999999",
    ),
    "TenantPopulation.skew": (
        "0.0 inf 5e-324 1.7976931348623157e+308",
        "-1.0 nan -inf -5e-324",
    ),
}

_NAN = "a declared range refuses NaN"
_KEY_CACHE = "declared None or >= 0; the run's KeyCache refused it mid-run"
_BACKOFF = "a retry delay must stay finite"
_NOT_INT = "an int knob refuses any value but an integer"
_INT_PROBES = "inf 1.0 1.0000000000000002 1.7976931348623157e+308"
_INDEX_PROBES = "0.0 inf 5e-324 1.7976931348623157e+308"

#: Probes accepted before the declarations and refused now, and why.
NEW_REFUSALS = {
    ("ClusterPolicy.instances", "nan"): _NAN,
    ("ClusterPolicy.key_upload_bytes", "nan"): _NAN,
    ("ClusterPolicy.key_cache_capacity", "-1.0"): _KEY_CACHE,
    ("ClusterPolicy.key_cache_capacity", "-5e-324"): _KEY_CACHE,
    ("ClusterPolicy.key_cache_capacity", "-inf"): _KEY_CACHE,
    ("ClusterPolicy.key_cache_capacity", "nan"): _KEY_CACHE,
    ("Straggler.slowdown", "inf"): "an infinite derate never finishes",
    ("RetryPolicy.backoff_seconds", "inf"): _BACKOFF,
    # The largest float doubles past infinity by the third attempt.
    ("RetryPolicy.backoff_seconds", "1.7976931348623157e+308"): _BACKOFF,
    # So does the default 0.5 ms backoff over this many attempts.
    ("RetryPolicy.max_attempts", "inf"): _BACKOFF,
    ("RetryPolicy.max_attempts", "1.7976931348623157e+308"): _BACKOFF,
    ("ClusterPolicy.key_upload_bytes", "inf"): (
        "declared finite: an infinite upload never finished, and the "
        "loop then found no next instant"
    ),
    # Every probe is a float, so an int knob now refuses each one it
    # accepted, integral or not: PoissonArrivals(count=2.0).times()
    # raised TypeError, and InstanceCrash(instance=1.5) matched no
    # instance.
    **{
        (name, token): _NOT_INT
        for name, tokens in {
            "PoissonArrivals.count": _INT_PROBES,
            "PoissonArrivals.seed": "0.0 -1.0 nan inf -inf",
            "BatchPolicy.max_batch_size": _INT_PROBES,
            "BatchPolicy.max_queue_depth": _INT_PROBES,
            "BatchPolicy.max_inflight_batches": _INT_PROBES,
            "AutoscalerPolicy.max_instances": _INT_PROBES,
            "ClusterPolicy.instances": _INT_PROBES,
            "ClusterPolicy.key_cache_capacity": _INDEX_PROBES,
            "ClusterPolicy.key_upload_bytes": "0.0 5e-324 1.7976931348623157e+308",
            "InstanceCrash.instance": _INDEX_PROBES,
            "Straggler.instance": _INDEX_PROBES,
            "HBMDegradation.instance": _INDEX_PROBES,
            "RetryPolicy.max_attempts": "1.0 1.0000000000000002",
            "TenantPopulation.tenants": _INT_PROBES,
            "TenantPopulation.key_sets": _INT_PROBES,
        }.items()
        for token in tokens.split()
    },
}

DOC = Path(__file__).resolve().parents[2] / "docs" / "SERVING.md"


def _knob(name):
    cls_name, field_name = name.split(".")
    cls = next(c for c in KNOB_CLASSES if c.__name__ == cls_name)
    return cls, field_name, declaration(cls, field_name)[1]


def _value(token):
    if token == "None":
        return None
    if token.startswith("'"):
        return token[1:-1]
    return float(token)


def test_every_knob_is_pinned():
    names = {
        f"{cls.__name__}.{f.name}"
        for cls in KNOB_CLASSES for f, _ in declared(cls)
    }
    assert len(names) == 35
    assert set(PINNED) == names


def test_new_refusals_were_accepted():
    for name, token in NEW_REFUSALS:
        assert token in PINNED[name][0].split(), (name, token)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_probes_follow_the_declaration(name):
    *_, decl = _knob(name)
    accepted, refused = PINNED[name]
    assert {repr(p) for p in knob_probes(decl)} == set(
        accepted.split() + refused.split()
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_construction_matches_the_pinned_table(name):
    cls, field_name, _ = _knob(name)
    accepted, refused = PINNED[name]
    wrong = []
    for token in accepted.split() + refused.split():
        expected = (
            token in accepted.split() and (name, token) not in NEW_REFUSALS
        )
        try:
            cls(**{**KNOB_CLASSES[cls], field_name: _value(token)})
            built = True
        except ParameterError:
            built = False
        if built != expected:
            wrong.append(token)
    assert wrong == []


def test_refusal_names_the_class_and_field():
    with pytest.raises(
        ParameterError,
        match=r"^ClusterPolicy.key_cache_capacity must be None or >= 0, "
              r"got -1$",
    ):
        _knob("ClusterPolicy.key_cache_capacity")[0](key_cache_capacity=-1)


def render_flag_table() -> list[str]:
    """docs/SERVING.md's table of ``serve``'s knob and fault flags,
    rendered from the knob declarations."""
    rows = [
        "| flag | field | default | accepted values | meaning |",
        "|---|---|---|---|---|",
    ]
    for cls in SERVE_KNOBS:
        for f, k in declared(cls):
            if k.flag is not None:
                default = flag_default(f, k)
                shown = "unset" if default is None else f"`{show(default)}`"
                rows.append(
                    f"| `{k.flag}` | `{cls.__name__}.{f.name}` | {shown} | "
                    f"{k.accepts or 'any'} | {flag_help(f, k)} |"
                )
    for flag, cls, help_text in FAULT_FLAGS:
        accepted = "; ".join(
            f"`{k.metavar}` {k.accepts}" for _, k in declared(cls)
        )
        rows.append(
            f"| `{flag} {spec_metavar(cls)}` | `{cls.__name__}` | unset | "
            f"{accepted} | {help_text} |"
        )
    return rows


def _doc_block() -> list[str]:
    text = DOC.read_text(encoding="utf-8")
    block = re.search(
        r"<!-- serve-flags:begin -->\n(.*?)<!-- serve-flags:end -->",
        text, re.S,
    )
    assert block is not None, "docs/SERVING.md lost its flag-table markers"
    return block.group(1).splitlines()


def test_flag_table_matches_the_doc():
    rendered = render_flag_table()
    documented = _doc_block()
    hint = (
        "docs/SERVING.md's flag table differs from the declarations; "
        "the rendered block is:\n" + "\n".join(rendered)
    )
    assert [r for r in rendered if r not in documented] == [], hint
    assert [r for r in documented if r not in rendered] == [], hint
    assert documented == rendered, hint


@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_int_knobs_refuse_non_integers(value):
    with pytest.raises(
        ParameterError,
        match=rf"^PoissonArrivals.count must be an integer, got {value!r}$",
    ):
        PoissonArrivals(rate=1.0, count=value)
    with pytest.raises(ParameterError, match="InstanceCrash.instance"):
        InstanceCrash(instance=value / 2, at_seconds=0.0)


def test_int_knobs_take_numpy_integers():
    arrivals = PoissonArrivals(rate=1.0, count=np.int64(2))
    assert len(arrivals.times()) == 2


def test_infinite_key_upload_is_refused():
    """Its upload never finished: the serving loop then found no next
    instant. The declared range is finite, integer check aside."""
    _, knob = declaration(ClusterPolicy, "key_upload_bytes")
    assert not knob.accepts.accepts(math.inf)
    with pytest.raises(ParameterError, match="key_upload_bytes"):
        ClusterPolicy(instances=1, key_upload_bytes=math.inf)
