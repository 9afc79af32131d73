"""The span tracer: self time, restoration, and missing targets."""

from __future__ import annotations

import sys
import time
import types

import spec
import tracer


def test_missing_target_is_reported_not_raised():
    spans = (
        spec.Span("gone.method", "sim", ("repro.sim.engine:ScheduleEngine.no_such_method",)),
        spec.Span("gone.module", "sim", ("repro.no_such_module:thing",)),
        spec.Span("gone.key", "compiler", ("repro.compiler.passes:PASS_REGISTRY[no-such]",)),
        spec.Span("sim.validate", "sim", ("repro.sim.validate:validate_schedule",)),
    )
    t = tracer.Tracer(spans)
    t.install()
    try:
        assert t.missing_spans() == {"gone.method", "gone.module", "gone.key"}
        assert t.per_layer(1.0)["gone.method.calls"] == 0
    finally:
        t.uninstall()


def test_install_and_uninstall_restore_every_target():
    from repro.compiler import passes
    from repro.kernels.numpy_backend import NumpyBackend
    from repro.sim import validate
    from repro.workloads import PAPER_BENCHMARKS

    before = (
        dict(passes.PASS_REGISTRY), dict(PAPER_BENCHMARKS), validate.validate_schedule,
        vars(passes.ProgramDraft)["from_ops"], vars(NumpyBackend)["ntt"],
    )
    t = tracer.Tracer()
    t.install()
    assert t.missing == []
    assert validate.validate_schedule is not before[2]
    t.uninstall()
    after = (
        dict(passes.PASS_REGISTRY), dict(PAPER_BENCHMARKS), validate.validate_schedule,
        vars(passes.ProgramDraft)["from_ops"], vars(NumpyBackend)["ntt"],
    )
    assert after == before


class _Toy:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.01)


def test_self_time_excludes_children(monkeypatch):
    module = types.ModuleType("toy_module")
    module.Toy = _Toy
    monkeypatch.setitem(sys.modules, "toy_module", module)
    spans = (
        spec.Span("toy.outer", "sim", ("toy_module:Toy.outer",)),
        spec.Span("toy.inner", "sim", ("toy_module:Toy.inner",)),
    )
    t = tracer.Tracer(spans)
    t.install()
    try:
        with t.phase("sample.timed"):
            _Toy().outer()
    finally:
        t.uninstall()
    assert t.stats["toy.outer"][0] == 1 and t.stats["toy.inner"][0] == 2
    assert 0.018 < t.self_seconds("toy.outer") < 0.035
    assert 0.018 < t.self_seconds("toy.inner") < 0.035
    parents = {name: parent for name, _, _, _, parent in t.events}
    assert parents["toy.inner"] == "toy.outer"
    assert parents["toy.outer"] == "sample.timed"
    trace = t.chrome_trace("toy")
    assert trace["otherData"]["timestamp_unit"].startswith("host microseconds")
