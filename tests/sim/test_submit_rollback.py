"""A submit that raises leaves the engine as it was before the call.

``ScheduleEngine.submit`` checks a new list while it walks it into the
engine's arrays, so a bad task part-way through the list used to leave
the tasks before it, their queued READY events and the submission
behind, and a later ``drain()`` raised ``IndexError``. Each case here
makes a submit fail on an engine and then carries on exactly as on a
fresh engine that never saw the bad list, comparing the two.
"""

from dataclasses import replace

import pytest

from repro.errors import SchedulingError
from repro.sim.config import HardwareConfig
from repro.sim.cores import CoreModel, CoreTiming
from repro.sim.engine import ScheduleEngine
from repro.sim.tasks import OperatorKind, OperatorTask
from repro.sim.validate import validate_schedule

A = OperatorTask(OperatorKind.MA, 1024, 1024, 1)
NTT = OperatorTask(OperatorKind.NTT, 4096, 4096, 1, depends_on=(0,))
AUTO = OperatorTask(OperatorKind.AUTO, 1024, 1024, 1)


class UnknownAutoCore(CoreModel):
    """Routes Automorphism tasks to a core the engine does not have."""

    def task_cycles(self, task):
        timing = super().task_cycles(task)
        if task.kind is OperatorKind.AUTO:
            return CoreTiming(timing.cycles, "Shuffler")
        return timing


def _engine():
    return ScheduleEngine(cores=UnknownAutoCore(HardwareConfig()))


#: Lists that fail on their third task, after two were walked in, with
#: the error each raises (``{}`` is the failing task's global index).
BAD = {
    "forward-dependency": (
        (A, A, replace(A, depends_on=(5,))),
        r"^task {} has forward/invalid dependency 5$",
    ),
    "unknown-core": (
        (A, replace(A, depends_on=(0,)), AUTO),
        r"^task {} targets unknown core 'Shuffler'$",
    ),
}


def _carry_on(engine, release):
    """The same follow-up on either engine: submit, drain, read back."""
    sub = engine.submit((A, NTT), release=release, label="after")
    engine.drain()
    return sub, engine.result(), engine.spans()


@pytest.mark.parametrize("as_list", [False, True], ids=["tuple", "list"])
@pytest.mark.parametrize("pending", [False, True],
                         ids=["empty", "pending"])
@pytest.mark.parametrize("case", sorted(BAD))
def test_failed_submit_leaves_no_trace(case, pending, as_list):
    tasks, message = BAD[case]
    if as_list:
        tasks = list(tasks)
    engine, fresh = _engine(), _engine()
    base = 0
    if pending:
        # An earlier submission whose READY events are still queued.
        for eng in (engine, fresh):
            eng.submit((A, NTT), label="before")
        base = 2
    with pytest.raises(SchedulingError, match=message.format(base + 2)):
        engine.submit(tasks, label="bad")
    assert len(engine.submissions) == len(fresh.submissions)

    got_sub, got, got_spans = _carry_on(engine, 1e-6)
    want_sub, want, want_spans = _carry_on(fresh, 1e-6)
    assert (got_sub.index, got_sub.base, got_sub.count) == (
        want_sub.index, want_sub.base, want_sub.count)
    assert got_sub.finish_seconds == want_sub.finish_seconds
    assert [s.label for s in engine.submissions] == [
        s.label for s in fresh.submissions]
    assert [s.label for s in engine.completions] == [
        s.label for s in fresh.completions]
    assert got == want
    assert [(b, list(t)) for b, t in got_spans] == [
        (b, list(t)) for b, t in want_spans]
    validate_schedule(got, spans=got_spans, config=engine.config)


@pytest.mark.parametrize("case", sorted(BAD))
def test_failed_tuple_fails_again_and_caches_no_plan(case):
    tasks, message = BAD[case]
    engine = _engine()
    for _ in range(2):
        with pytest.raises(SchedulingError, match=message.format(2)):
            engine.submit(tasks)
    assert engine.submissions == []
    engine.submit((A,))
    engine.drain()
    assert len(engine.result().task_records) == 1
