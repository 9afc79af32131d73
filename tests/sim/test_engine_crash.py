"""Unit tests for ScheduleEngine crash semantics and fault derates."""

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import ScheduleEngine
from repro.sim.tasks import OperatorKind, OperatorTask
from repro.sim.validate import validate_schedule

N = 1 << 14


def simple_task(kind, deps=(), label="op", hbm=0):
    return OperatorTask(
        kind=kind, elements=N, degree=N, limbs=1,
        depends_on=deps, op_label=label,
        hbm_read_bytes=hbm,
    )


def chain(length, kind=OperatorKind.MA):
    """A strictly serial dependency chain of ``length`` tasks."""
    return [
        simple_task(kind, deps=(i - 1,) if i else ())
        for i in range(length)
    ]


class TestCrashTruncation:
    def test_kept_prefix_ends_before_crash(self):
        eng = ScheduleEngine()
        eng.submit(chain(8), label="chain")
        eng.advance_until(1e-6)
        report = eng.crash(eng.now)
        assert report.kept_tasks + report.dropped_tasks == 8
        result = eng.result()
        assert all(r.end <= report.at_seconds for r in result.task_records)

    def test_truncated_schedule_is_validator_clean(self):
        eng = ScheduleEngine()
        eng.submit(chain(6), label="a")
        eng.submit(chain(4, OperatorKind.NTT), label="b")
        eng.advance_until(2e-6)
        eng.crash(eng.now)
        validate_schedule(
            eng.result(), spans=eng.spans(), config=eng.config
        )

    def test_crash_before_anything_finished_drops_all(self):
        eng = ScheduleEngine()
        sub = eng.submit(chain(3))
        report = eng.crash(0.0)
        assert report.kept_tasks == 0
        assert report.dropped_tasks == 3
        assert report.lost == (sub,)
        assert sub.count == 0

    def test_finished_submission_survives(self):
        eng = ScheduleEngine()
        done = eng.submit(chain(2), label="done")
        eng.drain()
        finish = done.finish_seconds
        late = eng.submit(chain(3), release=finish + 1.0, label="late")
        report = eng.crash(finish)
        assert done not in report.lost
        assert done.finish_seconds == finish
        assert late in report.lost
        assert late.finish_seconds is None

    def test_unobserved_future_finish_is_lost(self):
        # _finalize commits ends analytically, possibly beyond the
        # engine clock; a completion the serving layer never observed
        # must count as lost even though its end was already "known".
        eng = ScheduleEngine()
        sub = eng.submit([simple_task(OperatorKind.MA)])
        eng.advance_until(0.0)  # dispatch happens; end is future
        assert sub.finish_seconds is not None
        report = eng.crash(0.0)
        assert sub in report.lost
        assert sub.finish_seconds is None

    def test_submission_rebase_is_contiguous(self):
        eng = ScheduleEngine()
        subs = [eng.submit(chain(3), label=f"s{i}") for i in range(3)]
        eng.advance_until(1.5e-6)
        eng.crash(eng.now)
        cursor = 0
        for sub in subs:
            assert sub.base == cursor
            cursor += sub.count
        assert [(base, len(tasks)) for base, tasks in eng.spans()] == [
            (sub.base, sub.count) for sub in subs
        ]
        assert cursor == len(eng.result().task_records)


class TestDeadEngine:
    def test_submit_after_crash_raises(self):
        eng = ScheduleEngine()
        eng.submit(chain(1))
        eng.crash(0.0)
        assert eng.dead
        with pytest.raises(SchedulingError):
            eng.submit(chain(1), release=1.0)

    def test_double_crash_raises(self):
        eng = ScheduleEngine()
        eng.crash(0.0)
        with pytest.raises(SchedulingError):
            eng.crash(1.0)

    def test_crash_in_the_past_raises(self):
        eng = ScheduleEngine()
        eng.advance_until(1.0)
        with pytest.raises(SchedulingError):
            eng.crash(0.5)


class TestDerates:
    def _span(self, **kwargs):
        eng = ScheduleEngine()
        sub = eng.submit([simple_task(OperatorKind.MA)], **kwargs)
        eng.drain()
        return sub.finish_seconds

    def test_compute_scale_stretches_duration(self):
        base = self._span()
        slowed = self._span(compute_scale=2.0)
        assert slowed == pytest.approx(2.0 * base)

    def test_hbm_scale_stretches_transfers(self):
        def hbm_span(scale):
            eng = ScheduleEngine()
            task = simple_task(OperatorKind.MA, hbm=1 << 26)
            sub = eng.submit([task], hbm_scale=scale)
            eng.drain()
            return sub.finish_seconds

        assert hbm_span(2.0) > hbm_span(1.0)

    def test_unit_scales_are_bit_identical(self):
        # The fault-free path must not even multiply by 1.0 — the
        # serving baselines require byte-identical floats.
        assert self._span() == self._span(
            compute_scale=1.0, hbm_scale=1.0
        )

    @pytest.mark.parametrize("kwargs", [
        {"compute_scale": 0.0},
        {"compute_scale": -1.0},
        {"hbm_scale": 0.0},
        {"hbm_scale": -2.0},
    ])
    def test_non_positive_scales_rejected(self, kwargs):
        eng = ScheduleEngine()
        with pytest.raises(SchedulingError):
            eng.submit([simple_task(OperatorKind.MA)], **kwargs)


class TestRestartEpoch:
    def test_fresh_epoch_engine_replays_lost_work(self):
        eng = ScheduleEngine()
        sub = eng.submit(chain(4))
        report = eng.crash(0.0)
        assert sub in report.lost
        fresh = ScheduleEngine(eng.config, epoch=1e-3)
        redo = fresh.submit(chain(4), release=1e-3)
        fresh.drain()
        assert redo.finish_seconds is not None
        assert redo.finish_seconds >= 1e-3
        validate_schedule(
            fresh.result(), spans=fresh.spans(), config=fresh.config,
        )
