"""Fault injection and recovery across the routed fleet.

Scenario calibration matches ``tests/serve/test_cluster.py``: one
keyswitch request is ~3 ms of serial work, key uploads use the heavy
multi-key bundle, and the crash at t=0.02 s lands mid-run for the
480 req/s x 48-request arrival stream.
"""

import json

import pytest

from repro.errors import ParameterError, SimulationError
from repro.obs import cluster_trace_events, collecting
from repro.serve import (
    KEY_SET_BYTES,
    AutoscalerPolicy,
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    FaultPlan,
    HBMDegradation,
    InstanceCrash,
    PoissonArrivals,
    ResiliencePolicy,
    RetryPolicy,
    Straggler,
    TenantPopulation,
    poisson_crashes,
)

HEAVY_KEYS = 4 * KEY_SET_BYTES

NAN = float("nan")
_WINDOW = {"instance": 0, "start_seconds": 0.0, "duration_seconds": 1.0}
#: One NaN per float field of the policy and fault classes.
NAN_FIELDS = [
    (PoissonArrivals, {"rate": NAN, "count": 1}),
    (InstanceCrash, {"instance": 0, "at_seconds": NAN}),
    (InstanceCrash, {"instance": 0, "at_seconds": 0.0, "restart_after": NAN}),
    (Straggler, {**_WINDOW, "slowdown": 2.0, "start_seconds": NAN}),
    (Straggler, {**_WINDOW, "slowdown": 2.0, "duration_seconds": NAN}),
    (Straggler, {**_WINDOW, "slowdown": NAN}),
    (HBMDegradation, {**_WINDOW, "factor": 0.5, "start_seconds": NAN}),
    (HBMDegradation, {**_WINDOW, "factor": 0.5, "duration_seconds": NAN}),
    (HBMDegradation, {**_WINDOW, "factor": NAN}),
    (RetryPolicy, {"backoff_seconds": NAN}),
    (RetryPolicy, {"jitter": NAN}),
    (ResiliencePolicy, {"deadline_seconds": NAN}),
    (ResiliencePolicy, {"detection_seconds": NAN}),
    (BatchPolicy, {"max_queue_delay": NAN}),
    (AutoscalerPolicy, {"max_instances": 2, "queue_high": NAN}),
    (AutoscalerPolicy, {"max_instances": 2, "cooldown_seconds": NAN}),
    (ClusterPolicy, {"max_tenant_share": NAN}),
    (TenantPopulation, {"key_sets": 3, "skew": NAN}),
]

SKEWED = TenantPopulation(tenants=8, key_sets=16, skew=0.8)
POLICY = BatchPolicy(
    max_batch_size=4, max_queue_delay=0.0005, max_inflight_batches=2
)

CRASH_PLAN = FaultPlan((
    InstanceCrash(instance=0, at_seconds=0.02, restart_after=0.01),
))
RESILIENT = ResiliencePolicy(
    deadline_seconds=0.25,
    retry=RetryPolicy(max_attempts=3, backoff_seconds=0.001, jitter=0.5),
    detection_seconds=0.002,
)


def run_cluster(
    *,
    instances=2,
    router="key-affinity",
    rate=480.0,
    count=48,
    seed=7,
    faults=None,
    resilience=None,
    batch_policy=POLICY,
):
    sim = ClusterSimulator(
        policy=ClusterPolicy(
            instances=instances,
            router=router,
            key_cache_capacity=4,
            key_upload_bytes=HEAVY_KEYS,
        ),
        batch_policy=batch_policy,
    )
    return sim.run(
        "keyswitch",
        PoissonArrivals(rate=rate, count=count, seed=seed),
        seed=seed,
        population=SKEWED,
        faults=faults,
        resilience=resilience,
    )


class TestPlanValidation:
    def test_crash_needs_nonnegative_time(self):
        with pytest.raises(ParameterError):
            InstanceCrash(instance=0, at_seconds=-1.0)

    def test_straggler_slowdown_floor(self):
        with pytest.raises(ParameterError):
            Straggler(instance=0, start_seconds=0.0,
                      duration_seconds=1.0, slowdown=0.5)

    def test_hbm_factor_range(self):
        with pytest.raises(ParameterError):
            HBMDegradation(instance=0, start_seconds=0.0,
                           duration_seconds=1.0, factor=1.5)

    @pytest.mark.parametrize("cls,kwargs", NAN_FIELDS, ids=[
        f"{cls.__name__}.{next(k for k, v in kw.items() if v != v)}"
        for cls, kw in NAN_FIELDS
    ])
    def test_nan_field_refused(self, cls, kwargs):
        """NaN fails every range check; accepted, it stalls the loop."""
        with pytest.raises(ParameterError):
            cls(**kwargs)

    def test_plan_rejects_untyped_events(self):
        with pytest.raises(ParameterError):
            FaultPlan(("not-an-event",))

    @pytest.mark.parametrize("events", [
        [HBMDegradation(instance=0, start_seconds=0.0,
                        duration_seconds=1.0, factor=1e-320)],
        [Straggler(instance=1, start_seconds=0.0, duration_seconds=1.0,
                   slowdown=1e200),
         Straggler(instance=1, start_seconds=5.0, duration_seconds=1.0,
                   slowdown=1e200)],
    ], ids=["tiny-factor", "disjoint-slowdowns"])
    def test_plan_rejects_overflowing_derates(self, events):
        """Checked with every window open, even ones that never overlap;
        the error names the instance."""
        instance = events[0].instance
        with pytest.raises(ParameterError, match=f"instance {instance}"):
            FaultPlan(tuple(events))

    def test_plan_keeps_derates_on_separate_instances(self):
        FaultPlan(tuple(
            Straggler(instance=i, start_seconds=0.0, duration_seconds=1.0,
                      slowdown=1e200)
            for i in range(2)
        ))

    @pytest.mark.parametrize("kwargs", [
        {"rate": float("nan")},
        {"horizon_seconds": float("nan")},
        {"rate": float("inf")},
        {"horizon_seconds": float("inf")},
    ], ids=["nan-rate", "nan-horizon", "inf-rate", "inf-horizon"])
    def test_poisson_crashes_refuse_unbounded_processes(self, kwargs):
        """NaN used to return an empty plan; an infinite rate or horizon
        never returned."""
        with pytest.raises(ParameterError):
            poisson_crashes(
                **{"rate": 5.0, "horizon_seconds": 1.0, "instances": 1,
                   **kwargs}
            )

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 1100},
        {"backoff_seconds": 1e308},
        {"max_attempts": 1025, "backoff_seconds": 1.0, "jitter": 1.0},
    ], ids=["attempts", "backoff", "jitter-tips-it"])
    def test_retry_backoff_must_stay_finite(self, kwargs):
        with pytest.raises(ParameterError, match="overflows"):
            RetryPolicy(**kwargs)

    def test_retry_delays_never_raise(self):
        """Zero backoff is zero at any attempt; the largest finite
        policy's last delay is finite."""
        zero = RetryPolicy(max_attempts=5000, backoff_seconds=0.0)
        assert zero.delay_seconds(4999, seed=0, request_id=0) == 0.0
        edge = RetryPolicy(max_attempts=1025, backoff_seconds=1.0)
        assert edge.delay_seconds(1024, seed=0, request_id=0) == 2.0 ** 1023

    def test_poisson_crashes_deterministic(self):
        kw = dict(rate=5.0, horizon_seconds=1.0, instances=3, seed=4)
        a = poisson_crashes(**kw)
        b = poisson_crashes(**kw)
        assert a.events == b.events
        assert all(isinstance(e, InstanceCrash) for e in a.events)
        assert poisson_crashes(**{**kw, "seed": 5}).events != a.events

    def test_retry_delay_deterministic_per_request(self):
        policy = RetryPolicy(jitter=0.5)
        d1 = policy.delay_seconds(1, seed=7, request_id=3)
        assert d1 == policy.delay_seconds(1, seed=7, request_id=3)
        assert d1 != policy.delay_seconds(1, seed=7, request_id=4)


class TestConservation:
    @pytest.mark.parametrize("resilience", [None, RESILIENT])
    def test_every_arrival_has_one_outcome(self, resilience):
        result = run_cluster(faults=CRASH_PLAN, resilience=resilience)
        result.check_conservation()
        outcomes = [r.outcome for r in result.records]
        assert (
            outcomes.count("completed") + outcomes.count("rejected")
            + outcomes.count("abandoned") + outcomes.count("exhausted")
            == result.arrived
        )

    def test_validate_covers_truncated_schedules(self):
        result = run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        result.validate()  # per-epoch schedules + conservation

    def test_no_retry_budget_exhausts_lost_requests(self):
        # A crash with no restart and no retries: lost requests must
        # end "exhausted", never vanish.
        plan = FaultPlan((InstanceCrash(instance=0, at_seconds=0.02),))
        result = run_cluster(faults=plan)
        result.check_conservation()
        assert result.exhausted > 0
        assert result.completed + result.rejected + result.exhausted \
            + result.abandoned == result.arrived

    def test_conservation_violation_raises(self):
        result = run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        result.records[0].outcome = None
        with pytest.raises(SimulationError, match="silently dropped"):
            result.check_conservation()


class TestCrashRecovery:
    def test_crash_and_restart_events_recorded(self):
        result = run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        assert result.crashes == 1
        assert result.restarts == 1
        kinds = [(kind, idx) for _, kind, idx in result.fault_events]
        assert kinds == [("crash", 0), ("restart", 0)]

    def test_availability_timeline_tracks_downtime(self):
        result = run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        windows = result.availability[0]
        assert windows[0][0] == 0.0
        assert windows[0][1] == pytest.approx(0.02)
        assert windows[1][0] == pytest.approx(0.03)
        assert windows[1][1] is None
        assert result.availability[1] == ((0.0, None),)

    def test_restart_is_a_fresh_epoch_with_cold_cache(self):
        result = run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        epochs = sorted(
            (r.index, r.epoch) for r in result.instances
        )
        assert (0, 0) in epochs and (0, 1) in epochs
        crashed = next(
            r for r in result.instances
            if r.index == 0 and r.epoch == 0
        )
        assert crashed.crashed_seconds == pytest.approx(0.02)
        reborn = next(
            r for r in result.instances
            if r.index == 0 and r.epoch == 1
        )
        assert reborn.crashed_seconds is None
        # Cold cache: the reborn epoch re-uploads keys it had warm.
        assert reborn.key_misses > 0 or reborn.admitted == 0

    def test_lost_work_is_retried_and_completes(self):
        result = run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        assert result.lost_events > 0
        assert result.total_retries > 0
        assert result.completed == result.arrived
        assert result.exhausted == 0

    def test_crash_without_resilience_loses_without_retry(self):
        result = run_cluster(faults=CRASH_PLAN)
        assert result.lost_events > 0
        assert result.total_retries == 0

    def test_goodput_excludes_late_completions(self):
        tight = ResiliencePolicy(
            deadline_seconds=0.03,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.001),
        )
        result = run_cluster(faults=CRASH_PLAN, resilience=tight)
        result.check_conservation()
        assert result.goodput < result.completed + result.abandoned \
            + result.exhausted
        assert result.slo_violations == sum(
            1 for r in result.records if r.slo_met is False
        )


class TestDeadlines:
    def test_queued_past_deadline_abandoned(self):
        # One instance, overload burst, tight deadline: queued requests
        # expire before service and leave as "abandoned".
        result = run_cluster(
            instances=1, rate=2000.0, count=32,
            resilience=ResiliencePolicy(deadline_seconds=0.01),
        )
        result.check_conservation()
        assert result.abandoned > 0
        for rec in result.records:
            if rec.outcome == "abandoned":
                assert rec.finish_seconds is None

    def test_latency_anchored_at_original_arrival(self):
        # Retries must not reset the latency clock: every completed
        # record's latency spans original arrival to finish.
        result = run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        retried = [
            r for r in result.records
            if r.retries > 0 and r.finish_seconds is not None
        ]
        assert retried, "scenario should complete retried requests"
        for rec in retried:
            assert rec.finish_seconds - rec.arrival_seconds > 0.01


class TestDerateFaults:
    def test_straggler_slows_the_fleet(self):
        plan = FaultPlan((
            Straggler(instance=0, start_seconds=0.0,
                      duration_seconds=10.0, slowdown=4.0),
            Straggler(instance=1, start_seconds=0.0,
                      duration_seconds=10.0, slowdown=4.0),
        ))
        base = run_cluster()
        slowed = run_cluster(faults=plan)
        assert slowed.makespan_seconds > base.makespan_seconds

    def test_hbm_degradation_slows_key_uploads(self):
        plan = FaultPlan((
            HBMDegradation(instance=0, start_seconds=0.0,
                           duration_seconds=10.0, factor=0.25),
            HBMDegradation(instance=1, start_seconds=0.0,
                           duration_seconds=10.0, factor=0.25),
        ))
        base = run_cluster()
        slowed = run_cluster(faults=plan)
        assert slowed.makespan_seconds > base.makespan_seconds

    def test_expired_window_has_no_effect(self):
        plan = FaultPlan((
            Straggler(instance=0, start_seconds=90.0,
                      duration_seconds=1.0, slowdown=8.0),
        ))
        base = run_cluster()
        windowed = run_cluster(faults=plan)
        assert windowed.summary() == base.summary()


class TestDeterminism:
    def test_faulted_run_bit_identical_across_runs(self):
        a = run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        b = run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        assert json.dumps(a.summary(), sort_keys=True) == \
            json.dumps(b.summary(), sort_keys=True)

    def test_fault_free_path_is_byte_identical_to_no_args(self):
        # faults=None / resilience=None must leave the fleet loop
        # arithmetically untouched: same floats, not just close.
        plain = run_cluster()
        explicit = run_cluster(faults=None, resilience=None)
        empty = run_cluster(faults=FaultPlan(()))
        assert json.dumps(plain.summary(), sort_keys=True) == \
            json.dumps(explicit.summary(), sort_keys=True)
        assert json.dumps(plain.summary(), sort_keys=True) == \
            json.dumps(empty.summary(), sort_keys=True)


class TestObservability:
    def test_fault_metrics_namespace(self):
        with collecting() as registry:
            run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        snapshot = registry.snapshot()
        assert snapshot["cluster.faults.crashes"] == 1
        assert snapshot["cluster.faults.restarts"] == 1
        assert snapshot["cluster.faults.lost_requests"] > 0
        assert snapshot["cluster.faults.retries"] > 0
        assert "cluster.goodput_rps" in snapshot
        assert "cluster.slo_violation_rate" in snapshot

    def test_trace_has_fault_markers_and_epoch_tracks(self):
        result = run_cluster(faults=CRASH_PLAN, resilience=RESILIENT)
        events = cluster_trace_events(result)
        markers = [e for e in events if e.get("cat") == "fault"]
        assert {e["name"] for e in markers} == {
            "crash i0", "restart i0"
        }
        names = {
            e["args"]["name"] for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert "poseidon-i0.e1" in names
