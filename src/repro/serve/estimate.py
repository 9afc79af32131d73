"""Shared service-time estimation for the serving layer.

The serving loop (:class:`~repro.serve.cluster.ClusterSimulator`)
needs a serial-execution estimate per request: it is the SJF batching
key and the shortest-expected-job / key-affinity routing backlog unit.
A cache keyed on ``job.name`` would go stale when one simulator object
is reused across ``run()`` calls with different ``passes=`` pipelines
(a pipeline rewrites the job's task list without renaming the job), so
this cache is keyed on the *resolved program*: two jobs with the same
name but different compiled task lists never share an estimate.
"""

from __future__ import annotations


class ServiceEstimator:
    """Serial-execution estimates, cached per resolved program.

    The estimate is the sum over the program's tasks of each task's
    core-side occupancy (``max(compute, scratchpad stream)``) — the
    serial lower bound a request adds to an instance's backlog. It is
    read off the engine's :class:`~repro.sim.engine.AdmissionPlan`, so
    the program is costed once for both estimation and admission.

    The cache key is the program object itself (by identity, with the
    program kept alive by the cache so ids cannot be recycled), not the
    job name: compiler passes produce *different programs under the
    same job name*, and a name-keyed cache would keep quoting the old
    pipeline's estimate.
    """

    def __init__(self):
        self._cache: dict[int, tuple[object, float]] = {}

    def estimate(self, engine, job) -> float:
        """Serial-execution estimate of ``job`` on ``engine``'s models."""
        program = job.program
        hit = self._cache.get(id(program))
        if hit is not None and hit[0] is program:
            return hit[1]
        est = engine.admission_plan(program.tasks).service_seconds
        self._cache[id(program)] = (program, est)
        return est
