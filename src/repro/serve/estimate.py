"""Shared service-time estimation for the serving layer.

Both the single-instance :class:`~repro.serve.simulator.ServingSimulator`
and the fleet :class:`~repro.serve.cluster.ClusterSimulator` need a
serial-execution estimate per request: it is the SJF batching key and
the shortest-expected-job / key-affinity routing backlog unit. The two
simulators used to carry copy-pasted private caches keyed on
``job.name`` — which silently went stale when one simulator object was
reused across ``run()`` calls with different ``passes=`` pipelines (the
pipeline rewrites the job's task list without renaming the job). This
module is the single implementation, and the cache is keyed on the
*resolved program*, so two jobs with the same name but different
compiled task lists never share an estimate.
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
