#!/usr/bin/env python
"""Profile the serving loop and its engine under a large serve trace.

Drives one accelerator (a one-instance :class:`repro.serve.ClusterSimulator`
with free key uploads, the e2e benchmark's ``serve-overload`` workload)
over a heavy Poisson stream (thousands of requests, each expanding to a
multi-task operator program) under ``cProfile``, then prints the
hottest functions by cumulative and total time. This is the harness
the engine and serve-loop hot-path work is measured with — run it
before and after a scheduler change:

    make profile
    # or directly:
    PYTHONPATH=src python benchmarks/profile_engine.py --requests 3000

The default trace is sized so the engine loop dominates (hundreds of
thousands of heap events) while a full profile still completes in tens
of seconds. ``--raw`` additionally times an un-profiled run, since the
profiler's per-call hook inflates cheap functions; use the raw number
for before/after wall-clock comparisons and the profile for *where*.

Where the time goes on the default trace (3000 requests, ~140k
admitted tasks, ~290k events; shares of one profiled run). Each
request type's task tuple is costed once per engine (its admission
plan, see ``docs/SCHEDULER.md``), so ``CoreModel.task_cycles`` and
``MemoryModel.task_timing`` run 92 times in total (once per task of
the two request types), not once per admitted task, and the batcher's
backlog is a running fold. What remains, hottest first:

- the engine's event loop (``advance_until``), about 55%: ``_step``,
  ``_dispatch_pass`` (its per-core free-instance scan),
  ``_grant_pass`` (its 32-slot free-channel scan) and ``_finalize``;
- the serving loop's own per-event bookkeeping, about 15%: the self
  time of ``ClusterSimulator.run``, its loop condition's scan over
  instances and batcher depth reads. Routing itself (``route``,
  ``KeyCache.admit``, ``ServiceEstimator.estimate``) is under 1%;
- admission (``ScheduleEngine.submit``), about 12%, most of it
  ``OperatorTask.shifted``, one dependency-shifted copy per admitted
  task;
- ``ScheduleEngine.result``, one ``TaskRecord`` per task, about 7%;
- ``DynamicBatcher.take_batch``, which sorts the queue once per batch,
  about 3%.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def _build_run(requests: int, rate: float, seed: int):
    from repro.serve import ClusterPolicy, ClusterSimulator, PoissonArrivals

    sim = ClusterSimulator(
        policy=ClusterPolicy(instances=1, key_upload_bytes=0)
    )
    arrivals = PoissonArrivals(rate=rate, count=requests, seed=seed)

    def run():
        return sim.run("keyswitch,streaming", arrivals, seed=seed)

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--requests", type=int, default=3000,
        help="arrival count for the serve trace (default: 3000)",
    )
    parser.add_argument(
        "--rate", type=float, default=8000.0,
        help="Poisson arrival rate per simulated second (default: 8000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sort", choices=("cumulative", "tottime"), default="tottime",
        help="pstats sort key for the printed table",
    )
    parser.add_argument(
        "--limit", type=int, default=25,
        help="rows of the profile table to print (default: 25)",
    )
    parser.add_argument(
        "--raw", action="store_true",
        help="also time an un-profiled run for wall-clock comparison",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="optional path to dump the raw pstats file",
    )
    args = parser.parse_args(argv)

    run = _build_run(args.requests, args.rate, args.seed)

    if args.raw:
        t0 = time.perf_counter()
        result = run()
        raw_seconds = time.perf_counter() - t0
        print(
            f"raw run: {raw_seconds:.3f}s wall, "
            f"{result.completed} completed, "
            f"makespan {result.makespan_seconds:.6f}s simulated"
        )

    profiler = cProfile.Profile()
    profiler.enable()
    result = run()
    profiler.disable()
    print(
        f"profiled run: {result.completed} completed, "
        f"makespan {result.makespan_seconds:.6f}s simulated"
    )

    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.output is not None:
        stats.dump_stats(args.output)
        print(f"pstats dumped to {args.output}")
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
