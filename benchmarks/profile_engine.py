#!/usr/bin/env python
"""Profile the serving loop and its engine under a large serve trace.

Runs the e2e benchmark's ``serve-overload`` workload, built by its
own set-up in ``benchmarks/e2e/workloads.py`` (one accelerator, a
one-instance :class:`repro.serve.ClusterSimulator` with free key
uploads, fed 3000 Poisson arrivals at 8000 req/s, each expanding to a
multi-task operator program), under ``cProfile``, then prints the
hottest functions by cumulative and total time. This is the harness
the engine and serve-loop hot-path work is measured with — run it
before and after a scheduler change:

    make profile
    # or directly:
    python benchmarks/profile_engine.py --raw

The trace is sized so the engine loop dominates (hundreds of
thousands of heap events) while a full profile still completes in tens
of seconds. ``--raw`` additionally times an un-profiled run, since the
profiler's per-call hook inflates cheap functions; use the raw number
for before/after wall-clock comparisons and the profile for *where*.

Where the time goes on this trace (3000 requests, ~140k
admitted tasks, ~290k events; shares of one profiled run). Each
request type's task tuple is costed once per engine (its admission
plan, see ``docs/SCHEDULER.md``), so ``CoreModel.task_cycles`` and
``MemoryModel.task_timing`` run 92 times in total (once per task of
the two request types), not once per admitted task. Admission copies
no task and the batcher's backlog is a running fold. The serving loop
wakes only where the fleet can act: ~6,000 ``advance_until`` calls,
one per arrival and one per completion. What remains, hottest first:

- the engine's event loop (``advance_until``), about 65%: the
  dispatch pass (about 32%, its per-core free-instance scan run on
  every event), ``_step`` over ~290k ready and release events (about
  12% self), the grant pass (about 14%) and ``_finalize`` (about 11%);
- committing the run (``_archive``), about 25%:
  ``ScheduleEngine.as_program`` makes one dependency-shifted
  ``OperatorTask`` copy per task for the merged program (about 14%),
  and ``ScheduleEngine.result`` one ``TaskRecord`` per task (about
  11%);
- ``DynamicBatcher.take_batch``, which sorts and refolds the queue
  once per batch, about 5%;
- admission (``ScheduleEngine.submit``) about 2%, and the serving
  loop's own bookkeeping about 1%. Routing (``route``,
  ``KeyCache.admit``, ``ServiceEstimator.estimate``) is under 1%.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks" / "e2e"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from workloads import WORKLOADS  # noqa: E402  (path bootstrap must come first)


def _build_run(seed: int):
    workload = WORKLOADS["serve-overload"]
    state = workload.setup(seed, False)

    def run():
        result, _ = workload.run(state, time.perf_counter)
        return result

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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

    run = _build_run(args.seed)

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
