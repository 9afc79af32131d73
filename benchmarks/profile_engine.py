#!/usr/bin/env python
"""Profile one e2e workload's timed section; by default the serve loop.

Builds a workload of the e2e benchmark with its own set-up in
``benchmarks/e2e/workloads.py``, runs its timed section under
``cProfile``, then prints the hottest functions by cumulative and
total time. ``--workload`` picks any of the benchmark's workloads; the
default, ``serve-overload``, is one accelerator, a one-instance
:class:`repro.serve.ClusterSimulator` with free key uploads, fed 3000
Poisson arrivals at 8000 req/s, each expanding to a multi-task
operator program. This is the harness the engine and serve-loop
hot-path work is measured with — run it before and after a scheduler
change:

    make profile
    # or directly:
    python benchmarks/profile_engine.py --raw
    python benchmarks/profile_engine.py --workload ckks-bootstrap --raw

The default trace is sized so the engine loop dominates (hundreds of
thousands of heap events) while a full profile still completes in tens
of seconds. ``--raw`` additionally times an un-profiled run, since the
profiler's per-call hook inflates cheap functions; use the raw number
for before/after wall-clock comparisons and the profile for *where*.
With ``--raw`` it also prints the host seconds that run spent in the
cyclic garbage collector and the collections per generation, observed
through ``gc.callbacks``, and how many GC-tracked objects are alive
after it (``len(gc.get_objects())``, observation only). cProfile
charges collector time to whichever function happens to allocate when
a collection starts, so a share that jumps between runs may be the
collector landing there.

Where the time goes on this trace (3000 requests, ~140k
admitted tasks, ~290k events; shares of one profiled run). Each
request type's task table is planned once per engine (its admission
plan) and each distinct task shape is costed once per engine (see
``docs/SCHEDULER.md``), so ``CoreModel.task_cycles`` and
``MemoryModel.task_timing`` run 17 times in total (once per shape
among the two request types' 92 tasks), not once per admitted task.
Admission extends the engine's lists from the plan and copies no
task, and the batcher's backlog is a running fold. The serving loop
wakes only where the fleet can act: ~6,000 ``advance_until`` calls,
one per arrival and one per completion. The engine enters a dispatch
pass only where a core can dispatch (113,946 of ~290k events) and a
grant pass only while transfers wait and a slot is free (51,522).
What remains, hottest first:

- the engine's event loop (``advance_until``), about 78%: the
  dispatch pass (about 39%, with the ``_finalize`` calls it makes),
  ``_step`` over ~290k ready and release events (about 18% self), the
  grant pass (about 10%) and ``_finalize`` (about 25% in all, called
  from both passes);
- ``DynamicBatcher.take_batch``, about 5%: the FIFO queue stays in
  order, so a batch is its head and nothing is sorted; what remains
  is the backlog refold over the rest of the queue;
- committing the run (``_archive``), about 4%: ``ScheduleEngine.result``
  fills the record columns elementwise and builds no ``TaskRecord``
  (about 14% when it built one per task), and the per-request start
  times are one segmented minimum over the start column;
- admission (``ScheduleEngine.submit``) about 4%, and the serving
  loop's own bookkeeping about 3%. Routing (``route``,
  ``KeyCache.admit``, ``ServiceEstimator.estimate``) is under 1%.

The raw run spends about 0.01 s in the cyclic collector, over about
28/3/0 collections of generations 0/1/2, and about 30,000 GC-tracked
objects are alive after it (0.2 s, 348/32/3 and ~173,000 when the
result held a ``TaskRecord`` per task; 2-core host).

``--workload ckks-bootstrap`` profiles ten packed bootstraps at N=64
(the e2e set-up: keys, the six CoeffToSlot/SlotToCoeff transforms and
a warm-up bootstrap stay outside the profile). The linear transforms
multiply and accumulate in the NTT domain, so what remains is mostly
keyswitching: ``apply_switch_key`` (830 calls, one per rotation,
conjugation and relinearization) is about 63% of the profiled time,
and the transforms' own share (about 67%) is almost all their baby
and giant rotations. Every N=64 NTT/INTT call folds its stacked rows
innermost (2,560 ``_run_folded`` calls, about 35% cumulative), so the
stages loop over up to 510 rows at once instead of butterfly runs of
1-32 elements. The top self times are the NTT's Shoup products
(``_shoup``, about 15%), the key and spectrum products against their
stored companions (``_mul_prepared``, about 8%), the uint64 Barrett
products that remain (``_barrett_narrow``, about 6%: the lazy sums'
reductions, ``mod_scalar_mul`` and ``basis_convert``; about 12% when
every key product was a Barrett ``mod_mul``), the conditional
subtracts (``_csub``, about 5%) and the two butterfly stages (about 4%
self each). Stacking each folded call's twiddles (``_stacked``, one
assignment per call) is about 3% cumulative, as ``np.tile`` was; the
profiler inflates it, since replaying one bootstrap's folded calls
un-profiled ran them ~4% faster than with ``np.tile``. Each kernel
call resolves its basis once, in ``check_moduli`` (16,940 calls, about
1%). The raw run takes ~1.5-2.0 s on a noisy 2-core host, where the
e2e A/B's raw medians read 1.65 s against 2.13 s with Barrett key
products, copied ufunc buffers and ``np.tile`` (and ~3.2 s with
per-term transforms).

``--workload ckks-ops`` profiles fifty closed-loop requests at N=4096,
L=8 (multiply, relinearize, rescale, rotate, add; keys and rotation
keys are set-up). ``apply_switch_key`` is about 73% of the profiled
time. The NTT/INTT calls hold 8 or 9 rows, so rows stay rows:
``_run_rows`` is about 55%. By self time the Shoup products lead
(``_shoup``, about 30%), then the key products against their stored
companions (``_mul_prepared``, about 10%), the forward stage's own
adds and subtracts (about 9%), the conditional subtracts (``_csub``,
about 7%), the uint64 Barrett products (``_barrett_narrow``, about 5%,
down from about 14% when the key products were ``mod_mul``) and
``lift`` (about 3%). Every call over 8,192 elements runs under a
1,024-element ufunc buffer (``_scoped``, 4,850 calls; its set and
restore are about 2%). The raw run takes ~2.7-2.9 s, against
~4.5-5.0 s with Barrett key products and copied ufunc buffers (2-core
host).

``--workload table6`` profiles building, compiling (default passes)
and simulating the four Table VI programs, 148,304 tasks in all. Each
engine costs each distinct task shape once (1,661 cost-model calls in
all). Assembly writes each program as a task table one op block at a
time, converting each distinct block once, so no task is copied;
admission plans the table from its columns, and ``result()`` commits
columns. By cumulative share: the event loop (``drain``: ``_step``,
``_dispatch_pass``, ``_finalize`` and ``_grant_pass``) about 56%;
lowering (``ProgramDraft.from_ops``) about 14%; the passes about 15%
(``relax-barriers`` about 7%); assembly about 8% (its per-op block
keys and barrier CSR); admission (``submit``) about 4% and
``result()`` about 2%. The raw run takes ~2.0-2.1 s, against
~3.1-3.7 s with an ``OperatorTask`` copy per assembled task, eleven
appends per admitted task and a ``TaskRecord`` per committed one
(2-core host). ~0.16-0.19 s of it is the cyclic collector, over
~410/37/3 collections of generations 0/1/2 (~0.78-0.93 s over
1,316/120/10 before), and ~40,000 GC-tracked objects are alive after
it (~333,000 before, almost all of them ``OperatorTask`` copies and
``TaskRecord``s).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks" / "e2e"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from workloads import WORKLOADS  # noqa: E402  (path bootstrap must come first)

from repro.serve.cluster import ClusterResult  # noqa: E402


def _build_run(name: str, seed: int):
    """Set up workload ``name`` once; return a thunk that runs its timed
    section and a one-line description of that run's output."""
    workload = WORKLOADS[name]
    state = workload.setup(seed, False)

    def run():
        out, _ = workload.run(state, time.perf_counter)
        return out

    def describe(out) -> str:
        if isinstance(out, ClusterResult):
            return (
                f"{out.completed} completed, "
                f"makespan {out.makespan_seconds:.6f}s simulated"
            )
        return f"digest {workload.check(state, out)['digest'][:16]}"

    return run, describe


class _CollectorClock:
    """Host seconds the cyclic garbage collector spends, and its
    collections per generation, seen through ``gc.callbacks`` (which
    only observes: no ``gc`` setting changes)."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="serve-overload",
        help="e2e workload whose timed section to profile "
             "(default: serve-overload)",
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

    run, describe = _build_run(args.workload, args.seed)

    if args.raw:
        collector = _CollectorClock()
        gc.callbacks.append(collector)
        t0 = time.perf_counter()
        out = run()
        raw_seconds = time.perf_counter() - t0
        gc.callbacks.remove(collector)
        tracked = len(gc.get_objects())
        print(f"raw run: {raw_seconds:.3f}s wall, {describe(out)}")
        gen0, gen1, gen2 = collector.collections
        print(
            f"cyclic GC in the raw run: {collector.seconds:.3f}s host, "
            f"collections per generation {gen0}/{gen1}/{gen2} (gen 0/1/2); "
            f"{tracked:,} GC-tracked objects alive after it"
        )

    profiler = cProfile.Profile()
    profiler.enable()
    out = run()
    profiler.disable()
    print(f"profiled run: {describe(out)}")

    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.output is not None:
        stats.dump_stats(args.output)
        print(f"pstats dumped to {args.output}")
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
