"""Host-time spans around the library's public functions.

Only a traced sample imports this module; untraced samples never load
it, so their timings carry no tracing cost. :class:`Tracer` replaces
each function named in :data:`spec.SPANS` at its lookup site (a module
global, a class attribute or a dict entry) with a wrapper that keeps a
span stack: name, start, end and parent. A span's self time is its
duration minus the time its child spans cover.

A target that no longer exists is recorded in :attr:`Tracer.missing`
and skipped; installing never raises for it.
"""

from __future__ import annotations

import functools
import importlib
import re
import time
from contextlib import contextmanager

import spec

#: Span events kept per span name for the Chrome trace. Aggregate
#: metrics count every call; the trace file keeps the first calls only,
#: so a run of hundreds of thousands of per-task calls stays readable.
MAX_EVENTS_PER_SPAN = 2000

#: Track order in the Chrome trace: one track per layer.
TRACKS = ("sample", "compiler", "sim", "serve", "kernels", "ckks")

#: How a kernel call's L x N element count is read from its arguments
#: (``args[0]`` is the backend instance).
_ELEMENTS = {
    "first": lambda args: args[1].size,
    "lift": lambda args: args[1].size * len(args[2]),
    "basis_convert": lambda args: args[1].shape[1] * len(args[3]),
}

_DICT_TARGET = re.compile(r"(\w+)\[(.*)\]")


class Tracer:
    """Span recorder; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self, spans=spec.SPANS, clock=time.perf_counter):
        self.spans = tuple(spans)
        self.clock = clock
        #: span name -> [calls, self seconds, elements]
        self.stats = {span.name: [0, 0.0, 0] for span in self.spans}
        #: ``"span <- target"`` for every target that could not be found.
        self.missing: list[str] = []
        #: (name, layer, start, end, parent name) in completion order.
        self.events: list[tuple] = []
        self.origin = clock()
        self._stack: list[list] = []
        self._restore: list = []

    # -- wrapping ------------------------------------------------------
    def install(self) -> None:
        for span in self.spans:
            for target in span.targets:
                try:
                    self._wrap_target(span, target)
                except (ImportError, AttributeError, KeyError, TypeError):
                    self.missing.append(f"{span.name} <- {target}")

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def missing_spans(self) -> set[str]:
        return {entry.split(" <- ")[0] for entry in self.missing}

    def _wrap_target(self, span: spec.Span, target: str) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        match = _DICT_TARGET.fullmatch(path)
        if match:
            table = getattr(module, match.group(1))
            keys = list(table) if match.group(2) == "" else [match.group(2)]
            if not keys:
                raise KeyError(target)
            for key in keys:
                original = table[key]
                table[key] = self._wrapper(span, original)
                self._restore.append(functools.partial(table.__setitem__, key, original))
            return
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        current = getattr(owner, attr)
        if not callable(current):
            raise TypeError(target)
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrapper(span, raw.__func__))
        else:
            replacement = self._wrapper(span, current)
        setattr(owner, attr, replacement)
        if isinstance(owner, type) and raw is None:
            # Inherited attribute: removing the override restores it.
            self._restore.append(functools.partial(delattr, owner, attr))
        else:
            original = raw if raw is not None else current
            self._restore.append(functools.partial(setattr, owner, attr, original))

    def _wrapper(self, span: spec.Span, fn):
        stats = self.stats[span.name]
        stack = self._stack
        events = self.events
        name, layer = span.name, span.layer
        elements = _ELEMENTS[span.elements] if span.elements else None
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration - frame[2]
                if elements is not None:
                    stats[2] += elements(args)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if stats[0] <= MAX_EVENTS_PER_SPAN:
                    events.append((name, layer, frame[1], end, parent and parent[0]))

        return traced

    @contextmanager
    def phase(self, name: str):
        """A top-level span on the ``sample`` track (timed, checks)."""
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self.events.append((name, "sample", frame[1], self.clock(), None))

    # -- results -------------------------------------------------------
    def self_seconds(self, name: str) -> float:
        return self.stats[name][1]

    def per_layer(self, total_seconds: float) -> dict[str, float]:
        """``<span>.calls``, ``.self_share`` (of ``total_seconds``) and,
        for kernels, ``.elements``."""
        out: dict[str, float] = {}
        for span in self.spans:
            calls, self_s, elements = self.stats[span.name]
            out[f"{span.name}.calls"] = calls
            out[f"{span.name}.self_share"] = self_s / total_seconds if total_seconds else 0.0
            if span.elements is not None:
                out[f"{span.name}.elements"] = elements
        return out

    def chrome_trace(self, workload: str) -> dict:
        """Chrome/Perfetto trace: a ``host`` process, one track per layer.

        Timestamps are host microseconds on the tracer's clock since it
        was created, not simulated time.
        """
        tid = {layer: i + 1 for i, layer in enumerate(TRACKS)}
        events: list[dict] = [
            {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "host"}}
        ]
        events += [
            {"ph": "M", "pid": 1, "tid": t, "name": "thread_name", "args": {"name": layer}}
            for layer, t in tid.items()
        ]
        for name, layer, start, end, parent in self.events:
            events.append({
                "ph": "X", "pid": 1, "tid": tid[layer], "name": name, "cat": layer,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"parent": parent},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload,
                "clock": "host",
                "timestamp_unit": "host microseconds since tracing started, "
                                  "calibration pauses excluded",
                "events_per_span_cap": MAX_EVENTS_PER_SPAN,
                "calls_not_in_trace": {
                    name: stats[0] - MAX_EVENTS_PER_SPAN
                    for name, stats in self.stats.items()
                    if stats[0] > MAX_EVENTS_PER_SPAN
                },
                "missing": self.missing,
            },
        }
