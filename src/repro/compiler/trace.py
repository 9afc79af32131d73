"""Trace capture: recording FHE-operation streams.

A :class:`TraceRecorder` plugs into :class:`~repro.ckks.evaluator.
CkksEvaluator` (the ``recorder`` argument) and converts every evaluator
call into an :class:`~repro.compiler.ops.FheOp`. Workload generators
can also append ops directly for full-scale parameter sets that would
be too slow to execute functionally.
"""

from __future__ import annotations

from collections import Counter

from repro.compiler.ops import FheOp, FheOpName
from repro.errors import WorkloadError


class TraceRecorder:
    """Accumulates a stream of FHE basic operations.

    Args:
        default_aux_limbs: auxiliary limb count assumed for keyswitch
            operations when the evaluator does not say otherwise.
    """

    def __init__(self, *, default_aux_limbs: int = 1):
        self.ops: list[FheOp] = []
        self.default_aux_limbs = default_aux_limbs

    # ------------------------------------------------------------------
    # Evaluator hook
    # ------------------------------------------------------------------
    def record(self, op: str, **meta) -> None:
        """Record one operation (called by the evaluator).

        Expects ``degree`` and ``level`` in the metadata; extra keys
        are preserved as annotations.
        """
        degree = meta.pop("degree", None)
        level = meta.pop("level", None)
        if degree is None or level is None:
            raise WorkloadError(
                f"trace record for {op!r} missing degree/level metadata"
            )
        name = FheOpName.from_label(op)
        self.ops.append(
            FheOp.make(
                name,
                int(degree),
                int(level),
                aux_limbs=self.default_aux_limbs,
                **meta,
            )
        )

    # ------------------------------------------------------------------
    # Direct construction (synthetic workloads)
    # ------------------------------------------------------------------
    def emit(
        self,
        name: FheOpName,
        degree: int,
        level: int,
        *,
        aux_limbs: int | None = None,
        count: int = 1,
        **meta,
    ) -> None:
        """Append ``count`` identical operations."""
        aux = self.default_aux_limbs if aux_limbs is None else aux_limbs
        op = FheOp.make(name, degree, level, aux_limbs=aux, **meta)
        self.ops.extend([op] * count)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def op_histogram(self) -> Counter:
        """Count of operations by name (Fig. 8-style mixes)."""
        return Counter(op.name.value for op in self.ops)

    def clear(self) -> None:
        """Drop all recorded operations."""
        self.ops.clear()

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __repr__(self) -> str:
        hist = dict(self.op_histogram())
        return f"TraceRecorder({len(self.ops)} ops: {hist})"
