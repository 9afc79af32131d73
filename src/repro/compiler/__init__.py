"""Compiler: FHE operations -> operator task graphs.

Poseidon has no instruction set for whole FHE operations; its scheduler
decomposes each basic operation into MA/MM/NTT/Automorphism/SBT tasks
(paper Table I) and time-multiplexes the core arrays. This subpackage
is that decomposition in software:

- :mod:`repro.compiler.ops` — the FHE-operation IR.
- :mod:`repro.compiler.decompose` — lowering each op to tasks.
- :mod:`repro.compiler.trace` — capturing op streams from a live
  :class:`~repro.ckks.evaluator.CkksEvaluator` run.
- :mod:`repro.compiler.program` — whole-program task assembly.
- :mod:`repro.compiler.passes` — the optimization pass pipeline run
  between lowering and assembly (see docs/COMPILER.md).
"""

from repro.compiler.decompose import (
    clear_lowering_cache,
    decompose_operation,
    lowering_cache_info,
)
from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.passes import (
    DEFAULT_PIPELINE,
    PASS_REGISTRY,
    ProgramDraft,
    apply_pipeline,
    resolve_passes,
)
from repro.compiler.program import OperatorProgram, compile_trace
from repro.compiler.trace import TraceRecorder

__all__ = [
    "DEFAULT_PIPELINE",
    "FheOp",
    "FheOpName",
    "OperatorProgram",
    "PASS_REGISTRY",
    "ProgramDraft",
    "TraceRecorder",
    "apply_pipeline",
    "clear_lowering_cache",
    "compile_trace",
    "decompose_operation",
    "lowering_cache_info",
    "resolve_passes",
]
