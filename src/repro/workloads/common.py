"""Shared building blocks for workload trace construction.

Workloads are described in terms of FHE macro-steps (matrix-vector
product, polynomial activation, bootstrap) that expand into the basic
operations of paper §II-A. The expansions mirror the functional
implementations in :mod:`repro.ckks` — BSGS linear transforms match
:class:`~repro.ckks.linear.LinearTransform`, the bootstrap pipeline
matches :class:`~repro.ckks.bootstrap.Bootstrapper`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compiler.ops import FheOpName
from repro.compiler.trace import TraceRecorder
from repro.errors import WorkloadError

#: Paper-scale defaults: degree and keyswitch width.
PAPER_DEGREE = 1 << 16
PAPER_AUX_LIMBS = 4


@dataclass
class LevelTracker:
    """Tracks the remaining modulus-chain level through a workload.

    Emitting a Rescale decrements the level; a bootstrap raises it back
    to the top of the chain and then consumes its own pipeline depth.
    Raises when a workload would run off the bottom of the chain, which
    is how trace construction validates depth budgets (Table V).
    """

    level: int
    top_level: int

    def consume(self, levels: int = 1) -> None:
        if self.level - levels < 0:
            raise WorkloadError(
                f"modulus chain exhausted (level {self.level}, need "
                f"{levels}); schedule a bootstrap earlier"
            )
        self.level -= levels

    def refresh(self) -> None:
        self.level = self.top_level


class WorkloadBuilder:
    """Emits macro-steps into a :class:`TraceRecorder`.

    Args:
        degree: ring degree of all operands.
        start_level: chain level at workload start.
        top_level: the full chain's top level (bootstrap target).
        aux_limbs: special-prime count for keyswitching.
    """

    def __init__(
        self,
        *,
        degree: int = PAPER_DEGREE,
        start_level: int = 38,
        top_level: int | None = None,
        aux_limbs: int = PAPER_AUX_LIMBS,
    ):
        self.degree = degree
        self.trace = TraceRecorder(default_aux_limbs=aux_limbs)
        self._hoist_seq = 0
        top = start_level if top_level is None else top_level
        if top < start_level:
            raise WorkloadError(
                f"top level {top} below start level {start_level}"
            )
        self.levels = LevelTracker(level=start_level, top_level=top)

    # ------------------------------------------------------------------
    # Basic emissions
    # ------------------------------------------------------------------
    def _emit(self, name: FheOpName, count: int = 1, **meta) -> None:
        self.trace.emit(
            name, self.degree, self.levels.level, count=count, **meta
        )

    def hadd(self, count: int = 1, *, kind: str = "ct-ct") -> None:
        """Homomorphic additions at the current level."""
        self._emit(FheOpName.HADD, count, kind=kind)

    def pmult(
        self, count: int = 1, *, rescale: bool = False,
        resident: bool = False,
    ) -> None:
        """Plaintext multiplications; optionally one shared rescale.

        ``resident=True`` marks scratchpad-resident inputs (diagonal
        inner loops), charging only the plaintext stream from HBM.
        """
        if resident:
            self._emit(FheOpName.PMULT, count, resident=True)
        else:
            self._emit(FheOpName.PMULT, count)
        if rescale:
            self.rescale()

    def cmult(self, count: int = 1, *, rescale: bool = True) -> None:
        """Ciphertext multiplications, each followed by a rescale."""
        for _ in range(count):
            self._emit(FheOpName.CMULT, 1)
            if rescale:
                self.rescale()

    def rescale(self) -> None:
        """One rescale; consumes a level."""
        self._emit(FheOpName.RESCALE, 1)
        self.levels.consume()

    def rotation(self, count: int = 1, *, hoisted: bool = False) -> None:
        """Slot rotations (automorphism + keyswitch).

        ``hoisted=True`` models rotations of one common ciphertext
        (BSGS baby steps): the first pays the full keyswitch, the rest
        share its digit decomposition (HoistedRotation ops).
        """
        if count <= 0:
            return
        if hoisted and count > 1:
            # Annotate the group's dataflow: every hoisted rotation
            # reads the cold rotation's digit decomposition and writes
            # its own output, so the relax-barriers compiler pass can
            # overlap the k-1 hoisted rotations instead of draining
            # the pipeline between them. Lowerings ignore these keys;
            # without the pass the trace compiles byte-identically.
            self._hoist_seq += 1
            tag = f"hoist{self._hoist_seq}"
            self._emit(
                FheOpName.ROTATION, 1,
                reads=(f"{tag}:src",),
                writes=(f"{tag}:digits", f"{tag}:rot0"),
            )
            for i in range(1, count):
                self._emit(
                    FheOpName.HOISTED_ROTATION, 1,
                    reads=(f"{tag}:digits",),
                    writes=(f"{tag}:rot{i}",),
                )
        else:
            self._emit(FheOpName.ROTATION, count)

    # ------------------------------------------------------------------
    # Macro-steps
    # ------------------------------------------------------------------
    def rotate_accumulate(self, width: int) -> None:
        """log2(width) rotate+add steps (slot-wise reduction)."""
        steps = max(1, int(math.ceil(math.log2(max(2, width)))))
        for _ in range(steps):
            self.rotation(1)
            self.hadd(1)

    def linear_transform(
        self, dimension: int, *, diagonals: int | None = None
    ) -> None:
        """BSGS matrix-vector product (one level).

        Defaults to a dense matrix (``diagonals = dimension``); sparse
        transforms (FFT stages) pass fewer diagonals. Baby-step
        rotations are hoisted (they all rotate the same input); the
        per-diagonal PMults read only their plaintext diagonal from
        HBM and the accumulating HAdds stay scratchpad-resident —
        the dataflow planning §VI credits the 8.6 MB scratchpad for.
        """
        diags = dimension if diagonals is None else diagonals
        if diags < 1:
            raise WorkloadError("linear transform needs >= 1 diagonal")
        # Double-hoisting (BTS/ARK style): baby steps share the input's
        # digit decomposition and giant steps share a deferred ModDown,
        # so only one rotation in the whole transform pays full price.
        baby = max(1, int(round(math.sqrt(2 * diags))))
        giants = max(1, -(-diags // baby))
        self.rotation(max(1, baby + giants - 1), hoisted=True)
        self.pmult(diags, resident=True)
        self.hadd(max(0, diags - 1), kind="fused")
        self.hadd(max(0, giants - 1))
        self.rescale()

    def _eval_mod(self, taylor_degree: int, double_angles: int) -> None:
        """One EvalMod pass: Horner ladder + double-angle squarings."""
        self.pmult(1, rescale=True)          # Taylor argument scaling
        self.cmult(taylor_degree - 1)        # Horner ladder
        self.hadd(taylor_degree, kind="ct-pt")
        self.cmult(double_angles)            # double-angle squarings
        self.rotation(1)                     # conjugation
        self.hadd(1)
        self.pmult(1, rescale=True)          # 1/(2*pi) scaling

    def bootstrap(
        self,
        *,
        c2s_stages: int = 3,
        s2c_stages: int = 3,
        taylor_degree: int = 7,
        double_angles: int = 6,
        stage_diagonals: int = 32,
        slots: int | None = None,
    ) -> None:
        """Packed bootstrapping (paper [30]) as basic operations.

        ModRaise is a reinterpretation (free); CoeffToSlot/SlotToCoeff
        are FFT-style stacks of sparse linear transforms; EvalMod runs
        twice (real and imaginary coefficient halves) *in parallel
        level-wise*: a Horner ladder of CMults plus double-angle
        squarings, ending with a conjugation and a constant multiply.

        ``slots`` enables sparse bootstrapping: workloads packing only
        n << N/2 values (LSTM's 128-wide state, HELR's feature width)
        refresh with n-dimensional C2S/S2C transforms, which is how
        per-step bootstrapping stays affordable.
        """
        self.levels.refresh()
        slots = self.degree // 2 if slots is None else slots
        diags = min(stage_diagonals, slots)
        for _ in range(c2s_stages):
            self.linear_transform(slots, diagonals=diags)
        # The two EvalMod halves consume the same levels side by side.
        before = self.levels.level
        self._eval_mod(taylor_degree, double_angles)
        after = self.levels.level
        self.levels.level = before
        self._eval_mod(taylor_degree, double_angles)
        self.levels.level = min(after, self.levels.level)
        for _ in range(s2c_stages):
            self.linear_transform(slots, diagonals=diags)

    @staticmethod
    def bootstrap_depth(
        *,
        c2s_stages: int = 3,
        s2c_stages: int = 3,
        taylor_degree: int = 7,
        double_angles: int = 6,
    ) -> int:
        """Levels one bootstrap consumes below the chain top."""
        eval_mod = 1 + (taylor_degree - 1) + double_angles + 1
        return c2s_stages + eval_mod + s2c_stages

    # ------------------------------------------------------------------
    def build(self) -> TraceRecorder:
        """Return the accumulated trace."""
        return self.trace
