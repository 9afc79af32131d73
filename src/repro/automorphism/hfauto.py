"""HFAuto: the hardware-friendly automorphism (paper Section III-B / IV-B.4).

The naive automorphism scatters single elements across the whole
length-N vector — one index map per cycle in hardware. HFAuto views the
vector as an ``R x C`` matrix (R = N/C segments of C = 512 elements)
and, using the paper's lemma

    floor((a mod (C*R)) / C) = floor(a / C) mod R,

decomposes the destination of source element ``(i, j)``:

    dest_row = (i*k + floor(j*k / C)) mod R
    dest_col = (j*k) mod C

which factors the permutation into four C-wide stages:

1. **Row mapping** — row ``i`` moves to row ``i*k mod R``.
2. **Column-indexed row shift** — column ``j`` cyclically shifts its
   rows by ``floor(j*k / C) mod R`` (the FIFO rotation).
3. **Dimension switch** — transpose-style BRAM re-layout so columns
   become addressable rows.
4. **Column mapping** — column ``j`` moves to column ``j*k mod C``.

Every stage touches ``C`` elements per cycle instead of one, which is
the entire speedup of Tables VIII/IX.

The stages index the last two axes, so :func:`hfauto_apply` runs each
of them once on the whole ``(L, R, C)`` stack of a polynomial's limbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import AutomorphismError
from repro.automorphism.mapping import automorphism_signs
from repro.rns.poly import Domain, RnsPolynomial
from repro.utils.bitops import is_power_of_two

#: Poseidon's sub-vector length (the vector-lane width).
DEFAULT_SUBVECTOR = 512


@dataclass(frozen=True)
class StageCost:
    """Cycle cost of one HFAuto stage (C elements moved per cycle)."""

    name: str
    cycles: int
    elements_per_cycle: int


def hfauto_stage_costs(n: int, subvector: int) -> list[StageCost]:
    """Per-stage cycle counts of one HFAuto pass on an R x C matrix.

    The single source of truth for HFAuto's cycle cost, shared by
    :meth:`HFAutoPlan.stage_costs` and the simulator's cycle/latency
    models (:mod:`repro.sim.cores`, :mod:`repro.sim.resources`) so the
    three can never drift apart. Stages 1-3 move R rows of C elements
    at C elements per cycle (R cycles each); stage 4 maps the C
    columns exposed by the dimension switch (C cycles) — ``3R + C``
    per limb in total.
    """
    r = n // subvector
    return [
        StageCost("row_map", r, subvector),
        StageCost("fifo_shift", r, subvector),
        StageCost("dimension_switch", r, subvector),
        StageCost("column_map", subvector, r),
    ]


def hfauto_cycles_per_limb(n: int, subvector: int) -> int:
    """Total HFAuto pipeline cycles for one limb (sum of the stages)."""
    return sum(stage.cycles for stage in hfauto_stage_costs(n, subvector))


class HFAutoPlan:
    """Precomputed stage permutations for ``sigma_k`` on degree ``n``.

    The plan is reusable across limbs and ciphertexts (it depends only
    on ``(n, k, C)``), mirroring the hardware where the address
    selection circuit is configured once per rotation step.

    Args:
        n: ring degree (power of two, divisible by C).
        k: odd Galois element.
        subvector: C, the sub-vector length (default 512).
    """

    def __init__(self, n: int, k: int, subvector: int = DEFAULT_SUBVECTOR):
        if not is_power_of_two(n):
            raise AutomorphismError(f"degree must be a power of two, got {n}")
        if not is_power_of_two(subvector):
            raise AutomorphismError(
                f"subvector length must be a power of two, got {subvector}"
            )
        if n % subvector != 0:
            raise AutomorphismError(
                f"degree {n} is not divisible by subvector length {subvector}"
            )
        k %= 2 * n
        if k % 2 == 0:
            raise AutomorphismError(f"Galois element must be odd, got {k}")
        self.n = n
        self.k = k
        self.c = subvector
        self.r = n // subvector

        j = np.arange(self.c, dtype=np.int64)
        i = np.arange(self.r, dtype=np.int64)
        # Stage 1: destination row of each source row.
        self.row_dest = (i * k) % self.r
        # Stage 2: per-column extra row shift floor(j*k / C) mod R.
        self.col_row_shift = ((j * k) // self.c) % self.r
        # Stage 4: destination column of each source column.
        self.col_dest = (j * k) % self.c
        # Signs are a property of the source index (Eq. 4).
        self.signs = automorphism_signs(n, k).reshape(self.r, self.c)

    # ------------------------------------------------------------------
    # Stage-by-stage application (software mirror of the pipeline).
    # Each stage acts on the last two axes: one R x C matrix, or an
    # (L, R, C) stack of them moved in one call.
    # ------------------------------------------------------------------
    def stage1_row_map(self, matrix: np.ndarray) -> np.ndarray:
        """Row ``i`` -> row ``i*k mod R`` (BRAM -> FIFO, C data/cycle)."""
        out = np.empty_like(matrix)
        out[..., self.row_dest, :] = matrix
        return out

    def stage2_fifo_shift(self, matrix: np.ndarray) -> np.ndarray:
        """Cyclic row shift of each column by ``floor(j*k/C) mod R``.

        Implemented as a gather: output row r of column j comes from
        row ``(r - shift_j) mod R`` — one FIFO rotation per column.
        """
        r_idx = np.arange(self.r, dtype=np.int64)[:, None]
        src_rows = (r_idx - self.col_row_shift[None, :]) % self.r
        cols = np.arange(self.c, dtype=np.int64)[None, :]
        return matrix[..., src_rows, cols]

    def stage3_dimension_switch(self, matrix: np.ndarray) -> np.ndarray:
        """Expose columns as rows (the BRAM two-dimensional access trick).

        Functionally a transpose; the hardware achieves it with the
        diagonal storage layout rather than moving data.
        """
        return np.swapaxes(matrix, -1, -2).copy()

    def stage4_column_map(self, transposed: np.ndarray) -> np.ndarray:
        """Column ``j`` -> column ``j*k mod C`` then restore layout."""
        out = np.empty_like(transposed)
        out[..., self.col_dest, :] = transposed
        return np.swapaxes(out, -1, -2).copy()

    def apply_matrix(self, matrix: np.ndarray, q) -> np.ndarray:
        """Run all four stages (with Eq. 4 signs) on an R x C matrix.

        ``matrix`` may also be an ``(L, R, C)`` stack, with ``q`` an
        ``(L, 1, 1)`` modulus column.
        """
        if matrix.shape[-2:] != (self.r, self.c):
            raise AutomorphismError(
                f"expected shape (..., {self.r}, {self.c}), got {matrix.shape}"
            )
        matrix = np.asarray(matrix, dtype=np.uint64)
        q = np.asarray(q, dtype=np.uint64)
        negated = np.where(matrix == 0, np.uint64(0), q - matrix)
        signed = np.where(self.signs > 0, matrix, negated)
        m1 = self.stage1_row_map(signed)
        m2 = self.stage2_fifo_shift(m1)
        m3 = self.stage3_dimension_switch(m2)
        return self.stage4_column_map(m3)

    def apply_row(self, row: np.ndarray, q: int) -> np.ndarray:
        """Apply HFAuto to one flat residue vector of length n."""
        row = np.asarray(row, dtype=np.uint64)
        if row.shape != (self.n,):
            raise AutomorphismError(
                f"expected shape ({self.n},), got {row.shape}"
            )
        return self.apply_matrix(row.reshape(self.r, self.c), q).reshape(self.n)

    # ------------------------------------------------------------------
    # Cycle model (consumed by repro.sim)
    # ------------------------------------------------------------------
    def stage_costs(self) -> list[StageCost]:
        """Per-stage cycle counts at C elements per cycle."""
        return hfauto_stage_costs(self.n, self.c)

    def total_cycles(self) -> int:
        """Pipeline cycles for one limb (sum of stages)."""
        return sum(s.cycles for s in self.stage_costs())

    def naive_cycles(self) -> int:
        """Cycles the baseline one-element-per-cycle Auto core needs."""
        return self.n

    def __repr__(self) -> str:
        return f"HFAutoPlan(n={self.n}, k={self.k}, C={self.c}, R={self.r})"


@lru_cache(maxsize=1024)
def get_plan(n: int, k: int, subvector: int = DEFAULT_SUBVECTOR) -> HFAutoPlan:
    """Cached HFAuto plan per (n, k, C)."""
    return HFAutoPlan(n, k, subvector)


def hfauto_apply(
    poly: RnsPolynomial,
    k: int,
    *,
    subvector: int = DEFAULT_SUBVECTOR,
) -> RnsPolynomial:
    """Apply ``sigma_k`` to a coefficient-domain polynomial via HFAuto.

    Bit-identical to :func:`repro.automorphism.mapping.
    apply_automorphism_poly` (the tests assert it), but organized as
    the four-stage sub-vector pipeline.
    """
    if poly.domain is not Domain.COEFFICIENT:
        raise AutomorphismError(
            "automorphism operates on the coefficient domain; INTT first"
        )
    c = min(subvector, poly.degree)
    plan = get_plan(poly.degree, k, c)
    limbs = poly.level_count
    q = np.array(poly.context.moduli, dtype=np.uint64)[:, None, None]
    stack = poly.data.reshape(limbs, plan.r, plan.c)
    out = plan.apply_matrix(stack, q).reshape(limbs, poly.degree)
    return RnsPolynomial(out, poly.context, poly.domain)
