"""Homomorphic linear algebra: matrix-vector products on packed slots.

Implements the standard diagonal method: for an ``n x n`` matrix ``M``
acting on the slot vector ``z``,

    M z = sum_d  diag_d(M) ⊙ rot_d(z)

where ``diag_d(M)[i] = M[i, (i+d) mod n]`` and ``rot_d`` rotates slots
left by ``d``. With baby-step/giant-step (BSGS) the rotation count
drops from ``n`` to ``~2*sqrt(n)`` — the optimization every FHE NN
workload (HELR, LSTM, ResNet-20) leans on, and the reason Rotation is
so prominent in the paper's operator breakdowns.

Products and sums run in the NTT domain, where Poseidon's MM/MA cores
find their operands:

- Each nonzero diagonal is encoded once, when the transform is built:
  pre-rotated by its giant step, over the full modulus chain, and
  forward-transformed into one ``(D, L, N)`` spectrum stack, kept as a
  prepared constant (uint32 residues and their uint32 Shoup
  companions, :meth:`~repro.kernels.KernelBackend.mod_mul_prepared`).
  A level-``l`` ciphertext uses the stack's first ``l + 1`` limb rows.
  Those equal an encoding at level ``l`` bit for bit: the level-``l``
  basis is a prefix of the chain, and encoding and NTT both work limb
  by limb. The stack holds ``D * L * N`` residues in 8 bytes each; the
  bootstrap preset's six transforms keep 6 x 32 diagonals x 16 limbs x
  64 x 8 B ~ 1.6 MB.
- :meth:`LinearTransform.apply` transforms each baby-step rotation
  once, all of them in one ``ntt_stack`` call. Each giant-step group
  then sums its terms lazily into one uint64 buffer, one
  ``mod_mul_prepared`` call of its baby spectra against its diagonal
  spectra per :func:`repro.kernels.batch_blocks` block, reduces it once
  (``barrett_reduce``) and takes one INTT, and only then its giant
  rotation.

The reduction returns canonical residues and the INTT is linear, so the
result is bit-identical to a ``multiply_plain`` and an ``add`` per
diagonal term, and the evaluator's recorder and ``ckks.op.*`` counters
still see one PMult per term and one HAdd per sum.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro import kernels
from repro.errors import EvaluationError
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.hoisting import HoistedRotator
from repro.ntt.negacyclic import intt_stack, ntt_stack
from repro.rns.poly import Domain, stack_residues, unstack_residues


def matrix_diagonals(matrix: np.ndarray) -> dict[int, np.ndarray]:
    """Extract the nonzero generalized diagonals of a square matrix.

    Returns a mapping ``d -> diag_d`` including only diagonals with at
    least one nonzero entry (sparse matrices cost fewer rotations).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise EvaluationError(
            f"expected a square matrix, got shape {matrix.shape}"
        )
    n = matrix.shape[0]
    out: dict[int, np.ndarray] = {}
    rows = np.arange(n)
    for d in range(n):
        diag = matrix[rows, (rows + d) % n]
        if np.any(diag != 0):
            out[d] = diag.astype(np.complex128)
    return out


class LinearTransform:
    """A plaintext ``n x n`` matrix applied homomorphically to slots.

    The slot vector is treated as n-periodic across the ciphertext's
    N/2 slots (inputs must be replicated if n < N/2 and rotations by
    ``d`` and ``d - n`` must agree — true when (N/2) % n == 0 and the
    packed vector repeats).

    Diagonal ``d`` is baby step ``d % baby`` of giant step
    ``d // baby``. Without BSGS (``use_bsgs=False``, or at most four
    nonzero diagonals) the baby step is ``n``: every diagonal is its
    own baby rotation and one giant group, which needs no giant
    rotation, sums them all.

    Args:
        evaluator: the evaluator performing rotations/multiplications.
        encoder: used to encode the diagonals.
        matrix: the complex matrix.
        use_bsgs: enable baby-step/giant-step grouping.
        use_hoisting: take the baby rotations from one shared digit
            decomposition (:class:`~repro.ckks.hoisting.HoistedRotator`).

    Raises:
        EvaluationError: the matrix is not square, its dimension does
            not divide the slot count, or it has no nonzero diagonal.
    """

    def __init__(
        self,
        evaluator: CkksEvaluator,
        encoder: CkksEncoder,
        matrix: np.ndarray,
        *,
        use_bsgs: bool = True,
        use_hoisting: bool = False,
    ):
        self.evaluator = evaluator
        self.encoder = encoder
        self.use_hoisting = use_hoisting
        matrix = np.asarray(matrix, dtype=np.complex128)
        self.matrix = matrix
        self.n = matrix.shape[0]
        slots = encoder.slots
        if slots % self.n != 0:
            raise EvaluationError(
                f"matrix dim {self.n} must divide slot count {slots}"
            )
        self.diagonals = matrix_diagonals(matrix)
        if not self.diagonals:
            raise EvaluationError("matrix has no nonzero diagonals")
        self.use_bsgs = use_bsgs and len(self.diagonals) > 4
        baby = max(1, int(round(math.sqrt(self.n)))) if self.use_bsgs else self.n
        self.baby = baby

        order = sorted(self.diagonals)
        self._babies = sorted({d % baby for d in order})
        # Per giant step: its shift, its rows of the spectrum stack and
        # the position of each row's baby step in self._babies.
        groups: dict[int, list[int]] = {}
        for row, d in enumerate(order):
            groups.setdefault(d // baby, []).append(row)
        self._groups = [
            (
                g * baby,
                np.array(rows),
                np.array([self._babies.index(order[r] % baby) for r in rows]),
            )
            for g, rows in sorted(groups.items())
        ]
        # Each diagonal pre-rotated right by its giant shift, encoded
        # over the full chain and transformed: one (D, L, N) stack.
        plaintexts = [
            encoder.encode(self._tile(np.roll(self.diagonals[d], (d // baby) * baby)))
            for d in order
        ]
        self._plain_scale = plaintexts[0].scale
        moduli = evaluator.params.context.moduli
        spectra = ntt_stack(
            stack_residues([pt.poly for pt in plaintexts], Domain.COEFFICIENT),
            moduli,
        )
        self._spectra = spectra.astype(np.uint32)
        self._spectra_shoup = kernels.shoup_companions(spectra, moduli)

    # ------------------------------------------------------------------
    def _tile(self, vec: np.ndarray) -> np.ndarray:
        """Replicate an n-vector across all slots."""
        reps = self.encoder.slots // self.n
        return np.tile(vec, reps)

    def _baby_rotations(self, ct: Ciphertext) -> list[Ciphertext]:
        """``ct`` rotated by each baby step, in ``self._babies`` order.

        Hoisted rotations share one digit decomposition (see
        :mod:`repro.ckks.hoisting`); plain ones keyswitch each.
        """
        ev = self.evaluator
        if self.use_hoisting and sum(1 for b in self._babies if b) > 1:
            rotate = HoistedRotator(ev.params, ev.keys, ct).rotate
        else:
            rotate = partial(ev.rotate, ct)
        return [rotate(b) if b else ct for b in self._babies]

    # ------------------------------------------------------------------
    def apply(self, ct: Ciphertext) -> Ciphertext:
        """Apply the matrix to a ciphertext; consumes one level.

        BSGS with pre-rotated diagonals:

            sum_d diag_d ⊙ rot_d(z)
              = sum_g rot_{g*baby}( sum_b rot_{-g*baby}(diag_{g*baby+b}) ⊙ rot_b(z) )

        Every baby rotation is transformed once (one stacked NTT); each
        giant group multiplies and sums its terms against the
        level-``ct.level`` rows of the diagonal spectra and takes one
        INTT (module docstring). The result scale is ``ct.scale *
        encoder scale`` before the final rescale; callers receive a
        rescaled ciphertext.
        """
        ev = self.evaluator
        backend = kernels.get_backend()
        context = ct.parts[0].context
        moduli = context.moduli
        parts = ct.size
        matrix = (ct.level + 1, ct.degree)
        babies = self._baby_rotations(ct)
        # One forward NTT for every part of every baby rotation, viewed
        # as (baby, part, L, N).
        baby_spectra = ntt_stack(
            stack_residues([p for b in babies for p in b.parts], Domain.COEFFICIENT),
            moduli,
        ).reshape(len(babies), parts, *matrix)
        diag = self._spectra[:, :ct.level + 1]
        diag_shoup = self._spectra_shoup[:, :ct.level + 1]

        acc: Ciphertext | None = None
        for shift, rows, baby_of_row in self._groups:
            # A term is every part of its baby rotation times its
            # diagonal's spectrum; one product call per block of terms,
            # summed lazily (fewer than D terms below 2q each).
            sums = np.zeros((parts, *matrix), dtype=np.uint64)
            for block in kernels.batch_blocks(len(rows), parts * math.prod(matrix)):
                backend.mod_mul_prepared(
                    baby_spectra[baby_of_row[block]],
                    diag[rows[block], None],
                    diag_shoup[rows[block], None],
                    moduli,
                    acc=sums,
                )
            sums = backend.barrett_reduce(sums, moduli)
            inner = Ciphertext(
                parts=unstack_residues(
                    intt_stack(sums, moduli), context, Domain.COEFFICIENT
                ),
                scale=ct.scale * self._plain_scale,
                level=ct.level,
            )
            # One PMult per term and one HAdd per sum, in the order a
            # term-by-term multiply_plain/add loop records them.
            for i in range(len(rows)):
                ev._record("PMult", ct)
                if i:
                    ev._record("HAdd", ct, kind="ct-ct")
            outer = ev.rotate(inner, shift) if shift else inner
            acc = outer if acc is None else ev.add(acc, outer)
        return ev.rescale(acc)

    # ------------------------------------------------------------------
    def reference(self, vec: np.ndarray) -> np.ndarray:
        """Plaintext reference ``M @ vec`` (tiled), for tests."""
        return self._tile(self.matrix @ np.asarray(vec)[: self.n])

    def rotation_count(self) -> int:
        """Rotations :meth:`apply` will perform (cost-model input)."""
        babies = {d % self.baby for d in self.diagonals} - {0}
        giants = {d // self.baby for d in self.diagonals} - {0}
        return len(babies) + len(giants)
