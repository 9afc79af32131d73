"""Hoisted rotations: many rotations of one ciphertext, one decomposition.

A rotation keyswitch spends most of its time lifting the digit
decomposition of ``c_1`` into the extended basis and NTT-transforming
it. When several rotations apply to the *same* ciphertext (BSGS baby
steps), that work is identical across rotations — and in the
*evaluation* domain the automorphism is a pure point permutation
(:func:`repro.automorphism.mapping.apply_automorphism_eval`), so the
hoisted NTT-domain digits can be permuted per rotation essentially for
free. This is standard "hoisting" (HELR, bootstrapping libraries) and
is exactly what the performance plane's ``HoistedRotation`` op models.

Per rotation ``sigma_k`` of ``ct = (c_0, c_1)``:

1. (hoisted, once) digits of ``c_1`` lifted into the extended basis
   and NTT'd, in the keyswitch's kernel-budget blocks
   (:func:`repro.ckks.keyswitch.ntt_digits`);
2. permute every NTT-domain digit by the evaluation-domain map of
   ``sigma_k`` (one gather over the digit stack);
3. multiply with the Galois key pairs, accumulate, INTT, ModDown —
   the keyswitch's own :func:`~repro.ckks.keyswitch.switch_digits`;
4. add the coefficient-domain ``sigma_k(c_0)``.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.errors import EvaluationError
from repro.automorphism.galois import galois_element_for_rotation
from repro.automorphism.hfauto import hfauto_apply
from repro.automorphism.mapping import eval_permutation
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.keys import KeyChain
from repro.ckks.keyswitch import ntt_digits, switch_digits
from repro.ckks.params import CkksParameters


class HoistedRotator:
    """Precomputed NTT-domain digit decomposition of one ciphertext.

    Args:
        params: parameter set.
        keys: keychain (Galois keys are pulled lazily per step).
        ciphertext: the 2-part ciphertext to rotate many times.
    """

    def __init__(
        self,
        params: CkksParameters,
        keys: KeyChain,
        ciphertext: Ciphertext,
    ):
        if ciphertext.size != 2:
            raise EvaluationError(
                "hoisting expects a relinearized (2-part) ciphertext"
            )
        self.params = params
        self.keys = keys
        self.ciphertext = ciphertext
        level = ciphertext.level
        self._base_ctx = params.context_at_level(level)
        self._ext_ctx = params.key_context_at_level(level)
        # The hoisted work: lift every digit of c_1 into the extended
        # basis and transform it once — a (level+1, L_ext, N) stack.
        self._digits_ntt = np.concatenate(
            list(ntt_digits(ciphertext.parts[1], self._ext_ctx))
        )

    # ------------------------------------------------------------------
    def rotate(self, steps: int) -> Ciphertext:
        """One rotation reusing the hoisted digits."""
        ct = self.ciphertext
        if steps % self.params.slot_count == 0:
            return ct
        galois = galois_element_for_rotation(self.params.degree, steps)
        key = self.keys.galois_key(galois)
        level = ct.level
        if level + 1 > key.rank:
            raise EvaluationError(
                f"switch key rank {key.rank} below needed {level + 1}"
            )

        rotated = self._digits_ntt[
            ..., eval_permutation(self.params.degree, galois)
        ]
        blocks = kernels.batch_blocks(len(rotated), rotated[0].size)
        delta0, delta1 = switch_digits(
            (rotated[block] for block in blocks),
            key,
            self.params,
            self._base_ctx,
            self._ext_ctx,
        )
        rotated_c0 = hfauto_apply(ct.parts[0], galois)
        return Ciphertext(
            parts=(rotated_c0 + delta0, delta1),
            scale=ct.scale,
            level=ct.level,
        )

    def rotate_many(self, steps_list) -> list[Ciphertext]:
        """All rotations in one call (the BSGS baby-step pattern)."""
        return [self.rotate(steps) for steps in steps_list]
