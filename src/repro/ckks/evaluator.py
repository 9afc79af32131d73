"""The homomorphic evaluator: every basic operation from paper Table I.

All operations optionally report themselves to a *recorder* (any object
with a ``record(op, **meta)`` method). The compiler subpackage provides
one that turns evaluator runs into operator-level traces for the
cycle-level Poseidon model — the same decomposition the hardware
scheduler performs.

The products stack their ciphertext parts so each step is one kernel
call over a ``(B, L, N)`` stack: one forward NTT for all parts, one
Hadamard call for all part products, one inverse NTT for all outputs
— per block of the kernel budget (:func:`repro.kernels.batch_blocks`),
which at N=4096 is one part.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.errors import EvaluationError
from repro.automorphism.hfauto import hfauto_apply
from repro.automorphism.galois import (
    conjugation_element,
    galois_element_for_rotation,
)
from repro.automorphism.mapping import apply_automorphism_poly
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.keys import KeyChain
from repro.ckks.keyswitch import apply_switch_key
from repro.ckks.params import CkksParameters
from repro.ntt.negacyclic import intt_stack, ntt_stack
from repro.obs import metrics
from repro.rns.basis_convert import rescale as rns_rescale
from repro.rns.poly import (
    Domain,
    RnsPolynomial,
    stack_residues,
    unstack_residues,
)

#: Relative scale mismatch tolerated before add/mult refuses to proceed.
SCALE_TOLERANCE = 1e-9


def _hadamard(spectra: np.ndarray, pairs, moduli) -> np.ndarray:
    """``spectra[i] * spectra[j]`` for each ``(i, j)`` in ``pairs``.

    One ``mod_mul`` per budget block; operands are gathered per block,
    so a block of one product copies one matrix per side.
    """
    lhs, rhs = (list(side) for side in zip(*pairs))
    backend = kernels.get_backend()
    out = np.empty((len(pairs), *spectra.shape[1:]), dtype=np.uint64)
    for block in kernels.batch_blocks(len(pairs), spectra[0].size):
        out[block] = backend.mod_mul(
            spectra[lhs[block]], spectra[rhs[block]], moduli
        )
    return out


class CkksEvaluator:
    """Homomorphic operations over one parameter set / keychain.

    Args:
        params: CKKS parameters.
        keys: keychain providing relin and Galois keys.
        recorder: optional trace recorder (see ``repro.compiler.trace``).
        use_hfauto: route automorphisms through the HFAuto sub-vector
            pipeline (True, the Poseidon design) or the naive
            element-wise mapping (False, the 'Auto' ablation).

    Kernels run on the process-wide backend (:mod:`repro.kernels`);
    scope a different one with ``kernels.use_backend``.
    """

    def __init__(
        self,
        params: CkksParameters,
        keys: KeyChain,
        *,
        recorder=None,
        use_hfauto: bool = True,
    ):
        self.params = params
        self.keys = keys
        self.recorder = recorder
        self.use_hfauto = use_hfauto

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record(self, op: str, ct: Ciphertext | None = None, **meta) -> None:
        reg = metrics.active()
        if reg is not None:
            reg.counter(f"ckks.op.{op}").inc()
        if self.recorder is not None:
            if ct is not None:
                meta.setdefault("level", ct.level)
                meta.setdefault("degree", ct.degree)
            self.recorder.record(op, **meta)

    @staticmethod
    def _check_scales(a: float, b: float, op: str) -> None:
        if abs(a - b) > SCALE_TOLERANCE * max(a, b):
            raise EvaluationError(
                f"{op} requires matching scales, got {a:.6e} vs {b:.6e}; "
                "rescale or adjust one operand first"
            )

    def _align(self, a: Ciphertext, b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Bring two ciphertexts to the same (lower) level."""
        if a.level == b.level:
            return a, b
        if a.level > b.level:
            return self.drop_to_level(a, b.level), b
        return a, self.drop_to_level(b, a.level)

    def _automorphism(self, poly: RnsPolynomial, galois: int) -> RnsPolynomial:
        if self.use_hfauto:
            return hfauto_apply(poly, galois)
        return apply_automorphism_poly(poly, galois)

    # ------------------------------------------------------------------
    # Level management
    # ------------------------------------------------------------------
    def drop_to_level(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Modulus-switch down by dropping chain limbs (no rescaling)."""
        if level > ct.level:
            raise EvaluationError(
                f"cannot raise level {ct.level} to {level}"
            )
        parts = list(ct.parts)
        current = ct.level
        while current > level:
            parts = [p.drop_last_limb() for p in parts]
            current -= 1
        self._record("ModDrop", ct, target_level=level)
        return Ciphertext(parts=tuple(parts), scale=ct.scale, level=level)

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last chain prime and drop a level (paper §II-A.3)."""
        if ct.level == 0:
            raise EvaluationError("no levels left to rescale into")
        dropped_prime = self.params.chain_moduli[ct.level]
        parts = tuple(rns_rescale(p) for p in ct.parts)
        self._record("Rescale", ct)
        return Ciphertext(
            parts=parts,
            scale=ct.scale / dropped_prime,
            level=ct.level - 1,
        )

    # ------------------------------------------------------------------
    # Addition (HAdd)
    # ------------------------------------------------------------------
    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Ciphertext-ciphertext homomorphic addition."""
        a, b = self._align(a, b)
        self._check_scales(a.scale, b.scale, "add")
        if a.size != b.size:
            raise EvaluationError(
                f"cannot add ciphertexts of size {a.size} and {b.size}"
            )
        parts = tuple(x + y for x, y in zip(a.parts, b.parts))
        self._record("HAdd", a, kind="ct-ct")
        return Ciphertext(parts=parts, scale=a.scale, level=a.level)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Ciphertext-ciphertext homomorphic subtraction."""
        a, b = self._align(a, b)
        self._check_scales(a.scale, b.scale, "sub")
        if a.size != b.size:
            raise EvaluationError(
                f"cannot subtract ciphertexts of size {a.size} and {b.size}"
            )
        parts = tuple(x - y for x, y in zip(a.parts, b.parts))
        self._record("HAdd", a, kind="ct-ct-sub")
        return Ciphertext(parts=parts, scale=a.scale, level=a.level)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Ciphertext-plaintext addition: only ``c_0`` changes."""
        self._check_scales(ct.scale, pt.scale, "add_plain")
        poly = self._plain_at_level(pt, ct.level)
        parts = (ct.parts[0] + poly,) + ct.parts[1:]
        self._record("HAdd", ct, kind="ct-pt")
        return ct.with_parts(parts)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic negation."""
        self._record("HAdd", ct, kind="negate")
        return ct.with_parts(tuple(-p for p in ct.parts))

    def _plain_at_level(self, pt: Plaintext, level: int) -> RnsPolynomial:
        """Restrict an encoded plaintext to a ciphertext's basis."""
        poly = pt.poly
        while poly.level_count - 1 > level:
            poly = poly.drop_last_limb()
        if poly.level_count - 1 != level:
            raise EvaluationError(
                f"plaintext has {pt.poly.level_count} limbs, cannot reach "
                f"level {level}"
            )
        return poly

    # ------------------------------------------------------------------
    # Multiplication (PMult / CMult)
    # ------------------------------------------------------------------
    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Ciphertext-plaintext multiplication (PMult); scale multiplies."""
        poly = self._plain_at_level(pt, ct.level)
        moduli = poly.context.moduli
        # Spectra of every part and, last, of the plaintext.
        products = _hadamard(
            ntt_stack(
                stack_residues(ct.parts + (poly,), Domain.COEFFICIENT),
                moduli,
            ),
            [(i, ct.size) for i in range(ct.size)],
            moduli,
        )
        parts = unstack_residues(
            intt_stack(products, moduli), poly.context, Domain.COEFFICIENT
        )
        self._record("PMult", ct)
        return Ciphertext(
            parts=parts, scale=ct.scale * pt.scale, level=ct.level
        )

    def multiply(
        self,
        a: Ciphertext,
        b: Ciphertext,
        *,
        relinearize: bool = True,
    ) -> Ciphertext:
        """Ciphertext-ciphertext multiplication (CMult).

        Produces the degree-2 tuple ``(d_0, d_1, d_2)`` and, unless
        ``relinearize=False``, immediately switches ``d_2`` back to a
        2-part ciphertext with the relinearization key.
        """
        a, b = self._align(a, b)
        if a.size != 2 or b.size != 2:
            raise EvaluationError(
                "multiply expects relinearized (2-part) inputs"
            )
        context = a.parts[0].context
        moduli = context.moduli
        # Spectra a0, a1, b0, b1 -> products a0b0, a1b1, a0b1, a1b0;
        # the cross terms sum into row 2, so rows 0..2 are d0, d2, d1.
        products = _hadamard(
            ntt_stack(
                stack_residues(a.parts + b.parts, Domain.COEFFICIENT), moduli
            ),
            ((0, 2), (1, 3), (0, 3), (1, 2)),
            moduli,
        )
        products[2] = kernels.get_backend().mod_add(
            products[2], products[3], moduli
        )
        d0, d2, d1 = unstack_residues(
            intt_stack(products[:3], moduli), context, Domain.COEFFICIENT
        )
        self._record("CMult", a)
        result = Ciphertext(
            parts=(d0, d1, d2), scale=a.scale * b.scale, level=a.level
        )
        if relinearize:
            result = self.relinearize(result)
        return result

    def square(self, ct: Ciphertext, *, relinearize: bool = True) -> Ciphertext:
        """Homomorphic squaring (saves one NTT vs generic multiply)."""
        if ct.size != 2:
            raise EvaluationError("square expects a relinearized input")
        context = ct.parts[0].context
        moduli = context.moduli
        # Spectra c0, c1 -> products c0c0, c1c1, c0c1 (doubled in place).
        products = _hadamard(
            ntt_stack(stack_residues(ct.parts, Domain.COEFFICIENT), moduli),
            ((0, 0), (1, 1), (0, 1)),
            moduli,
        )
        products[2] = kernels.get_backend().mod_add(
            products[2], products[2], moduli
        )
        d0, d2, d1 = unstack_residues(
            intt_stack(products, moduli), context, Domain.COEFFICIENT
        )
        self._record("CMult", ct, kind="square")
        result = Ciphertext(
            parts=(d0, d1, d2), scale=ct.scale * ct.scale, level=ct.level
        )
        if relinearize:
            result = self.relinearize(result)
        return result

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Switch a 3-part ciphertext back to 2 parts via the relin key."""
        if ct.size == 2:
            return ct
        if ct.size != 3:
            raise EvaluationError(
                f"relinearize supports 3-part ciphertexts, got {ct.size}"
            )
        d0, d1, d2 = ct.parts
        delta0, delta1 = apply_switch_key(d2, self.keys.relin, self.params)
        self._record("Keyswitch", ct, kind="relin")
        return Ciphertext(
            parts=(d0 + delta0, d1 + delta1),
            scale=ct.scale,
            level=ct.level,
        )

    # ------------------------------------------------------------------
    # Rotation / conjugation
    # ------------------------------------------------------------------
    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """Rotate slot vector left by ``steps`` (paper §II-A.5).

        Applies ``sigma_k`` to both parts (index mapping = Automorphism
        operator) and then keyswitches the rotated ``c_1`` back under
        the canonical secret.
        """
        if ct.size != 2:
            raise EvaluationError("rotate expects a relinearized input")
        if steps % self.params.slot_count == 0:
            return ct
        galois = galois_element_for_rotation(self.params.degree, steps)
        return self._apply_galois(ct, galois, f"rotate:{steps}")

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex-conjugate the slot vector."""
        if ct.size != 2:
            raise EvaluationError("conjugate expects a relinearized input")
        galois = conjugation_element(self.params.degree)
        return self._apply_galois(ct, galois, "conjugate")

    def _apply_galois(self, ct: Ciphertext, galois: int, label: str) -> Ciphertext:
        rotated0 = self._automorphism(ct.parts[0], galois)
        rotated1 = self._automorphism(ct.parts[1], galois)
        self._record("Automorphism", ct, galois=galois, kind=label)
        key = self.keys.galois_key(galois)
        delta0, delta1 = apply_switch_key(rotated1, key, self.params)
        self._record("Keyswitch", ct, kind=label)
        return Ciphertext(
            parts=(rotated0 + delta0, delta1),
            scale=ct.scale,
            level=ct.level,
        )

    # ------------------------------------------------------------------
    # Composite helpers
    # ------------------------------------------------------------------
    def multiply_and_rescale(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """CMult followed by Rescale — the common depth-consuming step."""
        return self.rescale(self.multiply(a, b))

    def rotate_sum(self, ct: Ciphertext, width: int) -> Ciphertext:
        """Window-sum ``width`` consecutive slots (log-depth).

        Slot ``j`` receives ``ct[j] + ... + ct[j + width - 1]`` (indices
        mod the slot count). That is the same sum in every slot only
        when the input repeats with period ``width``, as HELR's tiled
        layout does. ``width`` must be a power of two.
        """
        if width & (width - 1):
            raise EvaluationError(f"width must be a power of two, got {width}")
        acc = ct
        step = 1
        while step < width:
            acc = self.add(acc, self.rotate(acc, step))
            step <<= 1
        return acc
