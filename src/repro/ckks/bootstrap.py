"""Packed CKKS bootstrapping (paper §II-A.6, benchmark 4).

Follows the standard packed pipeline the paper's benchmark [30] uses:

1. **ModRaise** — reinterpret a level-0 ciphertext over the full chain.
   Decryption then yields ``t = Delta*m + q_0*I`` for a small integer
   polynomial ``I`` (bounded by the sparse secret's Hamming weight).
2. **CoeffToSlot** — homomorphic linear transforms (the encoding
   matrix, via :class:`~repro.ckks.linear.LinearTransform`) move the
   *coefficients* of ``t`` into slot position, producing two
   ciphertexts ``u`` (low coefficients) and ``v`` (high coefficients).
3. **EvalMod** — remove the ``q_0*I`` term by evaluating
   ``sin(2*pi*u) / (2*pi) ≈ u mod 1`` homomorphically: a Taylor
   expansion of ``exp(i*theta/2^r)`` followed by ``r`` repeated
   squarings (double-angle) and an imaginary-part extraction.
4. **SlotToCoeff** — the inverse linear transform returns the cleaned
   coefficients to coefficient position.

The output decrypts to (approximately) the same message at a much
higher level, refreshing the modulus chain for further multiplications.

Poseidon's interest in bootstrapping is its *operator* footprint: the
pipeline is nothing but PMult/CMult/HAdd/Rotation/Keyswitch/Rescale,
i.e. MA + MM + NTT + Automorphism + SBT, reused at high frequency —
exactly what Table I states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import BootstrapError
from repro.automorphism.galois import ROTATION_GENERATOR
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.linear import LinearTransform
from repro.ckks.params import CkksParameters
from repro.ckks.polyeval import evaluate_horner, multiply_const
from repro.rns.poly import RnsPolynomial


@dataclass(frozen=True)
class BootstrapConfig:
    """Tunable precision/depth knobs for the EvalMod stage.

    Attributes:
        taylor_degree: Taylor truncation of exp(i*theta/2^r).
        double_angles: r — squarings that rebuild exp(i*theta).
        message_bound: |m| assumed for inputs; smaller bounds give a
            more linear sine region and thus better precision.
    """

    taylor_degree: int = 7
    double_angles: int = 4
    message_bound: float = 0.05

    def __post_init__(self):
        if self.taylor_degree < 1:
            raise BootstrapError(
                f"taylor_degree must be >= 1, got {self.taylor_degree}"
            )

    @property
    def depth(self) -> int:
        """Chain levels EvalMod consumes (Horner + squarings + combine)."""
        return self.taylor_degree + self.double_angles + 1

    @property
    def total_depth(self) -> int:
        """Levels the whole bootstrap consumes (+2 for C2S and S2C)."""
        return self.depth + 2


class Bootstrapper:
    """Bootstraps ciphertexts for one parameter set / keychain.

    Args:
        params: must carry enough chain levels —
            ``config.total_depth + 1`` at minimum.
        evaluator: the evaluator (brings the keys along).
        encoder: plaintext encoder.
        config: EvalMod precision knobs.
    """

    def __init__(
        self,
        params: CkksParameters,
        evaluator: CkksEvaluator,
        encoder: CkksEncoder,
        config: BootstrapConfig | None = None,
    ):
        self.params = params
        self.evaluator = evaluator
        self.encoder = encoder
        self.config = config or BootstrapConfig()
        if params.max_level < self.config.total_depth:
            raise BootstrapError(
                f"chain has {params.max_level} usable levels, bootstrap "
                f"needs {self.config.total_depth}"
            )
        self._build_transforms()

    # ------------------------------------------------------------------
    # Linear-transform construction
    # ------------------------------------------------------------------
    def _build_transforms(self) -> None:
        n_ring = self.params.degree
        n = n_ring // 2  # slots
        rot = np.empty(n, dtype=np.int64)
        acc = 1
        for j in range(n):
            rot[j] = acc
            acc = acc * ROTATION_GENERATOR % (2 * n_ring)
        k = np.arange(n)
        # zeta_j^k = exp(i*pi*rot[j]*k / N)
        phase = np.pi / n_ring
        zeta_pow = np.exp(1j * phase * rot[:, None] * k[None, :])
        zeta_pow_hi = np.exp(
            1j * phase * rot[:, None] * (k[None, :] + n)
        )
        ev, enc = self.evaluator, self.encoder
        # CoeffToSlot: c = (1/N) (E^H z + E^T conj(z)); A* build the low
        # half (u), B* the high half (v).
        a1 = zeta_pow.conj().T / n_ring
        a2 = zeta_pow.T / n_ring
        b1 = zeta_pow_hi.conj().T / n_ring
        b2 = zeta_pow_hi.T / n_ring
        self._c2s = tuple(
            LinearTransform(ev, enc, m) for m in (a1, a2, b1, b2)
        )
        # SlotToCoeff: z = E_lo u + E_hi v.
        self._s2c = tuple(
            LinearTransform(ev, enc, m) for m in (zeta_pow, zeta_pow_hi)
        )

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret a level-0 ciphertext over the full chain (exact)."""
        if ct.level != 0:
            raise BootstrapError(
                f"mod_raise expects a level-0 ciphertext, got level {ct.level}"
            )
        full_ctx = self.params.context
        parts = tuple(
            RnsPolynomial.from_integers(p.to_integers(signed=True), full_ctx)
            for p in ct.parts
        )
        return Ciphertext(
            parts=parts, scale=ct.scale, level=self.params.max_level
        )

    def coeff_to_slot(self, ct: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Move polynomial coefficients into slots; consumes one level."""
        ev = self.evaluator
        conj = ev.conjugate(ct)
        a1, a2, b1, b2 = self._c2s
        u = ev.add(a1.apply(ct), a2.apply(conj))
        v = ev.add(b1.apply(ct), b2.apply(conj))
        return u, v

    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """Evaluate ``sin(2*pi*t)/(2*pi) ≈ t mod 1`` on the slots."""
        cfg = self.config
        ev = self.evaluator
        # Horner evaluation of exp(i * 2*pi * t / 2^r) as a poly in t.
        tau = 2.0 * math.pi / (1 << cfg.double_angles)
        coeffs = [
            (1j * tau) ** j / math.factorial(j)
            for j in range(cfg.taylor_degree + 1)
        ]
        w = evaluate_horner(ev, self.encoder, ct, coeffs)
        # Double-angle: square r times to recover exp(i * 2*pi * t).
        for _ in range(cfg.double_angles):
            w = ev.rescale(ev.square(w))
        # Imaginary part: sin = (w - conj(w)) / 2i; divide by 2*pi.
        diff = ev.sub(w, ev.conjugate(w))
        return multiply_const(ev, self.encoder, diff, -0.25j / math.pi)

    def slot_to_coeff(self, u: Ciphertext, v: Ciphertext) -> Ciphertext:
        """Inverse of :meth:`coeff_to_slot`; consumes one level."""
        ev = self.evaluator
        e_lo, e_hi = self._s2c
        return ev.add(e_lo.apply(u), e_hi.apply(v))

    # ------------------------------------------------------------------
    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh a level-0 ciphertext to a high level.

        The input message must satisfy ``|m| <= config.message_bound``
        slot-wise for the sine approximation to hold.
        """
        raised = self.mod_raise(ct)
        u, v = self.coeff_to_slot(raised)
        u = self.eval_mod(u)
        v = self.eval_mod(v)
        refreshed = self.slot_to_coeff(u, v)
        # The pipeline's scalars were exact, so the scale tracked on the
        # ciphertext is the true decode scale already.
        return refreshed
