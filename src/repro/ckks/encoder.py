"""CKKS encoder: complex slot vectors <-> scaled integer polynomials.

Uses the canonical embedding: the N/2 slots of a message are the values
of the plaintext polynomial at the primitive 2N-th roots of unity
``zeta_j = exp(i*pi*(5^j mod 2N)/N)``. Encoding inverts the embedding
and rounds ``Delta * m`` to integers; decoding evaluates the polynomial
back at the roots. Both directions run in O(N log N) via length-2N
FFTs, so the encoder scales to the paper's N = 2^16 degrees.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.automorphism.galois import ROTATION_GENERATOR
from repro.ckks.params import CkksParameters
from repro.ckks.ciphertext import Plaintext
from repro.rns.context import RnsContext
from repro.rns.poly import RnsPolynomial


class CkksEncoder:
    """Encode/decode complex vectors for a fixed parameter set.

    Args:
        params: the CKKS parameter set (fixes N and the default scale).
    """

    def __init__(self, params: CkksParameters):
        self.params = params
        n = params.degree
        self.degree = n
        self.slots = n // 2
        # rot_group[j] = 5^j mod 2N enumerates the slot evaluation points.
        rot = np.empty(self.slots, dtype=np.int64)
        acc = 1
        for j in range(self.slots):
            rot[j] = acc
            acc = acc * ROTATION_GENERATOR % (2 * n)
        self._rot_group = rot

    # ------------------------------------------------------------------
    def _embed_inverse(self, values: np.ndarray) -> np.ndarray:
        """Real coefficients c with ``c(zeta_j) = values[j]``.

        Computes ``c_k = (2/N) * Re( sum_j values[j] * conj(zeta_j)^k )``
        by scattering into a length-2N spectrum and one FFT.
        """
        n = self.degree
        spectrum = np.zeros(2 * n, dtype=np.complex128)
        spectrum[self._rot_group] = values
        # sum_t spectrum[t] * exp(-i*pi*t*k/N) = DFT_{2N}(spectrum)[k]
        transformed = np.fft.fft(spectrum)[:n]
        return (2.0 / n) * transformed.real

    def _embed_forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate real coefficients at the slot roots ``zeta_j``."""
        n = self.degree
        padded = np.zeros(2 * n, dtype=np.complex128)
        padded[:n] = coeffs
        # sum_k c_k exp(+i*pi*t*k/N) = 2N * IDFT_{2N}(c)[t]
        evaluated = np.fft.ifft(padded) * (2 * n)
        return evaluated[self._rot_group]

    # ------------------------------------------------------------------
    def encode(
        self,
        values,
        *,
        scale: float | None = None,
        context: RnsContext | None = None,
    ) -> Plaintext:
        """Encode complex slots into a plaintext polynomial.

        Args:
            values: up to N/2 complex (or real) slot values; shorter
                inputs are zero-padded.
            scale: encoding scale (defaults to ``params.scale``).
            context: RNS basis to CRT-decompose into (defaults to the
                full chain; pass a level context to encode for a
                partially-consumed ciphertext).
        """
        scale = float(scale if scale is not None else self.params.scale)
        context = context if context is not None else self.params.context
        values = np.asarray(values, dtype=np.complex128).ravel()
        if values.shape[0] > self.slots:
            raise ParameterError(
                f"at most {self.slots} slots, got {values.shape[0]}"
            )
        slots = np.zeros(self.slots, dtype=np.complex128)
        slots[: values.shape[0]] = values
        real_coeffs = self._embed_inverse(slots) * scale
        # Round to nearest integer; work in Python ints for exact CRT.
        rounded = [int(v) for v in np.round(real_coeffs)]
        poly = RnsPolynomial.from_integers(rounded, context)
        return Plaintext(poly=poly, scale=scale)

    def decode(self, plaintext: Plaintext, *, slots: int | None = None) -> np.ndarray:
        """Decode a plaintext back to complex slot values."""
        coeffs = np.array(plaintext.poly.to_integers(), dtype=np.float64)
        values = self._embed_forward(coeffs / plaintext.scale)
        if slots is not None:
            return values[:slots]
        return values

    # ------------------------------------------------------------------
    def encode_scalar(
        self,
        value: complex,
        *,
        scale: float | None = None,
        context: RnsContext | None = None,
    ) -> Plaintext:
        """Encode one value broadcast across all slots."""
        return self.encode(
            np.full(self.slots, value, dtype=np.complex128),
            scale=scale,
            context=context,
        )
