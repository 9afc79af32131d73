"""Negacyclic transform façade used by the CKKS layer.

The ring is ``R_q = Z_q[x]/(x^n + 1)``, so polynomial products are
*negacyclic* convolutions. :class:`NegacyclicTransformer` bundles the
forward/inverse kernels (radix-2 by default, radix-2^k fused when the
caller opts in) behind one object per (q, n) pair, and the module-level
functions transform whole RNS matrices limb by limb — which is exactly
how the 64 parallel NTT cores in Poseidon chew through limbs.
:func:`ntt_stack` / :func:`intt_stack` transform a ``(B, L, N)`` stack
of residue matrices (keyswitch digits, ciphertext parts) in one kernel
call per :func:`repro.kernels.batch_blocks` block; the ``ntt.*``
counters still count one transform per limb row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import kernels
from repro.errors import NTTError
from repro.ntt.fusion import FusedNtt
from repro.ntt.radix2 import intt_radix2, ntt_radix2
from repro.ntt.tables import get_twiddle_table
from repro.obs import metrics
from repro.rns.poly import Domain, RnsPolynomial
from repro.utils.bitops import ilog2


class NegacyclicTransformer:
    """Forward/inverse negacyclic NTT for one modulus and degree.

    Args:
        q: NTT-friendly limb prime (q ≡ 1 mod 2n).
        n: ring degree.
        radix_log2: 1 selects the iterative radix-2 kernels; >= 2
            selects the fused radix-2^k kernel (bit-identical results).
    """

    def __init__(self, q: int, n: int, *, radix_log2: int = 1):
        self.q = q
        self.n = n
        self.radix_log2 = radix_log2
        self.table = get_twiddle_table(q, n)
        self._fused = FusedNtt(q, n, radix_log2) if radix_log2 >= 2 else None

    def _count_transform(self, direction: str) -> None:
        # (n/2) * log2(n) TAM butterflies per length-n transform,
        # independent of the kernel (fusion changes reductions, not
        # butterfly count).
        reg = metrics.active()
        if reg is not None:
            reg.counter(f"ntt.transforms.{direction}").inc()
            reg.counter("ntt.butterflies").inc(
                (self.n // 2) * ilog2(self.n)
            )

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Coefficient -> point-value (NTT) representation."""
        self._count_transform("forward")
        if self._fused is not None:
            return self._fused.forward(values)
        return ntt_radix2(values, self.table)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Point-value (NTT) -> coefficient representation."""
        self._count_transform("inverse")
        if self._fused is not None:
            return self._fused.inverse(values)
        return intt_radix2(values, self.table)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full negacyclic product of two coefficient vectors."""
        fa = self.forward(a)
        fb = self.forward(b)
        prod = (fa * fb) % np.uint64(self.q)
        return self.inverse(prod)


@lru_cache(maxsize=1024)
def get_transformer(q: int, n: int, radix_log2: int = 1) -> NegacyclicTransformer:
    """Cached transformer per (q, n, radix)."""
    return NegacyclicTransformer(q, n, radix_log2=radix_log2)


def _count_poly_transforms(direction: str, data: np.ndarray) -> None:
    """Semantic TAM counters: one transform per limb row, any backend."""
    reg = metrics.active()
    if reg is not None:
        degree = data.shape[-1]
        rows = data.size // degree
        reg.counter(f"ntt.transforms.{direction}").inc(rows)
        reg.counter("ntt.butterflies").inc(
            rows * (degree // 2) * ilog2(degree)
        )


def _per_block(transform, data: np.ndarray) -> np.ndarray:
    """``transform`` over the budget blocks of a stack, one call each."""
    if data.ndim == 2:
        return transform(data)
    blocks = kernels.batch_blocks(len(data), data[0].size)
    if len(blocks) == 1:
        return transform(data)
    out = np.empty(data.shape, dtype=np.uint64)
    for block in blocks:
        out[block] = transform(data[block])
    return out


def ntt_stack(
    data: np.ndarray,
    moduli,
    *,
    radix_log2: int = 1,
    backend: str | kernels.KernelBackend | None = None,
) -> np.ndarray:
    """Forward NTT of an (L, N) matrix or a (B, L, N) stack.

    ``data`` holds coefficient-domain residues over ``moduli``; the
    caller owns the domain bookkeeping that :func:`ntt_negacyclic`
    does for a single polynomial. A stack takes one kernel call per
    budget block (:func:`repro.kernels.batch_blocks`).
    """
    _count_poly_transforms("forward", data)
    kernel = kernels.resolve(backend)
    return _per_block(
        lambda block: kernel.ntt(block, moduli, radix_log2=radix_log2), data
    )


def intt_stack(
    data: np.ndarray,
    moduli,
    *,
    radix_log2: int = 1,
    backend: str | kernels.KernelBackend | None = None,
) -> np.ndarray:
    """Inverse NTT of an (L, N) matrix or a (B, L, N) stack (see above)."""
    _count_poly_transforms("inverse", data)
    kernel = kernels.resolve(backend)
    return _per_block(
        lambda block: kernel.intt(block, moduli, radix_log2=radix_log2), data
    )


def ntt_negacyclic(
    poly: RnsPolynomial,
    *,
    radix_log2: int = 1,
    backend: str | kernels.KernelBackend | None = None,
) -> RnsPolynomial:
    """Transform an RNS polynomial to the NTT domain (all limbs).

    Routed through the active kernel backend (``reference`` per-limb
    loop or ``batched`` limb-parallel matrix kernel); ``backend``
    overrides the process-wide selection for this call.
    """
    if poly.domain is not Domain.COEFFICIENT:
        raise NTTError("polynomial is already in the NTT domain")
    data = ntt_stack(
        poly.data, poly.context.moduli, radix_log2=radix_log2, backend=backend
    )
    return RnsPolynomial(data, poly.context, Domain.NTT)


def intt_negacyclic(
    poly: RnsPolynomial,
    *,
    radix_log2: int = 1,
    backend: str | kernels.KernelBackend | None = None,
) -> RnsPolynomial:
    """Transform an RNS polynomial back to the coefficient domain."""
    if poly.domain is not Domain.NTT:
        raise NTTError("polynomial is already in the coefficient domain")
    data = intt_stack(
        poly.data, poly.context.moduli, radix_log2=radix_log2, backend=backend
    )
    return RnsPolynomial(data, poly.context, Domain.COEFFICIENT)


def poly_multiply(a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    """Negacyclic product of two coefficient-domain RNS polynomials."""
    fa = ntt_negacyclic(a)
    fb = ntt_negacyclic(b)
    return intt_negacyclic(fa.hadamard(fb))
