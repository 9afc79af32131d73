"""Negacyclic transform façade used by the CKKS layer.

The ring is ``R_q = Z_q[x]/(x^n + 1)``, so polynomial products are
*negacyclic* convolutions. The functions here transform whole RNS
matrices through the active kernel backend (:mod:`repro.kernels`),
every limb row in one call — which is exactly how the 64 parallel NTT
cores in Poseidon chew through limbs. :func:`ntt_stack` /
:func:`intt_stack` transform a ``(B, L, N)`` stack of residue matrices
(keyswitch digits, ciphertext parts) in one kernel call per
:func:`repro.kernels.batch_blocks` block; the ``ntt.*`` counters still
count one transform per limb row.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.errors import NTTError
from repro.obs import metrics
from repro.rns.poly import Domain, RnsPolynomial
from repro.utils.bitops import ilog2


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


def ntt_stack(data: np.ndarray, moduli) -> np.ndarray:
    """Forward NTT of an (L, N) matrix or a (B, L, N) stack.

    ``data`` holds coefficient-domain residues over ``moduli``; the
    caller owns the domain bookkeeping that :func:`ntt_negacyclic`
    does for a single polynomial. A stack takes one kernel call per
    budget block (:func:`repro.kernels.batch_blocks`).
    """
    _count_poly_transforms("forward", data)
    kernel = kernels.get_backend()
    return _per_block(lambda block: kernel.ntt(block, moduli), data)


def intt_stack(data: np.ndarray, moduli) -> np.ndarray:
    """Inverse NTT of an (L, N) matrix or a (B, L, N) stack (see above)."""
    _count_poly_transforms("inverse", data)
    kernel = kernels.get_backend()
    return _per_block(lambda block: kernel.intt(block, moduli), data)


def ntt_negacyclic(poly: RnsPolynomial) -> RnsPolynomial:
    """Transform an RNS polynomial to the NTT domain (all limbs).

    Routed through the active kernel backend (``numpy`` by default,
    ``reference`` under ``kernels.use_backend("reference")``).
    """
    if poly.domain is not Domain.COEFFICIENT:
        raise NTTError("polynomial is already in the NTT domain")
    data = ntt_stack(poly.data, poly.context.moduli)
    return RnsPolynomial(data, poly.context, Domain.NTT)


def intt_negacyclic(poly: RnsPolynomial) -> RnsPolynomial:
    """Transform an RNS polynomial back to the coefficient domain."""
    if poly.domain is not Domain.NTT:
        raise NTTError("polynomial is already in the coefficient domain")
    data = intt_stack(poly.data, poly.context.moduli)
    return RnsPolynomial(data, poly.context, Domain.COEFFICIENT)


def poly_multiply(a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    """Negacyclic product of two coefficient-domain RNS polynomials."""
    fa = ntt_negacyclic(a)
    fb = ntt_negacyclic(b)
    return intt_negacyclic(fa.hadamard(fb))
