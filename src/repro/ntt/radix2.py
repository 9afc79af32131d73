"""Iterative radix-2 NTT/INTT kernels (the unfused baseline).

Forward: Cooley-Tukey decimation-in-time with the psi-merged negacyclic
twist, natural-order input -> natural-order output.
Inverse: Gentleman-Sande decimation-in-frequency, the standard partner.

Each butterfly is one "TAM" in the paper's terminology — Twiddle
(multiply by w), Accumulate (add/sub) and Modulo — so a full radix-2
transform of length n executes ``(n/2) * log2(n)`` TAMs. NTT-fusion
(:mod:`repro.ntt.fusion`) reduces the modular-reduction count by fusing
k consecutive radix-2 stages.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NTTError
from repro.ntt.tables import TwiddleTable
from repro.utils.bitops import bit_reverse_permutation


def _check_input(values: np.ndarray, table: TwiddleTable) -> np.ndarray:
    values = np.asarray(values, dtype=np.uint64)
    if values.shape != (table.n,):
        raise NTTError(
            f"expected shape ({table.n},), got {values.shape}"
        )
    return values


def ntt_radix2(values: np.ndarray, table: TwiddleTable) -> np.ndarray:
    """Forward negacyclic NTT (Cooley-Tukey DIT, psi powers merged).

    Uses the Longa-Naehrig formulation: stage ``s`` applies twiddles
    ``psi^(bitrev)`` so the x^n+1 twist needs no separate pre-scaling.
    Output is in natural order.
    """
    a = _check_input(values, table).copy()
    n, q = table.n, np.uint64(table.q)
    psi_br = table.psi_powers_bitrev

    t = n
    m = 1
    while m < n:
        t >>= 1
        for i in range(m):
            j1 = 2 * i * t
            j2 = j1 + t
            w = psi_br[m + i]
            # lo stays a view: both outputs are materialized before the
            # write-back, so no defensive copy is needed.
            lo = a[j1:j2]
            hi = (a[j2:j2 + t] * w) % q
            new_lo = (lo + hi) % q
            new_hi = (lo + q - hi) % q
            a[j1:j2] = new_lo
            a[j2:j2 + t] = new_hi
        m <<= 1
    # The merged CT network leaves results in bit-reversed order;
    # normalize to natural order so all kernels share one convention.
    return a[bit_reverse_permutation(n)]


def intt_radix2(values: np.ndarray, table: TwiddleTable) -> np.ndarray:
    """Inverse negacyclic NTT (Gentleman-Sande DIF) with 1/n scaling.

    Exact inverse of :func:`ntt_radix2`: natural order in and out.
    """
    a = _check_input(values, table).copy()
    n, q = table.n, np.uint64(table.q)
    ipsi_br = table.ipsi_powers_bitrev

    # The GS network consumes bit-reversed input (the CT partner's raw
    # output); re-apply the permutation our forward kernel normalized.
    a = a[bit_reverse_permutation(n)]
    t = 1
    m = n
    while m > 1:
        j1 = 0
        h = m >> 1
        for i in range(h):
            j2 = j1 + t
            w = ipsi_br[h + i]
            lo = a[j1:j2]
            hi = a[j2:j2 + t]
            new_lo = (lo + hi) % q
            new_hi = ((lo + q - hi) * w) % q
            a[j1:j2] = new_lo
            a[j2:j2 + t] = new_hi
            j1 += 2 * t
        t <<= 1
        m = h
    inv_n = np.uint64(table.inv_n)
    return (a * inv_n) % q
