"""Vectorized modular arithmetic — the MA and MM operators.

These functions are the software-exact equivalents of Poseidon's MA
(Modular Addition) and MM (Modular Multiplication) cores. All moduli
are < 2^31 so products of residues fit in ``uint64`` without overflow
(the paper's 32-bit limb constraint serves the same purpose on FPGA).

The conditional-subtract formulation of :func:`mod_add` mirrors the
hardware datapath in the paper's Fig. 3 / Eq. 5: compare against q and
subtract q when the sum spills over.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RNSError

#: Largest modulus for which uint64 products cannot overflow.
MAX_MODULUS_BITS = 31
MAX_MODULUS = (1 << MAX_MODULUS_BITS) - 1


def check_modulus(q: int) -> int:
    """Validate a limb modulus (odd prime-sized, < 2^31); return it."""
    if not (2 < q <= MAX_MODULUS):
        raise RNSError(
            f"modulus must be in (2, 2^{MAX_MODULUS_BITS}), got {q}"
        )
    return int(q)


def _as_u64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.uint64)


def mod_add(a, b, q: int) -> np.ndarray:
    """Element-wise ``(a + b) mod q`` via the hardware compare/subtract.

    Matches Eq. 5 of the paper: the sum is computed once and ``q`` is
    subtracted exactly when the sum reaches ``q``. Inputs must already
    be reduced into ``[0, q)``.
    """
    a = _as_u64(a)
    b = _as_u64(b)
    s = a + b  # < 2q <= 2^32, no uint64 overflow
    return np.where(s >= np.uint64(q), s - np.uint64(q), s)


def mod_sub(a, b, q: int) -> np.ndarray:
    """Element-wise ``(a - b) mod q`` with a conditional add-back."""
    a = _as_u64(a)
    b = _as_u64(b)
    s = a + np.uint64(q) - b
    return np.where(s >= np.uint64(q), s - np.uint64(q), s)


def mod_neg(a, q: int) -> np.ndarray:
    """Element-wise ``(-a) mod q``."""
    a = _as_u64(a)
    return np.where(a == 0, np.uint64(0), np.uint64(q) - a)


def mod_mul(a, b, q: int) -> np.ndarray:
    """Element-wise ``(a * b) mod q`` — the MM operator.

    Residues are < 2^31 so the product fits in uint64; the reduction
    here uses numpy's remainder, while :class:`~repro.rns.barrett.
    BarrettReducer` provides the bit-exact hardware algorithm.
    """
    a = _as_u64(a)
    b = _as_u64(b)
    return (a * b) % np.uint64(q)


def mod_scalar_mul(a, scalar: int, q: int) -> np.ndarray:
    """Element-wise ``(a * scalar) mod q`` for a Python-int scalar."""
    return mod_mul(a, np.uint64(scalar % q), q)


def mod_inverse(a: int, q: int) -> int:
    """Modular inverse of ``a`` modulo ``q``.

    Raises:
        RNSError: if ``a`` is not invertible mod ``q``.
    """
    try:
        return pow(int(a), -1, int(q))
    except ValueError as exc:
        raise RNSError(f"{a} has no inverse modulo {q}") from exc
