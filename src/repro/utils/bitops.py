"""Bit-manipulation helpers used by the NTT and automorphism kernels.

The Poseidon pipeline indexes polynomial coefficients by bit-reversed
order (radix-2 NTT) and by digit-reversed order (radix-2^k NTT-fusion),
so these helpers are on the hot path of table construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NTTError


def is_power_of_two(n: int) -> bool:
    """Return ``True`` if ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def ilog2(n: int) -> int:
    """Return ``log2(n)`` for a power-of-two ``n``.

    Raises:
        NTTError: if ``n`` is not a positive power of two.
    """
    if not is_power_of_two(n):
        raise NTTError(f"expected a power of two, got {n}")
    return n.bit_length() - 1


def next_power_of_two(n: int) -> int:
    """Return the smallest power of two that is >= ``n`` (n >= 1)."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    return 1 << (n - 1).bit_length()


def bit_reverse(value: int, width: int) -> int:
    """Reverse the lowest ``width`` bits of ``value``.

    Example: ``bit_reverse(0b0011, 4) == 0b1100``.
    """
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Return the length-``n`` bit-reversal permutation as an index array.

    ``x[bit_reverse_permutation(n)]`` reorders ``x`` into bit-reversed
    order, the input ordering expected by a decimation-in-time NTT.
    """
    logn = ilog2(n)
    perm = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        perm[i] = (perm[i >> 1] >> 1) | ((i & 1) << (logn - 1))
    return perm


def digit_reverse(value: int, base_bits: int, num_digits: int) -> int:
    """Reverse base-``2^base_bits`` digits of ``value``.

    This generalizes :func:`bit_reverse` to the radix-2^k NTT-fusion
    ordering: the coefficient index is decomposed into ``num_digits``
    digits of ``base_bits`` bits each and the digit order is reversed.
    """
    mask = (1 << base_bits) - 1
    result = 0
    for _ in range(num_digits):
        result = (result << base_bits) | (value & mask)
        value >>= base_bits
    return result


def digit_reverse_permutation(n: int, base_bits: int) -> np.ndarray:
    """Digit-reversal permutation for a mixed/even radix-2^k transform.

    ``n`` must be a power of ``2**base_bits``.
    """
    logn = ilog2(n)
    if logn % base_bits != 0:
        raise NTTError(
            f"n=2^{logn} is not a power of the radix 2^{base_bits}"
        )
    num_digits = logn // base_bits
    perm = np.fromiter(
        (digit_reverse(i, base_bits, num_digits) for i in range(n)),
        dtype=np.int64,
        count=n,
    )
    return perm


def reverse_bits_array(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorized bit reversal of an int64 array over ``width`` bits."""
    values = np.asarray(values, dtype=np.int64)
    result = np.zeros_like(values)
    v = values.copy()
    for _ in range(width):
        result = (result << 1) | (v & 1)
        v >>= 1
    return result
