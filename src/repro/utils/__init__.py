"""Shared low-level utilities: bit manipulation and prime generation."""

from repro.utils.bitops import (
    bit_reverse,
    bit_reverse_permutation,
    ilog2,
    is_power_of_two,
    next_power_of_two,
)
from repro.utils.primes import (
    find_ntt_primes,
    find_primitive_root,
    is_prime,
    minimal_primitive_root,
)

__all__ = [
    "bit_reverse",
    "bit_reverse_permutation",
    "ilog2",
    "is_power_of_two",
    "next_power_of_two",
    "find_ntt_primes",
    "find_primitive_root",
    "is_prime",
    "minimal_primitive_root",
]
