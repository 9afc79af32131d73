"""Unit tests for NTT-friendly prime generation and primitive roots."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PrimeGenerationError
from repro.utils.primes import (
    find_ntt_primes,
    find_primitive_root,
    is_prime,
    minimal_primitive_root,
)


class TestIsPrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 7919):
            assert is_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 6, 9, 15, 91, 561, 7917):
            assert not is_prime(n)

    def test_carmichael_numbers(self):
        # Classic Fermat pseudoprimes must be rejected.
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(n)

    def test_large_known_prime(self):
        assert is_prime((1 << 31) - 1)  # Mersenne M31

    def test_large_known_composite(self):
        assert not is_prime((1 << 29) - 1)  # 233 * 1103 * 2089

    @given(st.integers(2, 10000))
    @settings(max_examples=200)
    def test_matches_trial_division(self, n):
        trial = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == trial


class TestPrimitiveRoots:
    def test_minimal_root_of_7(self):
        assert minimal_primitive_root(7) == 3

    def test_minimal_root_rejects_composite(self):
        with pytest.raises(PrimeGenerationError):
            minimal_primitive_root(8)

    def test_root_order(self):
        q = find_ntt_primes(20, 1, 64)[0]
        root = find_primitive_root(q, 128)
        assert pow(root, 128, q) == 1
        assert pow(root, 64, q) != 1

    def test_order_must_divide(self):
        with pytest.raises(PrimeGenerationError):
            find_primitive_root(7, 5)

    def test_nth_root_of_unity(self):
        q = find_ntt_primes(20, 1, 32)[0]
        w = find_primitive_root(q, 32)
        assert pow(w, 32, q) == 1
        assert pow(w, 16, q) != 1


class TestFindNttPrimes:
    def test_congruence(self):
        n = 1024
        primes = find_ntt_primes(30, 5, n)
        assert len(primes) == 5
        for p in primes:
            assert is_prime(p)
            assert p % (2 * n) == 1
            assert p.bit_length() == 30

    def test_distinct_and_descending(self):
        primes = find_ntt_primes(25, 8, 256)
        assert len(set(primes)) == 8
        assert primes == sorted(primes, reverse=True)

    def test_ascending(self):
        primes = find_ntt_primes(25, 3, 256, descending=False)
        assert primes == sorted(primes)

    def test_exhaustion_raises(self):
        # 2n is too large relative to the prime range: no candidates.
        with pytest.raises(PrimeGenerationError):
            find_ntt_primes(10, 1, 4096)

    def test_rejects_bad_count(self):
        with pytest.raises(PrimeGenerationError):
            find_ntt_primes(20, 0, 64)

    def test_chain_and_special_disjoint(self):
        chain = find_ntt_primes(30, 4, 128)
        special = find_ntt_primes(31, 2, 128)
        assert not (set(chain) & set(special))
