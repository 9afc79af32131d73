"""Unit tests for the negacyclic transform façade and tables."""

import numpy as np
import pytest

from repro.errors import NTTError
from repro.ntt.negacyclic import (
    intt_negacyclic,
    intt_stack,
    ntt_negacyclic,
    ntt_stack,
    poly_multiply,
)
from repro.ntt.tables import TwiddleTable, get_twiddle_table
from repro.rns.context import RnsContext
from repro.rns.poly import Domain, RnsPolynomial
from repro.utils.primes import find_ntt_primes

N = 64
PRIMES = find_ntt_primes(30, 3, N)
Q = PRIMES[0]


class TestTwiddleTable:
    def test_psi_is_2n_root(self):
        t = get_twiddle_table(Q, N)
        assert pow(t.psi, 2 * N, Q) == 1
        assert pow(t.psi, N, Q) == Q - 1  # psi^N = -1 (negacyclic)

    def test_omega_is_n_root(self):
        t = get_twiddle_table(Q, N)
        assert pow(t.omega, N, Q) == 1
        assert pow(t.omega, N // 2, Q) != 1

    def test_inverses(self):
        t = get_twiddle_table(Q, N)
        assert t.psi * t.inv_psi % Q == 1
        assert t.omega * t.inv_omega % Q == 1
        assert N * t.inv_n % Q == 1

    def test_cache_identity(self):
        assert get_twiddle_table(Q, N) is get_twiddle_table(Q, N)

    def test_rejects_unfriendly_modulus(self):
        with pytest.raises(NTTError):
            TwiddleTable(7, 64)

    def test_rejects_non_power_degree(self):
        with pytest.raises(NTTError):
            TwiddleTable(Q, 63)


class TestTransformer:
    """One modulus through the kernel layer: a one-limb basis."""

    def test_roundtrip_radix2(self):
        x = np.random.default_rng(0).integers(0, Q, (1, N), dtype=np.uint64)
        assert np.array_equal(intt_stack(ntt_stack(x, (Q,)), (Q,)), x)

    def test_negacyclic_multiply_sign(self):
        """(x^(n-1))^2 = x^(2n-2) = -x^(n-2) in the negacyclic ring."""
        ctx = RnsContext((Q,))
        a = RnsPolynomial.from_integers([0] * (N - 1) + [1], ctx)
        prod = poly_multiply(a, a)
        expected = np.zeros((1, N), dtype=np.uint64)
        expected[0, N - 2] = Q - 1
        assert np.array_equal(prod.data, expected)


class TestRnsTransforms:
    @pytest.fixture()
    def ctx(self):
        return RnsContext(PRIMES)

    def test_roundtrip(self, ctx):
        poly = RnsPolynomial.from_integers(list(range(N)), ctx)
        f = ntt_negacyclic(poly)
        assert f.domain is Domain.NTT
        back = intt_negacyclic(f)
        assert back == poly

    def test_double_forward_rejected(self, ctx):
        poly = RnsPolynomial.zeros(N, ctx)
        f = ntt_negacyclic(poly)
        with pytest.raises(NTTError):
            ntt_negacyclic(f)

    def test_double_inverse_rejected(self, ctx):
        poly = RnsPolynomial.zeros(N, ctx)
        with pytest.raises(NTTError):
            intt_negacyclic(poly)

    def test_poly_multiply_matches_integer_convolution(self, ctx):
        a_vals = [1, 2] + [0] * (N - 2)
        b_vals = [3, 4] + [0] * (N - 2)
        a = RnsPolynomial.from_integers(a_vals, ctx)
        b = RnsPolynomial.from_integers(b_vals, ctx)
        prod = poly_multiply(a, b).to_integers()
        # (1 + 2x)(3 + 4x) = 3 + 10x + 8x^2
        assert prod[:3] == [3, 10, 8]
        assert all(v == 0 for v in prod[3:])

    def test_poly_multiply_wraps_negacyclically(self, ctx):
        a_vals = [0] * (N - 1) + [2]   # 2 x^(n-1)
        b_vals = [0, 3] + [0] * (N - 2)  # 3 x
        a = RnsPolynomial.from_integers(a_vals, ctx)
        b = RnsPolynomial.from_integers(b_vals, ctx)
        prod = poly_multiply(a, b).to_integers()
        assert prod[0] == -6  # 6 x^n = -6
        assert all(v == 0 for v in prod[1:])
