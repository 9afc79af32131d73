"""Unit tests for RNSconv / ModUp / ModDown / rescale (paper Eq. 1-3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RNSError
from repro.rns.basis_convert import (
    BasisConverter,
    mod_down,
    mod_up,
    rescale,
)
from repro.rns.context import RnsContext
from repro.rns.poly import Domain, RnsPolynomial
from repro.utils.primes import find_ntt_primes

N = 64
CHAIN = find_ntt_primes(30, 3, N)
AUX = find_ntt_primes(31, 2, N)


@pytest.fixture(scope="module")
def base():
    return RnsContext(CHAIN)


@pytest.fixture(scope="module")
def aux():
    return RnsContext(AUX)


class TestBasisConverter:
    def test_rejects_overlapping_bases(self, base):
        with pytest.raises(RNSError):
            BasisConverter(base, base)

    def test_rejects_wrong_context(self, base, aux):
        conv = BasisConverter(base, aux)
        poly = RnsPolynomial.zeros(N, aux)
        with pytest.raises(RNSError):
            conv.convert(poly)

    def test_rejects_ntt_domain(self, base, aux):
        conv = BasisConverter(base, aux)
        poly = RnsPolynomial.zeros(N, base).with_domain(Domain.NTT)
        with pytest.raises(RNSError):
            conv.convert(poly)

    def test_converted_residues_consistent(self, base, aux):
        """conv(a) ≡ a + e*Q (mod p) for some 0 <= e < l."""
        conv = BasisConverter(base, aux)
        values = [5, -3, 12345, -99999] + [0] * (N - 4)
        poly = RnsPolynomial.from_integers(values, base)
        out = conv.convert(poly)
        big_q = base.modulus_product
        limb_count = base.level_count
        for col, v in enumerate(values[:8]):
            lift = v % big_q
            for i, p in enumerate(aux.moduli):
                candidates = {(lift + e * big_q) % p for e in range(limb_count + 1)}
                assert int(out.data[i][col]) in candidates

    def test_zero_maps_to_zero(self, base, aux):
        conv = BasisConverter(base, aux)
        out = conv.convert(RnsPolynomial.zeros(N, base))
        assert not np.any(out.data)


class TestModUpDown:
    def test_mod_up_extends_basis(self, base, aux):
        poly = RnsPolynomial.from_integers([1] * N, base)
        up = mod_up(poly, aux)
        assert up.context.moduli == base.moduli + aux.moduli
        # Original residues preserved.
        assert np.array_equal(up.data[: base.level_count], poly.data)

    def test_mod_down_divides_by_p(self, base, aux):
        p_product = aux.modulus_product
        values = [7, -11, 1234, -4321] + [1] * (N - 4)
        scaled = RnsPolynomial.from_integers(
            [p_product * v for v in values], base.extend(aux.moduli)
        )
        down = mod_down(scaled, base, aux)
        got = down.to_integers()
        assert all(abs(g - v) <= 1 for g, v in zip(got, values))

    def test_mod_down_rejects_wrong_basis(self, base, aux):
        poly = RnsPolynomial.zeros(N, base)
        with pytest.raises(RNSError):
            mod_down(poly, base, aux)

    def test_mod_up_then_down_congruent_mod_q(self, base, aux):
        """ModDown(P * ModUp(a)-like input) recovers a; the raw
        roundtrip differs from a/P only by the ModUp overshoot e*Q/P,
        which keyswitching cancels by carrying a factor P in the key
        payload. Here we check the exactly-representable case."""
        p_product = aux.modulus_product
        values = [123, -456] + [0] * (N - 2)
        exact = RnsPolynomial.from_integers(
            [p_product * v for v in values], base.extend(aux.moduli)
        )
        got = mod_down(exact, base, aux).to_integers()
        assert got[:2] == values[:2]

    @given(st.integers(-(2**40), 2**40))
    @settings(max_examples=25)
    def test_mod_down_property(self, value):
        base = RnsContext(CHAIN)
        aux = RnsContext(AUX)
        p = aux.modulus_product
        poly = RnsPolynomial.from_integers(
            [p * value] + [0] * (N - 1), base.extend(aux.moduli)
        )
        got = mod_down(poly, base, aux).to_integers()[0]
        assert abs(got - value) <= 1


class TestRescale:
    def test_rescale_rounds_division(self, base):
        values = [123456789012, -987654321098, CHAIN[-1] * 7 + 3]
        poly = RnsPolynomial.from_integers(values + [0] * (N - 3), base)
        out = rescale(poly)
        assert out.context.moduli == base.moduli[:-1]
        got = out.to_integers()[:3]
        for g, v in zip(got, values):
            assert abs(g - v / CHAIN[-1]) <= 1

    def test_rescale_single_limb_rejected(self):
        ctx = RnsContext(CHAIN[:1])
        with pytest.raises(RNSError):
            rescale(RnsPolynomial.zeros(N, ctx))

    def test_rescale_rejects_ntt_domain(self, base):
        poly = RnsPolynomial.zeros(N, base).with_domain(Domain.NTT)
        with pytest.raises(RNSError):
            rescale(poly)

    def test_rescale_exact_multiples(self, base):
        q_last = CHAIN[-1]
        values = [q_last * k for k in range(-5, 5)]
        poly = RnsPolynomial.from_integers(values + [0] * (N - 10), base)
        got = rescale(poly).to_integers()[:10]
        assert got == list(range(-5, 5))


def test_mod_down_builds_its_constants_once_per_basis_pair(base, aux):
    from repro.rns import basis_convert

    basis_convert._mod_down_constants.cache_clear()
    extended = base.extend(aux.moduli)
    poly = RnsPolynomial(
        np.ones((extended.level_count, N), dtype=np.uint64),
        extended, Domain.COEFFICIENT,
    )
    first = mod_down(poly, base, aux)
    again = mod_down(poly, RnsContext(CHAIN), RnsContext(AUX))
    np.testing.assert_array_equal(first.data, again.data)
    info = basis_convert._mod_down_constants.cache_info()
    assert (info.misses, info.hits) == (1, 1)
