"""Tests for evaluation-domain automorphisms and hoisted rotations."""

import numpy as np
import pytest

from repro.errors import AutomorphismError, EvaluationError
from repro.automorphism.mapping import (
    apply_automorphism_eval,
    apply_automorphism_poly,
    eval_permutation,
)
from repro.ckks.hoisting import HoistedRotator
from repro.ntt.negacyclic import ntt_negacyclic
from repro.rns.context import RnsContext
from repro.rns.poly import RnsPolynomial
from repro.utils.primes import find_ntt_primes
from tests.conftest import decrypt_real

N = 64
PRIMES = find_ntt_primes(30, 2, N)


@pytest.fixture(scope="module")
def sample_poly():
    ctx = RnsContext(PRIMES)
    rng = np.random.default_rng(0)
    return RnsPolynomial.from_integers(
        [int(v) - 50 for v in rng.integers(0, 100, N)], ctx
    )


class TestEvalPermutation:
    def test_is_permutation(self):
        for k in (3, 5, 9, 2 * N - 1):
            perm = eval_permutation(N, k)
            assert sorted(perm.tolist()) == list(range(N))

    def test_identity_element(self):
        assert eval_permutation(N, 1).tolist() == list(range(N))

    def test_rejects_even(self):
        with pytest.raises(AutomorphismError):
            eval_permutation(N, 4)

    @pytest.mark.parametrize("k", [3, 5, 25, 2 * N - 1])
    def test_commutes_with_ntt(self, sample_poly, k):
        """NTT(sigma_k(a)) == eval-permute(NTT(a)) — the hoisting law."""
        direct = ntt_negacyclic(apply_automorphism_poly(sample_poly, k))
        via_eval = apply_automorphism_eval(
            ntt_negacyclic(sample_poly), k
        )
        assert direct == via_eval

    def test_composition(self, sample_poly):
        """Eval-domain maps compose like the Galois group."""
        f = ntt_negacyclic(sample_poly)
        once = apply_automorphism_eval(apply_automorphism_eval(f, 3), 5)
        composed = apply_automorphism_eval(f, 15 % (2 * N))
        assert once == composed

    def test_rejects_coefficient_domain(self, sample_poly):
        with pytest.raises(AutomorphismError):
            apply_automorphism_eval(sample_poly, 3)


class TestHoistedRotator:
    @pytest.fixture(scope="class")
    def ct(self, encoder, encryptor, slot_vectors):
        x, _ = slot_vectors
        return x, encryptor.encrypt(encoder.encode(x))

    def test_matches_plain_rotation(self, params, keys, evaluator, encoder,
                                    decryptor, ct):
        x, ciphertext = ct
        rotator = HoistedRotator(params, keys, ciphertext)
        for steps in (1, 5, 31):
            hoisted = decrypt_real(
                encoder, decryptor, rotator.rotate(steps)
            )
            assert np.max(np.abs(hoisted - np.roll(x, -steps))) < 1e-2

    def test_rotate_many(self, params, keys, evaluator, encoder, decryptor,
                         ct):
        x, ciphertext = ct
        rotator = HoistedRotator(params, keys, ciphertext)
        outs = rotator.rotate_many([1, 2, 3])
        for steps, out in zip([1, 2, 3], outs):
            decoded = decrypt_real(encoder, decryptor, out)
            assert np.max(np.abs(decoded - np.roll(x, -steps))) < 1e-2

    def test_zero_rotation_identity(self, params, keys, evaluator, ct):
        _, ciphertext = ct
        rotator = HoistedRotator(params, keys, ciphertext)
        assert rotator.rotate(0) is ciphertext

    def test_rejects_three_part(self, params, keys, evaluator, ct):
        _, ciphertext = ct
        three = evaluator.multiply(ciphertext, ciphertext,
                                   relinearize=False)
        with pytest.raises(EvaluationError):
            HoistedRotator(params, keys, three)

    def test_works_at_lower_level(self, params, keys, evaluator, encoder,
                                  decryptor, ct):
        x, ciphertext = ct
        low = evaluator.drop_to_level(ciphertext, 1)
        rotator = HoistedRotator(params, keys, low)
        decoded = decrypt_real(encoder, decryptor, rotator.rotate(4))
        assert np.max(np.abs(decoded - np.roll(x, -4))) < 1e-2


class TestHoistedLinearTransform:
    def test_bsgs_with_hoisting_matches(self, params, evaluator, encoder,
                                        encryptor, decryptor):
        """LinearTransform(use_hoisting=True) equals the plain path."""
        from repro.ckks.linear import LinearTransform

        rng = np.random.default_rng(5)
        vec = rng.uniform(-1, 1, 8)
        reps = encoder.slots // 8
        ct = encryptor.encrypt(encoder.encode(np.tile(vec, reps)))
        m = rng.uniform(-1, 1, (8, 8))
        plain = LinearTransform(evaluator, encoder, m, use_hoisting=False)
        hoisted = LinearTransform(evaluator, encoder, m, use_hoisting=True)
        a = decrypt_real(encoder, decryptor, plain.apply(ct))
        b = decrypt_real(encoder, decryptor, hoisted.apply(ct))
        assert np.max(np.abs(a[:8] - b[:8])) < 1e-2
