"""Integration tests: every basic homomorphic operation decrypts right.

These are the paper's §II-A operations (Table I rows) executed for
real on the functional plane, checked against plaintext arithmetic.
"""

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.polyeval import multiply_const
from tests.conftest import decrypt_real


@pytest.fixture(scope="module")
def cts(encoder, encryptor, slot_vectors):
    x, y = slot_vectors
    return (
        encryptor.encrypt(encoder.encode(x)),
        encryptor.encrypt(encoder.encode(y)),
    )


class TestHAdd:
    def test_ct_ct(self, evaluator, encoder, decryptor, cts, slot_vectors):
        x, y = slot_vectors
        out = decrypt_real(encoder, decryptor, evaluator.add(*cts))
        assert np.max(np.abs(out - (x + y))) < 1e-3

    def test_sub(self, evaluator, encoder, decryptor, cts, slot_vectors):
        x, y = slot_vectors
        out = decrypt_real(encoder, decryptor, evaluator.sub(*cts))
        assert np.max(np.abs(out - (x - y))) < 1e-3

    def test_ct_pt(self, evaluator, encoder, decryptor, cts, slot_vectors):
        x, y = slot_vectors
        ct = evaluator.add_plain(cts[0], encoder.encode(y))
        out = decrypt_real(encoder, decryptor, ct)
        assert np.max(np.abs(out - (x + y))) < 1e-3

    def test_negate(self, evaluator, encoder, decryptor, cts, slot_vectors):
        x, _ = slot_vectors
        out = decrypt_real(encoder, decryptor, evaluator.negate(cts[0]))
        assert np.max(np.abs(out + x)) < 1e-3

    def test_mismatched_scales_rejected(self, evaluator, encoder, encryptor,
                                        cts):
        other = encryptor.encrypt(encoder.encode([1.0], scale=2.0**20))
        with pytest.raises(EvaluationError):
            evaluator.add(cts[0], other)


class TestPMult:
    def test_basic(self, evaluator, encoder, decryptor, cts, slot_vectors):
        x, y = slot_vectors
        ct = evaluator.rescale(
            evaluator.multiply_plain(cts[0], encoder.encode(y))
        )
        out = decrypt_real(encoder, decryptor, ct)
        assert np.max(np.abs(out - x * y)) < 1e-2

    def test_scalar(self, evaluator, encoder, decryptor, cts, slot_vectors):
        x, _ = slot_vectors
        ct = multiply_const(evaluator, encoder, cts[0], 0.5)
        out = decrypt_real(encoder, decryptor, ct)
        assert np.max(np.abs(out - 0.5 * x)) < 1e-2

    def test_scale_multiplies(self, evaluator, encoder, cts, params):
        ct = evaluator.multiply_plain(cts[0], encoder.encode([1.0]))
        assert ct.scale == pytest.approx(params.scale**2)


class TestCMult:
    def test_basic(self, evaluator, encoder, decryptor, cts, slot_vectors):
        x, y = slot_vectors
        ct = evaluator.multiply_and_rescale(*cts)
        assert ct.size == 2
        out = decrypt_real(encoder, decryptor, ct)
        assert np.max(np.abs(out - x * y)) < 1e-2

    def test_unrelinearized_three_parts(self, evaluator, encoder, decryptor,
                                        cts, slot_vectors):
        x, y = slot_vectors
        ct = evaluator.multiply(*cts, relinearize=False)
        assert ct.size == 3
        # 3-part ciphertexts still decrypt (sum c_i s^i).
        out = decrypt_real(encoder, decryptor, evaluator.rescale(ct))
        assert np.max(np.abs(out - x * y)) < 1e-2

    def test_relinearize_matches_unrelinearized(
        self, evaluator, encoder, decryptor, cts, slot_vectors
    ):
        x, y = slot_vectors
        full = evaluator.multiply_and_rescale(*cts)
        lazy = evaluator.rescale(evaluator.multiply(*cts, relinearize=False))
        a = decrypt_real(encoder, decryptor, full)
        b = decrypt_real(encoder, decryptor, lazy)
        assert np.max(np.abs(a - b)) < 1e-2

    def test_square(self, evaluator, encoder, decryptor, cts, slot_vectors):
        x, _ = slot_vectors
        ct = evaluator.rescale(evaluator.square(cts[0]))
        out = decrypt_real(encoder, decryptor, ct)
        assert np.max(np.abs(out - x * x)) < 1e-2

    def test_depth_two(self, evaluator, encoder, decryptor, cts,
                       slot_vectors):
        x, y = slot_vectors
        xy = evaluator.multiply_and_rescale(*cts)
        aligned = evaluator.drop_to_level(cts[0], xy.level)
        x2y = evaluator.multiply_and_rescale(xy, aligned)
        out = decrypt_real(encoder, decryptor, x2y)
        assert np.max(np.abs(out - x * x * y)) < 5e-2

    def test_requires_two_parts(self, evaluator, cts):
        three = evaluator.multiply(*cts, relinearize=False)
        with pytest.raises(EvaluationError):
            evaluator.multiply(three, cts[0])


class TestRescaleAndLevels:
    def test_rescale_drops_level(self, evaluator, encoder, cts, params):
        ct = evaluator.multiply_plain(cts[0], encoder.encode([1.0]))
        out = evaluator.rescale(ct)
        assert out.level == params.max_level - 1
        assert out.scale == pytest.approx(
            params.scale**2 / params.chain_moduli[params.max_level], rel=1e-9
        )

    def test_rescale_at_bottom_rejected(self, evaluator, cts):
        ct = evaluator.drop_to_level(cts[0], 0)
        with pytest.raises(EvaluationError):
            evaluator.rescale(ct)

    def test_drop_to_level_preserves_message(self, evaluator, encoder,
                                             decryptor, cts, slot_vectors):
        x, _ = slot_vectors
        dropped = evaluator.drop_to_level(cts[0], 1)
        assert dropped.level == 1
        out = decrypt_real(encoder, decryptor, dropped)
        assert np.max(np.abs(out - x)) < 1e-3

    def test_drop_cannot_raise(self, evaluator, cts):
        low = evaluator.drop_to_level(cts[0], 0)
        with pytest.raises(EvaluationError):
            evaluator.drop_to_level(low, 2)

    def test_add_auto_aligns_levels(self, evaluator, encoder, decryptor,
                                    cts, slot_vectors):
        x, y = slot_vectors
        low = evaluator.drop_to_level(cts[1], 1)
        out = decrypt_real(encoder, decryptor, evaluator.add(cts[0], low))
        assert np.max(np.abs(out - (x + y))) < 1e-3


class TestRotation:
    @pytest.mark.parametrize("steps", [1, 3, 17])
    def test_rotate(self, evaluator, encoder, decryptor, cts, slot_vectors,
                    steps):
        x, _ = slot_vectors
        out = decrypt_real(
            encoder, decryptor, evaluator.rotate(cts[0], steps)
        )
        assert np.max(np.abs(out - np.roll(x, -steps))) < 1e-2

    def test_rotate_zero_identity(self, evaluator, cts):
        assert evaluator.rotate(cts[0], 0) is cts[0]

    def test_rotate_full_cycle_identity(self, evaluator, params, cts):
        assert evaluator.rotate(cts[0], params.slot_count) is cts[0]

    def test_conjugate(self, evaluator, encoder, encryptor, decryptor,
                       params):
        rng = np.random.default_rng(8)
        z = rng.uniform(-1, 1, params.slot_count) + 1j * rng.uniform(
            -1, 1, params.slot_count
        )
        ct = encryptor.encrypt(encoder.encode(z))
        out = encoder.decode(decryptor.decrypt(evaluator.conjugate(ct)))
        assert np.max(np.abs(out - np.conj(z))) < 1e-2

    def test_rotate_sum(self, evaluator, encoder, decryptor, cts,
                        slot_vectors):
        x, _ = slot_vectors
        width = 8
        out = decrypt_real(encoder, decryptor,
                           evaluator.rotate_sum(cts[0], width))
        expected = sum(np.roll(x, -s) for s in range(width))
        assert np.max(np.abs(out[:width] - expected[:width])) < 5e-2

    def test_naive_auto_matches_hfauto(self, params, keys, encoder,
                                       decryptor, cts, slot_vectors):
        """The Table IX ablation: same results either way."""
        x, _ = slot_vectors
        naive_eval = CkksEvaluator(params, keys, use_hfauto=False)
        hf_eval = CkksEvaluator(params, keys, use_hfauto=True)
        a = decrypt_real(encoder, decryptor, naive_eval.rotate(cts[0], 5))
        b = decrypt_real(encoder, decryptor, hf_eval.rotate(cts[0], 5))
        assert np.max(np.abs(a - b)) < 1e-6
