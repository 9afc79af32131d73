"""End-to-end bootstrapping tests (paper §II-A.6, benchmark 4).

These run at tiny parameters (N = 64) with a sparse secret — the
pipeline is the real thing: ModRaise, CoeffToSlot, EvalMod (complex
exponential + double angles), SlotToCoeff.
"""

import numpy as np
import pytest

from repro.errors import BootstrapError
from repro.ckks import (
    CkksDecryptor,
    CkksEncoder,
    CkksEncryptor,
    CkksEvaluator,
    CkksParameters,
    KeyChain,
)
from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper


@pytest.fixture(scope="module")
def bs_setup():
    cfg = BootstrapConfig(taylor_degree=7, double_angles=4,
                          message_bound=0.05)
    params = CkksParameters.default(
        degree=64,
        levels=cfg.total_depth + 2,
        scale_bits=30,
        secret_hamming_weight=8,
    )
    keys = KeyChain.generate(params, seed=3)
    encoder = CkksEncoder(params)
    encryptor = CkksEncryptor(params, keys, seed=1)
    decryptor = CkksDecryptor(params, keys)
    evaluator = CkksEvaluator(params, keys)
    bootstrapper = Bootstrapper(params, evaluator, encoder, cfg)
    return params, encoder, encryptor, decryptor, evaluator, bootstrapper


class TestConfig:
    def test_depth_accounting(self):
        cfg = BootstrapConfig(taylor_degree=7, double_angles=4)
        assert cfg.depth == 12
        assert cfg.total_depth == 14

    def test_zero_taylor_degree_rejected(self):
        with pytest.raises(BootstrapError, match="taylor_degree"):
            BootstrapConfig(taylor_degree=0)

    def test_insufficient_chain_rejected(self):
        cfg = BootstrapConfig()
        params = CkksParameters.default(degree=64, levels=3)
        keys = KeyChain.generate(params, seed=0)
        enc = CkksEncoder(params)
        ev = CkksEvaluator(params, keys)
        with pytest.raises(BootstrapError):
            Bootstrapper(params, ev, enc, cfg)


class TestStages:
    def test_mod_raise_exact(self, bs_setup):
        params, encoder, encryptor, decryptor, evaluator, bs = bs_setup
        rng = np.random.default_rng(11)
        m = rng.uniform(-0.05, 0.05, params.slot_count)
        ct = evaluator.drop_to_level(encryptor.encrypt(encoder.encode(m)), 0)
        raised = bs.mod_raise(ct)
        assert raised.level == params.max_level
        # Decryption of the raised ct differs from m by multiples of
        # q0/scale — i.e. approximately integer offsets per slot-coeff.
        # Its coefficients equal m's plus q0 * I exactly; just check
        # the object is well-formed and decryptable.
        pt = decryptor.decrypt(raised)
        assert pt.poly.level_count == params.max_level + 1

    def test_mod_raise_requires_level0(self, bs_setup):
        params, encoder, encryptor, _, _, bs = bs_setup
        ct = encryptor.encrypt(encoder.encode([0.01]))
        with pytest.raises(BootstrapError):
            bs.mod_raise(ct)

    def test_coeff_to_slot_then_back(self, bs_setup):
        """S2C(C2S(ct)) ≈ ct (the linear transforms invert)."""
        params, encoder, encryptor, decryptor, evaluator, bs = bs_setup
        rng = np.random.default_rng(12)
        m = rng.uniform(-0.05, 0.05, params.slot_count)
        ct = encryptor.encrypt(encoder.encode(m))
        u, v = bs.coeff_to_slot(ct)
        back = bs.slot_to_coeff(u, v)
        out = encoder.decode(decryptor.decrypt(back)).real
        assert np.max(np.abs(out - m)) < 5e-3


class TestFullBootstrap:
    def test_refreshes_and_preserves_message(self, bs_setup):
        params, encoder, encryptor, decryptor, evaluator, bs = bs_setup
        rng = np.random.default_rng(5)
        m = rng.uniform(-0.05, 0.05, params.slot_count)
        ct0 = evaluator.drop_to_level(
            encryptor.encrypt(encoder.encode(m)), 0
        )
        out = bs.bootstrap(ct0)
        # Level refreshed well above 0.
        assert out.level >= 1
        decoded = encoder.decode(decryptor.decrypt(out)).real
        err = np.max(np.abs(decoded - m))
        assert err < 5e-3  # <10% of the message bound

    def test_repeat_bootstrap_is_identical(self, bs_setup):
        """One Bootstrapper bootstraps one ciphertext twice to the same
        residues: nothing it keeps between calls changes the result."""
        params, encoder, encryptor, decryptor, evaluator, bs = bs_setup
        m = np.random.default_rng(6).uniform(-0.05, 0.05, params.slot_count)
        ct0 = evaluator.drop_to_level(
            encryptor.encrypt(encoder.encode(m)), 0
        )
        first, second = bs.bootstrap(ct0), bs.bootstrap(ct0)
        assert (first.level, first.scale) == (second.level, second.scale)
        for a, b in zip(first.parts, second.parts):
            np.testing.assert_array_equal(a.data, b.data)

    def test_enables_further_multiplication(self, bs_setup):
        """The refreshed ciphertext supports another CMult."""
        params, encoder, encryptor, decryptor, evaluator, bs = bs_setup
        m = np.full(params.slot_count, 0.04)
        ct0 = evaluator.drop_to_level(
            encryptor.encrypt(encoder.encode(m)), 0
        )
        refreshed = bs.bootstrap(ct0)
        squared = evaluator.rescale(evaluator.square(refreshed))
        decoded = encoder.decode(decryptor.decrypt(squared)).real
        assert np.max(np.abs(decoded - 0.04**2)) < 1e-3
