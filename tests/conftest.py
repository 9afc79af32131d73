"""Shared fixtures: small parameter sets that keep the suite fast.

The functional CKKS objects are expensive to construct (prime search,
key generation), so they are session-scoped; tests must not mutate
them. Every fixture uses fixed seeds for reproducibility.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks import (
    CkksDecryptor,
    CkksEncoder,
    CkksEncryptor,
    CkksEvaluator,
    CkksParameters,
    KeyChain,
)
from repro.ntt.fusion import FusedNtt

#: Default toy scale: big enough to exercise sub-vector HFAuto paths,
#: small enough for sub-second operations.
TEST_DEGREE = 256
TEST_LEVELS = 4


@pytest.fixture(scope="session")
def params() -> CkksParameters:
    return CkksParameters.default(degree=TEST_DEGREE, levels=TEST_LEVELS)


@pytest.fixture(scope="session")
def keys(params) -> KeyChain:
    return KeyChain.generate(params, seed=42)


@pytest.fixture(scope="session")
def encoder(params) -> CkksEncoder:
    return CkksEncoder(params)


@pytest.fixture(scope="session")
def encryptor(params, keys) -> CkksEncryptor:
    return CkksEncryptor(params, keys, seed=7)


@pytest.fixture(scope="session")
def decryptor(params, keys) -> CkksDecryptor:
    return CkksDecryptor(params, keys)


@pytest.fixture(scope="session")
def evaluator(params, keys) -> CkksEvaluator:
    return CkksEvaluator(params, keys)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def slot_vectors(params):
    """Two fixed random slot vectors in [-1, 1]."""
    gen = np.random.default_rng(99)
    x = gen.uniform(-1, 1, params.slot_count)
    y = gen.uniform(-1, 1, params.slot_count)
    return x, y


def decrypt_real(encoder, decryptor, ct) -> np.ndarray:
    """Helper: decrypt and decode to real slot values."""
    return encoder.decode(decryptor.decrypt(ct)).real


def fused_rows(data, moduli, radix_log2: int, *, inverse=False) -> np.ndarray:
    """Helper: the fused radix-2^k kernel (``FusedNtt``), row by row."""
    out = []
    for q, row in zip(moduli, data):
        fused = FusedNtt(q, data.shape[-1], radix_log2)
        out.append(fused.inverse(row) if inverse else fused.forward(row))
    return np.stack(out)
