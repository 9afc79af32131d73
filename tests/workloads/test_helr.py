"""The encrypted HELR trainer computes what its plaintext arithmetic says.

``helr_functional`` at the example's parameters (N=512, six levels, two
iterations) must decrypt to the weights of the same logistic-regression
update run in the clear, where every feature sees the full margin
``<x_i, w>``.
"""

import numpy as np

from repro.ckks import (
    CkksDecryptor,
    CkksEncoder,
    CkksEncryptor,
    CkksEvaluator,
    CkksParameters,
    KeyChain,
)
from repro.workloads.helr import helr_functional


def plaintext_helr(data, labels, *, iterations, learning_rate):
    """``helr_functional``'s update in the clear: ``margin = w @ x_i``."""
    weights = np.zeros(data.shape[1])
    for _ in range(iterations):
        grad = np.zeros_like(weights)
        for x, y in zip(data, labels):
            margin = weights @ x
            grad += -learning_rate * 0.15 * margin * x
            grad += learning_rate * 0.5 * y * x
        weights = weights + grad
    return weights


def test_decrypted_weights_match_plaintext():
    params = CkksParameters.default(degree=512, levels=6)
    keys = KeyChain.generate(params, seed=7)
    rng = np.random.default_rng(42)
    data = rng.uniform(-1, 1, (6, 8))
    labels = np.where(rng.uniform(-1, 1, 6) >= 0, 1.0, -1.0)

    got = helr_functional(
        CkksEvaluator(params, keys),
        CkksEncoder(params),
        CkksEncryptor(params, keys, seed=1),
        CkksDecryptor(params, keys),
        data, labels, iterations=2, learning_rate=0.5,
    )
    want = plaintext_helr(data, labels, iterations=2, learning_rate=0.5)
    assert np.max(np.abs(got - want)) < 1e-2
