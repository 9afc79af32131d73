"""The encrypted HELR trainer computes what its plaintext arithmetic says.

``helr_functional`` at the example's parameters (N=512, six levels, two
iterations) must decrypt to the same weights as the identical slot
arithmetic run in the clear.
"""

import math

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


def plaintext_helr(data, labels, slots, *, iterations, learning_rate):
    """``helr_functional``'s slot arithmetic without encryption.

    The margin keeps ``rotate_sum``'s cyclic partial sums: slot ``j``
    holds ``prod[j] + ... + prod[j + width - 1]`` (indices mod
    ``slots``), which is the full inner product only in slot 0.
    """
    samples, features = data.shape
    width = 1 << max(1, int(math.ceil(math.log2(max(2, features)))))

    def pad(vec):
        out = np.zeros(slots)
        out[:features] = vec
        return out

    weights = np.zeros(slots)
    for _ in range(iterations):
        grad = np.zeros(slots)
        for i in range(samples):
            prod = weights * pad(data[i])
            margin = sum(np.roll(prod, -k) for k in range(width))
            grad += margin * pad(-learning_rate * 0.15 * data[i])
            grad += pad(learning_rate * 0.5 * labels[i] * data[i])
        weights = weights + grad
    return weights[:features]


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
    want = plaintext_helr(
        data, labels, params.slot_count, iterations=2, learning_rate=0.5
    )
    assert np.max(np.abs(got - want)) < 1e-2
