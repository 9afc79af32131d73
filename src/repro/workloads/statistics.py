"""Private statistics over encrypted records.

The paper's introduction motivates FHE with third-party processing of
sensitive records (financial, medical). This module is that scenario
distilled: a server computes the mean and variance of
ciphertext-packed records without decrypting them. Sums come from
rotate-accumulate reductions; one squaring gives the second moment.
"""

from __future__ import annotations

import math

import numpy as np


def encrypted_mean_variance(
    evaluator,
    encoder,
    encryptor,
    decryptor,
    values: np.ndarray,
) -> tuple[float, float]:
    """Mean and variance of an encrypted vector, computed blind.

    The count is public (the client knows how many records it sent);
    sums are computed homomorphically via rotate-accumulate, so the
    server never sees an individual value.
    """
    values = np.asarray(values, dtype=np.float64)
    count = values.shape[0]
    slots = encoder.slots
    if count > slots:
        raise ValueError(f"{count} records exceed {slots} slots")
    width = 1 << max(1, int(math.ceil(math.log2(max(2, count)))))

    padded = np.zeros(slots)
    padded[:count] = values
    ct = encryptor.encrypt(encoder.encode(padded))

    # sum(x): rotate-accumulate; slot 0 then holds the full sum.
    sum_ct = evaluator.rotate_sum(ct, width)
    # sum(x^2): square first (consumes a level), then reduce.
    sq_ct = evaluator.rotate_sum(
        evaluator.rescale(evaluator.square(ct)), width
    )

    total = encoder.decode(decryptor.decrypt(sum_ct)).real[0]
    total_sq = encoder.decode(decryptor.decrypt(sq_ct)).real[0]
    mean = total / count
    variance = total_sq / count - mean**2
    return float(mean), float(variance)
