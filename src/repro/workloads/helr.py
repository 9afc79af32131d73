"""HELR logistic regression — paper benchmark 1 (Table V).

The paper runs the HELR algorithm at multiplicative depth L = 38 and
reports the average of 10 training iterations supported by two
bootstrapping operations. One iteration of encrypted minibatch
gradient descent comprises:

1. the inner products ``X_i . w`` — a rotate-accumulate reduction over
   the packed feature dimension plus a PMult with the batch data;
2. the sigmoid approximated by a degree-3 polynomial (2 CMult levels);
3. the gradient aggregation and weight update (PMult by the learning
   rate, HAdds, one more rotate-accumulate across the batch).

The functional variant (:func:`helr_functional`) really trains a tiny
model on encrypted data with :mod:`repro.ckks`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compiler.trace import TraceRecorder
from repro.workloads.common import PAPER_DEGREE, WorkloadBuilder


def helr_iteration(builder: WorkloadBuilder, *, features: int = 256) -> None:
    """Emit one HELR training iteration."""
    # Inner products X.w: elementwise PMult then log-width reduction.
    builder.pmult(1, rescale=True)
    builder.rotate_accumulate(features)
    # Degree-3 sigmoid: x * (c1 + c3 x^2) -> two CMult levels.
    builder.cmult(2)
    builder.hadd(2, kind="ct-pt")
    # Gradient: multiply the sigmoid output back with X and reduce
    # across the batch, then update the weights.
    builder.pmult(1, rescale=True)
    builder.rotate_accumulate(features)
    builder.pmult(1, rescale=True)  # learning-rate scaling
    builder.hadd(1)                 # weight update


def helr_trace(
    *,
    degree: int = PAPER_DEGREE,
    iterations: int = 10,
    bootstraps: int = 2,
    start_level: int = 38,
    top_level: int = 44,
    features: int = 256,
) -> TraceRecorder:
    """The paper's LR benchmark: 10 iterations, 2 bootstraps, L = 38."""
    builder = WorkloadBuilder(
        degree=degree, start_level=start_level, top_level=top_level
    )
    per_iter = 7  # levels one iteration consumes (see helr_iteration)
    boots_left = bootstraps
    for _ in range(iterations):
        if builder.levels.level < per_iter and boots_left > 0:
            # Sparse bootstrap over the packed feature width.
            builder.bootstrap(slots=features, c2s_stages=2, s2c_stages=2,
                              stage_diagonals=16)
            boots_left -= 1
        helr_iteration(builder, features=features)
    while boots_left > 0:
        builder.bootstrap(slots=features, c2s_stages=2, s2c_stages=2,
                          stage_diagonals=16)
        boots_left -= 1
    return builder.build()


# ----------------------------------------------------------------------
# Functional variant (toy scale)
# ----------------------------------------------------------------------
def helr_functional(
    evaluator,
    encoder,
    encryptor,
    decryptor,
    data: np.ndarray,
    labels: np.ndarray,
    *,
    iterations: int = 2,
    learning_rate: float = 0.1,
) -> np.ndarray:
    """Train a tiny encrypted logistic-regression model.

    Data layout: each plaintext is a feature vector zero-padded to a
    power-of-two ``width`` and tiled across the slots, so the weights
    stay periodic in ``width`` and ``rotate_sum`` leaves the full
    margin ``<x_i, w>`` in every slot.
    Returns the decrypted weight vector after training.

    This is intentionally small-scale — it demonstrates the real
    encrypted pipeline; the simulator handles paper-scale sizing.
    """
    from repro.ckks.packing import pad_vector, tile_vector

    samples, features = data.shape
    slots = encoder.slots
    if features > slots:
        raise ValueError(f"features {features} exceed slots {slots}")
    width = 1 << max(1, int(math.ceil(math.log2(max(2, features)))))

    def pad(vec):
        return tile_vector(pad_vector(vec, width), slots)

    params = evaluator.params

    def factor(vec, ct):
        # Encoded at the scale of the prime the following rescale drops,
        # so the product comes back to the ciphertext's own scale.
        return encoder.encode(
            pad(vec),
            scale=params.chain_moduli[ct.level],
            context=params.context_at_level(ct.level),
        )

    weights_ct = encryptor.encrypt(encoder.encode(pad(np.zeros(features))))

    for _ in range(iterations):
        grad_ct = None
        for i in range(samples):
            # margin_i = <x_i, w> in every slot: rotate-accumulate over
            # one period of the tiled layout.
            prod = evaluator.rescale(
                evaluator.multiply_plain(weights_ct, factor(data[i], weights_ct))
            )
            margin = evaluator.rotate_sum(prod, width)
            # sigmoid'(margin)-driven residual, linearized: the HELR
            # update uses c1 * y_i - poly(margin); keep degree 1 here
            # to fit toy chains, matching HELR's first-order variant.
            # Gradient contribution: residual * x_i + lr * y_i * x_i,
            # with the residual's -lr * 0.15 folded into the x_i factor.
            contrib = evaluator.rescale(
                evaluator.multiply_plain(
                    margin, factor(-learning_rate * 0.15 * data[i], margin)
                )
            )
            lr_term = encoder.encode(
                pad(learning_rate * 0.5 * labels[i] * data[i]),
                scale=contrib.scale,
                context=params.context_at_level(contrib.level),
            )
            contrib = evaluator.add_plain(contrib, lr_term)
            grad_ct = contrib if grad_ct is None else evaluator.add(
                grad_ct, contrib
            )
        weights_ct = evaluator.add(
            evaluator.drop_to_level(weights_ct, grad_ct.level), grad_ct
        )
    decoded = encoder.decode(decryptor.decrypt(weights_ct)).real
    return decoded[:features]
