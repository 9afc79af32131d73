"""LSTM inference — paper benchmark 2 (Table V).

The paper's LSTM iterates ``y_{t+1} = sigma(W_0 y_t + W_1 x_t)`` with
128x128 weight matrices and a cubic-polynomial activation, requiring 50
bootstrapping operations over one inference. Each time step is:

- two dense 128x128 matrix-vector products (diagonal method, BSGS),
- an element-wise add,
- the cubic activation (2 CMult levels).

The functional variant runs a scaled-down recurrence on real
ciphertexts and checks it against the plaintext recurrence.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.trace import TraceRecorder
from repro.workloads.common import PAPER_DEGREE, WorkloadBuilder


def lstm_step(builder: WorkloadBuilder, *, hidden: int = 128) -> None:
    """Emit one recurrent step: two matvecs + add + cubic activation."""
    builder.linear_transform(hidden)   # W0 @ y_t
    builder.linear_transform(hidden)   # W1 @ x_t
    builder.hadd(1)
    builder.cmult(2)                   # cubic sigma: x*(c1 + c3*x^2)
    builder.hadd(2, kind="ct-pt")


def lstm_trace(
    *,
    degree: int = PAPER_DEGREE,
    steps: int = 50,
    hidden: int = 128,
    top_level: int = 24,
) -> TraceRecorder:
    """The paper's LSTM benchmark: 50 steps with frequent bootstraps.

    Each step consumes 4 levels (2 matvecs + 2 activation CMults). The
    paper refreshes once per step (50 bootstraps per inference), which
    only pays off on a *shallow* chain where every operation carries
    few limbs — hence the default ``top_level=24``; the chain-depth
    sweep in the benches shows the optimum.
    """
    builder = WorkloadBuilder(
        degree=degree, start_level=top_level, top_level=top_level
    )
    per_step = 4
    for t in range(steps):
        if builder.levels.level < per_step + 2:
            # Sparse bootstrap: only the 128-wide state is packed, so a
            # shallower EvalMod suffices (narrower message range).
            builder.bootstrap(slots=hidden, c2s_stages=2, s2c_stages=2,
                              stage_diagonals=16, taylor_degree=5,
                              double_angles=4)
        lstm_step(builder, hidden=hidden)
    return builder.build()


# ----------------------------------------------------------------------
# Functional variant (toy scale)
# ----------------------------------------------------------------------
def lstm_functional(
    evaluator,
    encoder,
    encryptor,
    decryptor,
    w0: np.ndarray,
    w1: np.ndarray,
    x_inputs: list[np.ndarray],
    y0: np.ndarray,
    *,
    steps: int | None = None,
) -> np.ndarray:
    """Run the recurrence on real ciphertexts (linearized activation).

    The toy variant uses the degree-1 part of the activation so short
    modulus chains suffice; the matrix products exercise the full
    rotation/keyswitch machinery that dominates the benchmark.
    Returns the decrypted final state.
    """
    from repro.ckks.linear import LinearTransform
    from repro.ckks.polyeval import add_const, multiply_const

    steps = len(x_inputs) if steps is None else steps
    n = w0.shape[0]
    lt0 = LinearTransform(evaluator, encoder, w0)
    lt1 = LinearTransform(evaluator, encoder, w1)

    reps = encoder.slots // n
    y_ct = encryptor.encrypt(encoder.encode(np.tile(y0, reps)))
    for t in range(steps):
        wy = lt0.apply(y_ct)
        wx_input = encryptor.encrypt(encoder.encode(np.tile(x_inputs[t], reps)))
        wx = lt1.apply(evaluator.drop_to_level(wx_input, y_ct.level))
        pre = evaluator.add(wy, wx)
        # Linearized activation: 0.5 + 0.25 * pre.
        scaled = multiply_const(evaluator, encoder, pre, 0.25)
        y_ct = add_const(evaluator, encoder, scaled, 0.5)
    return encoder.decode(decryptor.decrypt(y_ct)).real[:n]


def lstm_plaintext_reference(
    w0: np.ndarray,
    w1: np.ndarray,
    x_inputs: list[np.ndarray],
    y0: np.ndarray,
) -> np.ndarray:
    """The matching plaintext recurrence (linearized activation)."""
    y = y0.astype(np.float64)
    for x in x_inputs:
        y = 0.5 + 0.25 * (w0 @ y + w1 @ x)
    return y
