"""The keyswitch primitive: digit decomposition -> NTT products -> ModDown.

This is the operation the paper spends most of its architecture on
(Fig. 4, RNSconv). Given a polynomial ``d`` encrypted under a source
key ``s'`` and the per-limb gadget key of :class:`~repro.ckks.keys.
SwitchKey`:

1. **Decompose/ModUp** (Eq. 3): each RNS digit ``d_j = [d]_{q_j}`` is
   lifted exactly into the extended basis ``Q_level ∪ P`` (the digit is
   a small integer, so the lift is a plain remainder per modulus — the
   MM/MA cascade of the hardware RNSconv unit).
2. Pointwise NTT-domain products of each lifted digit with key pair
   ``j``, accumulated across digits (MM + MA cores).
3. **ModDown** (Eq. 2): divide the accumulators by ``P`` and return to
   ``Q_level``.

The output pair ``(delta_0, delta_1)`` satisfies
``delta_0 + delta_1 * s ≈ d * s'`` with noise ``~ sum_j d_j e_j / P``.

Poseidon streams every digit through the same NTT and MM/MA cores
against key material fixed ahead of time; here the digits of one
keyswitch share kernel calls the same way. Each block of digits within
the kernel budget (:func:`repro.kernels.batch_blocks`) takes one
``lift`` and one NTT; the block then meets both parts of its key pairs
in one ``mod_mul_prepared`` call per key span (one at the top level,
two below it: :meth:`~repro.ckks.keys.SwitchKey.level_spans`), against
the key's stored Shoup companions. The products accumulate lazily into
one uint64 buffer per keyswitch, each adding less than ``2q``, and the
buffer is reduced once (``barrett_reduce``) before both accumulators
share one INTT call. A small ring runs the whole keyswitch as one
block, while at N=4096 a block is one digit. Modular addition is
associative and the reduction returns canonical residues, so the
result is bit-identical to a digit-by-digit loop in any block layout.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro import kernels
from repro.errors import EvaluationError
from repro.ckks.keys import SwitchKey
from repro.ckks.params import CkksParameters
from repro.ntt.negacyclic import intt_stack, ntt_stack
from repro.obs import metrics
from repro.rns.basis_convert import mod_down
from repro.rns.context import RnsContext
from repro.rns.poly import Domain, RnsPolynomial


def ntt_digits(d: RnsPolynomial, ext_ctx: RnsContext) -> Iterator[np.ndarray]:
    """The NTT-domain lifted digits of ``d``, one budget block at a time.

    Digit ``j`` is limb ``j`` of ``d``, bounded by its source prime
    (< 2^31), so one remainder per modulus of ``ext_ctx`` lifts it
    exactly; a block takes one ``lift`` and one NTT call.
    """
    backend = kernels.get_backend()
    digit_elements = ext_ctx.level_count * d.degree
    for block in kernels.batch_blocks(d.level_count, digit_elements):
        lifted = backend.lift(d.data[block], ext_ctx.moduli)
        yield ntt_stack(lifted, ext_ctx.moduli)


def switch_digits(
    blocks: Iterable[np.ndarray],
    key: SwitchKey,
    params: CkksParameters,
    base_ctx: RnsContext,
    ext_ctx: RnsContext,
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Key product, digit sum, INTT and ModDown of NTT-domain digits.

    Args:
        blocks: consecutive ``(b, L_ext, N)`` blocks of the NTT-domain
            lifted digits, digit 0 first.
        key: the switch key; digit ``j`` meets pair ``j``.
        params: parameter set (provides the aux basis).
        base_ctx: the input's basis ``Q_level``.
        ext_ctx: the extended basis ``Q_level ∪ P`` of the digits.

    Returns:
        ``(delta_0, delta_1)`` over ``base_ctx``, coefficient domain.
    """
    backend = kernels.get_backend()
    moduli = ext_ctx.moduli
    spans = key.level_spans(base_ctx.level_count - 1)
    # Row 0 accumulates the products with b_j, row 1 those with a_j.
    acc = np.zeros((2, ext_ctx.level_count, params.degree), dtype=np.uint64)
    start = 0
    for digits in blocks:
        pairs = slice(start, start + len(digits))
        start += len(digits)
        for ext, rows in spans:
            backend.mod_mul_prepared(
                digits[:, None, ext],
                key.rows[pairs, :, rows],
                key.shoup[pairs, :, rows],
                moduli[ext],
                acc=acc[:, ext],
            )
    # At most rank lazy terms below 2q each: far below q^2.
    prod_b, prod_a = intt_stack(backend.barrett_reduce(acc, moduli), moduli)
    aux = params.aux_context
    return (
        mod_down(RnsPolynomial(prod_b, ext_ctx, Domain.COEFFICIENT), base_ctx, aux),
        mod_down(RnsPolynomial(prod_a, ext_ctx, Domain.COEFFICIENT), base_ctx, aux),
    )


def apply_switch_key(
    d: RnsPolynomial,
    key: SwitchKey,
    params: CkksParameters,
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Switch ``d`` from the key's source secret to the canonical ``s``.

    Args:
        d: coefficient-domain polynomial over a chain-prefix basis
           (e.g. the ``d_2`` part for relinearization, or a rotated
           ``c_1`` for rotation keyswitch).
        key: the per-limb gadget switch key for the source secret.
        params: parameter set (provides the aux basis).

    Returns:
        ``(delta_0, delta_1)`` over ``d``'s basis, coefficient domain.
    """
    if d.domain is not Domain.COEFFICIENT:
        raise EvaluationError("keyswitch input must be in coefficient domain")
    level = d.level_count - 1
    if level + 1 > key.rank:
        raise EvaluationError(
            f"switch key has rank {key.rank}, input needs {level + 1} digits"
        )
    ext_ctx = params.key_context_at_level(level)

    reg = metrics.active()
    if reg is not None:
        reg.counter("ckks.keyswitch.calls").inc()
        reg.counter("ckks.keyswitch.digits").inc(level + 1)
        # level+1 forward digit NTTs plus two inverse transforms, each
        # over every limb of the extended basis.
        reg.counter("ckks.keyswitch.ntt_limb_transforms").inc(
            (level + 3) * ext_ctx.level_count
        )

    return switch_digits(ntt_digits(d, ext_ctx), key, params, d.context, ext_ctx)
