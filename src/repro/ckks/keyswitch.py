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

Poseidon streams every digit through the same NTT and MM/MA cores;
here the digits of one keyswitch share kernel calls the same way. Each
block of digits within the kernel budget
(:func:`repro.kernels.batch_blocks`) takes one ``lift``, one NTT, one
key-product ``mod_mul`` and a pairwise ``mod_add`` fold of its digit
axis; both accumulators then share one INTT call. A small ring runs
the whole keyswitch as one block, while at N=4096 a block is one digit.
Every kernel returns canonical residues and modular addition is
associative, so the result is bit-identical to a digit-by-digit loop
in any block layout.
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


def _sum_digits(backend, terms: np.ndarray, moduli) -> np.ndarray:
    """Fold a ``(b, 2, L, N)`` stack over its digit axis -> ``(2, L, N)``.

    Pairwise: each round adds the first half of the digits to the
    second in one ``mod_add`` call, so ``b`` digits take
    ``ceil(log2 b)`` calls.
    """
    matrix = terms.shape[2:]
    while len(terms) > 1:
        half = len(terms) // 2
        summed = backend.mod_add(
            terms[:half].reshape(-1, *matrix),
            terms[half:2 * half].reshape(-1, *matrix),
            moduli,
        ).reshape(half, 2, *matrix)
        if len(terms) % 2:
            summed = np.concatenate((summed, terms[-1:]))
        terms = summed
    return terms[0]


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
    level = base_ctx.level_count - 1
    moduli = ext_ctx.moduli
    acc = None
    start = 0
    for digits in blocks:
        count, limbs, degree = digits.shape
        key_rows = key.digit_rows(slice(start, start + count), level, params)
        start += count
        # Row 2j meets b_j and row 2j+1 meets a_j: one product call.
        terms = backend.mod_mul(
            np.repeat(digits, 2, axis=0),
            key_rows.reshape(2 * count, limbs, degree),
            moduli,
        ).reshape(count, 2, limbs, degree)
        block_sum = _sum_digits(backend, terms, moduli)
        acc = block_sum if acc is None else backend.mod_add(
            acc, block_sum, moduli
        )
    prod_b, prod_a = intt_stack(acc, moduli)
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
