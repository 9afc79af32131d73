"""Fast RNS basis conversion: RNSconv, ModUp and ModDown (paper Eq. 1-3).

Keyswitching needs polynomials moved between the ciphertext basis
``B = {q_0..q_{l-1}}`` and an auxiliary basis ``C = {p_0..p_{k-1}}``
without ever reconstructing the big integer. The classic fast basis
conversion computes, per target prime ``p_i``,

    conv(a)_i = sum_j ( [a_j * q_hat_j^{-1}]_{q_j} * q_hat_j ) mod p_i

which equals ``a mod p_i`` up to a small multiple of ``Q`` (absorbed
into noise). Poseidon implements this as a cascade of MM and MA cores
(paper Fig. 4) rather than a dedicated unit; the functions here are the
exact software mirror and are traced as MM/MA operator tasks by the
compiler.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import kernels
from repro.errors import RNSError
from repro.rns.context import RnsContext
from repro.rns.modular import mod_inverse
from repro.rns.poly import Domain, RnsPolynomial


class BasisConverter:
    """Precomputed fast conversion from basis ``source`` to ``target``.

    The constructor precomputes ``q_hat_j^{-1} mod q_j`` (source side)
    and the table ``q_hat_j mod p_i`` (target side); :meth:`convert`
    then needs only element-wise multiplications and accumulations —
    the MM/MA cascade of the hardware RNSconv unit.
    """

    def __init__(self, source: RnsContext, target: RnsContext):
        overlap = set(source.moduli) & set(target.moduli)
        if overlap:
            raise RNSError(
                f"source and target bases must be disjoint, share {overlap}"
            )
        self.source = source
        self.target = target
        # table[j][i] = (Q/q_j) mod p_i
        self._q_hat_mod_target = np.array(
            [
                [q_hat % p for p in target.moduli]
                for q_hat in source.punctured_products
            ],
            dtype=np.uint64,
        )

    def convert(self, poly: RnsPolynomial) -> RnsPolynomial:
        """RNSconv: map a coefficient-domain polynomial into ``target``.

        The result equals ``a + e*Q (mod p_i)`` for some small integer
        ``e`` per coefficient (0 <= e < l); exact for inputs reduced to
        ``[0, Q)`` whose CRT lift is below ``Q`` — the usual FHE noise
        argument absorbs the ``e*Q`` term.
        """
        if poly.context != self.source:
            raise RNSError(
                f"polynomial basis {poly.context} != converter source "
                f"{self.source}"
            )
        if poly.domain is not Domain.COEFFICIENT:
            raise RNSError("RNSconv operates in the coefficient domain")

        backend = kernels.get_backend()
        # Step 1 (MM): y_j = [a_j * q_hat_j^{-1}]_{q_j}  per source limb.
        y = backend.mod_scalar_mul(
            poly.data, self.source.punctured_inverses, self.source.moduli
        )
        # Step 2 (MM + MA cascade): accumulate sum_j y_j * (Q/q_j) mod p_i.
        out = backend.basis_convert(
            y, self._q_hat_mod_target, self.target.moduli
        )
        return RnsPolynomial(out, self.target, Domain.COEFFICIENT)


def mod_up(poly: RnsPolynomial, aux: RnsContext) -> RnsPolynomial:
    """ModUp (Eq. 3): extend ``a_B`` to the concatenated basis ``B ∪ C``.

    Returns a polynomial over ``poly.context.extend(aux.moduli)`` whose
    first ``l`` rows are the original residues and whose remaining rows
    come from RNSconv.
    """
    converter = BasisConverter(poly.context, aux)
    converted = converter.convert(poly)
    extended = poly.context.extend(aux.moduli)
    data = np.vstack([poly.data, converted.data])
    return RnsPolynomial(data, extended, Domain.COEFFICIENT)


def mod_down(
    poly: RnsPolynomial,
    base: RnsContext,
    aux: RnsContext,
) -> RnsPolynomial:
    """ModDown (Eq. 2): reduce ``(a_B, b_C)`` back to basis ``B``.

    ``poly`` must live over the concatenated basis ``B ∪ C``. Computes
    ``(a_B - RNSconv(b_C → B)) * P^{-1} mod q_j`` where ``P = prod(C)``,
    i.e. an approximate division by the auxiliary modulus that keeps
    the keyswitch noise small.
    """
    expected = base.moduli + aux.moduli
    if poly.context.moduli != expected:
        raise RNSError(
            f"polynomial basis {poly.context.moduli} != base+aux {expected}"
        )
    if poly.domain is not Domain.COEFFICIENT:
        raise RNSError("ModDown operates in the coefficient domain")

    base_limbs = base.level_count
    part_base = RnsPolynomial(poly.data[:base_limbs].copy(), base, Domain.COEFFICIENT)
    part_aux = RnsPolynomial(poly.data[base_limbs:].copy(), aux, Domain.COEFFICIENT)

    converter, inv_p = _mod_down_constants(base, aux)
    correction = converter.convert(part_aux)
    diff = part_base - correction
    return diff.scalar_mul_per_limb(inv_p)


@lru_cache(maxsize=256)
def _mod_down_constants(
    base: RnsContext, aux: RnsContext
) -> tuple[BasisConverter, tuple[int, ...]]:
    """ModDown's constants for one (base, aux) pair, built once: the
    aux -> base converter and ``P^{-1} mod q_j`` per base limb."""
    p_product = aux.modulus_product
    inv_p = tuple(mod_inverse(p_product % q, q) for q in base.moduli)
    return BasisConverter(aux, base), inv_p


def rescale(poly: RnsPolynomial) -> RnsPolynomial:
    """Drop the last limb with CKKS rescaling semantics.

    Computes ``round(a / q_{l-1})`` in RNS: for each remaining limb j,
    ``a'_j = q_{l-1}^{-1} * (a_j - a_{l-1}) mod q_j`` (the paper's
    Rescale formula in Section II-A.3).
    """
    ctx = poly.context
    if ctx.level_count < 2:
        raise RNSError("rescale needs at least two limbs")
    if poly.domain is not Domain.COEFFICIENT:
        raise RNSError("rescale operates in the coefficient domain")

    last = ctx.level_count - 1
    new_ctx = ctx.drop_last()
    backend = kernels.get_backend()
    # a_{l-1} lifted into every surviving limb, then the per-limb
    # (a_j - a_{l-1}) * q_{l-1}^{-1} — all whole-matrix kernel calls.
    lifted = backend.lift(poly.data[last], new_ctx.moduli)
    diff = backend.mod_sub(poly.data[:last], lifted, new_ctx.moduli)
    data = backend.mod_scalar_mul(
        diff, ctx.last_limb_inverses, new_ctx.moduli
    )
    return RnsPolynomial(data, new_ctx, Domain.COEFFICIENT)
