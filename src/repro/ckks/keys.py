"""Key material: secret, public, relinearization and Galois keys.

Switch keys follow the single-gadget hybrid construction the paper's
Keyswitch pipeline (Eq. 1-3) assumes: for a source key ``s'`` the
switch key is

    ksk = ( -a*s + e + P*s' ,  a )   over the extended basis P*Q,

where ``P`` is the product of the auxiliary primes. Applying it to a
polynomial ``d`` costs one ModUp (Q -> PQ), two NTT-domain products
with the key parts, and one ModDown (PQ -> Q) — exactly the operator
sequence Poseidon's RNSconv/NTT/MM cores execute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.automorphism.galois import galois_element_for_rotation
from repro.ckks.params import ERROR_STD, CkksParameters
from repro.ntt.negacyclic import ntt_negacyclic
from repro.rns.context import RnsContext
from repro.rns.modular import mod_mul
from repro.rns.poly import Domain, RnsPolynomial


# ----------------------------------------------------------------------
# Sampling helpers
# ----------------------------------------------------------------------
def sample_uniform(context: RnsContext, degree: int, rng) -> RnsPolynomial:
    """Uniform polynomial over the basis (independent per limb)."""
    rows = [
        rng.integers(0, q, degree, dtype=np.uint64) for q in context.moduli
    ]
    return RnsPolynomial(np.stack(rows), context, Domain.COEFFICIENT)


def sample_gaussian_integers(degree: int, rng, std: float = ERROR_STD) -> list[int]:
    """Rounded-Gaussian integer coefficients (the RLWE error)."""
    return [int(v) for v in np.round(rng.normal(0.0, std, degree))]


def sample_gaussian(context: RnsContext, degree: int, rng) -> RnsPolynomial:
    """Rounded-Gaussian error polynomial CRT-decomposed into ``context``."""
    return RnsPolynomial.from_integers(
        sample_gaussian_integers(degree, rng), context
    )


def sample_ternary_integers(degree: int, rng, hamming_weight: int = 0) -> list[int]:
    """Ternary secret coefficients in {-1, 0, 1}.

    ``hamming_weight > 0`` fixes the number of nonzeros (sparse secret,
    as bootstrapping-era CKKS deployments use); 0 samples each
    coefficient uniformly from {-1, 0, 1}.
    """
    if hamming_weight:
        coeffs = [0] * degree
        positions = rng.choice(degree, size=hamming_weight, replace=False)
        for pos in positions:
            coeffs[int(pos)] = int(rng.choice((-1, 1)))
        return coeffs
    return [int(v) - 1 for v in rng.integers(0, 3, degree)]


# ----------------------------------------------------------------------
# Key types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SecretKey:
    """The ternary secret ``s``, kept as signed integer coefficients.

    Storing the integer form (not just residues) lets us re-decompose
    ``s`` into any level's basis — needed because ciphertexts shrink
    their basis as the chain is consumed.
    """

    coefficients: tuple[int, ...]

    def poly(self, context: RnsContext) -> RnsPolynomial:
        """The secret over an arbitrary RNS basis (coefficient domain)."""
        return RnsPolynomial.from_integers(list(self.coefficients), context)

    def poly_ntt(self, context: RnsContext) -> RnsPolynomial:
        """The secret over ``context`` in the NTT domain."""
        return ntt_negacyclic(self.poly(context))


@dataclass(frozen=True)
class PublicKey:
    """Encryption key ``(b, a) = (-a*s + e, a)`` over the full chain."""

    b: RnsPolynomial
    a: RnsPolynomial


@dataclass(frozen=True, eq=False)
class SwitchKey:
    """An RNS-gadget keyswitch key: one ``(b_j, a_j)`` pair per limb.

    Pair ``j`` is an RLWE sample over the extended basis ``P*Q`` whose
    ``b_j`` additionally carries ``P * s_source`` *in limb j only*
    (the diagonal CRT injection): modulo ``q_i`` the accumulated sum
    ``sum_j digit_j * ksk_j`` then reconstructs ``P * d * s_source``
    while the auxiliary limbs carry only noise — so ModDown divides
    the payload by ``P`` and shrinks the noise to ``~digit * e / P``.

    ``s_source`` is the key being switched *from*: ``s^2`` for
    relinearization, ``sigma_k(s)`` for rotation. All parts are stored
    in the NTT domain, since every use multiplies them pointwise, in
    one ``(rank, 2, L, N)`` array over the key basis ``context``:
    ``rows[j, 0]`` is ``b_j`` and ``rows[j, 1]`` is ``a_j``, so a block
    of digits meets both parts of its key pairs in a single kernel call.

    The key is a prepared constant
    (:meth:`~repro.kernels.KernelBackend.mod_mul_prepared`): ``rows``
    holds uint32 residues and ``shoup`` their uint32 Shoup companions
    ``floor(w * 2^32 / q_i)``, computed once at key generation. The two
    take the bytes a uint64 ``rows`` would, and a keyswitch multiplies
    by them with no per-call conversion, summing the products lazily in
    one uint64 buffer that it reduces once
    (:func:`repro.ckks.keyswitch.switch_digits`).
    """

    rows: np.ndarray
    shoup: np.ndarray
    context: RnsContext
    source_label: str

    @property
    def rank(self) -> int:
        """Number of gadget digits (= chain length at generation)."""
        return self.rows.shape[0]

    def level_spans(self, level: int) -> tuple[tuple[slice, slice], ...]:
        """Where a level-``level`` keyswitch reads its key rows.

        Pairs of ``(extended-basis limbs, key-basis limbs)`` slices: the
        extended basis at ``level`` is chain limbs [0..level] plus all
        aux limbs. At the top level that is the whole key basis, one
        pair; below it the chain prefix and the aux limbs are two pairs,
        each a view of ``rows``, so no level copies the key.
        """
        if level + 1 == self.rank:
            return ((slice(None), slice(None)),)
        chain = slice(0, level + 1)
        return ((chain, chain), (slice(level + 1, None), slice(self.rank, None)))


class KeyChain:
    """All key material for one party: secret, public, relin, Galois.

    Use :meth:`generate` for a fresh keyset. Galois keys are created
    lazily via :meth:`rotation_key` so workloads only pay for the
    rotation steps they use (the software analogue of loading only the
    needed keyswitch keys into HBM).
    """

    def __init__(
        self,
        params: CkksParameters,
        secret: SecretKey,
        public: PublicKey,
        relin: SwitchKey,
        rng,
    ):
        self.params = params
        self.secret = secret
        self.public = public
        self.relin = relin
        self._rng = rng
        self._galois_keys: dict[int, SwitchKey] = {}

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        params: CkksParameters,
        *,
        seed: int | None = None,
    ) -> "KeyChain":
        """Generate a full keyset (secret, public, relinearization)."""
        rng = np.random.default_rng(seed)
        secret_coeffs = sample_ternary_integers(
            params.degree, rng, params.secret_hamming_weight
        )
        secret = SecretKey(tuple(secret_coeffs))

        ctx = params.context
        s = secret.poly_ntt(ctx)
        a = ntt_negacyclic(sample_uniform(ctx, params.degree, rng))
        e = ntt_negacyclic(sample_gaussian(ctx, params.degree, rng))
        b = (-(a.hadamard(s))) + e
        public = PublicKey(b=b, a=a)
        # Relinearization switches from s^2 back to s.
        s_sq = _negacyclic_square_integers(secret_coeffs, params.degree)
        relin = _make_switch_key(params, secret, rng, s_sq, "relin")
        return cls(params, secret, public, relin, rng)

    # ------------------------------------------------------------------
    def rotation_key(self, steps: int) -> SwitchKey:
        """Galois key for a rotation by ``steps`` slots (cached)."""
        galois = galois_element_for_rotation(self.params.degree, steps)
        return self.galois_key(galois)

    def galois_key(self, galois: int) -> SwitchKey:
        """Switch key for an arbitrary Galois element (cached)."""
        galois %= 2 * self.params.degree
        key = self._galois_keys.get(galois)
        if key is None:
            rotated = _apply_automorphism_integers(
                list(self.secret.coefficients), self.params.degree, galois
            )
            key = _make_switch_key(
                self.params, self.secret, self._rng, rotated,
                f"galois:{galois}",
            )
            self._galois_keys[galois] = key
        return key

    def __repr__(self) -> str:
        return (
            f"KeyChain(N={self.params.degree}, galois_keys="
            f"{sorted(self._galois_keys)})"
        )


def _make_switch_key(
    params: CkksParameters,
    secret: SecretKey,
    rng,
    source_integers: list[int],
    label: str,
) -> SwitchKey:
    """Build the per-limb gadget key for ``source`` (see SwitchKey).

    Pair ``j``: fresh RLWE sample ``(-a_j*s + e_j, a_j)`` over the
    key basis PQ, plus ``(P mod q_j) * source`` injected into limb
    ``j`` of the ``b`` part only. Pairs are written as uint32 residues
    one at a time, then the companions one limb at a time, so no
    uint64 copy of the whole key exists.
    """
    key_ctx = params.key_context
    s = secret.poly_ntt(key_ctx)
    source_ntt = ntt_negacyclic(
        RnsPolynomial.from_integers(source_integers, key_ctx)
    )
    p_product = params.aux_product
    rank = len(params.chain_moduli)
    rows = np.empty(
        (rank, 2, key_ctx.level_count, params.degree), dtype=np.uint32
    )
    for j in range(rank):
        a = ntt_negacyclic(sample_uniform(key_ctx, params.degree, rng))
        e = ntt_negacyclic(sample_gaussian(key_ctx, params.degree, rng))
        b = (-(a.hadamard(s))) + e
        q_j = params.chain_moduli[j]
        rows[j, 0] = b.data
        injected = mod_mul(
            np.uint64(p_product % q_j), source_ntt.data[j], q_j
        )
        rows[j, 0, j] = (injected + b.data[j]) % np.uint64(q_j)
        rows[j, 1] = a.data
    return SwitchKey(
        rows=rows,
        shoup=kernels.shoup_companions(rows, key_ctx.moduli),
        context=key_ctx,
        source_label=label,
    )


# ----------------------------------------------------------------------
# Integer-domain helpers (exact, independent of any modulus)
# ----------------------------------------------------------------------
def _negacyclic_square_integers(coeffs: list[int], n: int) -> list[int]:
    """``s^2`` in Z[x]/(x^n + 1) over the integers (exact).

    The secret is ternary so the full convolution stays far below
    int64 range; numpy's exact integer convolve is safe and fast.
    """
    arr = np.asarray(coeffs, dtype=np.int64)
    full = np.convolve(arr, arr)  # length 2n - 1, |values| <= n
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return [int(v) for v in out]


def _apply_automorphism_integers(coeffs: list[int], n: int, k: int) -> list[int]:
    """``sigma_k`` on signed integer coefficients (exact)."""
    out = [0] * n
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        idx = (i * k) % n
        sign = -1 if (i * k) % (2 * n) >= n else 1
        out[idx] = sign * c
    return out
