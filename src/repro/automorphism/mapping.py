"""Direct (naive) automorphism index mapping — paper Eq. 4.

The automorphism ``sigma_k : a(x) -> a(x^k)`` on the negacyclic ring
``Z_q[x]/(x^N + 1)`` sends coefficient ``i`` to position ``i*k mod N``
with a sign flip when ``i*k mod 2N`` lands in the upper half (because
``x^N = -1``). This module is the element-by-element implementation:
the baseline "Auto" design the paper's Tables VIII/IX ablate against,
and the correctness oracle for HFAuto.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AutomorphismError
from repro.rns.poly import Domain, RnsPolynomial
from repro.utils.bitops import is_power_of_two


def _check_galois(n: int, k: int) -> int:
    if not is_power_of_two(n):
        raise AutomorphismError(f"degree must be a power of two, got {n}")
    k %= 2 * n
    if k % 2 == 0:
        raise AutomorphismError(
            f"Galois element must be odd (a unit mod 2N), got {k}"
        )
    return k


def automorphism_indices(n: int, k: int) -> np.ndarray:
    """Destination index ``i*k mod N`` for each source coefficient ``i``."""
    k = _check_galois(n, k)
    i = np.arange(n, dtype=np.int64)
    return (i * k) % n


def automorphism_signs(n: int, k: int) -> np.ndarray:
    """Sign (+1/-1) per source coefficient from Eq. 4.

    ``sgn = -1`` when ``i*k mod 2N >= N`` (the term wraps past x^N and
    picks up the ``x^N = -1`` factor), else ``+1``.
    """
    k = _check_galois(n, k)
    i = np.arange(n, dtype=np.int64)
    wrapped = (i * k) % (2 * n)
    return np.where(wrapped >= n, -1, 1).astype(np.int64)


def apply_automorphism_row(row: np.ndarray, q: int, k: int) -> np.ndarray:
    """Apply ``sigma_k`` to one residue row (coefficient domain).

    This is the naive scatter: for each source index ``i``, write
    ``±row[i]`` to ``i*k mod N``. One index map per element — exactly
    what the baseline Auto core does one element per cycle.
    """
    row = np.asarray(row, dtype=np.uint64)
    n = row.shape[0]
    dest = automorphism_indices(n, k)
    signs = automorphism_signs(n, k)
    out = np.zeros_like(row)
    negated = np.where(row == 0, np.uint64(0), np.uint64(q) - row)
    values = np.where(signs > 0, row, negated)
    out[dest] = values
    return out


def apply_automorphism_poly(poly: RnsPolynomial, k: int) -> RnsPolynomial:
    """Apply ``sigma_k`` to every limb of a coefficient-domain polynomial."""
    if poly.domain is not Domain.COEFFICIENT:
        raise AutomorphismError(
            "automorphism operates on the coefficient domain; INTT first"
        )
    rows = [
        apply_automorphism_row(poly.data[i], q, k)
        for i, q in enumerate(poly.context.moduli)
    ]
    return RnsPolynomial(np.stack(rows), poly.context, poly.domain)


def compose_galois(n: int, k1: int, k2: int) -> int:
    """Galois element of ``sigma_{k1} ∘ sigma_{k2}`` (= k1*k2 mod 2N)."""
    _check_galois(n, k1)
    _check_galois(n, k2)
    return (k1 * k2) % (2 * n)


def eval_permutation(n: int, k: int) -> np.ndarray:
    """Source indices of ``sigma_k`` in the *evaluation* domain.

    The natural-order negacyclic NTT evaluates at ``psi^(2t+1)``, so
    ``sigma_k(a)`` at point ``t`` equals ``a`` at the point ``t'`` with
    ``2t'+1 = (2t+1)*k mod 2N``: ``NTT(sigma_k(a))[t] = NTT(a)[t']``
    — a gather by this index array. Unlike the coefficient-domain map
    (Eq. 4), this is a pure permutation — no sign flips — which is why
    hoisted keyswitching rotates NTT-resident digits for free.
    """
    k = _check_galois(n, k)
    t = np.arange(n, dtype=np.int64)
    odd = ((2 * t + 1) * k) % (2 * n)
    return (odd - 1) // 2


def apply_automorphism_eval(poly: RnsPolynomial, k: int) -> RnsPolynomial:
    """Apply ``sigma_k`` to an NTT-domain polynomial (all limbs)."""
    if poly.domain is not Domain.NTT:
        raise AutomorphismError(
            "evaluation-domain automorphism needs an NTT-domain input"
        )
    src = eval_permutation(poly.degree, k)
    return RnsPolynomial(poly.data[:, src], poly.context, Domain.NTT)
