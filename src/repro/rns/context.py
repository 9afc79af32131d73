"""RNS context: a fixed prime basis with precomputed CRT constants.

An :class:`RnsContext` owns the limb primes ``(q_0, ..., q_{L-1})`` and
every constant that RNSconv / ModUp / ModDown (paper Eq. 1-3) and
rescaling need:

- ``q_hat[i]   = Q / q_i``            (CRT punctured products)
- ``q_hat_inv[i] = (Q/q_i)^-1 mod q_i``
- pairwise inverses ``q_i^-1 mod q_j`` for rescale.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import RNSError
from repro.rns.modular import check_modulus, mod_inverse


class RnsContext:
    """Immutable RNS basis ``Q = prod(moduli)`` with CRT precomputation.

    Args:
        moduli: distinct limb primes, each < 2^31.

    The context is hashable on its moduli tuple so evaluator code can
    cache NTT tables per (context, degree).
    """

    def __init__(self, moduli):
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise RNSError("RNS basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise RNSError(f"RNS moduli must be distinct, got {moduli}")
        for q in moduli:
            check_modulus(q)
        self.moduli: tuple[int, ...] = moduli
        self.level_count = len(moduli)

    # ------------------------------------------------------------------
    # Derived constants
    # ------------------------------------------------------------------
    @cached_property
    def modulus_product(self) -> int:
        """The big modulus ``Q = prod(q_i)`` as a Python int."""
        product = 1
        for q in self.moduli:
            product *= q
        return product

    @cached_property
    def punctured_products(self) -> tuple[int, ...]:
        """``q_hat[i] = Q / q_i`` as Python ints."""
        big_q = self.modulus_product
        return tuple(big_q // q for q in self.moduli)

    @cached_property
    def punctured_inverses(self) -> tuple[int, ...]:
        """``q_hat_inv[i] = (Q / q_i)^-1 mod q_i``."""
        return tuple(
            mod_inverse(q_hat % q, q)
            for q, q_hat in zip(self.moduli, self.punctured_products)
        )

    def pairwise_inverse(self, i: int, j: int) -> int:
        """``q_i^-1 mod q_j`` (used by rescale and ModDown)."""
        if i == j:
            raise RNSError(f"q_{i} is not invertible modulo itself")
        return mod_inverse(self.moduli[i] % self.moduli[j], self.moduli[j])

    @cached_property
    def last_limb_inverses(self) -> tuple[int, ...]:
        """``q_{L-1}^-1 mod q_j`` for j < L-1 — the rescale constants."""
        last = self.level_count - 1
        return tuple(self.pairwise_inverse(last, j) for j in range(last))

    # ------------------------------------------------------------------
    # CRT conversions (exact, for tests and encoding)
    # ------------------------------------------------------------------
    def to_rns(self, values) -> np.ndarray:
        """CRT-decompose integer coefficients into an (L, N) residue matrix.

        ``values`` may be arbitrary Python ints (positive or negative).
        """
        ints = [int(v) for v in np.asarray(values, dtype=object).ravel()]
        rows = [
            np.array([v % q for v in ints], dtype=np.uint64)
            for q in self.moduli
        ]
        return np.stack(rows)

    def from_rns(self, residues: np.ndarray, *, signed: bool = True) -> list[int]:
        """CRT-reconstruct integers from an (L, N) residue matrix.

        Args:
            residues: residue matrix, one row per limb.
            signed: map results into ``(-Q/2, Q/2]`` instead of ``[0, Q)``.
        """
        residues = np.asarray(residues)
        if residues.ndim != 2 or residues.shape[0] != self.level_count:
            raise RNSError(
                f"expected ({self.level_count}, N) residues, got "
                f"{residues.shape}"
            )
        big_q = self.modulus_product
        terms = []
        for i, q in enumerate(self.moduli):
            q_hat = self.punctured_products[i]
            q_hat_inv = self.punctured_inverses[i]
            row = residues[i].astype(object)
            terms.append([(int(r) * q_hat_inv % q) * q_hat for r in row])
        n = residues.shape[1]
        out = []
        half = big_q // 2
        for col in range(n):
            v = sum(term[col] for term in terms) % big_q
            if signed and v > half:
                v -= big_q
            out.append(v)
        return out

    # ------------------------------------------------------------------
    # Basis manipulation
    # ------------------------------------------------------------------
    def drop_last(self) -> "RnsContext":
        """Context for the chain with the last limb removed (rescale)."""
        if self.level_count == 1:
            raise RNSError("cannot drop the last remaining limb")
        return RnsContext(self.moduli[:-1])

    def first(self, count: int) -> "RnsContext":
        """Context over the first ``count`` limbs."""
        if not (1 <= count <= self.level_count):
            raise RNSError(
                f"count must be in [1, {self.level_count}], got {count}"
            )
        return RnsContext(self.moduli[:count])

    def extend(self, extra_moduli) -> "RnsContext":
        """Context over ``self.moduli + extra_moduli`` (ModUp target)."""
        return RnsContext(self.moduli + tuple(int(q) for q in extra_moduli))

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, RnsContext) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        bits = [q.bit_length() for q in self.moduli]
        return f"RnsContext(L={self.level_count}, bits={bits})"
