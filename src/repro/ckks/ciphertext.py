"""Plaintext and ciphertext value types.

A CKKS ciphertext is a tuple of RNS polynomials (normally two; three
transiently after multiplication before relinearization) plus metadata:
the scale carried by the encrypted message and the level (how much of
the modulus chain remains).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import EvaluationError
from repro.rns.poly import RnsPolynomial


@dataclass(frozen=True)
class Plaintext:
    """An encoded (not encrypted) message: polynomial + scale."""

    poly: RnsPolynomial
    scale: float

    @property
    def level(self) -> int:
        """Level implied by the polynomial's limb count."""
        return self.poly.level_count - 1


@dataclass(frozen=True)
class Ciphertext:
    """An RLWE ciphertext ``(c_0, c_1, ...)`` with scale and level.

    Decryption evaluates ``sum_i c_i * s^i`` — two parts for a fresh
    ciphertext, three after an unrelinearized multiplication.

    Attributes:
        parts: the component polynomials, all over the same basis.
        scale: the message scale Delta' currently carried.
        level: index into the modulus chain (level+1 limbs remain).
    """

    parts: tuple[RnsPolynomial, ...]
    scale: float
    level: int

    def __post_init__(self):
        if len(self.parts) < 2:
            raise EvaluationError(
                f"ciphertext needs >= 2 parts, got {len(self.parts)}"
            )
        limbs = {p.level_count for p in self.parts}
        if len(limbs) != 1:
            raise EvaluationError(
                f"ciphertext parts disagree on limb count: {limbs}"
            )
        if self.parts[0].level_count != self.level + 1:
            raise EvaluationError(
                f"level {self.level} implies {self.level + 1} limbs, "
                f"parts have {self.parts[0].level_count}"
            )

    @property
    def size(self) -> int:
        """Number of polynomial parts (2 = relinearized)."""
        return len(self.parts)

    @property
    def degree(self) -> int:
        """Ring degree N."""
        return self.parts[0].degree

    def with_parts(self, parts) -> "Ciphertext":
        """Copy with replaced parts (same scale/level)."""
        return replace(self, parts=tuple(parts))

    def __repr__(self) -> str:
        return (
            f"Ciphertext(parts={len(self.parts)}, N={self.degree}, "
            f"level={self.level}, scale={self.scale:.3e})"
        )
