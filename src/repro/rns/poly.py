"""RNS polynomials: the value type everything else manipulates.

An :class:`RnsPolynomial` is an (L, N) ``uint64`` matrix — one residue
row per limb prime — tagged with the ring degree, its RNS context and
the representation domain (coefficient vs. NTT/point-value). This is
exactly the data layout Poseidon streams through HBM: each limb row is
a contiguous vector that the 512-lane pipeline consumes.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import RNSError
from repro.rns.context import RnsContext
from repro.utils.bitops import is_power_of_two


def _backend():
    """The active kernel backend, imported lazily.

    ``repro.kernels`` imports the NTT subpackage, whose façade imports
    this module back — a top-level import here would leave one of the
    three partially initialized depending on entry point.
    """
    from repro import kernels

    return kernels.get_backend()


class Domain(enum.Enum):
    """Representation domain of a polynomial's residues."""

    COEFFICIENT = "coefficient"
    NTT = "ntt"


class RnsPolynomial:
    """An element of ``R_Q = Z_Q[x] / (x^N + 1)`` in RNS representation.

    Args:
        data: (L, N) uint64 residue matrix (rows reduced mod each q_i).
        context: the RNS basis the rows live in.
        domain: coefficient or NTT (point-value) representation.

    The class is deliberately *value-like*: arithmetic returns new
    polynomials and never mutates operands, so evaluator pipelines can
    share inputs safely.
    """

    __slots__ = ("data", "context", "domain")

    def __init__(self, data: np.ndarray, context: RnsContext, domain: Domain):
        data = np.asarray(data, dtype=np.uint64)
        if data.ndim != 2:
            raise RNSError(f"expected 2-D residues, got shape {data.shape}")
        if data.shape[0] != context.level_count:
            raise RNSError(
                f"residue rows ({data.shape[0]}) != context limbs "
                f"({context.level_count})"
            )
        if not is_power_of_two(data.shape[1]):
            raise RNSError(f"degree must be a power of two, got {data.shape[1]}")
        self.data = data
        self.context = context
        self.domain = domain

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, degree: int, context: RnsContext,
              domain: Domain = Domain.COEFFICIENT) -> "RnsPolynomial":
        """The zero polynomial of the given degree/basis."""
        return cls(
            np.zeros((context.level_count, degree), dtype=np.uint64),
            context,
            domain,
        )

    @classmethod
    def from_integers(cls, coefficients, context: RnsContext) -> "RnsPolynomial":
        """CRT-decompose signed integer coefficients (coefficient domain)."""
        data = context.to_rns(coefficients)
        return cls(data, context, Domain.COEFFICIENT)

    @classmethod
    def constant(cls, value: int, degree: int, context: RnsContext) -> "RnsPolynomial":
        """The constant polynomial ``value`` (coefficient domain)."""
        coeffs = [int(value)] + [0] * (degree - 1)
        return cls.from_integers(coeffs, context)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Ring degree N."""
        return self.data.shape[1]

    @property
    def level_count(self) -> int:
        """Number of RNS limbs L."""
        return self.data.shape[0]

    def to_integers(self, *, signed: bool = True) -> list[int]:
        """CRT-reconstruct the coefficients as Python ints.

        Only valid in the coefficient domain.
        """
        if self.domain is not Domain.COEFFICIENT:
            raise RNSError("to_integers requires the coefficient domain")
        return self.context.from_rns(self.data, signed=signed)

    # ------------------------------------------------------------------
    # Element-wise arithmetic (limb-parallel, like the MA/MM cores)
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.context != other.context:
            raise RNSError(
                f"mismatched RNS bases: {self.context} vs {other.context}"
            )
        if self.degree != other.degree:
            raise RNSError(
                f"mismatched degrees: {self.degree} vs {other.degree}"
            )
        if self.domain is not other.domain:
            raise RNSError(
                f"mismatched domains: {self.domain} vs {other.domain}"
            )

    def _map_limbs(self, op_name: str, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        op = getattr(_backend(), op_name)
        data = op(self.data, other.data, self.context.moduli)
        return RnsPolynomial(data, self.context, self.domain)

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        return self._map_limbs("mod_add", other)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        return self._map_limbs("mod_sub", other)

    def __neg__(self) -> "RnsPolynomial":
        data = _backend().mod_neg(self.data, self.context.moduli)
        return RnsPolynomial(data, self.context, self.domain)

    def hadamard(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Element-wise product — polynomial product iff both are in NTT."""
        return self._map_limbs("mod_mul", other)

    def scalar_mul(self, scalar: int) -> "RnsPolynomial":
        """Multiply every residue by a Python-int scalar (any domain)."""
        scalars = [int(scalar)] * self.level_count
        data = _backend().mod_scalar_mul(
            self.data, scalars, self.context.moduli
        )
        return RnsPolynomial(data, self.context, self.domain)

    def scalar_mul_per_limb(self, scalars) -> "RnsPolynomial":
        """Multiply limb ``i`` by ``scalars[i]`` (rescale/ModDown helper)."""
        if len(scalars) != self.level_count:
            raise RNSError(
                f"need {self.level_count} scalars, got {len(scalars)}"
            )
        data = _backend().mod_scalar_mul(
            self.data, [int(s) for s in scalars], self.context.moduli
        )
        return RnsPolynomial(data, self.context, self.domain)

    # ------------------------------------------------------------------
    # Limb manipulation
    # ------------------------------------------------------------------
    def drop_last_limb(self) -> "RnsPolynomial":
        """Drop the last residue row (companion to context.drop_last)."""
        return RnsPolynomial(
            self.data[:-1].copy(), self.context.drop_last(), self.domain
        )

    def with_domain(self, domain: Domain) -> "RnsPolynomial":
        """Retag the domain without touching data (transform code only)."""
        return RnsPolynomial(self.data, self.context, domain)

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.data.copy(), self.context, self.domain)

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RnsPolynomial)
            and self.context == other.context
            and self.domain is other.domain
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return (
            f"RnsPolynomial(N={self.degree}, L={self.level_count}, "
            f"domain={self.domain.value})"
        )


def stack_residues(polys, domain: Domain) -> np.ndarray:
    """The ``(B, L, N)`` residue stack of same-basis polynomials.

    One operand for a batched kernel call: every polynomial must share
    the first one's basis and degree and be in ``domain``.
    """
    first = polys[0]
    if first.domain is not domain:
        raise RNSError(
            f"expected {domain.value}-domain polynomials, got "
            f"{first.domain.value}"
        )
    for other in polys[1:]:
        first._check_compatible(other)
    return np.stack([p.data for p in polys])


def unstack_residues(
    stack: np.ndarray, context: RnsContext, domain: Domain
) -> tuple[RnsPolynomial, ...]:
    """Split a ``(B, L, N)`` kernel result back into ``B`` polynomials."""
    return tuple(RnsPolynomial(matrix, context, domain) for matrix in stack)
