"""Kernel backend interface and shared per-basis twiddle caches.

A *kernel backend* owns the arithmetic hot paths of the functional
plane: negacyclic NTT/INTT over whole ``(L, N)`` residue matrices and
the element-wise modular operators (the software MA/MM/SBT cores).
Everything above this layer — :class:`~repro.rns.poly.RnsPolynomial`,
the basis-conversion cascade, keyswitching, the evaluator — calls
through :func:`repro.kernels.get_backend` and never touches a limb
loop directly, so swapping the execution strategy is a one-line (or
one-env-var) decision.

Three implementations ship:

- ``reference`` (:mod:`repro.kernels.reference`) — the original
  scalar/per-limb code paths, one numpy call per limb row.
- ``batched`` (:mod:`repro.kernels.batched`) — vectorized across all
  ``L`` limbs at once with per-limb modulus broadcasting, mirroring
  how Poseidon's 512-lane pipeline consumes contiguous limb rows.
- ``numpy`` (:mod:`repro.kernels.numpy_backend`) — fully vectorized
  uint64 butterflies (Shoup multiplication, lazy reduction, branch-free
  conditional subtracts) with a 128-bit Barrett path for wide moduli.

Backends are required to be **bit-identical**: every operator computes
an exact modular result (residues reduced into ``[0, q_i)``), so the
output of any op is uniquely defined and the differential suite in
``tests/kernels`` can assert equality element by element.

Batch axis
----------
``ntt``, ``intt``, ``barrett_reduce`` and every element-wise op accept
either one ``(L, N)`` matrix or a ``(B, L, N)`` stack of ``B`` matrices
over the same ``L`` moduli, and return the same shape; ``lift`` maps
``(N,)`` to ``(L, N)`` and ``(B, N)`` rows to ``(B, L, N)``. The limb
axis is always second to last, so no backend can read a batch as
limbs. A second operand must have exactly the first operand's shape
(callers broadcast explicitly, e.g. with ``np.broadcast_to``). Results
are the per-matrix results stacked, bit for bit: ``numpy`` broadcasts
its per-limb plans over ``B``, while ``reference`` and ``batched`` run
their per-matrix code on each ``(L, N)`` slice. A batch is one kernel
call — the software counterpart of Poseidon streaming every keyswitch
digit through the same cores. ``basis_convert`` keeps its ``(l, N)``
contract.

Callers split the stacks they build (keyswitch digits, ciphertext
parts) into blocks of at most :data:`BATCH_ELEMENTS` residues with
:func:`batch_blocks`, and make one call per block and step. Batching
pays where rows are short and per-call overhead dominates; on long rows
one matrix already fills the budget, so a block holds one matrix and
the call shapes and temporaries stay those of a per-matrix loop.
"""

from __future__ import annotations

import abc
from functools import lru_cache

import numpy as np

from repro.errors import KernelError
from repro.ntt.tables import get_twiddle_table
from repro.obs import metrics
from repro.utils.bitops import bit_reverse_permutation


class BatchedTwiddleTable:
    """Per-basis twiddle matrices: all limb tables stacked into (L, N).

    The per-``(q, n)`` :class:`~repro.ntt.tables.TwiddleTable` objects
    are shared with the reference kernels (same underlying cache), so
    both backends literally read the same root-of-unity values.
    """

    def __init__(self, moduli: tuple[int, ...], n: int):
        tables = [get_twiddle_table(q, n) for q in moduli]
        self.moduli = moduli
        self.n = n
        #: (L, 1) and (L, 1, 1) modulus columns for broadcasting.
        self.q_col = np.array(moduli, dtype=np.uint64)[:, None]
        self.q_cube = self.q_col[:, :, None]
        self.psi_powers = np.stack([t.psi_powers for t in tables])
        self.ipsi_powers = np.stack([t.ipsi_powers for t in tables])
        self.psi_powers_bitrev = np.stack(
            [t.psi_powers_bitrev for t in tables]
        )
        self.ipsi_powers_bitrev = np.stack(
            [t.ipsi_powers_bitrev for t in tables]
        )
        self.omega_powers = np.stack([t.omega_powers for t in tables])
        # omega has order n, so omega^{-e} = omega^{n-e}: the inverse
        # power table is a pure re-indexing of the forward one.
        inv_idx = (self.n - np.arange(self.n)) % self.n
        self.inv_omega_powers = self.omega_powers[:, inv_idx]
        self.inv_n_col = np.array(
            [t.inv_n for t in tables], dtype=np.uint64
        )[:, None]
        self.bitrev = bit_reverse_permutation(n)


#: Most residues in one block of a stack that callers batch. A
#: bootstrapping keyswitch at N=64 (16 digits x 17 limbs x 64 = 17,408
#: residues) is one block; at N=4096 one 9-limb digit (36,864) already
#: exceeds it, so each block is one digit.
BATCH_ELEMENTS = 1 << 15


def batch_blocks(count: int, matrix_elements: int) -> list[slice]:
    """Consecutive slices of ``count`` stacked matrices within the budget.

    A block holds as many ``matrix_elements``-residue matrices as fit in
    :data:`BATCH_ELEMENTS`, and always at least one.
    """
    per_block = max(1, BATCH_ELEMENTS // matrix_elements)
    return [
        slice(start, min(start + per_block, count))
        for start in range(0, count, per_block)
    ]


@lru_cache(maxsize=256)
def get_batched_tables(moduli: tuple[int, ...], n: int) -> BatchedTwiddleTable:
    """Process-wide cache of stacked twiddle tables per (basis, degree)."""
    return BatchedTwiddleTable(moduli, n)


def check_matrix(data: np.ndarray, moduli) -> np.ndarray:
    """Validate an (L, N) matrix or (B, L, N) stack against its basis."""
    data = np.asarray(data, dtype=np.uint64)
    if data.ndim not in (2, 3):
        raise KernelError(
            f"expected an (L, N) matrix or a (B, L, N) stack, got shape "
            f"{data.shape}"
        )
    if data.shape[-2] != len(moduli):
        raise KernelError(
            f"matrix has {data.shape[-2]} rows but basis has "
            f"{len(moduli)} moduli"
        )
    return data


def check_operand(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Validate a second operand: exactly ``a``'s shape, no broadcasting."""
    b = np.asarray(b, dtype=np.uint64)
    if b.shape != a.shape:
        raise KernelError(
            f"second operand has shape {b.shape}, expected {a.shape}"
        )
    return b


def check_rows(rows: np.ndarray) -> np.ndarray:
    """Validate ``lift`` input: one (N,) row or a (B, N) stack of rows."""
    rows = np.asarray(rows, dtype=np.uint64)
    if rows.ndim not in (1, 2):
        raise KernelError(
            f"expected an (N,) row or a (B, N) stack, got shape {rows.shape}"
        )
    return rows


def per_matrix(kernel, data: np.ndarray, *operands) -> np.ndarray:
    """Run an (L, N) ``kernel`` on ``data`` or on each matrix of a stack.

    ``operands`` are sliced along the batch axis with ``data``; the
    per-matrix results are stacked back, so the output of a stack is
    the per-matrix outputs by construction.
    """
    if data.ndim == 2:
        return kernel(data, *operands)
    if data.shape[0] == 0:
        return np.empty_like(data)
    return np.stack([
        kernel(matrix, *(op[i] for op in operands))
        for i, matrix in enumerate(data)
    ])


@lru_cache(maxsize=4096)
def _validate_moduli(name: str, max_bits: int, moduli: tuple[int, ...]) -> None:
    """Reject moduli wider than a backend's exact-arithmetic range.

    Successful validations are cached per (backend, basis); failures
    re-raise on every call (``lru_cache`` does not cache exceptions).
    """
    for q in moduli:
        bits = int(q).bit_length()
        if bits > max_bits:
            raise KernelError(
                f"{name} kernel backend supports moduli up to {max_bits} "
                f"bits; got {q} ({bits} bits)"
            )


class KernelBackend(abc.ABC):
    """Abstract kernel backend over (L, N) uint64 residue matrices.

    All inputs are assumed reduced (row ``i`` in ``[0, moduli[i])``)
    and all outputs are returned reduced — the invariant that makes
    backend outputs unique and therefore bit-comparable. Every op but
    ``basis_convert`` also takes a leading batch axis (module docstring).
    """

    #: Registry/display name ("reference", "batched", "numpy").
    name: str = "abstract"

    #: Widest modulus (in bits) this backend's arithmetic stays exact
    #: for. Calls with wider moduli raise :class:`KernelError` up front
    #: instead of silently overflowing uint64 intermediates.
    max_modulus_bits: int = 31

    # ------------------------------------------------------------------
    # Capability / input validation
    # ------------------------------------------------------------------
    def check_moduli(self, moduli) -> None:
        """Raise :class:`KernelError` if a modulus exceeds the backend cap."""
        _validate_moduli(
            self.name,
            self.max_modulus_bits,
            tuple(int(q) for q in moduli),
        )

    def _check(self, data: np.ndarray, moduli) -> np.ndarray:
        """Combined matrix-shape + modulus-width validation."""
        self.check_moduli(moduli)
        return check_matrix(data, moduli)

    def _check_pair(self, a: np.ndarray, b: np.ndarray, moduli):
        """Validate both operands of a binary element-wise op."""
        a = self._check(a, moduli)
        return a, check_operand(b, a)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _count(self, op: str, elements: int) -> None:
        """Per-backend op/element counters (kernels.<name>.<op>...)."""
        reg = metrics.active()
        if reg is not None:
            reg.counter(f"kernels.{self.name}.{op}.calls").inc()
            reg.counter(f"kernels.{self.name}.{op}.elements").inc(elements)

    # ------------------------------------------------------------------
    # NTT / INTT over all limbs
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ntt(self, data: np.ndarray, moduli, *, radix_log2: int = 1) -> np.ndarray:
        """Forward negacyclic NTT of every limb row (natural order)."""

    @abc.abstractmethod
    def intt(self, data: np.ndarray, moduli, *, radix_log2: int = 1) -> np.ndarray:
        """Inverse negacyclic NTT of every limb row (natural order)."""

    # ------------------------------------------------------------------
    # Element-wise modular operators (MA / MM)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def mod_add(self, a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
        """Row-wise ``(a + b) mod q_i``."""

    @abc.abstractmethod
    def mod_sub(self, a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
        """Row-wise ``(a - b) mod q_i``."""

    @abc.abstractmethod
    def mod_neg(self, a: np.ndarray, moduli) -> np.ndarray:
        """Row-wise ``(-a) mod q_i``."""

    @abc.abstractmethod
    def mod_mul(self, a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
        """Row-wise ``(a * b) mod q_i`` — the MM operator."""

    @abc.abstractmethod
    def mod_scalar_mul(self, a: np.ndarray, scalars, moduli) -> np.ndarray:
        """Multiply row ``i`` by the Python-int ``scalars[i]`` mod q_i."""

    # ------------------------------------------------------------------
    # Reduction and basis plumbing (SBT / RNSconv building blocks)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def barrett_reduce(self, x: np.ndarray, moduli) -> np.ndarray:
        """Barrett-reduce row ``i`` (products ``< q_i^2``) mod ``q_i``."""

    @abc.abstractmethod
    def lift(self, row: np.ndarray, moduli) -> np.ndarray:
        """Exact lift of digit rows into every modulus.

        ``(N,) -> (L, N)``, or ``(B, N) -> (B, L, N)`` for a stack.
        """

    @abc.abstractmethod
    def basis_convert(
        self,
        y: np.ndarray,
        table: np.ndarray,
        target_moduli,
    ) -> np.ndarray:
        """The RNSconv MM+MA cascade (paper Fig. 4, Eq. 1).

        Args:
            y: (l, N) source rows, already multiplied by
               ``q_hat_j^{-1} mod q_j``.
            table: (l, k) matrix with ``table[j, i] = (Q/q_j) mod p_i``.
            target_moduli: the k target primes.

        Returns:
            (k, N) matrix ``out[i] = sum_j (y_j mod p_i) * table[j, i]
            mod p_i``.
        """

    def __repr__(self) -> str:
        return f"<KernelBackend {self.name!r}>"
