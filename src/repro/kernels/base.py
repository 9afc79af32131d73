"""Kernel backend interface and the shared batch-block budget.

A *kernel backend* owns the arithmetic hot paths of the functional
plane: negacyclic NTT/INTT over whole ``(L, N)`` residue matrices and
the element-wise modular operators (the software MA/MM/SBT cores).
Everything above this layer — :class:`~repro.rns.poly.RnsPolynomial`,
the basis-conversion cascade, keyswitching, the evaluator — calls
through :func:`repro.kernels.get_backend` and never touches a limb
loop directly, so swapping the execution strategy is a one-line (or
one-env-var) decision.

Two implementations ship:

- ``numpy`` (:mod:`repro.kernels.numpy_backend`, the default) — fully
  vectorized: NTT butterflies on uint32 lanes (Shoup multiplication,
  Harvey's lazy reduction, branch-free conditional subtracts) and
  uint64 Barrett products.
- ``reference`` (:mod:`repro.kernels.reference`) — the original
  scalar/per-limb code paths, one numpy call per limb row; the oracle
  the test suites compare ``numpy`` against.

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
its per-limb plans over ``B`` (its NTT folds a tall stack's ``B * L``
rows innermost), while ``reference`` runs its per-matrix code on each
``(L, N)`` slice. A batch is one kernel call — the
software counterpart of Poseidon streaming every keyswitch digit
through the same cores. ``basis_convert`` keeps its ``(l, N)``
contract.

Callers split the stacks they build (keyswitch digits, ciphertext
parts) into blocks of at most :data:`BATCH_ELEMENTS` residues with
:func:`batch_blocks`, and make one call per block and step. Batching
pays where rows are short and per-call overhead dominates; on long rows
one matrix already fills the budget, so a block holds one matrix and
the call shapes and temporaries stay those of a per-matrix loop.

Prepared constants
------------------
A constant that is multiplied by many times (a switch key, a linear
transform's diagonal spectra) is stored once as uint32 residues beside
their uint32 Shoup companions ``floor(w * 2^32 / q_i)``
(:func:`shoup_companions`): the bytes one uint64 array would take.
:meth:`KernelBackend.mod_mul_prepared` multiplies by it, broadcasting
the variable operand (a keyswitch's digits meet both parts of their
key pairs in one call), and can sum the products lazily into a uint64
accumulator that the caller reduces once — the MM and MA steps of a
digit inner product, as Poseidon's cores stream digits against fixed
key material. Its default here ignores the companions and calls
``mod_mul``, which is what ``reference`` runs; ``numpy`` overrides it
with Shoup products on uint32 lanes.
"""

from __future__ import annotations

import abc
import math
from functools import lru_cache

import numpy as np

from repro.errors import KernelError
from repro.obs import metrics


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


def shoup_companions(w: np.ndarray, moduli) -> np.ndarray:
    """Shoup companions ``floor(w * 2^32 / q_i)`` of residues ``w``.

    ``w`` holds reduced residues with its limb axis second to last (row
    ``i`` mod ``moduli[i]``); the companions come back as uint32 in
    ``w``'s shape. One division per limb keeps the uint64 temporary to
    one limb's rows.
    """
    out = np.empty(w.shape, dtype=np.uint32)
    for i, q in enumerate(moduli):
        np.floor_divide(
            w[..., i, :].astype(np.uint64) << np.uint64(32), np.uint64(q),
            out=out[..., i, :], casting="unsafe",
        )
    return out


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
def _basis(name: str, max_bits: int, moduli: tuple) -> tuple[int, ...]:
    """``moduli`` as a tuple of Python ints, checked against a width cap.

    Keyed by the tuple the caller passed, so a repeated basis costs one
    lookup. A too-wide modulus raises :class:`KernelError` on every
    call (``lru_cache`` does not cache exceptions).
    """
    basis = tuple(int(q) for q in moduli)
    for q in basis:
        bits = q.bit_length()
        if bits > max_bits:
            raise KernelError(
                f"{name} kernel backend supports moduli up to {max_bits} "
                f"bits; got {q} ({bits} bits)"
            )
    return basis


class KernelBackend(abc.ABC):
    """Abstract kernel backend over (L, N) uint64 residue matrices.

    All inputs are assumed reduced (row ``i`` in ``[0, moduli[i])``)
    and all outputs are returned reduced — the invariant that makes
    backend outputs unique and therefore bit-comparable. Every op but
    ``basis_convert`` also takes a leading batch axis (module docstring).
    """

    #: Registry/display name ("numpy" or "reference").
    name: str = "abstract"

    #: Widest modulus (in bits) this backend's arithmetic stays exact
    #: for. Calls with wider moduli raise :class:`KernelError` up front
    #: instead of silently overflowing uint64 intermediates.
    max_modulus_bits: int = 31

    # ------------------------------------------------------------------
    # Capability / input validation
    # ------------------------------------------------------------------
    def check_moduli(self, moduli) -> tuple[int, ...]:
        """The basis as a tuple of Python ints.

        Raises :class:`KernelError` if a modulus exceeds the backend
        cap. Every op resolves its basis here, once per call.
        """
        if not isinstance(moduli, tuple):
            moduli = tuple(moduli)
        return _basis(self.name, self.max_modulus_bits, moduli)

    def _check(self, data: np.ndarray, moduli):
        """Validate a matrix or stack: ``(data, basis)``."""
        basis = self.check_moduli(moduli)
        return check_matrix(data, basis), basis

    def _check_pair(self, a: np.ndarray, b: np.ndarray, moduli):
        """Validate both operands of a binary op: ``(a, b, basis)``."""
        a, basis = self._check(a, moduli)
        return a, check_operand(b, a), basis

    def _check_scalars(self, a: np.ndarray, scalars, moduli):
        """Validate ``mod_scalar_mul``'s matrix and its one scalar per
        row: ``(a, basis)``."""
        a, basis = self._check(a, moduli)
        if len(scalars) != len(basis):
            raise KernelError(
                f"need {len(basis)} scalars, got {len(scalars)}"
            )
        return a, basis

    def _check_prepared(self, a, w, w_shoup, moduli, acc):
        """Validate ``mod_mul_prepared``'s operands: ``(a, w, w_shoup,
        basis, elements)``, ``elements`` being the products' count."""
        basis = self.check_moduli(moduli)
        a = np.asarray(a, dtype=np.uint64)
        w, w_shoup = np.asarray(w), np.asarray(w_shoup)
        if w.shape != w_shoup.shape:
            raise KernelError(
                f"constant has shape {w.shape} but its companions "
                f"{w_shoup.shape}"
            )
        try:
            shape = np.broadcast_shapes(a.shape, w.shape)
        except ValueError:
            raise KernelError(
                f"operand of shape {a.shape} does not broadcast against "
                f"a constant of shape {w.shape}"
            ) from None
        if len(shape) < 2 or shape[-2] != len(basis):
            raise KernelError(
                f"products have shape {shape} but basis has {len(basis)} "
                f"moduli"
            )
        if acc is not None and (
            acc.dtype != np.uint64 or acc.shape != shape[1:]
        ):
            raise KernelError(
                f"accumulator must be uint64 of shape {shape[1:]}, got "
                f"{acc.dtype} {acc.shape}"
            )
        return a, w, w_shoup, basis, math.prod(shape)

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
    def ntt(self, data: np.ndarray, moduli) -> np.ndarray:
        """Forward negacyclic NTT of every limb row (natural order)."""

    @abc.abstractmethod
    def intt(self, data: np.ndarray, moduli) -> np.ndarray:
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

    def mod_mul_prepared(
        self,
        a: np.ndarray,
        w: np.ndarray,
        w_shoup: np.ndarray,
        moduli,
        acc: np.ndarray | None = None,
    ) -> np.ndarray:
        """Row-wise ``(a * w) mod q_i`` by a prepared constant ``w``.

        A *prepared constant* is one the caller multiplies by many
        times (a switch key, a linear transform's diagonal spectra),
        stored as uint32 residues beside their uint32 Shoup companions
        ``w_shoup = floor(w * 2^32 / q_i)`` (:func:`shoup_companions`),
        computed once with the constant. ``a`` and ``w`` broadcast
        against each other on every axis but the last two, so a block
        of keyswitch digits ``(B, 1, L, N)`` meets both parts of its key
        pairs ``(B, 2, L, N)`` in one call.

        Without ``acc`` the products come back canonical, like
        :meth:`mod_mul`'s. With ``acc``, a uint64 array shaped like the
        products without their first axis, the products are summed over
        that axis into ``acc`` in place and ``acc`` is returned: each
        adds a value below ``2 q_i`` congruent to its product, so the
        sum stays lazily reduced until the caller reduces it once
        (:meth:`barrett_reduce`, while it stays below ``q_i^2``).

        This default ignores the companions and goes through
        :meth:`mod_mul`; ``numpy`` runs Shoup products on uint32 lanes.
        """
        a, w, _, basis, _ = self._check_prepared(a, w, w_shoup, moduli, acc)
        shape = np.broadcast_shapes(a.shape, w.shape)
        matrix = shape[-2:]
        products = self.mod_mul(
            np.broadcast_to(a, shape).reshape(-1, *matrix),
            np.broadcast_to(w, shape).reshape(-1, *matrix),
            basis,
        ).reshape(shape)
        if acc is None:
            return products
        acc += products.sum(axis=0, dtype=np.uint64)
        return acc

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
