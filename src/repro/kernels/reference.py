"""The ``reference`` kernel backend: one numpy call per limb row.

This is the original execution strategy of the functional plane — a
Python-level loop over limbs, each limb handled by the scalar kernels
in :mod:`repro.ntt.radix2` / :mod:`repro.ntt.fusion` and the
per-modulus operators in :mod:`repro.rns.modular`. A ``(B, L, N)``
stack runs the same per-matrix code on each of its ``B`` matrices, so
the backend stays the correctness oracle that ``numpy`` is
differentially tested against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.kernels.base import KernelBackend, check_rows, per_matrix
from repro.ntt.fusion import FusedNtt
from repro.ntt.radix2 import intt_radix2, ntt_radix2
from repro.ntt.tables import get_twiddle_table
from repro.rns.barrett import GLOBAL_SBT_BANK
from repro.rns.modular import (
    mod_add,
    mod_mul,
    mod_neg,
    mod_scalar_mul,
    mod_sub,
)


@lru_cache(maxsize=512)
def _fused(q: int, n: int, radix_log2: int) -> FusedNtt:
    return FusedNtt(q, n, radix_log2)


def _ntt_matrix(data, moduli, radix_log2):
    n = data.shape[1]
    if radix_log2 >= 2:
        rows = [
            _fused(q, n, radix_log2).forward(data[i])
            for i, q in enumerate(moduli)
        ]
    else:
        rows = [
            ntt_radix2(data[i], get_twiddle_table(q, n))
            for i, q in enumerate(moduli)
        ]
    return np.stack(rows)


def _intt_matrix(data, moduli, radix_log2):
    n = data.shape[1]
    if radix_log2 >= 2:
        rows = [
            _fused(q, n, radix_log2).inverse(data[i])
            for i, q in enumerate(moduli)
        ]
    else:
        rows = [
            intt_radix2(data[i], get_twiddle_table(q, n))
            for i, q in enumerate(moduli)
        ]
    return np.stack(rows)


def _lift_row(row, moduli):
    return np.stack([row % np.uint64(q) for q in moduli])


def _rowwise(op, moduli):
    """An (L, N) kernel applying the binary per-modulus ``op`` row by row."""
    def kernel(a, b):
        return np.stack([op(a[i], b[i], q) for i, q in enumerate(moduli)])

    return kernel


class ReferenceBackend(KernelBackend):
    """Scalar/per-limb kernels — unchanged semantics, limb-at-a-time."""

    name = "reference"

    # ------------------------------------------------------------------
    def ntt(self, data, moduli, *, radix_log2: int = 1):
        data = self._check(data, moduli)
        self._count("ntt", data.size)
        return per_matrix(
            lambda m: _ntt_matrix(m, moduli, radix_log2), data
        )

    def intt(self, data, moduli, *, radix_log2: int = 1):
        data = self._check(data, moduli)
        self._count("intt", data.size)
        return per_matrix(
            lambda m: _intt_matrix(m, moduli, radix_log2), data
        )

    # ------------------------------------------------------------------
    def mod_add(self, a, b, moduli):
        a, b = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        return per_matrix(_rowwise(mod_add, moduli), a, b)

    def mod_sub(self, a, b, moduli):
        a, b = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        return per_matrix(_rowwise(mod_sub, moduli), a, b)

    def mod_neg(self, a, moduli):
        a = self._check(a, moduli)
        self._count("elementwise", a.size)
        return per_matrix(
            lambda m: np.stack(
                [mod_neg(m[i], q) for i, q in enumerate(moduli)]
            ),
            a,
        )

    def mod_mul(self, a, b, moduli):
        a, b = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        return per_matrix(_rowwise(mod_mul, moduli), a, b)

    def mod_scalar_mul(self, a, scalars, moduli):
        a = self._check_scalars(a, scalars, moduli)
        self._count("elementwise", a.size)
        return per_matrix(
            lambda m: np.stack([
                mod_scalar_mul(m[i], int(s), q)
                for i, (q, s) in enumerate(zip(moduli, scalars))
            ]),
            a,
        )

    # ------------------------------------------------------------------
    def barrett_reduce(self, x, moduli):
        x = self._check(x, moduli)
        self._count("barrett", x.size)
        return per_matrix(
            lambda m: np.stack([
                GLOBAL_SBT_BANK.get(q).reduce(m[i])
                for i, q in enumerate(moduli)
            ]),
            x,
        )

    def lift(self, row, moduli):
        row = check_rows(row)
        self.check_moduli(moduli)
        self._count("lift", row.size * len(moduli))
        if row.ndim == 1:
            return _lift_row(row, moduli)
        out = np.empty(
            (row.shape[0], len(moduli), row.shape[1]), dtype=np.uint64
        )
        for i, r in enumerate(row):
            out[i] = _lift_row(r, moduli)
        return out

    def basis_convert(self, y, table, target_moduli):
        y = np.asarray(y, dtype=np.uint64)
        table = np.asarray(table, dtype=np.uint64)
        self.check_moduli(target_moduli)
        src_limbs, n = y.shape
        self._count("basis_convert", n * len(target_moduli))
        out = np.zeros((len(target_moduli), n), dtype=np.uint64)
        for i, p in enumerate(target_moduli):
            acc = np.zeros(n, dtype=np.uint64)
            p64 = np.uint64(p)
            for j in range(src_limbs):
                term = mod_mul(y[j] % p64, table[j, i], p)
                acc = (acc + term) % p64
            out[i] = acc
        return out
