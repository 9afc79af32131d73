"""The ``reference`` kernel backend: one numpy call per limb row.

This is the original execution strategy of the functional plane — a
Python-level loop over limbs, each limb handled by the scalar kernels
in :mod:`repro.ntt.radix2` and the per-modulus operators in
:mod:`repro.rns.modular`. A ``(B, L, N)`` stack runs the same
per-matrix code on each of its ``B`` matrices, so the backend stays
the correctness oracle that ``numpy`` is differentially tested against.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelBackend, check_rows, per_matrix
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


def _ntt_matrix(data, moduli):
    n = data.shape[1]
    return np.stack([
        ntt_radix2(data[i], get_twiddle_table(q, n))
        for i, q in enumerate(moduli)
    ])


def _intt_matrix(data, moduli):
    n = data.shape[1]
    return np.stack([
        intt_radix2(data[i], get_twiddle_table(q, n))
        for i, q in enumerate(moduli)
    ])


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
    def ntt(self, data, moduli):
        data, basis = self._check(data, moduli)
        self._count("ntt", data.size)
        return per_matrix(lambda m: _ntt_matrix(m, basis), data)

    def intt(self, data, moduli):
        data, basis = self._check(data, moduli)
        self._count("intt", data.size)
        return per_matrix(lambda m: _intt_matrix(m, basis), data)

    # ------------------------------------------------------------------
    def mod_add(self, a, b, moduli):
        a, b, basis = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        return per_matrix(_rowwise(mod_add, basis), a, b)

    def mod_sub(self, a, b, moduli):
        a, b, basis = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        return per_matrix(_rowwise(mod_sub, basis), a, b)

    def mod_neg(self, a, moduli):
        a, basis = self._check(a, moduli)
        self._count("elementwise", a.size)
        return per_matrix(
            lambda m: np.stack(
                [mod_neg(m[i], q) for i, q in enumerate(basis)]
            ),
            a,
        )

    def mod_mul(self, a, b, moduli):
        a, b, basis = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        return per_matrix(_rowwise(mod_mul, basis), a, b)

    def mod_scalar_mul(self, a, scalars, moduli):
        a, basis = self._check_scalars(a, scalars, moduli)
        self._count("elementwise", a.size)
        return per_matrix(
            lambda m: np.stack([
                mod_scalar_mul(m[i], int(s), q)
                for i, (q, s) in enumerate(zip(basis, scalars))
            ]),
            a,
        )

    # ------------------------------------------------------------------
    def barrett_reduce(self, x, moduli):
        x, basis = self._check(x, moduli)
        self._count("barrett", x.size)
        return per_matrix(
            lambda m: np.stack([
                GLOBAL_SBT_BANK.get(q).reduce(m[i])
                for i, q in enumerate(basis)
            ]),
            x,
        )

    def lift(self, row, moduli):
        row = check_rows(row)
        basis = self.check_moduli(moduli)
        self._count("lift", row.size * len(basis))
        if row.ndim == 1:
            return _lift_row(row, basis)
        out = np.empty(
            (row.shape[0], len(basis), row.shape[1]), dtype=np.uint64
        )
        for i, r in enumerate(row):
            out[i] = _lift_row(r, basis)
        return out

    def basis_convert(self, y, table, target_moduli):
        y = np.asarray(y, dtype=np.uint64)
        table = np.asarray(table, dtype=np.uint64)
        basis = self.check_moduli(target_moduli)
        src_limbs, n = y.shape
        self._count("basis_convert", n * len(basis))
        out = np.zeros((len(basis), n), dtype=np.uint64)
        for i, p in enumerate(basis):
            acc = np.zeros(n, dtype=np.uint64)
            p64 = np.uint64(p)
            for j in range(src_limbs):
                term = mod_mul(y[j] % p64, table[j, i], p)
                acc = (acc + term) % p64
            out[i] = acc
        return out
