"""The ``batched`` kernel backend: all L limbs advance together.

Poseidon streams contiguous limb rows through a 512-lane pipeline; the
software analogue is to run every kernel over the whole ``(L, N)``
residue matrix in single numpy expressions with the per-limb modulus
broadcast as an ``(L, 1)`` column. The NTT stage loop becomes
*stage-parallel*: one reshape exposes every butterfly group of a stage
across every limb at once, so a full radix-2 transform of L limbs is
``log2(N)`` numpy calls instead of ``L * (N-1)`` Python-level slice
operations.

The fused radix-2^k path mirrors :class:`repro.ntt.fusion.FusedNtt`:
dense ``B x B`` combines with one reduction per output (deferred
full-width accumulation when ``B * q^2 < 2^64``, reduce-per-product
otherwise), vectorized across limbs *and* across all blocks of a
phase.

A ``(B, L, N)`` stack runs the NTT code above on each of its ``B``
matrices; the element-wise operators broadcast their ``(L, 1)``
modulus columns over the batch axis unchanged.

Every operator computes the exact reduced result, so outputs are
bit-identical to the ``reference`` backend by construction; the
differential suite in ``tests/kernels`` enforces it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import KernelError
from repro.kernels.base import (
    KernelBackend,
    check_rows,
    get_batched_tables,
    per_matrix,
)


@lru_cache(maxsize=256)
def _barrett_columns(moduli: tuple[int, ...]):
    """Stacked Barrett constants: (q, u, k-1, k+1) as (L, 1) columns."""
    ks = [int(q).bit_length() for q in moduli]
    q = np.array(moduli, dtype=np.uint64)[:, None]
    u = np.array(
        [(1 << (2 * k)) // int(m) for k, m in zip(ks, moduli)],
        dtype=np.uint64,
    )[:, None]
    lo = np.array([k - 1 for k in ks], dtype=np.uint64)[:, None]
    hi = np.array([k + 1 for k in ks], dtype=np.uint64)[:, None]
    return q, u, lo, hi


@lru_cache(maxsize=1024)
def _scalar_column(scalars: tuple[int, ...], moduli: tuple[int, ...]):
    return np.array(
        [int(s) % int(q) for s, q in zip(scalars, moduli)], dtype=np.uint64
    )[:, None]


class BatchedBackend(KernelBackend):
    """Limb-parallel kernels over whole (L, N) matrices."""

    name = "batched"

    # ------------------------------------------------------------------
    # NTT / INTT
    # ------------------------------------------------------------------
    def ntt(self, data, moduli, *, radix_log2: int = 1):
        data = self._check(data, moduli)
        self._count("ntt", data.size)
        tbl = get_batched_tables(tuple(moduli), data.shape[-1])
        if radix_log2 >= 2:
            return per_matrix(
                lambda m: self._fused_forward(m, tbl, radix_log2), data
            )
        return per_matrix(lambda m: self._radix2_forward(m, tbl), data)

    def intt(self, data, moduli, *, radix_log2: int = 1):
        data = self._check(data, moduli)
        self._count("intt", data.size)
        tbl = get_batched_tables(tuple(moduli), data.shape[-1])
        if radix_log2 >= 2:
            return per_matrix(
                lambda m: self._fused_inverse(m, tbl, radix_log2), data
            )
        return per_matrix(lambda m: self._radix2_inverse(m, tbl), data)

    # -- stage-parallel radix-2 ----------------------------------------
    @staticmethod
    def _radix2_forward(data, tbl):
        """Cooley-Tukey DIT, every (limb, group) butterfly of a stage
        in one broadcast expression: reshape to (L, m, 2t) so axis 1
        is the group index and the twiddle column broadcasts over it.
        """
        a = data.copy()
        levels, n = a.shape
        q = tbl.q_cube
        t, m = n, 1
        while m < n:
            t >>= 1
            a3 = a.reshape(levels, m, 2 * t)
            w = tbl.psi_powers_bitrev[:, m:2 * m][:, :, None]
            lo = a3[:, :, :t]
            hi = (a3[:, :, t:] * w) % q
            new_lo = (lo + hi) % q
            new_hi = (lo + q - hi) % q
            a3[:, :, :t] = new_lo
            a3[:, :, t:] = new_hi
            m <<= 1
        return a[:, tbl.bitrev]

    @staticmethod
    def _radix2_inverse(data, tbl):
        """Gentleman-Sande DIF partner, stage-parallel like the forward."""
        a = data[:, tbl.bitrev]
        levels, n = a.shape
        q = tbl.q_cube
        t, m = 1, n
        while m > 1:
            h = m >> 1
            a3 = a.reshape(levels, h, 2 * t)
            w = tbl.ipsi_powers_bitrev[:, h:2 * h][:, :, None]
            lo = a3[:, :, :t]
            hi = a3[:, :, t:]
            new_lo = (lo + hi) % q
            new_hi = ((lo + q - hi) * w) % q
            a3[:, :, :t] = new_lo
            a3[:, :, t:] = new_hi
            t <<= 1
            m = h
        return (a * tbl.inv_n_col) % tbl.q_col

    # -- fused radix-2^k ------------------------------------------------
    def _fused_forward(self, data, tbl, radix_log2):
        q = tbl.q_col
        twisted = (data * tbl.psi_powers) % q
        wide_safe = (1 << radix_log2) * max(tbl.moduli) ** 2 < (1 << 64)
        out = self._cyclic_batch(
            twisted[:, None, :], tbl.omega_powers, tbl.q_cube,
            1, 1 << radix_log2, tbl.n, wide_safe,
        )
        return out[:, 0, :]

    def _fused_inverse(self, data, tbl, radix_log2):
        data = np.asarray(data, dtype=np.uint64)
        wide_safe = (1 << radix_log2) * max(tbl.moduli) ** 2 < (1 << 64)
        cyc = self._cyclic_batch(
            data[:, None, :], tbl.inv_omega_powers, tbl.q_cube,
            1, 1 << radix_log2, tbl.n, wide_safe,
        )[:, 0, :]
        q = tbl.q_col
        scaled = (cyc * tbl.inv_n_col) % q
        return (scaled * tbl.ipsi_powers) % q

    def _cyclic_batch(
        self, x, power_table, q_cube, stride, block, n, wide_safe
    ):
        """Recursive mixed-radix cyclic NTT over (L, S, M) batches.

        ``x`` holds S independent length-M sequences per limb; the root
        at this level is ``top_root^stride`` and its powers are read
        straight out of ``power_table`` (exponents taken mod n). The
        DIT split stacks all ``b`` subsequences into the batch axis so
        one recursive call transforms every block of the phase.
        """
        levels, batch, m_total = x.shape
        if m_total == 1:
            return x
        b = min(block, m_total)
        m = m_total // b
        sub_in = (
            x.reshape(levels, batch, m, b)
            .transpose(0, 1, 3, 2)
            .reshape(levels, batch * b, m)
        )
        sub = self._cyclic_batch(
            sub_in, power_table, q_cube, stride * b, block, n, wide_safe
        ).reshape(levels, batch, b, m)

        # Dense combine: out[t] = sum_j2 root^(j2*t) * sub[j2][t mod m]
        # — each output accumulates b products and reduces once (the
        # fused TAM), b reductions per block.
        t = np.arange(m_total, dtype=np.int64)
        exp = (np.arange(b, dtype=np.int64)[:, None] * t[None, :] * stride) % n
        coef = power_table[:, exp]              # (L, b, M)
        gather = sub[:, :, :, t % m]            # (L, S, b, M)
        if wide_safe:
            acc = (gather * coef[:, None, :, :]).sum(axis=2, dtype=np.uint64)
            return acc % q_cube
        acc = np.zeros((levels, batch, m_total), dtype=np.uint64)
        for j2 in range(b):
            term = (gather[:, :, j2, :] * coef[:, None, j2, :]) % q_cube
            acc = acc + term
            acc = np.where(acc >= q_cube, acc - q_cube, acc)
        return acc

    # ------------------------------------------------------------------
    # Element-wise modular operators
    # ------------------------------------------------------------------
    def mod_add(self, a, b, moduli):
        a, b = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        qc = _barrett_columns(tuple(moduli))[0]
        s = a + b
        return np.where(s >= qc, s - qc, s)

    def mod_sub(self, a, b, moduli):
        a, b = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        qc = _barrett_columns(tuple(moduli))[0]
        s = a + qc - b
        return np.where(s >= qc, s - qc, s)

    def mod_neg(self, a, moduli):
        a = self._check(a, moduli)
        self._count("elementwise", a.size)
        qc = _barrett_columns(tuple(moduli))[0]
        return np.where(a == 0, np.uint64(0), qc - a)

    def mod_mul(self, a, b, moduli):
        a, b = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        qc = _barrett_columns(tuple(moduli))[0]
        return (a * b) % qc

    def mod_scalar_mul(self, a, scalars, moduli):
        a = self._check(a, moduli)
        if len(scalars) != len(moduli):
            raise KernelError(
                f"need {len(moduli)} scalars, got {len(scalars)}"
            )
        self._count("elementwise", a.size)
        qc = _barrett_columns(tuple(moduli))[0]
        col = _scalar_column(
            tuple(int(s) for s in scalars), tuple(moduli)
        )
        return (a * col) % qc

    # ------------------------------------------------------------------
    # Reduction and basis plumbing
    # ------------------------------------------------------------------
    def barrett_reduce(self, x, moduli):
        """All limbs through the SBT datapath at once.

        Same multiply-and-shift as :class:`repro.rns.barrett.
        BarrettReducer.reduce`, with the per-limb ``k``/``u`` constants
        broadcast as columns (the shift counts differ between 30-bit
        chain and 31-bit aux primes, so they are arrays too).
        """
        x = self._check(x, moduli)
        self._count("barrett", x.size)
        q, u, lo, hi = _barrett_columns(tuple(moduli))
        q1 = x >> lo
        q3 = (q1 * u) >> hi
        r = x - q3 * q
        r = np.where(r >= q, r - q, r)
        r = np.where(r >= q, r - q, r)
        return r

    def lift(self, row, moduli):
        row = check_rows(row)
        self.check_moduli(moduli)
        self._count("lift", row.size * len(moduli))
        qc = _barrett_columns(tuple(moduli))[0]
        return row[..., None, :] % qc

    def basis_convert(self, y, table, target_moduli):
        """RNSconv cascade vectorized across the whole target basis.

        Keeps the per-source-limb accumulation loop (l iterations) but
        each iteration handles every target prime and coefficient at
        once — l broadcast operations instead of l * k row operations.
        """
        y = np.asarray(y, dtype=np.uint64)
        table = np.asarray(table, dtype=np.uint64)
        self.check_moduli(target_moduli)
        src_limbs, n = y.shape
        self._count("basis_convert", n * len(target_moduli))
        pc = _barrett_columns(tuple(target_moduli))[0]
        acc = np.zeros((len(target_moduli), n), dtype=np.uint64)
        for j in range(src_limbs):
            term = (y[j][None, :] % pc * table[j][:, None]) % pc
            acc = acc + term
            acc = np.where(acc >= pc, acc - pc, acc)
        return acc
