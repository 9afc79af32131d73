"""The ``numpy`` kernel backend: fully vectorized uint64 hot paths.

Strategy
--------
Moduli are at most 31 bits (the base class's ``max_modulus_bits``,
which is also all :class:`~repro.rns.context.RnsContext` admits). The
NTT is a Shoup-multiplication butterfly engine with lazy reduction:

* Every twiddle ``w`` carries a precomputed companion
  ``w' = floor(w * 2^32 / q)`` so a modular product is three multiplies,
  one shift and one subtract — ``prod = w*x - ((w'*x) >> 32) * q < 3q``
  — with no ``%`` anywhere on the hot path.
* Butterfly operands stay *lazily* reduced below ``C = 4q`` (all moduli
  <= 30 bits) or ``C = 2q`` (a 31-bit modulus present). Conditional
  subtraction is the branch-free pair ``minimum(x, x - C)``: uint64
  wraparound makes ``x - C`` huge exactly when ``x < C``. One final
  normalisation pass brings values below ``q``.
* Early stages operate on ``(L, m, 2t)`` views with per-stage
  pre-expanded contiguous twiddle rows; once butterfly runs drop below
  ``_TAIL_T`` the matrix is transposed once so every remaining stage
  keeps unit-stride inner loops (lane-major layout), then transposed
  back before the output permutation.

Element-wise products use a single-word Barrett reduction: residue
products stay below ``q^2 < 2^62``, so every intermediate fits in
``uint64``.

A ``(B, L, N)`` stack runs the same plans with every twiddle and
modulus column broadcast over the leading batch axis: the stage loops
index the limb and coefficient axes from the right (``a[..., :t]``), so
one call transforms all ``B * L`` rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.kernels.base import KernelBackend, check_rows
from repro.ntt.tables import get_twiddle_table
from repro.utils.bitops import ilog2, reverse_bits_array

_U32 = np.uint64(32)

#: Butterfly runs shorter than this switch to the transposed layout.
_TAIL_T = 32


@lru_cache(maxsize=64)
def _bitrev(n: int) -> np.ndarray:
    return reverse_bits_array(np.arange(n, dtype=np.int64), ilog2(n))


def _lane_view(src: np.ndarray, m: int, lanes: int) -> np.ndarray:
    """Stage twiddles rearranged lane-major for the transposed layout.

    Natural block ``g = b * msub + s`` (lane ``b``, sub-block ``s``)
    uses twiddle ``src[m + g]``; the returned ``(L, msub, 1, lanes)``
    array places it at ``[s, 0, b]`` so it broadcasts over the run.
    """
    levels = src.shape[0]
    msub = m // lanes
    sl = src[:, m:2 * m].reshape(levels, lanes, msub)
    return np.ascontiguousarray(
        sl.transpose(0, 2, 1)
    ).reshape(levels, msub, 1, lanes)


class _NarrowPlan:
    """Per-(moduli, n) stage plan + twiddles for the narrow engine."""

    def __init__(self, moduli: tuple[int, ...], n: int):
        tbls = [get_twiddle_table(q, n) for q in moduli]
        qc = np.array(moduli, dtype=np.uint64)[:, None]
        self.q_col = qc
        self.lazy4 = max(moduli).bit_length() <= 30
        self.C_col = qc * np.uint64(4 if self.lazy4 else 2)
        self.C2_col = qc * np.uint64(2)
        self.bitrev = _bitrev(n)
        psi = np.stack([t.psi_powers_bitrev for t in tbls])
        ipsi = np.stack([t.ipsi_powers_bitrev for t in tbls])
        psi_sh = (psi << _U32) // qc  # w < 2^31, so the shift fits
        ipsi_sh = (ipsi << _U32) // qc
        inv_n = np.array(
            [t.inv_n for t in tbls], dtype=np.uint64
        )[:, None]
        self.inv_n_col = inv_n
        self.inv_n_sh = (inv_n << _U32) // qc

        # Lane count for the transposed tail: the smallest block count
        # whose stage has runs shorter than _TAIL_T. The forward and
        # inverse stage sets mirror, so they share it.
        lanes = 0
        m = 1
        while m < n:
            t = n // (2 * m)
            if t < _TAIL_T and m >= _TAIL_T:
                lanes = m
                break
            m <<= 1
        self.lanes = lanes

        # Forward (CT) stages, m = 1 .. n/2: runs shrink.
        self.fwd: list[tuple[str, int, int, np.ndarray, np.ndarray]] = []
        m = 1
        while m < n:
            t = n // (2 * m)
            if lanes and m >= lanes:
                self.fwd.append((
                    "lane", m, t,
                    _lane_view(psi, m, lanes),
                    _lane_view(psi_sh, m, lanes),
                ))
            else:
                self.fwd.append((
                    "full", m, t,
                    np.repeat(psi[:, m:2 * m], t, axis=1),
                    np.repeat(psi_sh[:, m:2 * m], t, axis=1),
                ))
            m <<= 1

        # Inverse (GS) stages, h = n/2 .. 1: runs grow.
        self.inv: list[tuple[str, int, int, np.ndarray, np.ndarray]] = []
        h = n >> 1
        while h >= 1:
            t = n // (2 * h)
            if lanes and h >= lanes:
                self.inv.append((
                    "lane", h, t,
                    _lane_view(ipsi, h, lanes),
                    _lane_view(ipsi_sh, h, lanes),
                ))
            else:
                self.inv.append((
                    "full", h, t,
                    np.repeat(ipsi[:, h:2 * h], t, axis=1),
                    np.repeat(ipsi_sh[:, h:2 * h], t, axis=1),
                ))
            h >>= 1


@lru_cache(maxsize=32)
def _narrow_plan(moduli: tuple[int, ...], n: int) -> _NarrowPlan:
    return _NarrowPlan(moduli, n)


def _stage_fwd(lo, hi, w, ws, q, bound, u1, u2, u3, lazy4):
    """One CT butterfly stage, operands kept below ``bound``.

    ``(lo, hi) <- (lo + w*hi, lo - w*hi)`` with the Shoup product
    (``prod < 3q``) folded into the lazy-reduction discipline.
    """
    np.multiply(hi, ws, out=u1)
    np.right_shift(u1, _U32, out=u1)
    np.multiply(u1, q, out=u1)
    np.multiply(hi, w, out=u2)
    np.subtract(u2, u1, out=u2)  # prod < 3q
    if not lazy4:
        np.subtract(u2, bound, out=u3)
        np.minimum(u2, u3, out=u2)  # prod < 2q = bound
    np.subtract(bound, u2, out=u1)
    np.add(lo, u1, out=u1)  # lo + (bound - prod)
    np.subtract(u1, bound, out=u3)
    np.minimum(u1, u3, out=hi)
    np.add(lo, u2, out=u2)  # lo + prod
    np.subtract(u2, bound, out=u3)
    np.minimum(u2, u3, out=lo)


def _stage_inv(lo, hi, w, ws, q, bound, u1, u2, u3, lazy4):
    """One GS butterfly stage: ``(lo, hi) <- (lo + hi, w*(lo - hi))``."""
    np.add(lo, hi, out=u1)  # sum < 2*bound
    np.add(lo, bound, out=u2)
    np.subtract(u2, hi, out=u2)  # diff < 2*bound
    np.subtract(u2, bound, out=u3)
    np.minimum(u2, u3, out=u2)  # diff < bound <= 2^32
    np.multiply(u2, ws, out=u3)
    np.right_shift(u3, _U32, out=u3)
    np.multiply(u3, q, out=u3)
    np.multiply(u2, w, out=u2)
    if lazy4:
        np.subtract(u2, u3, out=hi)  # prod < 3q < bound
    else:
        np.subtract(u2, u3, out=u2)
        np.subtract(u2, bound, out=u3)
        np.minimum(u2, u3, out=hi)  # prod < 2q = bound
    np.subtract(u1, bound, out=u3)
    np.minimum(u1, u3, out=lo)


def _to_lanes(a: np.ndarray, lanes: int) -> np.ndarray:
    """Lane-major copy: ``(..., n)`` rows viewed as ``(..., n/lanes, lanes)``."""
    blk = a.shape[-1] // lanes
    return np.ascontiguousarray(
        a.reshape(*a.shape[:-1], lanes, blk).swapaxes(-1, -2)
    )


def _from_lanes(a: np.ndarray, lanes: int) -> np.ndarray:
    """Undo :func:`_to_lanes` back to natural ``(..., n)`` rows."""
    lead = a.shape[:-2]
    n = a.shape[-2] * a.shape[-1]
    return np.ascontiguousarray(
        a.reshape(*lead, n // lanes, lanes).swapaxes(-1, -2)
    ).reshape(*lead, n)


def _run_fwd(a: np.ndarray, plan: _NarrowPlan) -> np.ndarray:
    """In-place CT stages over ``a``: (L, n) or a (B, L, n) stack."""
    lead, n = a.shape[:-1], a.shape[-1]
    levels = lead[-1]
    half = n >> 1
    b1 = np.empty((*lead, half), dtype=np.uint64)
    b2 = np.empty_like(b1)
    b3 = np.empty_like(b1)
    q3 = plan.q_col[:, :, None]
    c3 = plan.C_col[:, :, None]
    q4 = q3[:, :, :, None]
    c4 = c3[:, :, :, None]
    lanes = plan.lanes
    transposed = False
    for kind, m, t, w, ws in plan.fwd:
        if kind == "lane" and not transposed:
            a = _to_lanes(a, lanes)
            transposed = True
        if kind == "full":
            a3 = a.reshape(*lead, m, 2 * t)
            shape = (*lead, m, t)
            wshape = (levels, m, t)
            _stage_fwd(
                a3[..., :t], a3[..., t:],
                w.reshape(wshape), ws.reshape(wshape), q3, c3,
                b1.reshape(shape), b2.reshape(shape), b3.reshape(shape),
                plan.lazy4,
            )
        else:
            msub = m // lanes
            a4 = a.reshape(*lead, msub, 2 * t, lanes)
            shape = (*lead, msub, t, lanes)
            _stage_fwd(
                a4[..., :t, :], a4[..., t:, :], w, ws, q4, c4,
                b1.reshape(shape), b2.reshape(shape), b3.reshape(shape),
                plan.lazy4,
            )
    if transposed:
        a = _from_lanes(a, lanes)
    scratch = np.empty_like(a)
    if plan.lazy4:
        np.subtract(a, plan.C2_col, out=scratch)
        np.minimum(a, scratch, out=a)
    np.subtract(a, plan.q_col, out=scratch)
    np.minimum(a, scratch, out=a)
    # np.take returns C order; a[..., idx] would return a transposed
    # layout that every later elementwise op and reshape pays for.
    return np.take(a, plan.bitrev, axis=-1)


def _run_inv(src: np.ndarray, plan: _NarrowPlan) -> np.ndarray:
    """GS stages over a permuted copy of ``src``: (L, n) or (B, L, n)."""
    a = np.take(src, plan.bitrev, axis=-1)  # C order, as in _run_fwd
    lead, n = a.shape[:-1], a.shape[-1]
    levels = lead[-1]
    half = n >> 1
    b1 = np.empty((*lead, half), dtype=np.uint64)
    b2 = np.empty_like(b1)
    b3 = np.empty_like(b1)
    q3 = plan.q_col[:, :, None]
    c3 = plan.C_col[:, :, None]
    q4 = q3[:, :, :, None]
    c4 = c3[:, :, :, None]
    lanes = plan.lanes
    transposed = False
    if plan.inv and plan.inv[0][0] == "lane":
        a = _to_lanes(a, lanes)
        transposed = True
    for kind, h, t, w, ws in plan.inv:
        if transposed and kind == "full":
            a = _from_lanes(a, lanes)
            transposed = False
        if kind == "full":
            a3 = a.reshape(*lead, h, 2 * t)
            shape = (*lead, h, t)
            wshape = (levels, h, t)
            _stage_inv(
                a3[..., :t], a3[..., t:],
                w.reshape(wshape), ws.reshape(wshape), q3, c3,
                b1.reshape(shape), b2.reshape(shape), b3.reshape(shape),
                plan.lazy4,
            )
        else:
            msub = h // lanes
            a4 = a.reshape(*lead, msub, 2 * t, lanes)
            shape = (*lead, msub, t, lanes)
            _stage_inv(
                a4[..., :t, :], a4[..., t:, :], w, ws, q4, c4,
                b1.reshape(shape), b2.reshape(shape), b3.reshape(shape),
                plan.lazy4,
            )
    # Scale by n^-1 (Shoup), then normalize the lazy values below q.
    u1 = np.empty_like(a)
    u2 = np.empty_like(a)
    np.multiply(a, plan.inv_n_sh, out=u1)
    np.right_shift(u1, _U32, out=u1)
    np.multiply(u1, plan.q_col, out=u1)
    np.multiply(a, plan.inv_n_col, out=u2)
    np.subtract(u2, u1, out=a)  # < 3q
    np.subtract(a, plan.C2_col, out=u1)
    np.minimum(a, u1, out=a)
    np.subtract(a, plan.q_col, out=u1)
    np.minimum(a, u1, out=a)
    return a


# ----------------------------------------------------------------------
# Elementwise helpers shared by the public backend methods.

@lru_cache(maxsize=256)
def _narrow_columns(moduli: tuple[int, ...]):
    """Classic single-word Barrett columns for moduli <= 31 bits."""
    q = np.array(moduli, dtype=np.uint64)[:, None]
    bits = [int(m).bit_length() for m in moduli]
    mu = np.array(
        [(1 << (2 * k)) // int(m) for k, m in zip(bits, moduli)],
        dtype=np.uint64,
    )[:, None]
    klo = np.array([k - 1 for k in bits], dtype=np.uint64)[:, None]
    khi = np.array([k + 1 for k in bits], dtype=np.uint64)[:, None]
    return q, mu, klo, khi


def _barrett_narrow(x, cols):
    """Reduce ``x < q^2`` below ``q`` for moduli <= 31 bits, in place.

    ``x`` is overwritten with the result; one scratch array of its size
    is the only temporary.
    """
    q, mu, klo, khi = cols
    t = x >> klo
    t *= mu  # q1, mu < 2^(k+1); product < 2^64 for k <= 31
    t >>= khi
    t *= q
    x -= t  # < 3q
    for _ in range(2):
        np.subtract(x, q, out=t)
        np.minimum(x, t, out=x)
    return x


def _mulmod_rows(a, b, moduli):
    """``a * b mod q`` row-wise; operands must already be below q."""
    return _barrett_narrow(a * b, _narrow_columns(moduli))


def _q_col(basis: tuple[int, ...]) -> np.ndarray:
    """The ``(L, 1)`` modulus column of ``basis`` (shared; read only)."""
    return _narrow_columns(basis)[0]


class NumpyBackend(KernelBackend):
    """Vectorized uint64 kernels — Shoup/lazy NTT, Barrett products."""

    name = "numpy"

    # ------------------------------------------------------------------
    def ntt(self, data, moduli):
        data, basis = self._check(data, moduli)
        self._count("ntt", data.size)
        plan = _narrow_plan(basis, data.shape[-1])
        return _run_fwd(data.copy(), plan)

    def intt(self, data, moduli):
        data, basis = self._check(data, moduli)
        self._count("intt", data.size)
        plan = _narrow_plan(basis, data.shape[-1])
        return _run_inv(data, plan)

    # ------------------------------------------------------------------
    def mod_add(self, a, b, moduli):
        a, b, basis = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        q = _q_col(basis)
        s = a + b  # both < q < 2^31, so the sum fits
        return np.minimum(s, s - q)

    def mod_sub(self, a, b, moduli):
        a, b, basis = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        q = _q_col(basis)
        d = a + (q - b)
        return np.minimum(d, d - q)

    def mod_neg(self, a, moduli):
        a, basis = self._check(a, moduli)
        self._count("elementwise", a.size)
        q = _q_col(basis)
        d = q - a  # equals q when a == 0; the csub folds it to 0
        return np.minimum(d, d - q)

    def mod_mul(self, a, b, moduli):
        a, b, basis = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        return _mulmod_rows(a, b, basis)

    def mod_scalar_mul(self, a, scalars, moduli):
        a, basis = self._check_scalars(a, scalars, moduli)
        self._count("elementwise", a.size)
        s_col = np.array(
            [int(s) % q for s, q in zip(scalars, basis)], dtype=np.uint64
        )[:, None]
        return _mulmod_rows(a, s_col, basis)

    # ------------------------------------------------------------------
    def barrett_reduce(self, x, moduli):
        x, basis = self._check(x, moduli)
        self._count("barrett", x.size)
        return _barrett_narrow(x.copy(), _narrow_columns(basis))

    def lift(self, row, moduli):
        row = check_rows(row)
        basis = self.check_moduli(moduli)
        self._count("lift", row.size * len(basis))
        return row[..., None, :] % _q_col(basis)

    def basis_convert(self, y, table, target_moduli):
        y = np.asarray(y, dtype=np.uint64)
        table = np.asarray(table, dtype=np.uint64)
        basis = self.check_moduli(target_moduli)
        src_limbs, n = y.shape
        self._count("basis_convert", n * len(basis))
        p_col = _q_col(basis)
        acc = np.zeros((len(basis), n), dtype=np.uint64)
        for j in range(src_limbs):
            resid = y[j][None, :] % p_col
            term = _mulmod_rows(resid, table[j][:, None], basis)
            acc += term  # < 2p < 2^63
            np.minimum(acc, acc - p_col, out=acc)
        return acc
