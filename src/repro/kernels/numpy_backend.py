"""The ``numpy`` kernel backend: fully vectorized hot paths.

NTT and INTT
------------
Moduli are at most 31 bits (the base class's ``max_modulus_bits``,
which is also all :class:`~repro.rns.context.RnsContext` admits), so
residues fit in uint32 lanes. The transforms take and return canonical
uint64 rows like every other op, but run their butterflies on a uint32
copy with Harvey's lazy reduction:

* Every twiddle ``w`` (stored as uint32) carries a precomputed uint64
  companion ``w' = floor(w * 2^32 / q)``, and a product is Shoup's
  ``w*x - ((w'*x) >> 32) * q``, which lies in ``[0, 2q)`` for any
  ``x < 2^32``. Only the quotient ``(w'*x) >> 32`` is formed in uint64;
  ``w*x`` and the correction wrap modulo ``2^32`` in uint32, which is
  exact because the result fits.
* Butterfly operands stay lazily reduced. When every modulus has at
  most 30 bits, forward (Cooley-Tukey) operands stay below ``4q`` and
  inverse (Gentleman-Sande) operands below ``2q``; a basis holding a
  31-bit modulus (every keyswitch basis, through its aux prime) keeps
  them below ``2q`` and ``q``. Every intermediate, a forward output or
  an inverse sum, stays below ``4q < 2^32`` for a 30-bit ``q`` and
  ``2q < 2^32`` for a 31-bit one, so nothing overflows 32 bits.
  Conditional subtraction is the branch-free pair
  ``minimum(x, x - C)``: uint32 wraparound makes ``x - C`` exceed ``x``
  exactly when ``x < C``. One final pass brings values below ``q``.
* The layout follows from the call's shape alone. A call with fewer
  than ``n / _TAIL_T`` rows (``B * L`` of a ``(B, L, n)`` stack) keeps
  rows as rows: stages whose butterfly runs are at least ``_TAIL_T``
  long work on ``(..., m, 2t)`` views with per-limb twiddle columns,
  and once runs drop below ``_TAIL_T`` the rows are transposed once
  into a lane-major tail so the remaining stages keep unit-stride
  inner loops. A call with at least that many rows (every call on the
  N=64 rings of bootstrapping, where runs are 1-32 elements) folds its
  rows innermost instead: the ``(n, B * L)`` transpose runs every
  stage over all rows at once, with each limb's twiddles and constants
  repeated for every matrix of the stack.

Products
--------
Products of two variables use a single-word Barrett reduction in
uint64: residue products stay below ``q^2 < 2^62``, so every
intermediate fits. A product by a prepared constant
(``mod_mul_prepared``: switch keys, linear-transform spectra) is the
NTT's Shoup product on uint32 lanes against the constant's stored
uint32 companion, formed in ``[0, 2q)``: one conditional subtraction
makes it canonical, and an accumulating call adds it to the caller's
uint64 sum as it is.

Ufunc buffer
------------
numpy runs a ufunc whose operands are not one contiguous run through a
buffer of ``np.getbufsize()`` elements (8,192 by default), copying
each chunk of a strided operand in and the output back out. The
butterflies read the strided ``lo``/``hi`` halves of their blocks, and
the element-wise ops subtract ``(L, 1)`` modulus and twiddle columns,
so their contiguous runs are at most a row long and, under the default
buffer, every such pass is copied: it costs 2-3x a contiguous pass. A
call holding more than the default buffer therefore runs under a
buffer of ``_ROW_BUFFER`` (1,024) elements (:func:`_scoped`), no longer
than a row of the rings that reach it, and numpy iterates those views
in place. No result depends on the buffer size. With numpy 2.4 on a
shared 2-core x86 host (minimum of repeated calls, default -> scoped):
``ntt`` of a (1, 9, 4096) keyswitch digit 1.82 -> 1.22 ms, ``intt`` of
(2, 9, 4096) 3.55 -> 2.29 ms, ``mod_mul`` of (2, 9, 4096) 0.88 -> 0.65
ms, and a folded ``ntt`` of a (30, 17, 64) bootstrapping stack 0.67 ->
0.52 ms. Smaller calls skip the scope, whose set and restore cost
~3 us, about a small call's whole budget. The caller's size is
restored in a ``finally``, not by ``np.errstate``, which does not
scope the buffer size on numpy 1.x.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.kernels.base import KernelBackend, check_rows
from repro.ntt.tables import get_twiddle_table
from repro.utils.bitops import ilog2, reverse_bits_array

_SHIFT = np.uint64(32)

#: Butterfly runs shorter than this switch to the lane-major tail, and
#: a call with at least ``n / _TAIL_T`` rows folds them innermost.
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


class _Columns(NamedTuple):
    """Per-limb (or, tiled, per-row) uint32 constants of a basis.

    ``h`` is half the forward bound and the whole inverse bound: ``2q``
    when every modulus has at most 30 bits, ``q`` when the basis holds a
    31-bit modulus (``wide``), so ``2h < 2^32`` either way.
    """

    wide: bool
    q: np.ndarray
    h: np.ndarray
    inv_n: np.ndarray
    inv_n_sh: np.ndarray  # uint64 Shoup companion of inv_n


@lru_cache(maxsize=64)
def _columns(moduli: tuple[int, ...], n: int) -> _Columns:
    q = np.array(moduli, dtype=np.uint64)
    inv_n = np.array(
        [get_twiddle_table(m, n).inv_n for m in moduli], dtype=np.uint64
    )
    wide = max(moduli).bit_length() > 30
    q32 = q.astype(np.uint32)
    return _Columns(
        wide, q32, q32 * np.uint32(1 if wide else 2),
        inv_n.astype(np.uint32), (inv_n << _SHIFT) // q,
    )


def _twiddles(moduli: tuple[int, ...], n: int, inverse: bool):
    """``(L, n)`` bit-reversed twiddles ``w`` (uint32) and their Shoup
    companions ``w' = floor(w * 2^32 / q)`` (uint64)."""
    tbls = [get_twiddle_table(q, n) for q in moduli]
    w = np.stack([
        t.ipsi_powers_bitrev if inverse else t.psi_powers_bitrev
        for t in tbls
    ])
    w_sh = (w << _SHIFT) // np.array(moduli, dtype=np.uint64)[:, None]
    return w.astype(np.uint32), w_sh


class _RowPlan:
    """Stages for rows laid out as rows, ``(..., L, n)``.

    Stages whose butterfly runs are at least ``_TAIL_T`` long read
    ``(L, m, 1)`` twiddle columns that broadcast over each run; the
    rest run on the lane-major transpose and read ``(L, msub, 1,
    lanes)`` twiddles, so each stage's twiddles are stored once.
    """

    def __init__(self, moduli: tuple[int, ...], n: int, inverse: bool):
        self.cols = _columns(moduli, n)
        w, w_sh = _twiddles(moduli, n, inverse)

        # Lane count for the transposed tail: the smallest block count
        # whose stage has runs shorter than _TAIL_T.
        lanes = 0
        m = 1
        while m < n:
            if n // (2 * m) < _TAIL_T and m >= _TAIL_T:
                lanes = m
                break
            m <<= 1
        self.lanes = lanes

        # Forward (CT) stages run m = 1 .. n/2 (runs shrink), inverse
        # (GS) stages m = n/2 .. 1 (runs grow).
        ms = [1 << k for k in range(ilog2(n))]
        self.stages = []
        for m in reversed(ms) if inverse else ms:
            if lanes and m >= lanes:
                tw = (_lane_view(w, m, lanes), _lane_view(w_sh, m, lanes))
            else:
                tw = (w[:, m:2 * m, None].copy(),
                      w_sh[:, m:2 * m, None].copy())
            self.stages.append((m, n // (2 * m), *tw))


class _FoldPlan:
    """Twiddles for rows folded innermost, ``(n, B * L)``.

    Row ``j`` of ``w`` holds every limb's ``j``-th bit-reversed twiddle,
    so stage ``m`` reads rows ``m .. 2m``; a stack of ``B`` matrices
    repeats them ``B`` times along the row axis (:func:`_stacked`).
    """

    def __init__(self, moduli: tuple[int, ...], n: int, inverse: bool):
        w, w_sh = _twiddles(moduli, n, inverse)
        self.w = np.ascontiguousarray(w.T)
        self.w_sh = np.ascontiguousarray(w_sh.T)


@lru_cache(maxsize=64)
def _row_plan(moduli: tuple[int, ...], n: int, inverse: bool) -> _RowPlan:
    return _RowPlan(moduli, n, inverse)


@lru_cache(maxsize=64)
def _fold_plan(moduli: tuple[int, ...], n: int, inverse: bool) -> _FoldPlan:
    return _FoldPlan(moduli, n, inverse)


@lru_cache(maxsize=256)
def _fold_columns(moduli: tuple[int, ...], n: int, batch: int) -> _Columns:
    """:func:`_columns` with one entry per row of a ``batch`` stack,
    built once per stack height (a few dozen on bootstrapping)."""
    cols = _columns(moduli, n)
    return _Columns(cols.wide, *(np.tile(c, batch) for c in cols[1:]))


def _folds(rows: int, n: int) -> bool:
    """Whether a call with ``rows`` rows of degree ``n`` folds them
    innermost: once the rows outnumber a row's ``_TAIL_T``-long runs,
    every stage's inner loop over them is long enough, and folding
    skips the lane-major tail's transposes."""
    return rows * _TAIL_T >= n


def _shoup(x, w, ws, q, p, t, out):
    """``out <- w * x mod q`` in ``[0, 2q)`` for any ``x < 2^32`` (Shoup).

    Only the quotient ``(x * w') >> 32`` needs 64 bits; the product and
    the correction are exact modulo ``2^32`` because the result is.
    ``out`` may be ``x``.
    """
    np.multiply(x, ws, out=p)
    np.right_shift(p, _SHIFT, out=t, casting="unsafe")
    np.multiply(t, q, out=t)
    np.multiply(x, w, out=out)
    np.subtract(out, t, out=out)


def _csub(x, c, t):
    """``x <- x - c`` where ``x >= c``, in place, for ``x < 2c``.

    Branch-free: ``x - c`` wraps past ``x`` exactly when ``x < c``.
    """
    np.subtract(x, c, out=t)
    np.minimum(x, t, out=x)


def _stage_fwd(lo, hi, block, w, ws, q, h, wide, p, t1, t2, f):
    """One CT stage ``(lo, hi) <- (lo + w*hi, lo - w*hi)`` (Harvey's
    lazy butterfly), operands below ``2h``.

    ``block`` is ``lo`` and ``hi`` together; ``f`` is block-sized
    scratch sharing ``p``'s memory.
    """
    _shoup(hi, w, ws, q, p, t1, hi)  # < 2q
    if wide:
        _csub(block, h, f)  # lo and w*hi < q = h
    else:
        _csub(lo, h, t1)  # < h = 2q
    np.subtract(lo, hi, out=t2)
    np.add(lo, hi, out=lo)  # < 2h
    np.add(t2, h, out=hi)  # lo - w*hi + h, in (0, 2h)


def _stage_inv(lo, hi, block, w, ws, q, h, wide, p, t1, t2, f):
    """One GS stage ``(lo, hi) <- (lo + hi, w*(lo - hi))``, operands
    below ``h`` (arguments as for :func:`_stage_fwd`)."""
    np.subtract(lo, hi, out=t2)
    np.add(t2, h, out=t2)  # lo - hi + h, in (0, 2h)
    np.add(lo, hi, out=lo)  # < 2h
    _shoup(t2, w, ws, q, p, t1, hi)  # < 2q
    if wide:
        _csub(block, h, f)  # both < q = h
    else:
        _csub(lo, h, t1)  # < h = 2q


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


def _run_rows(a: np.ndarray, plan: _RowPlan, stage) -> np.ndarray:
    """Every stage of ``plan`` over uint32 ``(L, n)`` or ``(B, L, n)``
    rows, entering and leaving the lane-major tail as it requires."""
    lead, n = a.shape[:-1], a.shape[-1]
    cols, lanes = plan.cols, plan.lanes
    p = np.empty((*lead, n >> 1), dtype=np.uint64)
    t1 = np.empty(p.shape, dtype=np.uint32)
    t2 = np.empty_like(t1)
    q3, h3 = cols.q[:, None, None], cols.h[:, None, None]
    q4, h4 = q3[..., None], h3[..., None]
    transposed = False
    for m, t, w, ws in plan.stages:
        if (lanes and m >= lanes) != transposed:
            a = _from_lanes(a, lanes) if transposed else _to_lanes(a, lanes)
            transposed = not transposed
        if transposed:
            block = a.reshape(*lead, m // lanes, 2 * t, lanes)
            half = (*lead, m // lanes, t, lanes)
            lo, hi, q, h = block[..., :t, :], block[..., t:, :], q4, h4
        else:
            block = a.reshape(*lead, m, 2 * t)
            half = (*lead, m, t)
            lo, hi, q, h = block[..., :t], block[..., t:], q3, h3
        stage(lo, hi, block, w, ws, q, h, cols.wide, p.reshape(half),
              t1.reshape(half), t2.reshape(half),
              p.view(np.uint32).reshape(block.shape))
    return _from_lanes(a, lanes) if transposed else a


def _stacked(c: np.ndarray, rows: int) -> np.ndarray:
    """Per-limb ``(n, L)`` twiddles repeated for each matrix of an
    ``(n, rows)`` stack, in one broadcast assignment.

    Broadcasting them inside the stages instead (an ``(m, 1, 1, L)``
    operand against ``(m, t, B, L)`` blocks) cuts numpy's inner loops
    to ``L`` elements and made the folded transforms ~12% slower.
    """
    n, limbs = c.shape
    if rows == limbs:
        return c
    out = np.empty((n, rows // limbs, limbs), dtype=c.dtype)
    out[...] = c[:, None]
    return out.reshape(n, rows)


def _run_folded(a: np.ndarray, plan: _FoldPlan, cols: _Columns,
                stage, inverse: bool) -> np.ndarray:
    """Every stage over ``(n, R)`` uint32 ``a`` with its ``R`` rows
    innermost; ``cols`` holds one constant per row."""
    n, rows = a.shape
    w, w_sh = _stacked(plan.w, rows), _stacked(plan.w_sh, rows)
    p = np.empty((n >> 1) * rows, dtype=np.uint64)
    t1 = np.empty(p.shape, dtype=np.uint32)
    t2 = np.empty_like(t1)
    f = p.view(np.uint32).reshape(a.shape)
    ms = [1 << k for k in range(ilog2(n))]
    for m in reversed(ms) if inverse else ms:
        t = n // (2 * m)
        block = a.reshape(m, 2 * t, rows)
        half = (m, t, rows)
        stage(block[:, :t], block[:, t:], block,
              w[m:2 * m, None], w_sh[m:2 * m, None], cols.q, cols.h,
              cols.wide, p.reshape(half), t1.reshape(half),
              t2.reshape(half), f.reshape(block.shape))
    return a


def _finish_fwd(a: np.ndarray, cols_q, cols_h, wide: bool) -> None:
    """Bring forward outputs (``< 2h``) below ``q``, in place."""
    t = np.empty_like(a)
    if not wide:
        _csub(a, cols_h, t)  # < h = 2q
    _csub(a, cols_q, t)


def _finish_inv(a: np.ndarray, q, inv_n, inv_n_sh) -> None:
    """Scale inverse outputs by ``n^-1`` and reduce below ``q``, in place."""
    p = np.empty(a.shape, dtype=np.uint64)
    t = np.empty_like(a)
    _shoup(a, inv_n, inv_n_sh, q, p, t, a)
    _csub(a, q, t)


def _ntt(data: np.ndarray, basis: tuple[int, ...]) -> np.ndarray:
    """Forward NTT of canonical uint64 rows, canonical uint64 out."""
    n = data.shape[-1]
    rows = data.size // n
    if _folds(rows, n):
        plan = _fold_plan(basis, n, False)
        cols = _fold_columns(basis, n, rows // len(basis))
        a = np.ascontiguousarray(data.reshape(rows, n).T, dtype=np.uint32)
        a = _run_folded(a, plan, cols, _stage_fwd, False)
        _finish_fwd(a, cols.q, cols.h, cols.wide)
        a = np.take(a, _bitrev(n), axis=0)
        return np.ascontiguousarray(a.T, dtype=np.uint64).reshape(data.shape)
    plan = _row_plan(basis, n, False)
    cols = plan.cols
    a = _run_rows(data.astype(np.uint32), plan, _stage_fwd)
    _finish_fwd(a, cols.q[:, None], cols.h[:, None], cols.wide)
    # np.take returns C order; a[..., idx] would return a transposed
    # layout that every later elementwise op and reshape pays for.
    return np.take(a, _bitrev(n), axis=-1).astype(np.uint64)


def _intt(data: np.ndarray, basis: tuple[int, ...]) -> np.ndarray:
    """Inverse NTT of canonical uint64 rows, canonical uint64 out."""
    n = data.shape[-1]
    rows = data.size // n
    if _folds(rows, n):
        plan = _fold_plan(basis, n, True)
        cols = _fold_columns(basis, n, rows // len(basis))
        a = np.take(data.reshape(rows, n).T, _bitrev(n), axis=0)
        a = _run_folded(a.astype(np.uint32), plan, cols, _stage_inv, True)
        _finish_inv(a, cols.q, cols.inv_n, cols.inv_n_sh)
        return np.ascontiguousarray(a.T, dtype=np.uint64).reshape(data.shape)
    plan = _row_plan(basis, n, True)
    cols = plan.cols
    a = np.take(data, _bitrev(n), axis=-1).astype(np.uint32)
    a = _run_rows(a, plan, _stage_inv)
    _finish_inv(a, cols.q[:, None], cols.inv_n[:, None],
                cols.inv_n_sh[:, None])
    return a.astype(np.uint64)


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


@lru_cache(maxsize=256)
def _q32_col(basis: tuple[int, ...]) -> np.ndarray:
    """The ``(L, 1)`` uint32 modulus column of ``basis`` (read only)."""
    return _q_col(basis).astype(np.uint32)


def _mod_add(a, b, basis):
    q = _q_col(basis)
    s = a + b  # both < q < 2^31, so the sum fits
    return np.minimum(s, s - q)


def _mod_sub(a, b, basis):
    q = _q_col(basis)
    d = a + (q - b)
    return np.minimum(d, d - q)


def _mod_neg(a, basis):
    q = _q_col(basis)
    d = q - a  # equals q when a == 0; the csub folds it to 0
    return np.minimum(d, d - q)


def _mul_prepared(a, w, ws, basis, acc):
    """Shoup products ``a * w`` on uint32 lanes (``a`` canonical, so it
    fits), canonical, or summed lazily into ``acc`` over the first axis."""
    q = _q32_col(basis)
    x = a.astype(np.uint32)
    shape = np.broadcast_shapes(x.shape, w.shape)
    p = np.empty(shape, dtype=np.uint64)
    t = np.empty(shape, dtype=np.uint32)
    np.multiply(x, ws, out=p, dtype=np.uint64)
    np.right_shift(p, _SHIFT, out=t, casting="unsafe")
    np.multiply(t, q, out=t)
    # p is spent: its first half holds the uint32 products.
    r = p.reshape(-1).view(np.uint32)[:t.size].reshape(shape)
    np.multiply(x, w, out=r)
    np.subtract(r, t, out=r)  # w*x mod q, in [0, 2q)
    if acc is not None:
        if len(r) == 1:  # adding in place skips a temporary
            np.add(acc, r[0], out=acc)
        else:
            acc += np.add.reduce(r, axis=0, dtype=np.uint64)
        return acc
    np.subtract(r, q, out=t)
    np.minimum(r, t, out=t)
    np.copyto(p, t)
    return p


def _lift(row, basis):
    """Digit rows (below ``max(q) < 2^31``) reduced into every modulus
    on uint32 lanes; canonical uint64 out."""
    out = np.empty((*row.shape[:-1], len(basis), row.shape[-1]), np.uint64)
    np.remainder(row.astype(np.uint32)[..., None, :], _q32_col(basis), out=out)
    return out


def _basis_convert(y, table, basis):
    src_limbs, n = y.shape
    p_col = _q_col(basis)
    acc = np.zeros((len(basis), n), dtype=np.uint64)
    for j in range(src_limbs):
        resid = y[j][None, :] % p_col
        term = _mulmod_rows(resid, table[j][:, None], basis)
        acc += term  # < 2p < 2^63
        np.minimum(acc, acc - p_col, out=acc)
    return acc


#: numpy's default ufunc buffer, in elements.
_NUMPY_BUFFER = 8192

#: The ufunc buffer a call larger than :data:`_NUMPY_BUFFER` runs with.
_ROW_BUFFER = 1024


def _scoped(size: int, kernel, *args):
    """``kernel(*args)``, under a ufunc buffer of :data:`_ROW_BUFFER`
    elements when the call holds more than :data:`_NUMPY_BUFFER`.

    The caller's buffer size is restored explicitly, since numpy 1.x's
    ``errstate`` does not scope it (module docstring).
    """
    if size <= _NUMPY_BUFFER:
        return kernel(*args)
    previous = np.setbufsize(_ROW_BUFFER)
    try:
        return kernel(*args)
    finally:
        np.setbufsize(previous)


class NumpyBackend(KernelBackend):
    """Vectorized kernels: uint32 Shoup/lazy NTT and prepared-constant
    products, uint64 Barrett products."""

    name = "numpy"

    # ------------------------------------------------------------------
    def ntt(self, data, moduli):
        data, basis = self._check(data, moduli)
        self._count("ntt", data.size)
        return _scoped(data.size, _ntt, data, basis)

    def intt(self, data, moduli):
        data, basis = self._check(data, moduli)
        self._count("intt", data.size)
        return _scoped(data.size, _intt, data, basis)

    # ------------------------------------------------------------------
    def mod_add(self, a, b, moduli):
        a, b, basis = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        return _scoped(a.size, _mod_add, a, b, basis)

    def mod_sub(self, a, b, moduli):
        a, b, basis = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        return _scoped(a.size, _mod_sub, a, b, basis)

    def mod_neg(self, a, moduli):
        a, basis = self._check(a, moduli)
        self._count("elementwise", a.size)
        return _scoped(a.size, _mod_neg, a, basis)

    def mod_mul(self, a, b, moduli):
        a, b, basis = self._check_pair(a, b, moduli)
        self._count("elementwise", a.size)
        return _scoped(a.size, _mulmod_rows, a, b, basis)

    def mod_mul_prepared(self, a, w, w_shoup, moduli, acc=None):
        a, w, w_shoup, basis, size = self._check_prepared(
            a, w, w_shoup, moduli, acc
        )
        self._count("elementwise", size)
        return _scoped(size, _mul_prepared, a, w, w_shoup, basis, acc)

    def mod_scalar_mul(self, a, scalars, moduli):
        a, basis = self._check_scalars(a, scalars, moduli)
        self._count("elementwise", a.size)
        s_col = np.array(
            [int(s) % q for s, q in zip(scalars, basis)], dtype=np.uint64
        )[:, None]
        return _scoped(a.size, _mulmod_rows, a, s_col, basis)

    # ------------------------------------------------------------------
    def barrett_reduce(self, x, moduli):
        x, basis = self._check(x, moduli)
        self._count("barrett", x.size)
        return _scoped(
            x.size, _barrett_narrow, x.copy(), _narrow_columns(basis)
        )

    def lift(self, row, moduli):
        row = check_rows(row)
        basis = self.check_moduli(moduli)
        size = row.size * len(basis)
        self._count("lift", size)
        return _scoped(size, _lift, row, basis)

    def basis_convert(self, y, table, target_moduli):
        y = np.asarray(y, dtype=np.uint64)
        table = np.asarray(table, dtype=np.uint64)
        basis = self.check_moduli(target_moduli)
        size = y.shape[1] * len(basis)
        self._count("basis_convert", size)
        return _scoped(size, _basis_convert, y, table, basis)
