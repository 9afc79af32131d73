"""The ``numpy`` backend's ufunc-buffer scope leaves the caller's state.

A ``numpy`` kernel call larger than numpy's default ufunc buffer runs
under a buffer of one row (see :mod:`repro.kernels.numpy_backend`) and
restores the caller's buffer size afterwards, also when it raises. The
buffer only changes how numpy iterates, never a result: outputs are
identical whatever buffer size the caller set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.errors import KernelError
from repro.kernels import numpy_backend
from repro.utils.primes import find_ntt_primes

NUMPY = kernels.resolve("numpy")

#: A keyswitch-shaped basis: 30-bit chain primes and a 31-bit aux prime.
MODULI = tuple(find_ntt_primes(30, 3, 4096) + find_ntt_primes(31, 1, 4096))

#: One small call (under numpy's default buffer, left unscoped), one
#: large row-layout call and one large folded stack (both scoped).
SHAPES = {"small": (4, 64), "rows": (2, 4, 4096), "folded": (48, 4, 64)}


def _residues(shape, seed):
    q = np.array(MODULI, dtype=np.uint64)[:, None]
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 62, shape, dtype=np.uint64) % q


def _ops(shape):
    """Every ``NumpyBackend`` op on ``shape``-sized operands, by name."""
    a, b = _residues(shape, 0), _residues(shape, 1)
    w = b.astype(np.uint32)
    w_shoup = kernels.shoup_companions(w, MODULI)
    table = np.arange(1, 9, dtype=np.uint64).reshape(2, 4)
    return {
        "ntt": lambda: NUMPY.ntt(a, MODULI),
        "intt": lambda: NUMPY.intt(a, MODULI),
        "mod_add": lambda: NUMPY.mod_add(a, b, MODULI),
        "mod_sub": lambda: NUMPY.mod_sub(a, b, MODULI),
        "mod_neg": lambda: NUMPY.mod_neg(a, MODULI),
        "mod_mul": lambda: NUMPY.mod_mul(a, b, MODULI),
        "mod_mul_prepared": lambda: NUMPY.mod_mul_prepared(a, w, w_shoup, MODULI),
        "mod_scalar_mul": lambda: NUMPY.mod_scalar_mul(a, [3, 5, 7, 11], MODULI),
        "barrett_reduce": lambda: NUMPY.barrett_reduce(a * b, MODULI),
        "lift": lambda: NUMPY.lift(a[..., 0, :], MODULI),
        "basis_convert": lambda: NUMPY.basis_convert(
            a.reshape(-1, a.shape[-1])[:2], table, MODULI
        ),
    }


@pytest.fixture
def caller_state():
    """A caller's buffer size and error handling, distinct from the
    defaults and from the backend's own buffer."""
    with np.errstate(over="raise", invalid="ignore", divide="warn"):
        previous = np.setbufsize(4096 + 16)
        try:
            yield np.getbufsize(), np.geterr()
        finally:
            np.setbufsize(previous)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("op", sorted(_ops((4, 64))))
def test_every_op_restores_the_callers_state(caller_state, op, shape):
    _ops(SHAPES[shape])[op]()
    assert (np.getbufsize(), np.geterr()) == caller_state


def test_a_raising_op_restores_the_callers_state(caller_state, monkeypatch):
    # Refused before any arithmetic...
    with pytest.raises(KernelError):
        NUMPY.ntt(_residues(SHAPES["rows"], 0), MODULI[:2])
    assert (np.getbufsize(), np.geterr()) == caller_state

    # ...and raising inside the scoped arithmetic of a large call.
    def fail(*args):
        assert np.getbufsize() == numpy_backend._ROW_BUFFER
        raise KernelError("planted")

    monkeypatch.setattr(numpy_backend, "_ntt", fail)
    with pytest.raises(KernelError, match="planted"):
        NUMPY.ntt(_residues(SHAPES["rows"], 0), MODULI)
    assert (np.getbufsize(), np.geterr()) == caller_state


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_outputs_do_not_depend_on_the_callers_buffer(shape):
    results = {}
    for size in (16, 1 << 20):
        previous = np.setbufsize(size)
        try:
            results[size] = {
                name: run() for name, run in _ops(SHAPES[shape]).items()
            }
        finally:
            np.setbufsize(previous)
    for name, small in results[16].items():
        np.testing.assert_array_equal(small, results[1 << 20][name], err_msg=name)
