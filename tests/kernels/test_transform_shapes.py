"""NTT/INTT at the shapes the CKKS workloads call, on both layouts.

The ``numpy`` backend picks its butterfly layout from a call's shape:
rows stay rows (runs innermost, lane-major tail) for the long rings of
``CkksParameters.default(degree=4096)``, and a stack's rows fold
innermost for the short rings of ``bootstrap_capable``. Each case here
compares it bit for bit with the ``reference`` backend at one of those
shapes, on random, all-zero and all-``q - 1`` inputs (the extremes of
the lazy-reduction bounds), and checks the result is canonical C-order
uint64 like its input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.ckks import CkksParameters
from repro.ckks.presets import bootstrap_capable

REFERENCE = kernels.resolve("reference")
NUMPY = kernels.resolve("numpy")


def _bases():
    ops = CkksParameters.default(degree=4096, levels=8, scale_bits=30)
    boot = bootstrap_capable()[0]
    ops_key = tuple(ops.chain_moduli) + tuple(ops.aux_moduli)
    boot_key = tuple(boot.chain_moduli) + tuple(boot.aux_moduli)
    return {
        # ckks-ops: the 8-limb chain (30-bit moduli), the 9-limb key
        # basis with the 31-bit aux prime, and a two-digit stack of it.
        "4096-chain": ((8, 4096), tuple(ops.chain_moduli)),
        "4096-key": ((9, 4096), ops_key),
        "4096-key-stack": ((2, 9, 4096), ops_key),
        # ckks-bootstrap: a one-matrix stack over the aux prime and the
        # top of the chain, and keyswitch-digit stacks of the key basis.
        "64-key-tail": ((1, 5, 64), boot_key[-5:]),
        "64-key-16": ((16, 17, 64), boot_key),
        "64-key-30": ((30, 17, 64), boot_key),
    }


BASES = _bases()


def _inputs(shape, moduli, kind):
    q = np.array(moduli, dtype=np.uint64)[:, None]
    if kind == "zero":
        return np.zeros(shape, dtype=np.uint64)
    if kind == "max":
        return np.ascontiguousarray(np.broadcast_to(q - 1, shape))
    rng = np.random.default_rng(sum(shape))
    return rng.integers(0, 1 << 62, shape, dtype=np.uint64) % q


@pytest.mark.parametrize("kind", ["random", "zero", "max"])
@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("op", ["ntt", "intt"])
def test_numpy_matches_reference(op, name, kind):
    shape, moduli = BASES[name]
    data = _inputs(shape, moduli, kind)
    before = data.copy()
    got = getattr(NUMPY, op)(data, moduli)
    np.testing.assert_array_equal(got, getattr(REFERENCE, op)(data, moduli))
    assert got.dtype == np.uint64
    assert got.shape == shape
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(data, before)


@pytest.mark.parametrize("name", sorted(BASES))
def test_roundtrip(name):
    shape, moduli = BASES[name]
    data = _inputs(shape, moduli, "random")
    np.testing.assert_array_equal(
        NUMPY.intt(NUMPY.ntt(data, moduli), moduli), data
    )
