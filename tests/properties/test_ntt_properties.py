"""Property-based NTT/INTT invariants, checked on every kernel backend.

The three load-bearing properties:

1. ``INTT(NTT(a)) == a`` — the transforms are mutually inverse.
2. ``INTT(NTT(a) ⊙ NTT(b)) == a * b mod (x^n + 1)`` against a big-int
   O(n^2) oracle — the transform actually diagonalizes the negacyclic
   ring, not just *some* invertible map.
3. The fused radix-2^k kernel (:class:`~repro.ntt.fusion.FusedNtt`)
   is bit-identical to radix-2 and to every backend for k in {1,2,3}
   — fusion changes the reduction schedule, never the value.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels
from repro.errors import KernelError
from repro.ntt.radix2 import intt_radix2, ntt_radix2
from repro.ntt.tables import get_twiddle_table
from tests.conftest import fused_rows

from ._support import (
    BACKENDS,
    backends_supporting,
    negacyclic_convolution,
    residue_matrices,
    wide_residue_matrices,
)

FUSION_RADICES = (1, 2, 3)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("radix_log2", FUSION_RADICES)
@given(drawn=residue_matrices())
def test_ntt_intt_roundtrip(backend_name, radix_log2, drawn):
    """The backend's INTT undoes its NTT, and so does the fused one."""
    data, moduli = drawn
    backend = kernels.resolve(backend_name)
    fwd = backend.ntt(data, moduli)
    back = backend.intt(fwd, moduli)
    np.testing.assert_array_equal(back, data)
    assert back.dtype == np.uint64
    np.testing.assert_array_equal(
        fused_rows(fwd, moduli, radix_log2, inverse=True), data
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(drawn=residue_matrices(max_limbs=2), seed=st.integers(0, 2**32 - 1))
def test_pointwise_product_is_negacyclic_convolution(
    backend_name, drawn, seed
):
    a, moduli = drawn
    rng = np.random.default_rng(seed)
    b = np.stack(
        [rng.integers(0, q, a.shape[1], dtype=np.uint64) for q in moduli]
    )
    backend = kernels.resolve(backend_name)
    prod_ntt = backend.mod_mul(
        backend.ntt(a, moduli), backend.ntt(b, moduli), moduli
    )
    got = backend.intt(prod_ntt, moduli)
    for i, q in enumerate(moduli):
        expected = negacyclic_convolution(a[i], b[i], q)
        np.testing.assert_array_equal(got[i], np.array(expected, np.uint64))


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("radix_log2", (2, 3))
@given(drawn=residue_matrices())
def test_fused_radix_matches_radix2(backend_name, radix_log2, drawn):
    """Fused radix-2^k rows equal ``ntt_radix2`` rows and the backend."""
    data, moduli = drawn
    backend = kernels.resolve(backend_name)
    tables = [get_twiddle_table(q, data.shape[1]) for q in moduli]
    fwd = fused_rows(data, moduli, radix_log2)
    np.testing.assert_array_equal(
        fwd, np.stack([ntt_radix2(r, t) for r, t in zip(data, tables)])
    )
    np.testing.assert_array_equal(fwd, backend.ntt(data, moduli))
    inv = fused_rows(data, moduli, radix_log2, inverse=True)
    np.testing.assert_array_equal(
        inv, np.stack([intt_radix2(r, t) for r, t in zip(data, tables)])
    )
    np.testing.assert_array_equal(inv, backend.intt(data, moduli))


@pytest.mark.parametrize("radix_log2", FUSION_RADICES)
@given(drawn=residue_matrices())
def test_backends_bit_identical_on_transforms(radix_log2, drawn):
    """Every registered backend, and the fused radix-2^k kernel, match
    the reference oracle exactly."""
    data, moduli = drawn
    ref = kernels.resolve("reference")
    want_fwd = ref.ntt(data, moduli)
    want_inv = ref.intt(data, moduli)
    np.testing.assert_array_equal(
        want_fwd, fused_rows(data, moduli, radix_log2)
    )
    np.testing.assert_array_equal(
        want_inv, fused_rows(data, moduli, radix_log2, inverse=True)
    )
    for name in BACKENDS:
        if name == "reference":
            continue
        other = kernels.resolve(name)
        np.testing.assert_array_equal(want_fwd, other.ntt(data, moduli))
        np.testing.assert_array_equal(want_inv, other.intt(data, moduli))


@given(drawn=wide_residue_matrices())
def test_overflow_edge_rejected_by_narrow_backends(drawn):
    """Backends without a wide path must refuse, not corrupt."""
    data, moduli = drawn
    capable = set(backends_supporting(moduli))
    for name in BACKENDS:
        if name in capable:
            continue
        with pytest.raises(KernelError):
            kernels.resolve(name).ntt(data, moduli)


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(drawn=residue_matrices(), seed=st.integers(0, 2**32 - 1))
def test_ntt_is_linear(backend_name, drawn, seed):
    """NTT(a + b) == NTT(a) + NTT(b) — transforms are ring-additive."""
    a, moduli = drawn
    rng = np.random.default_rng(seed)
    b = np.stack(
        [rng.integers(0, q, a.shape[1], dtype=np.uint64) for q in moduli]
    )
    backend = kernels.resolve(backend_name)
    lhs = backend.ntt(backend.mod_add(a, b, moduli), moduli)
    rhs = backend.mod_add(
        backend.ntt(a, moduli), backend.ntt(b, moduli), moduli
    )
    np.testing.assert_array_equal(lhs, rhs)
