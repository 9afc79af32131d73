"""The batch axis: a ``(B, L, N)`` stack is its matrices, stacked.

Every kernel op that takes a leading batch axis must return, bit for
bit, what stacking its per-matrix results returns — on every
registered backend, over narrow (<= 31-bit) and 62-bit moduli, and for
``B == 1`` too (a one-matrix stack must not be read as limbs).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels

from ._support import (
    BACKENDS,
    PRIME_POOL_30,
    PRIME_POOL_62,
    backends_supporting,
    random_matrix,
    rns_shapes,
)

WIDE_BACKENDS = backends_supporting(PRIME_POOL_62)


@st.composite
def narrow_stacks(draw):
    """``(moduli, degree, batch, seed)`` over the 30/31-bit pools."""
    moduli, degree = draw(rns_shapes())
    batch = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return moduli, degree, batch, seed


@st.composite
def wide_stacks(draw):
    """``(moduli, degree, batch, seed)`` over the 62-bit pool."""
    limbs = draw(st.integers(min_value=1, max_value=len(PRIME_POOL_62)))
    degree = draw(st.sampled_from((16, 32, 64)))
    batch = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return PRIME_POOL_62[:limbs], degree, batch, seed


def _stack(moduli, degree, batch, seed):
    return np.stack([
        random_matrix(moduli, degree, seed + i) for i in range(batch)
    ])


def _per_matrix(op, *stacks, **kwargs):
    return np.stack([op(*mats, **kwargs) for mats in zip(*stacks)])


def _check_every_op(backend, moduli, degree, batch, seed):
    a = _stack(moduli, degree, batch, seed)
    b = _stack(moduli, degree, batch, seed + 1000)
    for radix_log2 in (1, 2, 3):
        for op in (backend.ntt, backend.intt):
            got = op(a, moduli, radix_log2=radix_log2)
            want = _per_matrix(
                lambda m: op(m, moduli, radix_log2=radix_log2), a
            )
            assert got.shape == a.shape
            np.testing.assert_array_equal(got, want)
    for op in (backend.mod_add, backend.mod_sub, backend.mod_mul):
        np.testing.assert_array_equal(
            op(a, b, moduli), _per_matrix(lambda x, y: op(x, y, moduli), a, b)
        )
    np.testing.assert_array_equal(
        backend.mod_neg(a, moduli),
        _per_matrix(lambda x: backend.mod_neg(x, moduli), a),
    )
    scalars = [int(v) for v in np.random.default_rng(seed).integers(
        0, 1 << 62, len(moduli), dtype=np.uint64
    )]
    np.testing.assert_array_equal(
        backend.mod_scalar_mul(a, scalars, moduli),
        _per_matrix(lambda x: backend.mod_scalar_mul(x, scalars, moduli), a),
    )
    # Below q^2 for narrow moduli; any uint64 is in the wide domain.
    products = a * b
    np.testing.assert_array_equal(
        backend.barrett_reduce(products, moduli),
        _per_matrix(lambda x: backend.barrett_reduce(x, moduli), products),
    )
    rows = a[:, 0, :]
    lifted = backend.lift(rows, moduli)
    assert lifted.shape == (batch, len(moduli), degree)
    np.testing.assert_array_equal(
        lifted, _per_matrix(lambda r: backend.lift(r, moduli), rows)
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(drawn=narrow_stacks())
def test_stack_equals_stacked_matrices_narrow(backend_name, drawn):
    _check_every_op(kernels.resolve(backend_name), *drawn)


@pytest.mark.parametrize("backend_name", WIDE_BACKENDS)
@given(drawn=wide_stacks())
def test_stack_equals_stacked_matrices_wide(backend_name, drawn):
    _check_every_op(kernels.resolve(backend_name), *drawn)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_one_matrix_stack_is_not_read_as_limbs(backend_name):
    """B == 1 over one limb: (1, 1, N) stays a stack of one matrix."""
    backend = kernels.resolve(backend_name)
    moduli = PRIME_POOL_30[:1]
    data = random_matrix(moduli, 16, 7)[None]
    for op in (backend.ntt, backend.intt, backend.mod_neg):
        got = op(data, moduli)
        assert got.shape == (1, 1, 16)
        np.testing.assert_array_equal(got[0], op(data[0], moduli))
    lifted = backend.lift(data[0], moduli)
    assert lifted.shape == (1, 1, 16)
