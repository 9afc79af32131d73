"""Products by a prepared constant: ``mod_mul_prepared`` on every backend.

A prepared constant is stored as uint32 residues beside their uint32
Shoup companions ``floor(w * 2^32 / q)`` (``kernels.shoup_companions``).
``numpy`` multiplies by it with Shoup products on uint32 lanes;
``reference`` takes the base class's default, which goes through
``mod_mul``. Both must agree bit for bit: on the canonical products, on
a lazily accumulated sum once it is reduced, at 30-bit and 31-bit
moduli, in ``(L, N)``, ``(B, L, N)`` and broadcast shapes, and over
every (residue, constant) pair of a tiny prime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.errors import KernelError
from repro.utils.primes import find_ntt_primes

REFERENCE = kernels.resolve("reference")
BACKENDS = kernels.available_backends()

#: 30-bit chain primes and 31-bit aux primes, as the keyswitch mixes them.
BASES = {
    "30-bit": tuple(find_ntt_primes(30, 3, 64)),
    "31-bit": tuple(find_ntt_primes(31, 3, 64)),
    "mixed": tuple(find_ntt_primes(30, 2, 64) + find_ntt_primes(31, 1, 64)),
}


def _residues(shape, moduli, seed):
    q = np.array(moduli, dtype=np.uint64)[:, None]
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 62, shape, dtype=np.uint64) % q


def _prepared(shape, moduli, seed):
    w = _residues(shape, moduli, seed)
    return w.astype(np.uint32), kernels.shoup_companions(w, moduli)


def _oracle(a, w, moduli):
    """``a * w mod q`` in uint64: both below 2^31, so the product fits."""
    q = np.array(moduli, dtype=np.uint64)[:, None]
    return a * w.astype(np.uint64) % q


@pytest.fixture(params=BACKENDS)
def backend(request):
    return kernels.resolve(request.param)


def test_companions_match_the_formula():
    moduli = BASES["mixed"]
    w, w_shoup = _prepared((2, 3, 64), moduli, 0)
    assert w_shoup.dtype == np.uint32
    for i, q in enumerate(moduli):
        expected = [(int(v) << 32) // q for v in w[:, i].ravel()]
        assert w_shoup[:, i].ravel().tolist() == expected


@pytest.mark.parametrize("basis", sorted(BASES))
@pytest.mark.parametrize(
    "a_shape, w_shape",
    [
        ((3, 64), (3, 64)),
        ((4, 3, 64), (4, 3, 64)),
        # A digit block meets both parts of its key pairs.
        ((4, 1, 3, 64), (4, 2, 3, 64)),
        # Baby spectra meet their diagonals' spectra.
        ((4, 2, 3, 64), (4, 1, 3, 64)),
    ],
    ids=["matrix", "stack", "digits-x-key", "terms-x-diagonals"],
)
def test_products_match_reference(backend, basis, a_shape, w_shape):
    moduli = BASES[basis]
    a = _residues(a_shape, moduli, 1)
    w, w_shoup = _prepared(w_shape, moduli, 2)
    got = backend.mod_mul_prepared(a, w, w_shoup, moduli)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, _oracle(a, w, moduli))
    np.testing.assert_array_equal(
        got, REFERENCE.mod_mul_prepared(a, w, w_shoup, moduli)
    )


@pytest.mark.parametrize("basis", sorted(BASES))
def test_lazy_sum_reduces_to_the_modular_sum(backend, basis):
    """Accumulated over the first axis, then reduced once, the products
    equal the modular sum of the canonical products."""
    moduli = BASES[basis]
    a = _residues((5, 1, 3, 64), moduli, 3)
    w, w_shoup = _prepared((5, 2, 3, 64), moduli, 4)
    acc = np.zeros((2, 3, 64), dtype=np.uint64)
    for block in (slice(0, 1), slice(1, 5)):  # one term, then four
        out = backend.mod_mul_prepared(
            a[block], w[block], w_shoup[block], moduli, acc=acc
        )
        assert out is acc
    q = np.array(moduli, dtype=np.uint64)[:, None]
    expected = _oracle(a, w, moduli).sum(axis=0) % q
    assert (acc < 2 * 5 * q).all()
    np.testing.assert_array_equal(backend.barrett_reduce(acc, moduli), expected)


def test_exhaustive_vs_oracle(backend):
    """Every (residue, constant) pair for a tiny prime."""
    q = 13
    a, w = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    a = a.reshape(1, -1).astype(np.uint64)
    w = w.reshape(1, -1).astype(np.uint32)
    got = backend.mod_mul_prepared(a, w, kernels.shoup_companions(w, (q,)), (q,))
    expected = [int(x) * int(c) % q for x, c in zip(a[0], w[0])]
    assert got[0].tolist() == expected


@pytest.mark.parametrize("basis", ["30-bit", "31-bit"])
def test_corner_pairs_vs_oracle(backend, basis):
    """Every pair of residue-range corners, at the widest moduli the
    backends admit (the Shoup quotient's largest errors sit there)."""
    q = max(BASES[basis])
    corners = np.array([0, 1, 2, q // 2, q - 2, q - 1], dtype=np.uint64)
    a, w = (x.reshape(1, -1) for x in np.meshgrid(corners, corners))
    w = w.astype(np.uint32)
    got = backend.mod_mul_prepared(a, w, kernels.shoup_companions(w, (q,)), (q,))
    np.testing.assert_array_equal(got, _oracle(a, w, (q,)))


def test_shapes_are_checked(backend):
    moduli = BASES["30-bit"]
    w, w_shoup = _prepared((2, 3, 64), moduli, 5)
    a = _residues((2, 3, 64), moduli, 6)
    with pytest.raises(KernelError, match="companions"):
        backend.mod_mul_prepared(a, w, w_shoup[:1], moduli)
    with pytest.raises(KernelError, match="does not broadcast"):
        backend.mod_mul_prepared(a[:, :, :32], w, w_shoup, moduli)
    with pytest.raises(KernelError, match="basis has 2 moduli"):
        backend.mod_mul_prepared(a, w, w_shoup, moduli[:2])
    with pytest.raises(KernelError, match="accumulator"):
        backend.mod_mul_prepared(
            a, w, w_shoup, moduli, acc=np.zeros((2, 3, 64), np.uint64)
        )
