"""Differential suite: every backend must be bit-identical to reference.

Every instrumented kernel op is driven through the reference backend
and each other registered backend on randomized (fixed-seed) inputs
over every functional-plane preset from :mod:`repro.ckks.presets` —
full chain, keyswitch (chain + aux) and auxiliary bases — and the
outputs are compared with ``assert_array_equal`` (exact equality, not
allclose). Because all ops produce uniquely-defined residues in
``[0, q)``, any mathematically correct implementation must match bit
for bit; a single differing word is a kernel bug.

The suite parametrizes over ``kernels.available_backends()`` so a
newly-registered backend is covered without editing this file. A final
section checks the overflow edge — moduli near 2^62, where residue
products span 124 bits and any single-word uint64 Barrett shortcut
silently corrupts: a backend whose arithmetic is exact only to narrower
moduli must refuse them rather than corrupt.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.ckks import presets
from repro.errors import KernelError
from repro.rns.context import RnsContext
from repro.utils.primes import find_ntt_primes
from tests.conftest import fused_rows

REFERENCE = kernels.resolve("reference")

#: Every backend the reference oracle is differentially tested against.
OTHER_BACKENDS = tuple(
    name for name in kernels.available_backends() if name != "reference"
)

_PRESETS = {
    "toy": lambda: presets.toy(),
    "demo": lambda: presets.demo(),
    "bootstrap": lambda: presets.bootstrap_capable()[0],
}


def _bases(params):
    """The three basis/degree shapes the evaluator actually touches."""
    top = params.max_level
    return {
        "chain": params.context_at_level(top).moduli,
        "key": params.key_context_at_level(top).moduli,
        "aux": params.aux_context.moduli,
    }


def _cases():
    for preset_name, make in _PRESETS.items():
        params = make()
        for basis_name, moduli in _bases(params).items():
            yield pytest.param(
                moduli, params.degree, id=f"{preset_name}-{basis_name}"
            )


CASES = list(_cases())


def _matrix(moduli, degree, seed):
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in moduli]
    )


@pytest.fixture(params=OTHER_BACKENDS)
def other(request):
    return kernels.resolve(request.param)


@pytest.mark.parametrize("moduli,degree", CASES)
@pytest.mark.parametrize("radix_log2", (1, 2, 3))
def test_ntt_intt_differential(other, moduli, degree, radix_log2):
    """Both backends and the fused radix-2^k kernel agree exactly."""
    data = _matrix(moduli, degree, seed=radix_log2)
    ref_fwd = REFERENCE.ntt(data, moduli)
    got_fwd = other.ntt(data, moduli)
    np.testing.assert_array_equal(ref_fwd, got_fwd)
    np.testing.assert_array_equal(
        fused_rows(data, moduli, radix_log2), got_fwd
    )
    ref_inv = REFERENCE.intt(ref_fwd, moduli)
    np.testing.assert_array_equal(ref_inv, other.intt(got_fwd, moduli))
    np.testing.assert_array_equal(
        fused_rows(got_fwd, moduli, radix_log2, inverse=True), ref_inv
    )


@pytest.mark.parametrize("moduli,degree", CASES)
@pytest.mark.parametrize("op", ("mod_add", "mod_sub", "mod_mul"))
def test_binary_elementwise_differential(other, moduli, degree, op):
    a = _matrix(moduli, degree, seed=11)
    b = _matrix(moduli, degree, seed=13)
    np.testing.assert_array_equal(
        getattr(REFERENCE, op)(a, b, moduli),
        getattr(other, op)(a, b, moduli),
    )


@pytest.mark.parametrize("moduli,degree", CASES)
def test_neg_differential(other, moduli, degree):
    a = _matrix(moduli, degree, seed=17)
    # Force some zero residues: negation of 0 must stay 0, not become q.
    a[:, :4] = 0
    np.testing.assert_array_equal(
        REFERENCE.mod_neg(a, moduli), other.mod_neg(a, moduli)
    )


@pytest.mark.parametrize("moduli,degree", CASES)
def test_scalar_mul_differential(other, moduli, degree):
    a = _matrix(moduli, degree, seed=19)
    rng = np.random.default_rng(23)
    scalars = [int(rng.integers(0, q)) for q in moduli]
    np.testing.assert_array_equal(
        REFERENCE.mod_scalar_mul(a, scalars, moduli),
        other.mod_scalar_mul(a, scalars, moduli),
    )


@pytest.mark.parametrize("moduli,degree", CASES)
def test_barrett_reduce_differential(other, moduli, degree):
    rng = np.random.default_rng(29)
    # Inputs up to q^2 — the post-multiply range Barrett is built for.
    x = np.stack([
        rng.integers(0, int(q) * int(q), degree, dtype=np.uint64)
        for q in moduli
    ])
    ref = REFERENCE.barrett_reduce(x, moduli)
    got = other.barrett_reduce(x, moduli)
    np.testing.assert_array_equal(ref, got)
    for i, q in enumerate(moduli):
        np.testing.assert_array_equal(ref[i], x[i] % np.uint64(q))


@pytest.mark.parametrize("moduli,degree", CASES)
def test_lift_differential(other, moduli, degree):
    rng = np.random.default_rng(31)
    row = rng.integers(0, min(moduli), degree, dtype=np.uint64)
    np.testing.assert_array_equal(
        REFERENCE.lift(row, moduli), other.lift(row, moduli)
    )


@pytest.mark.parametrize("preset_name", sorted(_PRESETS))
def test_basis_convert_differential(other, preset_name):
    """RNSconv inner cascade: chain basis -> aux basis, both backends."""
    params = _PRESETS[preset_name]()
    source = params.context_at_level(params.max_level)
    target = params.aux_context
    y = _matrix(source.moduli, params.degree, seed=37)
    table = np.array(
        [
            [q_hat % p for p in target.moduli]
            for q_hat in source.punctured_products
        ],
        dtype=np.uint64,
    )
    np.testing.assert_array_equal(
        REFERENCE.basis_convert(y, table, target.moduli),
        other.basis_convert(y, table, target.moduli),
    )


@pytest.mark.parametrize("moduli,degree", CASES)
def test_edge_values_differential(other, moduli, degree):
    """All-zero and all-(q-1) matrices — the residue range extremes."""
    qcol = np.array(moduli, dtype=np.uint64)[:, None]
    zeros = np.zeros((len(moduli), degree), dtype=np.uint64)
    tops = np.broadcast_to(qcol - 1, zeros.shape).copy()
    for a, b in ((zeros, zeros), (tops, tops), (zeros, tops)):
        for op in ("mod_add", "mod_sub", "mod_mul"):
            np.testing.assert_array_equal(
                getattr(REFERENCE, op)(a, b, moduli),
                getattr(other, op)(a, b, moduli),
            )
    np.testing.assert_array_equal(
        REFERENCE.intt(REFERENCE.ntt(tops, moduli), moduli), tops
    )
    np.testing.assert_array_equal(
        other.intt(other.ntt(tops, moduli), moduli), tops
    )


def test_all_presets_cover_wide_and_narrow_primes():
    """The case matrix must exercise both fused reduction paths."""
    seen_bits = set()
    for moduli, _ in (c.values for c in CASES):
        seen_bits.update(int(q).bit_length() for q in moduli)
    assert 30 in seen_bits and 31 in seen_bits


def test_mixed_context_spot_check(other):
    """A hand-built disjoint basis mixing widths, degree 512."""
    degree = 512
    moduli = tuple(
        find_ntt_primes(30, 3, degree) + find_ntt_primes(31, 2, degree)
    )
    RnsContext(moduli)  # validates the basis is legal
    data = _matrix(moduli, degree, seed=41)
    np.testing.assert_array_equal(
        REFERENCE.ntt(data, moduli), other.ntt(data, moduli)
    )


# ----------------------------------------------------------------------
# Overflow edge: moduli near 2^62

WIDE_DEGREE = 64
WIDE_MODULI = tuple(find_ntt_primes(62, 2, WIDE_DEGREE))


def _wide_backends():
    widest = max(int(q).bit_length() for q in WIDE_MODULI)
    return tuple(
        name
        for name in kernels.available_backends()
        if kernels.resolve(name).max_modulus_bits >= widest
    )


def test_wide_moduli_rejected_by_narrow_backends():
    """Backends without a wide path must refuse, not corrupt."""
    capable = set(_wide_backends())
    data = _matrix(WIDE_MODULI, WIDE_DEGREE, seed=67)
    for name in kernels.available_backends():
        if name in capable:
            continue
        with pytest.raises(KernelError, match="moduli up to"):
            kernels.resolve(name).ntt(data, WIDE_MODULI)
