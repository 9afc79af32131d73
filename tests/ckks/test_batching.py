"""Operation-level batching is bit-identical to the loops it replaced.

The keyswitch runs its digits, the products their ciphertext parts and
HFAuto its limb rows through one kernel call per step. The loops they
replaced live on here only, as oracles: a digit-by-digit keyswitch, a
digit-by-digit hoisted rotation, part-by-part products and row-by-row
HFAuto. Every kernel returns canonical residues, so the batched results
must equal the oracles exactly, in every block layout the element
budget can produce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.automorphism.galois import galois_element_for_rotation
from repro.automorphism.hfauto import get_plan, hfauto_apply
from repro.automorphism.mapping import (
    apply_automorphism_eval,
    apply_automorphism_poly,
)
from repro.ckks import (
    CkksEncoder,
    CkksEncryptor,
    CkksEvaluator,
    CkksParameters,
    KeyChain,
)
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.hoisting import HoistedRotator
from repro.ckks.keyswitch import apply_switch_key
from repro.kernels import base as kernel_base
from repro.ntt.negacyclic import intt_negacyclic, ntt_negacyclic
from repro.rns.basis_convert import mod_down
from repro.rns.context import RnsContext
from repro.rns.poly import Domain, RnsPolynomial
from repro.utils.primes import find_ntt_primes


# ----------------------------------------------------------------------
# Oracles: the loops the batched paths replaced
# ----------------------------------------------------------------------
def _key_pair_at_level(key, j, level, params, ext_ctx):
    """Pair ``j`` of ``key`` restricted to the level-``level`` basis."""
    chain = len(params.chain_moduli)
    keep = list(range(level + 1)) + list(
        range(chain, chain + len(params.aux_moduli))
    )
    b, a = key.rows[j]
    return (
        RnsPolynomial(b[keep], ext_ctx, Domain.NTT),
        RnsPolynomial(a[keep], ext_ctx, Domain.NTT),
    )


def _lift(row, ext_ctx):
    data = np.stack([row % np.uint64(q) for q in ext_ctx.moduli])
    return RnsPolynomial(data, ext_ctx, Domain.COEFFICIENT)


def _accumulate_and_mod_down(digits_ntt, key, level, params, base_ctx):
    ext_ctx = digits_ntt[0].context
    acc_b = acc_a = None
    for j, digit_ntt in enumerate(digits_ntt):
        key_b, key_a = _key_pair_at_level(key, j, level, params, ext_ctx)
        term_b = digit_ntt.hadamard(key_b)
        term_a = digit_ntt.hadamard(key_a)
        acc_b = term_b if acc_b is None else acc_b + term_b
        acc_a = term_a if acc_a is None else acc_a + term_a
    aux = params.aux_context
    return (
        mod_down(intt_negacyclic(acc_b), base_ctx, aux),
        mod_down(intt_negacyclic(acc_a), base_ctx, aux),
    )


def per_digit_switch_key(d, key, params):
    """Digit-by-digit keyswitch: lift, NTT, two products, accumulate."""
    level = d.level_count - 1
    ext_ctx = params.key_context_at_level(level)
    digits_ntt = [
        ntt_negacyclic(_lift(d.data[j], ext_ctx)) for j in range(level + 1)
    ]
    return _accumulate_and_mod_down(digits_ntt, key, level, params, d.context)


def per_digit_hoisted_rotate(params, keys, evaluator, ct, steps):
    """Digit-by-digit hoisted rotation: permute each NTT digit alone."""
    galois = galois_element_for_rotation(params.degree, steps)
    key = keys.galois_key(galois)
    ext_ctx = params.key_context_at_level(ct.level)
    c1 = ct.parts[1]
    digits_ntt = [
        apply_automorphism_eval(
            ntt_negacyclic(_lift(c1.data[j], ext_ctx)), galois
        )
        for j in range(ct.level + 1)
    ]
    delta0, delta1 = _accumulate_and_mod_down(
        digits_ntt, key, ct.level, params, c1.context
    )
    rotated_c0 = evaluator._automorphism(ct.parts[0], galois)
    return Ciphertext(
        parts=(rotated_c0 + delta0, delta1), scale=ct.scale, level=ct.level
    )


def per_part_multiply(a, b):
    a0, a1 = (ntt_negacyclic(p) for p in a.parts)
    b0, b1 = (ntt_negacyclic(p) for p in b.parts)
    return (
        intt_negacyclic(a0.hadamard(b0)),
        intt_negacyclic(a0.hadamard(b1) + a1.hadamard(b0)),
        intt_negacyclic(a1.hadamard(b1)),
    )


def per_part_square(ct):
    c0, c1 = (ntt_negacyclic(p) for p in ct.parts)
    cross = c0.hadamard(c1)
    return (
        intt_negacyclic(c0.hadamard(c0)),
        intt_negacyclic(cross + cross),
        intt_negacyclic(c1.hadamard(c1)),
    )


def per_part_multiply_plain(ct, poly):
    pt_ntt = ntt_negacyclic(poly)
    return tuple(
        intt_negacyclic(ntt_negacyclic(p).hadamard(pt_ntt)) for p in ct.parts
    )


def assert_same_polys(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.context == w.context
        assert g.domain is w.domain
        np.testing.assert_array_equal(g.data, w.data)


def digit_blocks(count, limbs, degree):
    return kernel_base.batch_blocks(count, limbs * degree)


def _random_poly(context, degree, seed):
    rng = np.random.default_rng(seed)
    data = np.stack([
        rng.integers(0, q, degree, dtype=np.uint64) for q in context.moduli
    ])
    return RnsPolynomial(data, context, Domain.COEFFICIENT)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
class _Stack:
    def __init__(self, degree, levels, steps=(1, 3)):
        self.params = CkksParameters.default(
            degree=degree, levels=levels, scale_bits=30
        )
        self.keys = KeyChain.generate(self.params, seed=11)
        for s in steps:
            self.keys.rotation_key(s)
        self.encoder = CkksEncoder(self.params)
        self.evaluator = CkksEvaluator(self.params, self.keys)
        encryptor = CkksEncryptor(self.params, self.keys, seed=12)
        rng = np.random.default_rng(13)
        self.cts = [
            encryptor.encrypt(self.encoder.encode(
                rng.uniform(-1, 1, self.params.slot_count)
            ))
            for _ in range(2)
        ]

    def ext_limbs(self, level):
        return level + 1 + len(self.params.aux_moduli)


@pytest.fixture(scope="module")
def small():
    """N=64, 4 levels: every keyswitch fits in one block."""
    return _Stack(64, 4)


@pytest.fixture(scope="module")
def split():
    """N=1024, 6 levels: the budget splits 6 digits into blocks 4 + 2."""
    return _Stack(1024, 6, steps=(1,))


# ----------------------------------------------------------------------
# Keyswitch
# ----------------------------------------------------------------------
def _switch_inputs(stack, level):
    ctx = stack.params.context_at_level(level)
    d = _random_poly(ctx, stack.params.degree, seed=level)
    galois = galois_element_for_rotation(stack.params.degree, 1)
    return d, (stack.keys.relin, stack.keys.galois_key(galois))


class TestKeyswitchBlocks:
    @pytest.mark.parametrize("level", [3, 1, 0])
    def test_one_block_matches_per_digit(self, small, level):
        n = small.params.degree
        assert len(digit_blocks(level + 1, small.ext_limbs(level), n)) == 1
        d, keys = _switch_inputs(small, level)
        for key in keys:
            assert_same_polys(
                apply_switch_key(d, key, small.params),
                per_digit_switch_key(d, key, small.params),
            )

    def test_uneven_blocks_match_per_digit(self, split):
        level = split.params.max_level
        blocks = digit_blocks(
            level + 1, split.ext_limbs(level), split.params.degree
        )
        assert [(b.start, b.stop) for b in blocks] == [(0, 4), (4, 6)]
        d, keys = _switch_inputs(split, level)
        for key in keys:
            assert_same_polys(
                apply_switch_key(d, key, split.params),
                per_digit_switch_key(d, key, split.params),
            )

    @pytest.mark.parametrize("digits_per_block", [1, 2, 3])
    def test_every_block_size_matches_per_digit(
        self, small, monkeypatch, digits_per_block
    ):
        """Shrunken budgets: one-digit blocks, odd folds, ragged tails."""
        level = small.params.max_level
        n = small.params.degree
        monkeypatch.setattr(
            kernel_base,
            "BATCH_ELEMENTS",
            digits_per_block * small.ext_limbs(level) * n,
        )
        blocks = digit_blocks(level + 1, small.ext_limbs(level), n)
        assert {b.stop - b.start for b in blocks[:-1]} == {digits_per_block}
        d, keys = _switch_inputs(small, level)
        for key in keys:
            assert_same_polys(
                apply_switch_key(d, key, small.params),
                per_digit_switch_key(d, key, small.params),
            )

    def test_blocks_cover_digits_in_order(self):
        for count in range(1, 12):
            for limbs, degree in ((17, 64), (9, 4096), (7, 1024)):
                blocks = digit_blocks(count, limbs, degree)
                covered = [j for b in blocks for j in range(b.start, b.stop)]
                assert covered == list(range(count))
                for b in blocks:
                    size = (b.stop - b.start) * limbs * degree
                    assert b.stop - b.start == 1 or (
                        size <= kernel_base.BATCH_ELEMENTS
                    )


class TestHoistedBlocks:
    @pytest.mark.parametrize("steps", [1, 3])
    def test_matches_per_digit_hoisting(self, small, steps):
        ct = small.cts[0]
        rotator = HoistedRotator(
            small.params, small.keys, ct, evaluator=small.evaluator
        )
        got = rotator.rotate(steps)
        want = per_digit_hoisted_rotate(
            small.params, small.keys, small.evaluator, ct, steps
        )
        assert (got.scale, got.level) == (want.scale, want.level)
        assert_same_polys(got.parts, want.parts)

    def test_split_blocks_match_per_digit_hoisting(self, split):
        ct = split.cts[0]
        rotator = HoistedRotator(
            split.params, split.keys, ct, evaluator=split.evaluator
        )
        want = per_digit_hoisted_rotate(
            split.params, split.keys, split.evaluator, ct, 1
        )
        assert_same_polys(rotator.rotate(1).parts, want.parts)


# ----------------------------------------------------------------------
# Ciphertext-part stacks
# ----------------------------------------------------------------------
#: Parts per kernel call: None keeps the budget (all parts, one call at
#: N=64); 1 and 2 shrink it so products split into (ragged) blocks.
PARTS_PER_BLOCK = [None, 1, 2]


@pytest.fixture(params=PARTS_PER_BLOCK, ids=lambda p: f"block{p or 'all'}")
def part_budget(request, small, monkeypatch):
    if request.param is not None:
        matrix = (small.params.max_level + 1) * small.params.degree
        monkeypatch.setattr(
            kernel_base, "BATCH_ELEMENTS", request.param * matrix
        )
    return request.param


class TestPartStacks:
    @pytest.mark.parametrize("level", [3, 1])
    def test_multiply(self, small, part_budget, level):
        ev = small.evaluator
        a, b = (ev.drop_to_level(ct, level) for ct in small.cts)
        got = ev.multiply(a, b, relinearize=False)
        assert_same_polys(got.parts, per_part_multiply(a, b))

    @pytest.mark.parametrize("level", [3, 1])
    def test_square(self, small, part_budget, level):
        ev = small.evaluator
        ct = ev.drop_to_level(small.cts[0], level)
        got = ev.square(ct, relinearize=False)
        assert_same_polys(got.parts, per_part_square(ct))

    @pytest.mark.parametrize("parts", [2, 3])
    def test_multiply_plain(self, small, part_budget, parts):
        ev = small.evaluator
        ct = small.cts[0]
        if parts == 3:
            ct = ev.multiply(ct, small.cts[1], relinearize=False)
        pt = small.encoder.encode(
            np.linspace(-1, 1, small.params.slot_count)
        )
        got = ev.multiply_plain(ct, pt)
        poly = ev._plain_at_level(pt, ct.level)
        assert_same_polys(got.parts, per_part_multiply_plain(ct, poly))


# ----------------------------------------------------------------------
# HFAuto over the whole limb stack
# ----------------------------------------------------------------------
class TestHFAutoStack:
    @pytest.mark.parametrize("degree,subvector", [(64, 64), (256, 64), (256, 16)])
    @pytest.mark.parametrize("steps", [1, 5, -3])
    def test_matches_row_by_row(self, degree, subvector, steps):
        context = RnsContext(tuple(find_ntt_primes(30, 3, degree)))
        poly = _random_poly(context, degree, seed=degree + steps)
        k = galois_element_for_rotation(degree, steps)
        plan = get_plan(degree, k, subvector)
        assert plan.r > 1 or degree == subvector
        rows = np.stack([
            plan.apply_row(poly.data[i], q)
            for i, q in enumerate(context.moduli)
        ])
        got = hfauto_apply(poly, k, subvector=subvector)
        np.testing.assert_array_equal(got.data, rows)
        assert got == apply_automorphism_poly(poly, k)
