"""Unit tests for the keyswitch primitive itself."""

import numpy as np
import pytest

from repro import kernels
from repro.errors import EvaluationError
from repro.ckks.keyswitch import apply_switch_key
from repro.ntt.negacyclic import intt_negacyclic, ntt_negacyclic
from repro.rns.poly import Domain, RnsPolynomial


class TestLiftDigit:
    def test_exact_lift(self, params):
        rng = np.random.default_rng(0)
        digits = np.stack([
            rng.integers(0, q, params.degree, dtype=np.uint64)
            for q in params.chain_moduli
        ])
        target = params.key_context
        lifted = kernels.get_backend().lift(digits, target.moduli)
        assert lifted.shape == (
            len(digits), target.level_count, params.degree
        )
        # Each lift must represent the same integers in every limb.
        for digit, rows in zip(digits, lifted):
            recovered = RnsPolynomial(
                rows, target, Domain.COEFFICIENT
            ).to_integers(signed=False)
            assert recovered == [int(v) for v in digit]


class TestApplySwitchKey:
    def test_relin_key_decrypts_to_d_times_s2(self, params, keys):
        """delta0 + delta1*s ≈ d * s^2 for the relinearization key."""
        rng = np.random.default_rng(1)
        ctx = params.context
        d = RnsPolynomial.from_integers(
            [int(v) for v in rng.integers(0, 100, params.degree)], ctx
        )
        delta0, delta1 = apply_switch_key(d, keys.relin, params)

        s_ntt = keys.secret.poly_ntt(ctx)
        got = delta0 + intt_negacyclic(
            ntt_negacyclic(delta1).hadamard(s_ntt)
        )
        # Expected: d * s^2 over the ring.
        s2 = s_ntt.hadamard(s_ntt)
        expected = intt_negacyclic(ntt_negacyclic(d).hadamard(s2))
        diff = (got - expected).to_integers()
        noise = max(abs(v) for v in diff)
        # Keyswitch noise ~ digits * q * e / P + rounding: small.
        assert noise < params.degree * 64

    def test_works_at_lower_level(self, params, keys):
        ctx = params.context_at_level(1)
        d = RnsPolynomial.from_integers([7] * params.degree, ctx)
        delta0, delta1 = apply_switch_key(d, keys.relin, params)
        assert delta0.context == ctx
        assert delta1.context == ctx

    def test_rejects_ntt_domain(self, params, keys):
        d = RnsPolynomial.zeros(params.degree, params.context).with_domain(
            Domain.NTT
        )
        with pytest.raises(EvaluationError):
            apply_switch_key(d, keys.relin, params)

    def test_galois_key_switches_rotated_secret(self, params, keys):
        """For the rotation key: delta0 + delta1*s ≈ d * sigma_k(s)."""
        from repro.automorphism.galois import galois_element_for_rotation
        from repro.ckks.keys import _apply_automorphism_integers

        rng = np.random.default_rng(2)
        galois = galois_element_for_rotation(params.degree, 2)
        key = keys.galois_key(galois)
        ctx = params.context
        d = RnsPolynomial.from_integers(
            [int(v) for v in rng.integers(0, 50, params.degree)], ctx
        )
        delta0, delta1 = apply_switch_key(d, key, params)
        s_ntt = keys.secret.poly_ntt(ctx)
        got = delta0 + intt_negacyclic(
            ntt_negacyclic(delta1).hadamard(s_ntt)
        )
        rot_s = RnsPolynomial.from_integers(
            _apply_automorphism_integers(
                list(keys.secret.coefficients), params.degree, galois
            ),
            ctx,
        )
        expected = intt_negacyclic(
            ntt_negacyclic(d).hadamard(ntt_negacyclic(rot_s))
        )
        diff = (got - expected).to_integers()
        assert max(abs(v) for v in diff) < params.degree * 64


def test_keyswitch_multiplies_only_by_prepared_constants(params, keys, monkeypatch):
    """The key products use ``mod_mul_prepared`` and its lazy sum: no
    ``mod_mul`` or ``mod_add`` call, at the top level or below it."""
    backend = kernels.resolve("numpy")
    calls = []
    for op in ("mod_mul", "mod_add", "mod_mul_prepared"):
        original = getattr(backend, op)
        monkeypatch.setattr(
            backend, op,
            lambda *a, _op=op, _f=original, **k: calls.append(_op) or _f(*a, **k),
        )
    with kernels.use_backend(backend):
        for level in (params.max_level, 1):
            d = RnsPolynomial.from_integers(
                [3] * params.degree, params.context_at_level(level)
            )
            apply_switch_key(d, keys.relin, params)
    assert calls and set(calls) == {"mod_mul_prepared"}
