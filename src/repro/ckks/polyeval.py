"""Homomorphic polynomial evaluation.

Activation functions in the paper's benchmarks (HELR's sigmoid, LSTM's
cubic sigma, ResNet's ReLU surrogate) are low-degree polynomials
evaluated on ciphertexts. This module provides the two standard
strategies:

- :func:`evaluate_horner` — depth = degree, minimal ciphertext count;
  right for the small degrees the benchmarks use.
- :func:`evaluate_power_basis` — precomputes the power basis with
  log-depth squaring, then combines with plaintext coefficients;
  depth = ceil(log2(degree)) + 1, more multiplications. Right when the
  chain is the scarce resource.

Both accept complex coefficients (CKKS slots are complex) and track
scales exactly, encoding every constant at the ciphertext's live scale.
"""

from __future__ import annotations

import math

from repro.errors import EvaluationError
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.evaluator import CkksEvaluator


def multiply_const(
    ev: CkksEvaluator, enc: CkksEncoder, ct: Ciphertext, value: complex
) -> Ciphertext:
    """Multiply by a constant encoded at the default scale, then rescale."""
    pt = enc.encode_scalar(
        value, context=ev.params.context_at_level(ct.level)
    )
    return ev.rescale(ev.multiply_plain(ct, pt))


def add_const(
    ev: CkksEvaluator, enc: CkksEncoder, ct: Ciphertext, value: complex
) -> Ciphertext:
    """Add a constant encoded at the ciphertext's exact scale (0 is free)."""
    if value == 0:
        return ct
    pt = enc.encode_scalar(
        value,
        scale=ct.scale,
        context=ev.params.context_at_level(ct.level),
    )
    return ev.add_plain(ct, pt)


def _mul_const_to_scale(
    ev: CkksEvaluator,
    enc: CkksEncoder,
    ct: Ciphertext,
    value: complex,
    target_scale: float,
) -> Ciphertext:
    """Multiply by a constant so the rescaled result lands exactly on
    ``target_scale`` — the trick that lets power-basis terms with
    different rescale histories be added together.

    The coefficient is encoded at ``target_scale * q_drop / ct.scale``
    so that after multiply + rescale the ciphertext's scale is
    ``target_scale`` regardless of its history.
    """
    q_drop = ev.params.chain_moduli[ct.level]
    encode_scale = target_scale * q_drop / ct.scale
    if encode_scale < 2.0:
        raise EvaluationError(
            "cannot reach the target scale: term scale too large "
            f"({ct.scale:.3e} vs target {target_scale:.3e})"
        )
    pt = enc.encode_scalar(
        value,
        scale=encode_scale,
        context=ev.params.context_at_level(ct.level),
    )
    return ev.rescale(ev.multiply_plain(ct, pt))


def polynomial_depth_horner(degree: int) -> int:
    """Chain levels Horner evaluation of a degree-``degree`` poly uses."""
    return max(1, degree)


def polynomial_depth_power_basis(degree: int) -> int:
    """Chain levels the power-basis strategy uses."""
    return max(1, math.ceil(math.log2(max(2, degree)))) + 1


def evaluate_horner(
    evaluator: CkksEvaluator,
    encoder: CkksEncoder,
    ct: Ciphertext,
    coefficients,
) -> Ciphertext:
    """Evaluate ``sum_j coefficients[j] * ct^j`` by Horner's rule.

    Args:
        coefficients: degree-ascending (c_0 first), length >= 2.
    """
    coeffs = [complex(c) for c in coefficients]
    if len(coeffs) < 2:
        raise EvaluationError("polynomial must have degree >= 1")
    acc = multiply_const(evaluator, encoder, ct, coeffs[-1])
    acc = add_const(evaluator, encoder, acc, coeffs[-2])
    for j in range(len(coeffs) - 3, -1, -1):
        aligned = (
            evaluator.drop_to_level(ct, acc.level)
            if ct.level > acc.level
            else ct
        )
        acc = evaluator.rescale(evaluator.multiply(acc, aligned))
        acc = add_const(evaluator, encoder, acc, coeffs[j])
    return acc


def evaluate_power_basis(
    evaluator: CkksEvaluator,
    encoder: CkksEncoder,
    ct: Ciphertext,
    coefficients,
) -> Ciphertext:
    """Evaluate via precomputed powers (log-depth squaring ladder).

    Powers ``ct^1 .. ct^d`` are built with ``x^(2k) = (x^k)^2`` and
    ``x^(2k+1)``-style products so the multiplicative depth is
    logarithmic; each term is scaled by its plaintext coefficient and
    accumulated at the deepest power's level.
    """
    coeffs = [complex(c) for c in coefficients]
    if len(coeffs) < 2:
        raise EvaluationError("polynomial must have degree >= 1")
    degree = len(coeffs) - 1

    powers: dict[int, Ciphertext] = {1: ct}

    def power(k: int) -> Ciphertext:
        if k in powers:
            return powers[k]
        half = k // 2
        rest = k - half
        a, b = power(half), power(rest)
        if a.level > b.level:
            a = evaluator.drop_to_level(a, b.level)
        elif b.level > a.level:
            b = evaluator.drop_to_level(b, a.level)
        result = evaluator.rescale(evaluator.multiply(a, b))
        powers[k] = result
        return result

    # Build every needed power (all of them for a dense polynomial).
    for k in range(2, degree + 1):
        power(k)

    # Every term is dropped to the deepest power's level, multiplied by
    # its coefficient at a scale chosen to land on the canonical scale,
    # and accumulated — the scale-targeting makes the adds exact.
    common_level = min(p.level for p in powers.values())
    target_scale = evaluator.params.scale
    acc: Ciphertext | None = None
    for j in range(1, degree + 1):
        if coeffs[j] == 0:
            continue
        term = powers[j]
        if term.level > common_level:
            term = evaluator.drop_to_level(term, common_level)
        term = _mul_const_to_scale(
            evaluator, encoder, term, coeffs[j], target_scale
        )
        acc = term if acc is None else evaluator.add(acc, term)
    if acc is None:
        raise EvaluationError("polynomial has no nonzero terms of degree>=1")
    return add_const(evaluator, encoder, acc, coeffs[0])
