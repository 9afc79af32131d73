#!/usr/bin/env python
"""Regenerate the golden vectors under ``tests/golden``.

Every *expected* value in the emitted JSON files is computed here with
unbounded Python integer arithmetic — no numpy, no kernel code — so the
vectors are an oracle that shares no failure modes with either kernel
backend. The repo is imported only to discover *parameters* (the NTT
primes and the psi each twiddle table selects), which are then frozen
into the JSON alongside the expected values.

Usage::

    python tests/golden/regenerate.py

Rerun only when the vector *definitions* change (new shapes, new ops);
a kernel change must never require regenerating — that is the point.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def lcg_stream(seed: int):
    """Deterministic 64-bit LCG (Knuth MMIX constants), pure Python.

    Used instead of numpy's generators so the input streams are stable
    across numpy versions and reproducible from the JSON alone.
    """
    state = seed & (2**64 - 1)
    while True:
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        yield state


def rand_residues(seed: int, n: int, q: int) -> list[int]:
    gen = lcg_stream(seed)
    return [next(gen) % q for _ in range(n)]


def negacyclic_ntt(a: list[int], psi: int, q: int) -> list[int]:
    """out[t] = a(psi^(2t+1)) mod q — the big-int negacyclic DFT."""
    n = len(a)
    return [
        sum(ai * pow(psi, i * (2 * t + 1), q) for i, ai in enumerate(a)) % q
        for t in range(n)
    ]


def make_ntt_vectors() -> dict:
    from repro.ntt.tables import get_twiddle_table

    cases = []
    shapes = [(30, 16), (30, 64), (31, 32)]
    for seed, (q_bits, n) in enumerate(shapes):
        from repro.utils.primes import find_ntt_primes

        q = find_ntt_primes(q_bits, 1, n)[0]
        psi = int(get_twiddle_table(q, n).psi)
        a = rand_residues(1000 + seed, n, q)
        cases.append({
            "q": q,
            "n": n,
            "psi": psi,
            "input": a,
            "expected": negacyclic_ntt(a, psi, q),
        })
    return {"description": "negacyclic NTT: expected[t] = a(psi^(2t+1))",
            "cases": cases}


def make_barrett_vectors() -> dict:
    from repro.utils.primes import find_ntt_primes

    cases = []
    for q_bits in (30, 31):
        q = find_ntt_primes(q_bits, 1, 64)[0]
        # The full post-multiply range [0, q^2).
        domain = q * q
        edge = [0, 1, q - 1, q, q + 1, 2 * q - 1, domain - 1]
        rand = [v % domain for v in rand_residues(2000 + q_bits, 9, domain)]
        inputs = edge + rand
        cases.append({
            "q": q,
            "input": inputs,
            "expected": [x % q for x in inputs],
        })
    return {"description": "Barrett reduction: x in [0, q^2) -> x mod q",
            "cases": cases}


def fast_basis_convert(
    rows: list[list[int]], source: list[int], target: list[int]
) -> list[list[int]]:
    """Eq. 1 RNSconv with big ints: exact per-limb MM/MA cascade."""
    big_q = 1
    for q in source:
        big_q *= q
    q_hat = [big_q // q for q in source]
    q_hat_inv = [pow(h % q, -1, q) for h, q in zip(q_hat, source)]
    n = len(rows[0])
    out = []
    for p in target:
        acc = []
        for t in range(n):
            s = 0
            for j, q in enumerate(source):
                y = rows[j][t] * q_hat_inv[j] % q
                s += y * (q_hat[j] % p)
            acc.append(s % p)
        out.append(acc)
    return out


def make_basis_vectors() -> dict:
    from repro.utils.primes import find_ntt_primes

    n = 16
    base = find_ntt_primes(30, 3, n)
    aux = find_ntt_primes(31, 2, n)
    big_p = aux[0] * aux[1]

    # ModUp: residues over B, extended exactly (per Eq. 3) onto B ∪ C.
    base_rows = [rand_residues(3000 + j, n, q) for j, q in enumerate(base)]
    mod_up_expected = base_rows + fast_basis_convert(base_rows, base, aux)

    # ModDown: residues over B ∪ C, reduced back to B (per Eq. 2):
    # (a_B - conv(a_C -> B)) * P^{-1} mod q_j.
    full_rows = [
        rand_residues(4000 + j, n, q)
        for j, q in enumerate(list(base) + list(aux))
    ]
    correction = fast_basis_convert(full_rows[len(base):], aux, base)
    mod_down_expected = []
    for j, q in enumerate(base):
        inv_p = pow(big_p % q, -1, q)
        mod_down_expected.append([
            (full_rows[j][t] - correction[j][t]) * inv_p % q
            for t in range(n)
        ])

    return {
        "description": "ModUp (Eq. 3) and ModDown (Eq. 2) over B(30-bit"
                       " x3) and C(31-bit x2), degree 16",
        "n": n,
        "base": base,
        "aux": aux,
        "mod_up": {"input": base_rows, "expected": mod_up_expected},
        "mod_down": {"input": full_rows, "expected": mod_down_expected},
    }


def main() -> int:
    vectors = {
        "ntt.json": make_ntt_vectors(),
        "barrett.json": make_barrett_vectors(),
        "basis_convert.json": make_basis_vectors(),
    }
    for filename, doc in vectors.items():
        path = GOLDEN_DIR / filename
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
