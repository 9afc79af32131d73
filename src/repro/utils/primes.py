"""NTT-friendly prime generation and primitive roots.

RNS-CKKS needs a chain of primes ``q_i`` with ``q_i ≡ 1 (mod 2N)`` so
that Z_{q_i} contains a primitive 2N-th root of unity (negacyclic NTT).
Poseidon constrains limbs to 32 bits; we default to 30-bit primes so a
product of two residues fits comfortably in ``uint64``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from repro.errors import PrimeGenerationError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)

# Deterministic Miller-Rabin witnesses valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A non-trivial factor of composite odd ``n`` (Brent's variant).

    Deterministic: cycles through fixed polynomial offsets ``c`` until a
    factor splits off, so repeated runs factor identically. ``n`` must
    be composite, odd and free of the small trial-division primes.
    """
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise PrimeGenerationError(f"pollard-rho failed to split {n}")


def _factorize(n: int) -> list[int]:
    """Return the distinct prime factors of ``n`` (trial division, then
    Pollard rho for large cofactors — fast even for 62-bit moduli)."""
    factors: list[int] = []
    for p in _SMALL_PRIMES:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
    # Trial division covers small cofactors cheaply; anything bigger is
    # split recursively with Pollard rho (needed once moduli pass ~40
    # bits, where a sqrt(n) scan stops terminating in bounded time).
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            if m not in factors:
                factors.append(m)
            continue
        if m < 1 << 20:
            d = 101
            while d * d <= m:
                if m % d == 0:
                    stack.append(d)
                    while m % d == 0:
                        m //= d
                    stack.append(m)
                    break
                d += 2
            else:
                if m > 1 and m not in factors:
                    factors.append(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


@lru_cache(maxsize=4096)
def minimal_primitive_root(q: int) -> int:
    """Return the smallest primitive root modulo a prime ``q``.

    Raises:
        PrimeGenerationError: if ``q`` is not prime or no root is found.
    """
    if not is_prime(q):
        raise PrimeGenerationError(f"{q} is not prime")
    phi = q - 1
    factors = _factorize(phi)
    for g in range(2, q):
        if all(pow(g, phi // f, q) != 1 for f in factors):
            return g
    raise PrimeGenerationError(f"no primitive root found for {q}")


def find_primitive_root(q: int, order: int) -> int:
    """Return an element of multiplicative order exactly ``order`` mod ``q``.

    ``order`` must divide ``q - 1``.
    """
    if (q - 1) % order != 0:
        raise PrimeGenerationError(
            f"order {order} does not divide q-1 for q={q}"
        )
    g = minimal_primitive_root(q)
    root = pow(g, (q - 1) // order, q)
    # Sanity: root^order == 1 and root^(order/p) != 1 for prime p | order.
    if pow(root, order, q) != 1:
        raise PrimeGenerationError(f"bad root of order {order} mod {q}")
    for p in _factorize(order):
        if pow(root, order // p, q) == 1:
            raise PrimeGenerationError(
                f"root has order smaller than {order} mod {q}"
            )
    return root


def find_ntt_primes(
    bit_size: int,
    count: int,
    n: int,
    *,
    descending: bool = True,
) -> list[int]:
    """Find ``count`` primes of ``bit_size`` bits with ``p ≡ 1 (mod 2n)``.

    Such primes admit a primitive 2n-th root of unity, which the
    negacyclic NTT over ``Z_p[x]/(x^n + 1)`` requires.

    Args:
        bit_size: target bit width of each prime (e.g. 30).
        count: how many distinct primes to return.
        n: polynomial degree (power of two).
        descending: scan downward from ``2^bit_size`` (default) so the
            largest qualifying primes are used first, mirroring how FHE
            libraries pick the top of the 32-bit space.

    Raises:
        PrimeGenerationError: if the range is exhausted first.
    """
    if count < 1:
        raise PrimeGenerationError(f"count must be >= 1, got {count}")
    modulus = 2 * n
    upper = (1 << bit_size) - 1
    lower = 1 << (bit_size - 1)
    # First candidate ≡ 1 (mod 2n) at or below ``upper``.
    candidate = upper - ((upper - 1) % modulus)
    step = -modulus if descending else modulus
    if not descending:
        candidate = lower + ((1 - lower) % modulus)

    primes: list[int] = []
    while lower <= candidate <= upper:
        if is_prime(candidate):
            primes.append(candidate)
            if len(primes) == count:
                return primes
        candidate += step
    raise PrimeGenerationError(
        f"only found {len(primes)}/{count} NTT primes of {bit_size} bits "
        f"for n={n}"
    )
