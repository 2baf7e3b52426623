"""Trial-division primality and factorization, kept apart from the library.

``is_prime`` and ``factorize`` as they stood before ``quat1122.intarith``
divided by its table of small primes first: an odd ``range`` for
``is_prime`` and a 6k+-1 loop for ``factorize``.  The differential tests in
``tests/test_intarith.py`` compare the library against them.
"""

from __future__ import annotations

from math import isqrt

FACTOR_BOUND = 10**15


def is_prime(n: int) -> bool:
    """Primality of n <= FACTOR_BOUND by trial division."""
    if n > FACTOR_BOUND:
        raise ValueError(f"n = {n} exceeds the primality bound {FACTOR_BOUND}")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of 1 <= n <= FACTOR_BOUND by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n > FACTOR_BOUND:
        raise ValueError(f"n = {n} exceeds the factoring bound {FACTOR_BOUND}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
