"""Small exact helpers on rational integers (trial division scale).

``is_prime`` and ``factorize`` trial-divide in two phases.  They first
divide by a table of the primes below ``2^15``, sieved on first use and kept
for the process (3,512 primes, about 140 KB), so every n below ``2^30`` is
settled from the table alone.  Past the table, ``is_prime`` tries every odd
d and ``factorize`` every d = 6k +- 1 up to the square root, from the first
such d past the table.

The table is cut into blocks of ``_BLOCK`` primes, each kept with its
product, and both functions apply one rule to every block: stop at the first
block that starts past the square root of what is left of n, and skip a
block whose ``math.gcd`` with n is 1.  So a block that holds no factor of n
costs one gcd instead of 64 remainders (the "smooth part" filter of
Bernstein, *How to find smooth parts of integers*, 2004), and a block whose
gcd exceeds 1 is tried only at the primes that divide that gcd.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from math import gcd, isqrt, prod

#: The largest n that is_prime and factorize accept: on a prime near the bound,
#: is_prime takes about 0.7 s and factorize about 1.1 s (CPython 3.11.7, 2-vCPU VM).
FACTOR_BOUND = 10**15

#: The table holds the primes below this bound (the largest is 32749).  A 2^16
#: table is no faster at the benchmark's median op, and the benchmark keeps
#: every op's result, so its extra ops per run read as peak RSS.
_SIEVE_BOUND = 2**15


@cache
def _small_primes() -> tuple[int, ...]:
    """The primes below _SIEVE_BOUND in increasing order, by a bytearray sieve.

    The sieve holds the odd numbers only: sieve[i] stands for 2i + 1.
    """
    half = _SIEVE_BOUND // 2
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (isqrt(_SIEVE_BOUND - 1) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2::p] = bytes(len(range(p * p // 2, half, p)))
    return (2,) + tuple(compress(range(1, _SIEVE_BOUND, 2), sieve))


#: Primes per block of the table; the first block runs from 2 to 311.
_BLOCK = 64


@cache
def _blocks() -> tuple[tuple[tuple[int, ...], int], ...]:
    """The table cut into (primes, product of those primes) blocks of _BLOCK primes."""
    table = _small_primes()
    return tuple((block, prod(block))
                 for block in (table[i:i + _BLOCK] for i in range(0, len(table), _BLOCK)))


def is_prime(n: int) -> bool:
    """Primality of n <= FACTOR_BOUND by trial division.

    One gcd per block of the table decides n: a block that shares a factor
    with n holds a prime factor of n, so n is prime just when it is one of
    that block's primes.  Odd d from 2^15 + 1 follow only for n > 2^30 with
    no prime factor in the table.
    """
    if n > FACTOR_BOUND:
        raise ValueError(f"n = {n} exceeds the primality bound {FACTOR_BOUND}")
    if n < 2:
        return False
    for block, product in _blocks():
        if block[0] * block[0] > n:
            return True
        if gcd(n, product) > 1:
            return n in block
    for d in range(_SIEVE_BOUND + 1, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of 1 <= n <= FACTOR_BOUND by trial division.

    The table's primes come first, each block tried only at the primes that
    divide its gcd with the cofactor left so far; the 6k +- 1 loop from
    32771 = 6*5462 - 1 follows only for a cofactor of at least 32771^2 with no
    prime factor in the table.  The keys come in increasing order.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n > FACTOR_BOUND:
        raise ValueError(f"n = {n} exceeds the factoring bound {FACTOR_BOUND}")
    out: dict[int, int] = {}
    for block, product in _blocks():
        if block[0] * block[0] > n:
            break
        g = gcd(n, product)
        if g == 1:
            continue
        for p in block:
            if g % p == 0:
                g //= p
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
                if g == 1:
                    break
    # The last 6k - 1 <= _SIEVE_BOUND + 3, so every 6k +- 1 the loop skips
    # lies below the bound: a table prime or a product of table primes.
    d = 6 * ((_SIEVE_BOUND + 4) // 6) - 1
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sigma(m: int) -> int:
    """Sum of the positive divisors of m >= 1."""
    if m < 1:
        raise ValueError(f"sigma is defined for positive integers, got {m}")
    total = 1
    for p, e in factorize(m).items():
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total
