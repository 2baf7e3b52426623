"""Counting: how often x^2 + y^2 + 2z^2 + 2w^2 represents an integer.

Every representation count here is multiplier * sigma(m) for n = 2^r * m
with m odd, sigma being the sum of divisors: unrestricted, or with parity
restrictions on (x, y, z, w) that count representations of 4m or 8m.
``RESTRICTIONS`` is the single table of these rules.  Each entry holds the
restriction's parity patterns, the r it needs and its multipliers.

Everything here is double-entry: ``rep_count_formula`` reads the
multipliers, while the brute-force oracles read the parity patterns and
enumerate integer 4-tuples directly.  The two paths share only the check
that n has the shape its restriction needs.  Both oracles share one core,
``_square_sums``, which counts the signed pairs behind each value of
x^2 + y^2 or 2z^2 + 2w^2 under one parity pattern: ``rep_count_oracle``
pairs the two maps at a single n, ``rep_counts_upto`` convolves them for
every n <= N as one product of two packed big ints.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product, starmap
from math import gcd as int_gcd
from math import isqrt

from .core import OrderElement, Record
from .dyadic import is_primary
from .intarith import FACTOR_BOUND, sigma

COUNT_BOUND = FACTOR_BOUND  # sigma trial-divides: about 1 s on a prime near it (CPython 3.11)
ORACLE_BOUND = 10**6
TABLE_BOUND = 2 * 10**5  # verify's three tables at the bound take about 2.2 s
ENUMERATION_BOUND = 2 * 10**4  # the whole shell at the bound takes about 2 s, primes -p 0.5 s


class Restriction(Record):
    """One counting theorem: count(n) = multiplier * sigma(m), n = 2^r * m, m odd."""

    #: Parities (x, y, z, w), one of which a tuple must match; None = any,
    #: 0 = even, 1 = odd.
    patterns: tuple[tuple[int | None, ...], ...]
    two_exponent: int | None  # the r that n must have; None = any r
    multipliers: tuple[int, ...]  # for r = 0, 1, ...; the last for all larger r

    def admissible(self, limit: int) -> range:
        """The n in [1, limit] that this theorem speaks about."""
        if self.two_exponent is None:
            return range(1, limit + 1)
        return range(2**self.two_exponent, limit + 1, 2 ** (self.two_exponent + 1))


#: The representation counts, by restriction name: the four counting theorems.
RESTRICTIONS = {
    "none": Restriction(((None, None, None, None),), None, (4, 8, 24)),
    "i": Restriction(((0, 0, 1, 1),), 2, (4,)),
    "ii": Restriction(((0, 0, 1, 1),), 3, (16,)),
    "iii": Restriction(((1, 1, 1, 0), (1, 1, 0, 1)), 2, (16,)),
}


class CountResult(Record):
    formula_count: int
    decomposition: tuple[int, int]  # n = 2^r * m


def _rule(restriction: str) -> Restriction:
    try:
        return RESTRICTIONS[restriction]
    except KeyError:
        raise ValueError(f"unknown restriction {restriction!r}") from None


def _split_shaped(n: int, restriction: str) -> tuple[Restriction, int, int]:
    """The rule and n = 2^r * m (n >= 1); ValueError unless the rule admits r."""
    rule = _rule(restriction)
    r = (n & -n).bit_length() - 1
    if rule.two_exponent not in (None, r):
        raise ValueError(f"restriction {restriction!r} needs "
                         f"n = {2**rule.two_exponent}m with m odd, got {n}")
    return rule, r, n >> r


def rep_count_formula(n: int, restriction: str = "none") -> CountResult:
    """Closed-form representation count of n; rep_count_oracle checks it.

    Raises:
        ValueError: n < 1 (the form represents 0 only trivially), n >
            COUNT_BOUND, or an n whose shape the restriction does not admit.
    """
    if n < 1:
        raise ValueError(f"representation count is defined for n >= 1, got {n}")
    if n > COUNT_BOUND:
        raise ValueError(f"n = {n} exceeds the count bound {COUNT_BOUND}")
    rule, r, m = _split_shaped(n, restriction)
    multiplier = rule.multipliers[min(r, len(rule.multipliers) - 1)]
    return CountResult(multiplier * sigma(m), (r, m))


def _square_sums(limit: int, pu: int | None, pv: int | None, scale: int) -> dict[int, int]:
    """Map t -> number of signed (u, v) with scale*(u^2 + v^2) = t <= limit.

    pu, pv are the parities of u and v: None = any, 0 = even, 1 = odd.
    """
    sums: dict[int, int] = {}
    for u in range(pu or 0, isqrt(limit // scale) + 1, 1 if pu is None else 2):
        uu = scale * u * u
        mu = 1 if u == 0 else 2
        for v in range(pv or 0, isqrt((limit - uu) // scale) + 1, 1 if pv is None else 2):
            t = uu + scale * v * v
            sums[t] = sums.get(t, 0) + mu * (1 if v == 0 else 2)
    return sums


def rep_count_oracle(n: int, restriction: str = "none") -> int:
    """Count solutions of x^2 + y^2 + 2z^2 + 2w^2 = n by direct enumeration.

    Ordered, signed tuples; the parity restriction must match n's shape.

    Raises:
        ValueError: n < 1, n > ORACLE_BOUND, or an inconsistent restriction.
    """
    if n < 1:
        raise ValueError(f"oracle is defined for n >= 1, got {n}")
    rule = _split_shaped(n, restriction)[0]  # shape before bound, for count --oracle
    if n > ORACLE_BOUND:
        raise ValueError(f"n = {n} exceeds the oracle bound {ORACLE_BOUND}")
    total = 0
    for px, py, pz, pw in rule.patterns:
        zw = _square_sums(n, pz, pw, 2)
        for t, c in _square_sums(n, px, py, 1).items():
            total += c * zw.get(n - t, 0)
    return total


def rep_counts_upto(limit: int, restriction: str = "none") -> list[int]:
    """Oracle counts for every n in [0, limit] in one enumeration pass.

    Convolves the value counts of x^2 + y^2 against those of 2z^2 + 2w^2
    under the restriction's parities, as one big-int product per parity
    pattern (Kronecker substitution): each series is packed into an int
    with one fixed-width byte slot per value, so that CPython's Karatsuba
    multiplication does the convolution.  Counts are tabulated for every n;
    the restricted counting theorems only speak about the n that
    ``RESTRICTIONS[restriction].admissible(limit)`` lists.

    Raises:
        ValueError: limit < 0, limit > TABLE_BOUND, or an unknown restriction.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit > TABLE_BOUND:
        raise ValueError(f"limit = {limit} exceeds the table bound {TABLE_BOUND}")
    counts = [0] * (limit + 1)
    for px, py, pz, pw in _rule(restriction).patterns:
        xy = _square_sums(limit, px, py, 1)
        zw = _square_sums(limit, pz, pw, 2)
        if not xy or not zw:
            continue
        x0, z0 = min(xy), min(zw)
        start = x0 + z0
        if start > limit:
            continue
        # Both series live on t0 + stride * Z; a slot of the product holds
        # the count of n = start + stride * k.  By Cauchy-Schwarz no count
        # exceeds isqrt(sum a^2 * sum b^2), which sets the slot width.
        stride = int_gcd(*(t - x0 for t in xy), *(t - z0 for t in zw)) or 1
        bound = isqrt(sum(c * c for c in xy.values()) * sum(c * c for c in zw.values()))
        width = (bound.bit_length() + 7) // 8
        size = width * ((limit - start) // stride + 1)
        packed = _pack(xy, x0, stride, width) * _pack(zw, z0, stride, width)
        data = (packed & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        for n, i in zip(range(start, limit + 1, stride), range(0, size, width)):
            counts[n] += int.from_bytes(data[i:i + width], "little")
    return counts


def _pack(series: dict[int, int], t0: int, stride: int, width: int) -> int:
    """series as one int: the count of t in the width-byte slot (t - t0) / stride."""
    buf = bytearray(width * ((max(series) - t0) // stride + 1))
    for t, c in series.items():
        i = (t - t0) // stride * width
        buf[i:i + width] = c.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


# -- lattice enumeration ------------------------------------------------------

def _signed(v: int) -> tuple[int, ...]:
    return (v, -v) if v else (0,)


def _shell(target: int) -> Iterator[tuple[int, int, int, int]]:
    """Every integer (a, b, c, d) with a^2 + b^2 + 2c^2 + 2d^2 = target, b = c + d (mod 2).

    a then has the parity of target + c + d.  Loops c, d and b over
    nonnegative values, b within its parity class, solves for a with
    isqrt and yields every sign choice, so nothing but the output is held.
    """
    for c in range(isqrt(target // 2) + 1):
        rem_c = target - 2 * c * c
        for d in range(isqrt(rem_c // 2) + 1):
            rem_cd = rem_c - 2 * d * d
            for b in range((c + d) % 2, isqrt(rem_cd) + 1, 2):
                rem = rem_cd - b * b
                a = isqrt(rem)
                if a * a == rem:
                    yield from product(_signed(a), _signed(b), _signed(c), _signed(d))


def enumerate_norm_solutions(n: int, primary: bool = False) -> tuple[OrderElement, ...]:
    """All elements of norm n, sorted by coordinates.

    Each mode is one ``_shell`` search:

    - default: the whole order, as half coordinates (A, B, C, D) with
      A^2 + B^2 + 2C^2 + 2D^2 = 4n and A = B = C + D (mod 2).
    - primary=True, odd n only: the primary elements.  These are 1 mod 2,
      hence integral, with standard coordinates (x, y, z, w) solving
      x^2 + y^2 + 2z^2 + 2w^2 = n with y = z + w and x = 1 + z + w (mod 2);
      only those 2 * sigma(n) representations are searched, and
      ``is_primary`` keeps half of them.

    The loops take about n^1.5 steps by default and an eighth of that with
    primary=True; building the elements costs about 3 us each.  On one core
    of a Xeon VM with CPython 3.11 the default shell at n = 5000 takes
    0.08 s (18,744 elements), at n = 19997 1.7 s (479,952), and
    primary=True at n = 19997 0.2 s.

    Raises:
        ValueError: n < 1, n > ENUMERATION_BOUND, or primary=True with an
            even n (primary elements have odd norm).
    """
    if n < 1:
        raise ValueError(f"norm must be positive, got {n}")
    if n > ENUMERATION_BOUND:
        raise ValueError(f"n = {n} exceeds the enumeration bound {ENUMERATION_BOUND}")
    if primary:
        if n % 2 == 0:
            raise ValueError(f"primary elements have odd norm, got {n}")
        found = [e for e in starmap(OrderElement.from_standard, _shell(n)) if is_primary(e)]
    else:
        found = list(starmap(OrderElement.from_half, _shell(4 * n)))
    found.sort(key=lambda e: e.coords)
    return tuple(found)
