"""Counting: how often x^2 + y^2 + 2z^2 + 2w^2 represents an integer.

The representation count of n = 2^r * m (m odd) is 4*sigma(m), 8*sigma(m)
or 24*sigma(m) according as r = 0, r = 1 or r >= 2, sigma being the sum of
divisors.  Three further counts cover representations of 4m and 8m under
parity restrictions on (x, y, z, w).

Everything here is double-entry: each closed formula is paired with a
brute-force oracle that enumerates integer 4-tuples directly, sharing no
code with the formula path.  Both oracles share one core, ``_square_sums``,
which counts the signed pairs behind each value of x^2 + y^2 or
2z^2 + 2w^2 under one parity pattern: ``rep_count_oracle`` pairs the two
maps at a single n, ``rep_counts_upto`` convolves them for every n <= N.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as int_gcd
from math import isqrt

from .core import OrderElement
from .dyadic import is_primary
from .intarith import factorize, sigma

DEFAULT_ORACLE_BOUND = 10**6

#: Parity patterns (x, y, z, w) per restriction; None = unrestricted,
#: 0 = even, 1 = odd.  A tuple counts if it matches any pattern; the two
#: of case "iii" are also available alone as "iii-zodd" / "iii-wodd".
RESTRICTIONS = {
    "none": ((None, None, None, None),),
    "i": ((0, 0, 1, 1),),
    "ii": ((0, 0, 1, 1),),
    "iii": ((1, 1, 1, 0), (1, 1, 0, 1)),
    "iii-zodd": ((1, 1, 1, 0),),
    "iii-wodd": ((1, 1, 0, 1),),
}


@dataclass(frozen=True, slots=True)
class CountResult:
    formula_count: int
    oracle_count: int | None
    decomposition: tuple[int, int]  # n = 2^r * m


def _split_two_part(n: int) -> tuple[int, int]:
    r = 0
    while n % 2 == 0:
        n //= 2
        r += 1
    return r, n


def check_restricted_n(n: int, restriction: str) -> None:
    """Raise ValueError unless n has the shape the parity restriction needs."""
    if restriction == "none":
        return
    if restriction in ("i", "iii", "iii-zodd", "iii-wodd"):
        if n % 4 or (n // 4) % 2 == 0:
            raise ValueError(f"restriction {restriction!r} needs n = 4m with m odd, got {n}")
    elif restriction == "ii":
        if n % 8 or (n // 8) % 2 == 0:
            raise ValueError(f"restriction 'ii' needs n = 8m with m odd, got {n}")
    else:
        raise ValueError(f"unknown restriction {restriction!r}")


def rep_count_formula(n: int, with_oracle: bool = False,
                      bound: int = DEFAULT_ORACLE_BOUND) -> CountResult:
    """Closed-form representation count of n, optionally oracle-checked.

    Raises:
        ValueError: n < 1 (the form represents 0 only trivially).
    """
    if n < 1:
        raise ValueError(f"representation count is defined for n >= 1, got {n}")
    r, m = _split_two_part(n)
    multiplier = 4 if r == 0 else (8 if r == 1 else 24)
    formula = multiplier * sigma(m)
    oracle = rep_count_oracle(n, bound=bound) if with_oracle else None
    return CountResult(formula, oracle, (r, m))


def complementary_count_formula(m: int, case: str) -> int:
    """Counts for the parity-restricted representations of 4m and 8m (m odd).

    case "i":   4m with x, y even and z, w odd        -> 4*sigma(m)
    case "ii":  8m with x, y even and z, w odd        -> 16*sigma(m)
    case "iii": 4m with x, y odd and z, w of opposite parity -> 16*sigma(m)
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and positive, got {m}")
    if case == "i":
        return 4 * sigma(m)
    if case in ("ii", "iii"):
        return 16 * sigma(m)
    raise ValueError(f"unknown case {case!r}")


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


def rep_count_oracle(n: int, restriction: str = "none",
                     bound: int = DEFAULT_ORACLE_BOUND) -> int:
    """Count solutions of x^2 + y^2 + 2z^2 + 2w^2 = n by direct enumeration.

    Ordered, signed tuples; the parity restriction must match n's shape.

    Raises:
        ValueError: n < 1, n > bound, or an inconsistent restriction.
    """
    if n < 1:
        raise ValueError(f"oracle is defined for n >= 1, got {n}")
    if n > bound:
        raise ValueError(f"n = {n} exceeds the oracle bound {bound}")
    check_restricted_n(n, restriction)
    total = 0
    for px, py, pz, pw in RESTRICTIONS[restriction]:
        zw = _square_sums(n, pz, pw, 2)
        for t, c in _square_sums(n, px, py, 1).items():
            total += c * zw.get(n - t, 0)
    return total


def rep_counts_upto(limit: int, restriction: str = "none") -> list[int]:
    """Oracle counts for every n in [0, limit] in one enumeration pass.

    Convolves the value counts of x^2 + y^2 against those of 2z^2 + 2w^2
    under the restriction's parities.  Counts are tabulated for every n;
    the restricted counting theorems only speak about n of the matching
    shape (4m or 8m with m odd).
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if restriction not in RESTRICTIONS:
        raise ValueError(f"unknown restriction {restriction!r}")
    counts = [0] * (limit + 1)
    for px, py, pz, pw in RESTRICTIONS[restriction]:
        zw_items = sorted(_square_sums(limit, pz, pw, 2).items())
        for t1, c1 in _square_sums(limit, px, py, 1).items():
            room = limit - t1
            for t2, c2 in zw_items:
                if t2 > room:
                    break
                counts[t1 + t2] += c1 * c2
    return counts


# -- lattice enumeration ------------------------------------------------------

def enumerate_norm_solutions(n: int, integral: bool = False,
                             bound: int = DEFAULT_ORACLE_BOUND) -> tuple[OrderElement, ...]:
    """All elements of norm n, sorted by coordinates.

    With integral=True only the sublattice spanned by {1, i, sqrt2 j,
    sqrt2 k} (all half coordinates even) is kept; its norm-n elements
    correspond one-to-one with the representations of n by the quadratic
    form.
    """
    if n < 1:
        raise ValueError(f"norm must be positive, got {n}")
    if n > bound:
        raise ValueError(f"n = {n} exceeds the enumeration bound {bound}")
    found = []
    # Half coordinates: A^2 + B^2 + 2C^2 + 2D^2 = 4n with A = B,
    # A = C + D (mod 2).
    target = 4 * n
    for A in range(-isqrt(target), isqrt(target) + 1):
        rem_a = target - A * A
        for B in range(-isqrt(rem_a), isqrt(rem_a) + 1):
            if (A - B) % 2:
                continue
            rem_ab = rem_a - B * B
            for C in range(-isqrt(rem_ab // 2), isqrt(rem_ab // 2) + 1):
                rem = rem_ab - 2 * C * C
                if rem % 2:
                    continue
                D = isqrt(rem // 2)
                if 2 * D * D != rem:
                    continue
                for DD in ({D, -D}):
                    if (A - C - DD) % 2:
                        continue
                    if integral and (A | B | C | DD) & 1:
                        continue
                    found.append(OrderElement.from_half(A, B, C, DD))
    found.sort(key=lambda e: e.coords)
    return tuple(found)


# -- primary / primitive counts ----------------------------------------------

def q_formula(m: int) -> int:
    """Number of primitive elements of odd norm m:  m * prod (1 + 1/p); Q(1) = 1."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and positive, got {m}")
    total = 1
    for p, e in factorize(m).items():
        total *= p ** (e - 1) * (p + 1)
    return total


def count_primitive_enum(m: int) -> int:
    """Primitive elements of norm m counted by lattice enumeration."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and positive, got {m}")
    return sum(
        1 for e in enumerate_norm_solutions(m)
        if is_primary(e) and int_gcd(*e.coords) == 1
    )


def count_primary_enum(m: int) -> int:
    """Primary elements of norm m counted by lattice enumeration; equals sigma(m)."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and positive, got {m}")
    return sum(1 for e in enumerate_norm_solutions(m) if is_primary(e))
