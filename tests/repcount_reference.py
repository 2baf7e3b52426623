"""Counting oracles kept apart from the library, for the tests.

- ``rep_counts_upto``: the sweep table by a nested convolution loop.  For
  every pair of values t1 of x^2 + y^2 and t2 of 2z^2 + 2w^2 under a
  parity pattern, ``pattern_table`` adds the product of their counts to
  the count of t1 + t2; a restriction sums its patterns' tables.
  ``repcount.rep_counts_upto`` computes the same table as one big-int
  product; this is the loop it replaced.
- ``pattern_count``: the signed representations of a single n under one
  parity pattern.  The library counts only whole restrictions; the tests
  count each half of case iii (z odd or w odd) with these two helpers.
- ``q_formula`` and ``count_primitive_enum``: the number of primitive
  primary elements of odd norm m, Q(m) = m * prod (1 + 1/p), in closed form
  and by lattice enumeration.  The primary elements of norm m number sigma(m):
  ``len(enumerate_norm_solutions(m, primary=True))``.
"""

from math import gcd

from quat1122.intarith import factorize
from quat1122.repcount import RESTRICTIONS, _square_sums, enumerate_norm_solutions


def pattern_table(limit, pattern):
    """Counts of n = x^2 + y^2 + 2z^2 + 2w^2 for every n in [0, limit] under one pattern.

    pattern is (px, py, pz, pw), each None (any), 0 (even) or 1 (odd).
    """
    px, py, pz, pw = pattern
    counts = [0] * (limit + 1)
    zw_items = sorted(_square_sums(limit, pz, pw, 2).items())
    for t1, c1 in _square_sums(limit, px, py, 1).items():
        room = limit - t1
        for t2, c2 in zw_items:
            if t2 > room:
                break
            counts[t1 + t2] += c1 * c2
    return counts


def rep_counts_upto(limit, restriction="none"):
    """Counts of x^2 + y^2 + 2z^2 + 2w^2 = n for every n in [0, limit]."""
    tables = [pattern_table(limit, p) for p in RESTRICTIONS[restriction].patterns]
    return [sum(column) for column in zip(*tables)]


def pattern_count(n, pattern):
    """Signed (x, y, z, w) with x^2 + y^2 + 2z^2 + 2w^2 = n and these parities.

    pattern is (px, py, pz, pw), each None (any), 0 (even) or 1 (odd).
    """
    px, py, pz, pw = pattern
    zw = _square_sums(n, pz, pw, 2)
    return sum(c * zw.get(n - t, 0) for t, c in _square_sums(n, px, py, 1).items())


def q_formula(m):
    """Number of primitive primary elements of odd norm m: m * prod (1 + 1/p); Q(1) = 1."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and positive, got {m}")
    total = 1
    for p, e in factorize(m).items():
        total *= p ** (e - 1) * (p + 1)
    return total


def count_primitive_enum(m):
    """Primitive primary elements of norm m counted by lattice enumeration."""
    return sum(1 for e in enumerate_norm_solutions(m, primary=True) if gcd(*e.coords) == 1)
