"""The sweep table by a nested convolution loop, kept apart from the library.

For every pair of values t1 of x^2 + y^2 and t2 of 2z^2 + 2w^2 under a
restriction's parity pattern, adds the product of their counts to the
count of t1 + t2.  ``repcount.rep_counts_upto`` computes the same table as
one big-int product; this is the loop it replaced.
"""

from quat1122.repcount import RESTRICTIONS, _square_sums


def rep_counts_upto(limit, restriction="none"):
    """Counts of x^2 + y^2 + 2z^2 + 2w^2 = n for every n in [0, limit]."""
    counts = [0] * (limit + 1)
    for px, py, pz, pw in RESTRICTIONS[restriction].patterns:
        zw_items = sorted(_square_sums(limit, pz, pw, 2).items())
        for t1, c1 in _square_sums(limit, px, py, 1).items():
            room = limit - t1
            for t2, c2 in zw_items:
                if t2 > room:
                    break
                counts[t1 + t2] += c1 * c2
    return counts
