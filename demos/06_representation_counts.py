#!/usr/bin/env python3
"""How many ways does x^2 + y^2 + 2z^2 + 2w^2 represent n?  Formula vs oracle."""

from quat1122 import (
    rep_count_formula,
    rep_count_oracle,
    rep_counts_upto,
    sigma,
)

# r(n) depends only on the odd part m of n: 4, 8 or 24 times sigma(m).
print(" n    2^r * m    formula  oracle")
for n in (1, 2, 3, 4, 6, 12, 25, 50, 99, 1000):
    res = rep_count_formula(n)
    r, m = res.decomposition
    print(f"{n:4}  2^{r} * {m:3}   {res.formula_count:7}  {rep_count_oracle(n):6}")
print()

# Restricting parities isolates the complementary units: representations of
# 4m and 8m with prescribed even/odd patterns are again sigma multiples.
print(" m    case i (n=4m)   case ii (n=8m)   case iii (n=4m)")
for m in (1, 3, 5, 9, 15):
    counts = [
        (rep_count_formula(4 * m, "i").formula_count, rep_count_oracle(4 * m, "i")),
        (rep_count_formula(8 * m, "ii").formula_count, rep_count_oracle(8 * m, "ii")),
        (rep_count_formula(4 * m, "iii").formula_count, rep_count_oracle(4 * m, "iii")),
    ]
    cells = "   ".join(f"{f:5} = {o:5}" for f, o in counts)
    print(f"{m:2}   {cells}   (sigma = {sigma(m)})")
print()

# One batched enumeration pass verifies a whole initial segment at once.
limit = 2000
oracle = rep_counts_upto(limit)
bad = [n for n in range(1, limit + 1)
       if oracle[n] != rep_count_formula(n).formula_count]
print(f"formula == oracle for all n <= {limit}: {not bad}")
