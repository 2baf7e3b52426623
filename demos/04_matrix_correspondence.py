#!/usr/bin/env python3
"""Mod odd m the order becomes the full 2x2 matrix ring over Z/m."""

from itertools import product

from quat1122 import (
    OrderElement,
    count_norm1,
    count_norm1_enum,
    count_psi,
    count_psi_enum,
    reduce_mod_m,
    solve_rs,
    tau,
    tau_inv,
)
from quat1122.core import I, ONE, V3

m = 7
params = solve_rs(m)
print(f"m = {m}: parameters (r, s) = ({params.r}, {params.s}) with "
      f"2^-1 + r^2 + s^2 = 0 mod {m}")
print()

for e in (ONE, I, V3, V3 * V3):
    q = reduce_mod_m(e, m)
    mat = tau(q, params)
    print(f"tau({str(e):>10}) = {mat.rows()}   det {mat.det()} = norm {q.norm()} mod {m}")
print()

# tau is multiplicative and invertible.
qa, qb = reduce_mod_m(V3, m), reduce_mod_m(I + V3, m)
assert tau(qa * qb, params) == tau(qa, params) * tau(qb, params)
assert tau_inv(tau(qa, params), params) == qa
print("homomorphism and round-trip checks pass")
print()

# Counting residues: primitive with norm divisible by m, and norm 1 mod m.
print(" m   psi formula  psi enum   norm-1 formula  norm-1 enum")
for m in (3, 5, 9):
    print(f"{m:2}   {count_psi(m):11}  {count_psi_enum(m):8}   "
          f"{count_norm1(m):14}  {count_norm1_enum(m):11}")
print()
# The lifts of [0, 3)^4 reduce to pairwise distinct residues.
lifts = (OrderElement.from_standard(*q) for q in product(range(3), repeat=4))
print(f"residue ring size at m=3: {len({reduce_mod_m(e, 3) for e in lifts})} = 3^4")
