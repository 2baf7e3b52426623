#!/usr/bin/env python3
"""The prime 1+i: valuations, residues, and the primary normal form."""

from quat1122 import (
    OrderElement,
    divide_by_1pi,
    is_odd,
    primary_associate,
    residue_mod_1pi,
    residue_mod_2_1pi,
    valuation_1pi,
)
from quat1122.core import I, ONE, ONE_PLUS_I, V3, V4

# An element has even norm exactly when 1+i divides it (on either side).
e = ONE + V3 - V4
print(f"e = {e}, norm {e.norm()} (even)")
print(f"  e / (1+i) on the right: {divide_by_1pi(e, 'right')}")
print(f"  e / (1+i) on the left:  {divide_by_1pi(e, 'left')}")
print()

# Stripping all factors of 1+i: r equals the 2-adic valuation of the norm.
for x in (OrderElement(2, 0, 0, 0), OrderElement(4, 4, 0, 0), OrderElement(0, 0, 6, 0)):
    r, odd = valuation_1pi(x)
    print(f"{x} = (1+i)^{r} * {odd}   (norm {x.norm()})")
print()

# Four cosets mod (1+i); odd elements are congruent to units mod 2.
for x in (I, V4, V3 + V4):
    print(f"{x} = {residue_mod_1pi(x)} mod (1+i)")
print()

# Each odd element has exactly one primary associate per side: a canonical
# representative congruent to 1 or 1+2v3 mod 2(1+i).
for b in (I, OrderElement(3, 0, 0, 0), OrderElement(1, 2, 2, 0)):
    u, c = primary_associate(b, "right")
    print(f"{b} * {u} = {c}   class {residue_mod_2_1pi(c)}")
