"""Definitional classifier modulo 2(1+i), kept apart from the library.

e lies in the ideal 2(1+i) exactly when e/2 is exact in coordinates and
1+i divides e/2, i.e. norm(e/2) is even.  Classes are decided by
subtracting each representative and testing that; e is primary when it
lies in the class of 1 or of 1 + 2*v3.  Only core arithmetic
(subtraction, norm) is used, nothing from ``quat1122.dyadic``.

``valuation_1pi`` is the loop the library replaced by one exact division:
it peels 1+i off e on the left, one factor at a time, while norm(e) is even.

``unit_congruences_mod2`` is a search the library no longer needs.  It
reads the library's residues mod 2, and the tests check it against a scan
of the 24 units.
"""

from quat1122 import OrderElement, residue_mod_2

ONE = OrderElement(1, 0, 0, 0)
ONE_PLUS_2V3 = OrderElement(1, 0, 2, 0)
ONE_MINUS_I = OrderElement(1, -1, 0, 0)
RESIDUES = (ONE, -ONE, ONE_PLUS_2V3, -ONE_PLUS_2V3)


def in_ideal(e):
    if any(g % 2 for g in e.coords):
        return False
    return OrderElement(*(g // 2 for g in e.coords)).norm() % 2 == 0


def residue(e):
    for rep in RESIDUES:
        if in_ideal(e - rep):
            return rep
    return None


def is_primary(e):
    return in_ideal(e - ONE) or in_ideal(e - ONE_PLUS_2V3)


def valuation_1pi(e):
    """(r, b) with e = (1+i)^r * b and b odd; e nonzero."""
    r = 0
    while e.norm() % 2 == 0:
        # e = (1+i)*h exactly when (1-i)*e = 2*h.
        g = (ONE_MINUS_I * e).coords
        if any(x % 2 for x in g):
            raise ArithmeticError(f"even-norm element {e} not divisible by 1+i")
        e = OrderElement(*(x // 2 for x in g))
        r += 1
    return r, e


def unit_congruences_mod2(b):
    """Units (u, u1) with b*u = 1 (mod 2) and u1*b = 1 (mod 2).

    Both are +/- (conj(b) mod 2), since b*conj(b) = conj(b)*b = norm(b) is
    odd.  Of the two signs the one with smaller norm(b*u - 1) is returned
    (coordinate order on ties).

    Raises:
        ValueError: b has even norm.
    """
    if b.norm() % 2 == 0:
        raise ValueError(f"{b} has even norm; not congruent to a unit mod 2")
    u = residue_mod_2(b.conjugate())

    def pick(c):
        # c is the product with u; the product with -u is -c.
        if any(g % 2 for g in (c - ONE).coords):
            raise ArithmeticError(f"no unit congruence mod 2 for {b}")
        return min((u, c), (-u, -c), key=lambda uc: ((uc[1] - ONE).norm(), uc[0].coords))[0]

    return pick(b * u), pick(u * b)
