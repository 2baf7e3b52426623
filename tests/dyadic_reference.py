"""Definitional classifier modulo 2(1+i), kept apart from the library.

e lies in the ideal 2(1+i) exactly when e/2 is exact in coordinates and
1+i divides e/2, i.e. norm(e/2) is even.  Classes are decided by
subtracting each representative and testing that.  Only core arithmetic
(subtraction, norm) is used, nothing from ``quat1122.dyadic``.
"""

from quat1122 import OrderElement, PrimaryClass

ONE = OrderElement(1, 0, 0, 0)
ONE_PLUS_2V3 = OrderElement(1, 0, 2, 0)
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


def primary_class(e):
    if in_ideal(e - ONE):
        return PrimaryClass.ONE
    if in_ideal(e - ONE_PLUS_2V3):
        return PrimaryClass.ONE_PLUS_2V3
    return PrimaryClass.NOT_PRIMARY


def is_primary(e):
    return primary_class(e) is not PrimaryClass.NOT_PRIMARY
