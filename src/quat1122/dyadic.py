"""The (1+i)-adic layer: divisibility, small residue systems, primary elements.

1+i has norm 2 and divides an element on the left exactly when it does on
the right, exactly when the element's norm is even.  So e = (1+i)^r * b with
b odd, where r is the 2-adic valuation of norm(e), and b = (1-i)^r * e / 2^r
is one exact division (``core.exact_quotient``), as is e/(1+i) = e*(1-i)/2.

An odd element is *primary* when it is congruent to 1 or 1 + 2*v3 modulo
the (two-sided) ideal generated by 2*(1+i).  Each odd element has exactly
one primary associate per side; primary elements are the canonical
representatives used throughout factorization and counting.  The class is
read off the coordinates: e = 1 (mod 2) exactly when g1 is odd and g2, g3,
g4 are even, and then e = 1 + 2h lies in class k of CANONICAL_RESIDUES_2_1PI
when h = COSET_REPS_1PI[k] modulo (1+i); ``_class_2_1pi`` reads it for
every caller.  One kernel on half coordinates, ``_primary_half``, takes
every primary associate: ``primary_associate`` wraps it, and ``euclid``
normalizes each odd gcd with it.

One rule orders every one-sided product: x*y right, y*x left.  ``_sided``
applies it; the kernel writes its one product in that order.
"""

from __future__ import annotations

import operator

from .core import (
    I, ONE, UNITS_MOD_SIGN, V3, V4, ZERO, OrderElement, exact_quotient, half_product,
)

TYPE_CHECKING = False  # typing's own flag without importing typing (3-4 ms)
if TYPE_CHECKING:
    from typing import Literal

    Side = Literal["left", "right"]

ONE_MINUS_I = OrderElement(1, -1, 0, 0)
ONE_PLUS_2V3 = OrderElement(1, 0, 2, 0)

#: Coset representatives modulo (1+i): {0, 1, v3, 1 + v3}.
COSET_REPS_1PI = (ZERO, ONE, V3, ONE + V3)

#: Coset representatives modulo 2: the twelve units taken with positive sign
#: plus the four non-units {0, 1+i, 1+v3+v4, i+v3+v4}.
COSET_REPS_MOD2 = tuple(OrderElement(*g) for g in UNITS_MOD_SIGN) + (
    ZERO, ONE + I, ONE + V3 + V4, I + V3 + V4,
)

_MOD2_LOOKUP = {
    tuple(g % 2 for g in rep.coords): rep for rep in COSET_REPS_MOD2
}
if len(_MOD2_LOOKUP) != 16:
    raise ArithmeticError("the residue system mod 2 does not hold 16 classes")
#: The same classes, each representative given by its half coordinates.
_MOD2_HALF = {key: rep.half_coords for key, rep in _MOD2_LOOKUP.items()}

#: The four classes of elements congruent to 1 mod 2, taken mod 2*(1+i).
CANONICAL_RESIDUES_2_1PI = (ONE, -ONE, ONE_PLUS_2V3, -ONE_PLUS_2V3)


def _sided(side: Side, product=operator.mul):
    # The one side rule: x*y on the right, y*x on the left.
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return product if side == "right" else lambda x, y: product(y, x)


def is_odd(e: OrderElement) -> bool:
    """True exactly when norm(e) is odd."""
    return e.norm() % 2 == 1


def _index_1pi(g1: int, g2: int, g3: int, g4: int) -> int:
    # Index into COSET_REPS_1PI of the class of (g1, g2, g3, g4) modulo (1+i).
    return (g1 + g2 + g4) % 2 + 2 * ((g3 + g4) % 2)


def _class_2_1pi(g1: int, g2: int, g3: int, g4: int) -> int | None:
    """Index into CANONICAL_RESIDUES_2_1PI of the element with basis coordinates
    (g1, g2, g3, g4) mod 2*(1+i); None unless it is 1 mod 2."""
    if not g1 & 1 or (g2 | g3 | g4) & 1:
        return None
    return _index_1pi(g1 >> 1, g2 >> 1, g3 >> 1, g4 >> 1)


def residue_mod_1pi(e: OrderElement) -> OrderElement:
    """The representative in {0, 1, v3, 1+v3} congruent to e modulo (1+i)."""
    return COSET_REPS_1PI[_index_1pi(*e.coords)]


def divide_by_1pi(e: OrderElement, side: Side = "right") -> OrderElement:
    """The exact cofactor h with e = h*(1+i) ("right") or e = (1+i)*h ("left").

    Raises:
        ValueError: norm(e) is odd, so 1+i does not divide e; or a bad side.
    """
    mul = _sided(side)
    if is_odd(e):
        raise ValueError(f"{e} has odd norm; not divisible by 1+i")
    return exact_quotient(mul(e, ONE_MINUS_I), 2)


def valuation_1pi(e: OrderElement) -> tuple[int, OrderElement]:
    """Write e = (1+i)^r * b with b odd; returns (r, b).

    r is the 2-adic valuation of norm(e), and b = (1-i)^r * e / 2^r.

    Raises:
        ValueError: e == 0.
    """
    if e.is_zero:
        raise ValueError("the zero element has no (1+i)-adic valuation")
    n = e.norm()
    r = (n & -n).bit_length() - 1
    return r, exact_quotient(ONE_MINUS_I ** r * e, 1 << r)


def residue_mod_2(e: OrderElement) -> OrderElement:
    """The unique representative of e in the 16-element residue system mod 2."""
    # Written out over the four coordinates: no generator per call.
    return _MOD2_LOOKUP[e.g1 & 1, e.g2 & 1, e.g3 & 1, e.g4 & 1]


def is_primary(e: OrderElement) -> bool:
    """True when e = 1 or 1 + 2*v3 modulo 2*(1+i) (indices 0 and 2 of the classes)."""
    return _class_2_1pi(e.g1, e.g2, e.g3, e.g4) in (0, 2)


def primary_associate(b: OrderElement, side: Side = "right") -> tuple[OrderElement, OrderElement]:
    """The unique unit u and primary c with c = b*u ("right") or c = u*b ("left").

    A primary c is 1 mod 2, and b*conj(b) = conj(b)*b = norm(b) is odd, so
    on either side u is one of +/- (conj(b) mod 2); exactly one sign makes
    c primary.  Both facts are checked at runtime.

    Raises:
        ValueError: b has even norm (only odd elements have primary associates),
            or a bad side.
        ArithmeticError: the congruence or the uniqueness fails (impossible).
    """
    _sided(side)  # refuse a bad side before an even norm
    if not is_odd(b):
        raise ValueError(f"{b} has even norm; no primary associate exists")
    u, c = _primary_half(b.half_coords, side)
    return OrderElement.from_half(*u), OrderElement.from_half(*c)


def _primary_half(h, side: Side):
    # primary_associate on the half coordinates h of an odd element, for a
    # side already checked: (u, c) as half coordinates.  u is read from the
    # basis parities of conj(h) = (A, -B, -C, -D), which are
    # ((A+C+D)/2, (C+D-B)/2, C, D) mod 2.
    A, B, C, D = h
    u = _MOD2_HALF[(A + C + D) >> 1 & 1, (C + D - B) >> 1 & 1, C & 1, D & 1]
    c = half_product(h, u) if side == "right" else half_product(u, h)
    A, B, C, D = c
    g1, g2 = (A - C - D) >> 1, (B - C - D) >> 1
    k = _class_2_1pi(g1, g2, C, D)
    if k is None:
        b, u = OrderElement.from_half(*h), OrderElement.from_half(*u)
        raise ArithmeticError(f"{b} times {u} ({side}) is not 1 mod 2")
    primary = k in (0, 2)
    if primary == (_class_2_1pi(-g1, -g2, -C, -D) in (0, 2)):
        b = OrderElement.from_half(*h)
        raise ArithmeticError(f"primary associate of {b} ({side}) is not unique up to sign")
    if primary:
        return u, c
    return (-u[0], -u[1], -u[2], -u[3]), (-A, -B, -C, -D)


def residue_mod_2_1pi(e: OrderElement) -> OrderElement | None:
    """The representative of e in {1, -1, 1+2v3, -1-2v3} modulo 2*(1+i).

    Every element congruent to 1 mod 2 falls in exactly one of these four
    classes; anything else returns None.  So the ideal contains e exactly
    when residue_mod_2_1pi(e + 1) == 1.
    """
    k = _class_2_1pi(e.g1, e.g2, e.g3, e.g4)
    return None if k is None else CANONICAL_RESIDUES_2_1PI[k]
