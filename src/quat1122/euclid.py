"""Norm-Euclidean division and one-sided greatest common divisors.

The order admits division with remainder on either side: for b != 0 there
is a quotient q with norm(a - q*b) < norm(b) (respectively norm(a - b*q)
< norm(b)).  q is the lattice point nearest to a * conj(b) / norm(b): in
half coordinates the order is the union of four cosets of 2Z^4 and the norm
is diagonal, so rounding within each coset and keeping the best of the four
(Conway and Sloane's union-of-cosets decoder) finds it.  norm(r) < norm(b)
is checked at runtime.

GCDs carry Bezout data.  For the right GCD d of (a, b):

    a = a' * d,   b = b' * d,   d = x*a + y*b

and symmetrically for the left GCD (d = a*x + b*y, d a left divisor).
"""

from __future__ import annotations

from typing import Literal

from .core import ONE, ZERO, HalfCoords, OrderElement, Record, units
from .dyadic import primary_associate

Side = Literal["left", "right"]

#: Half-coordinate parities of the four cosets of 2Z^4 that make up the order.
_COSETS = ((0, 0, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1), (0, 0, 1, 1))


class DivisionResult(Record):
    quotient: OrderElement
    remainder: OrderElement
    side: Side


class GcdResult(Record):
    gcd: OrderElement
    cofactors: tuple[OrderElement, OrderElement]
    side: Side


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _coset_candidate(H: HalfCoords, nb: int, coset: tuple[int, ...]):
    # (4*nb*norm(r), q.coords) for the quotient q of the coset nearest to H/nb.
    # x = p + 2*ceil((h/nb - p - 1)/2) is the integer of parity p nearest to
    # h/nb, the lower one on a tie.  No tie is lost: were the least-coordinate
    # quotient of least norm(r) an upper tie in A or B, a step of -2 there, and
    # in C or D (its A, B are then exact) a step of (-1,-1,-1,0) or
    # (-1,-1,0,-1), would keep norm(r) and lower q.coords.
    X = [p - 2 * ((p * nb + nb - h) // (2 * nb)) for h, p in zip(H, coset)]
    A, B, C, D = [x * nb - h for x, h in zip(X, H)]
    return A * A + B * B + 2 * (C * C + D * D), OrderElement.from_half(*X).coords


def div_rem(a: OrderElement, b: OrderElement, side: Side = "right") -> DivisionResult:
    """Divide with remainder: a = q*b + r ("right") or a = b*q + r ("left").

    Deterministic: each of the four cosets offers its point nearest to
    a*conj(b)/norm(b) (right) or conj(b)*a/norm(b) (left), each half
    coordinate rounded to the coset's parity, an exact tie downwards.  The
    least norm(r) wins, then the smallest quotient coordinates.

    Raises:
        ZeroDivisionError: b == 0.
        ArithmeticError: norm(r) >= norm(b) (cannot happen in a
            norm-Euclidean ring; kept as a runtime check).
    """
    _check_side(side)
    nb = b.norm()
    if nb == 0:
        raise ZeroDivisionError("division by zero quaternion")
    numerator = a * b.conjugate() if side == "right" else b.conjugate() * a
    H = numerator.half_coords
    _, coords = min(_coset_candidate(H, nb, coset) for coset in _COSETS)
    q = OrderElement(*coords)
    r = a - (q * b if side == "right" else b * q)
    if r.norm() >= nb:
        raise ArithmeticError(f"remainder norm {r.norm()} >= {nb} in {a} / {b} ({side})")
    return DivisionResult(q, r, side)


def _normalize(d: OrderElement, x: OrderElement, y: OrderElement, side: Side):
    # Associates preserving the divisor side: u*d for a right gcd, d*u for a
    # left gcd.  Odd gcds get their unique primary associate; even ones the
    # lexicographically smallest coordinate tuple.
    if d.norm() % 2 == 1:
        w, c = primary_associate(d, "left" if side == "right" else "right")
    else:
        if side == "right":
            w = min(units(), key=lambda u: (u * d).coords)
            c = w * d
        else:
            w = min(units(), key=lambda u: (d * u).coords)
            c = d * w
    if side == "right":
        return c, w * x, w * y
    return c, x * w, y * w


def gcd(a: OrderElement, b: OrderElement, side: Side = "right") -> GcdResult:
    """One-sided GCD by the Euclidean algorithm, with exact Bezout cofactors.

    The right GCD divides both inputs on the right and satisfies
    d = x*a + y*b; the left GCD divides on the left with d = a*x + b*y.
    Output is normalized to the primary associate when odd, else to the
    associate with smallest coordinates.

    Raises:
        ValueError: both arguments are zero.
    """
    _check_side(side)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    r0, x0, y0 = a, ONE, ZERO
    r1, x1, y1 = b, ZERO, ONE
    while not r1.is_zero:
        step = div_rem(r0, r1, side)
        q, r = step.quotient, step.remainder
        if side == "right":
            r0, x0, y0, r1, x1, y1 = r1, x1, y1, r, x0 - q * x1, y0 - q * y1
        else:
            r0, x0, y0, r1, x1, y1 = r1, x1, y1, r, x0 - x1 * q, y0 - y1 * q
    d, x, y = _normalize(r0, x0, y0, side)
    return GcdResult(d, (x, y), side)
