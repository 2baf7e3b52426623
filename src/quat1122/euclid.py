"""Norm-Euclidean division and one-sided greatest common divisors.

The order admits division with remainder on either side: for b != 0 there
is a quotient q with norm(a - q*b) < norm(b) (respectively norm(a - b*q)
< norm(b)).  q is the lattice point nearest to a * conj(b) / norm(b): in
half coordinates the order is the union of four cosets of 2Z^4 and the norm
is diagonal, so rounding within each coset and keeping the best of the four
(Conway and Sloane's union-of-cosets decoder) finds it.  norm(r) < norm(b)
is checked at runtime.

One step kernel does this on half-coordinate integer 4-tuples: it forms the
numerator, decodes the quotient, multiplies back and checks the remainder,
with every product through ``core.half_product`` and its exact halving,
its operands written in side order.  ``div_rem`` is one step between
elements.  One Euclidean loop, shared by ``gcd`` and ``gcd_cofactor``, takes
and returns tuples and carries no Bezout coefficient: it returns its
quotients, and ``gcd`` alone folds the coefficient of a over them (one
product per step).  It normalizes the last remainder on tuples too:
``dyadic._primary_half`` for an odd gcd, the 24-unit scan for an even one.
``gcd_cofactor``'s product is written in side order as well; every other
one-sided product goes through ``dyadic._sided``.

``gcd`` returns a ``GcdResult``: the GCD d, its Bezout pair (x, y) and the
side.  For the right GCD of (a, b), d divides a and b on the right and

    d = x*a + y*b;

for the left GCD, d divides both on the left and d = a*x + b*y.
``gcd_cofactor`` takes and returns half coordinates: the same d with the
cofactor a' of a instead (a = a'*d on the right, a = d*a' on the left);
factoring peels each prime with it.  y and a' each come from one exact
division by the rule of ``core.exact_coords``.
"""

from __future__ import annotations

from .core import (
    ZERO, OrderElement, Record, exact_coords, exact_quotient, half_norm, half_product, units,
)
from .dyadic import _primary_half, _sided

TYPE_CHECKING = False  # typing's own flag without importing typing (3-4 ms)
if TYPE_CHECKING:
    from .dyadic import Side

#: The half coordinates of 1 and 0.
_ONE, _ZERO = (2, 0, 0, 0), (0, 0, 0, 0)


class DivisionResult(Record):
    quotient: OrderElement
    remainder: OrderElement
    side: Side


class GcdResult(Record):
    gcd: OrderElement
    cofactors: tuple[OrderElement, OrderElement]
    side: Side


def _sub(u, v) -> tuple[int, int, int, int]:
    return u[0] - v[0], u[1] - v[1], u[2] - v[2], u[3] - v[3]


def _step(a, b, side: Side):
    # One Euclid step on half coordinates: (q, r) with a = q*b + r ("right")
    # or a = b*q + r ("left"), b nonzero, q decoded from the numerator
    # a*conj(b) (conj(b)*a) as the best of the four coset points.
    A, B, C, D = b
    nb = (A * A + B * B + 2 * (C * C + D * D)) >> 2
    right = side == "right"
    bc = (A, -B, -C, -D)
    ha, hb, hc, hd = half_product(a, bc) if right else half_product(bc, a)
    # x = p + 2*ceil((h/nb - p - 1)/2) is the integer of parity p nearest to
    # h/nb, the lower one on a tie; x*nb - h is its error.  No tie is lost:
    # were the least-coordinate quotient of least norm(r) an upper tie in A
    # or B, a step of -2 there, and in C or D (its A, B are then exact) a
    # step of (-1,-1,-1,0) or (-1,-1,0,-1), would keep norm(r) and lower the
    # quotient's coordinates.
    nb2 = 2 * nb
    a0, a1 = -2 * ((nb - ha) // nb2), 1 - 2 * ((nb2 - ha) // nb2)
    b0, b1 = -2 * ((nb - hb) // nb2), 1 - 2 * ((nb2 - hb) // nb2)
    c0, c1 = -2 * ((nb - hc) // nb2), 1 - 2 * ((nb2 - hc) // nb2)
    d0, d1 = -2 * ((nb - hd) // nb2), 1 - 2 * ((nb2 - hd) // nb2)
    ea0, ea1 = (a0 * nb - ha) ** 2, (a1 * nb - ha) ** 2
    eb0, eb1 = (b0 * nb - hb) ** 2, (b1 * nb - hb) ** 2
    ec0, ec1 = 2 * (c0 * nb - hc) ** 2, 2 * (c1 * nb - hc) ** 2
    ed0, ed1 = 2 * (d0 * nb - hd) ** 2, 2 * (d1 * nb - hd) ** 2
    # The cosets of parities 0000, 1110, 1101 and 0011, each keyed by
    # 4*nb*norm(r), then the quotient's basis coordinates.
    q = min(
        ((ea0 + eb0 + ec0 + ed0, (a0 - c0 - d0) >> 1, (b0 - c0 - d0) >> 1, c0, d0), (a0, b0, c0, d0)),
        ((ea1 + eb1 + ec1 + ed0, (a1 - c1 - d0) >> 1, (b1 - c1 - d0) >> 1, c1, d0), (a1, b1, c1, d0)),
        ((ea1 + eb1 + ec0 + ed1, (a1 - c0 - d1) >> 1, (b1 - c0 - d1) >> 1, c0, d1), (a1, b1, c0, d1)),
        ((ea0 + eb0 + ec1 + ed1, (a0 - c1 - d1) >> 1, (b0 - c1 - d1) >> 1, c1, d1), (a0, b0, c1, d1)),
    )[1]
    r = _sub(a, half_product(q, b) if right else half_product(b, q))
    RA, RB, RC, RD = r
    nr = (RA * RA + RB * RB + 2 * (RC * RC + RD * RD)) >> 2
    if nr >= nb:
        a, b = OrderElement.from_half(*a), OrderElement.from_half(*b)
        raise ArithmeticError(f"remainder norm {nr} >= {nb} in {a} / {b} ({side})")
    return q, r


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
    _sided(side)  # a bad side is refused before a zero divisor
    if b.is_zero:
        raise ZeroDivisionError("division by zero quaternion")
    q, r = _step(a.half_coords, b.half_coords, side)
    return DivisionResult(OrderElement.from_half(*q), OrderElement.from_half(*r), side)


def _associate(r, side: Side):
    # The unit w and the canonical associate of the last remainder r that keep
    # the divisor side, all as half coordinates: w*r for a right gcd, r*w for
    # a left gcd.  Odd gcds get their unique primary associate; even ones the
    # lexicographically smallest basis coordinates, over the 24 units.
    if half_norm(r) & 1:
        return _primary_half(r, "left" if side == "right" else "right")
    hmul = _sided(side, half_product)
    w = min((u.half_coords for u in units()),
            key=lambda u: OrderElement.from_half(*hmul(u, r)).coords)
    return w, hmul(w, r)


def _euclid(a, b, side: Side):
    # The one Euclidean loop, on the half coordinates a, b: the canonical d,
    # the unit w with d = w*r (r*w on the left) for the last remainder r, and
    # the quotients of its steps, from which gcd alone folds the Bezout
    # coefficient x; every one a tuple.
    _sided(side)  # refuse a bad side before the first step
    if not any(a) and not any(b):
        raise ValueError("gcd(0, 0) is undefined")
    qs = []
    while any(b):
        q, r = _step(a, b, side)
        a, b = b, r
        qs.append(q)
    w, d = _associate(a, side)
    return d, w, qs


def gcd(a: OrderElement, b: OrderElement, side: Side = "right") -> GcdResult:
    """One-sided GCD by the Euclidean algorithm, with exact Bezout cofactors.

    The right GCD divides both inputs on the right and satisfies
    d = x*a + y*b; the left GCD divides on the left with d = a*x + b*y.
    Output is normalized to the primary associate when odd, else to the
    associate with smallest coordinates.  y is (d - x*a)*conj(b)/norm(b),
    mirrored on the left, or 0 when b = 0.

    Raises:
        ValueError: both arguments are zero.
        ArithmeticError: that division is not exact (impossible; a runtime check).
    """
    d, w, qs = _euclid(a.half_coords, b.half_coords, side)
    # r_i = x_i*a + y_i*b (a*x_i + b*y_i on the left), one product per step.
    hmul = _sided(side, half_product)
    x0, x1 = _ONE, _ZERO
    for q in qs:
        x0, x1 = x1, _sub(x0, hmul(q, x1))
    d, x = OrderElement.from_half(*d), OrderElement.from_half(*hmul(w, x0))
    mul = _sided(side)
    y = ZERO if b.is_zero else exact_quotient(mul(d - mul(x, a), b.conjugate()), b.norm())
    return GcdResult(d, (x, y), side)


def gcd_cofactor(a, b, side: Side):
    """The GCD that ``gcd`` returns, with a's cofactor in place of the Bezout pair.

    Takes and returns half coordinates: (d, a') with a = a'*d ("right") or
    a = d*a' ("left"), where a' = a*conj(d)/norm(d) (conj(d)*a/norm(d) on
    the left), divided by the one exact-division rule, ``core.exact_coords``.

    Raises:
        ValueError: both arguments are zero.
        ArithmeticError: d does not divide a (impossible; a runtime check).
    """
    d = _euclid(a, b, side)[0]
    A, B, C, D = d
    dc = (A, -B, -C, -D)
    A, B, C, D = half_product(a, dc) if side == "right" else half_product(dc, a)
    g1, g2, g3, g4 = exact_coords((A - C - D) >> 1, (B - C - D) >> 1, C, D, half_norm(d))
    return d, (2 * g1 + g3 + g4, 2 * g2 + g3 + g4, g3, g4)
