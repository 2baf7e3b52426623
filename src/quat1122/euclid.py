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
with every product through ``core.half_product`` and its exact halving.
``div_rem`` is one step between elements.  ``gcd`` runs its whole loop,
Bezout cofactors included, on tuples, and builds elements (through
``OrderElement.from_half`` and its parity check) only for its result.  Each
one-sided product, on tuples or elements, goes through ``dyadic._sided``.

``gcd`` returns a ``GcdResult``: the GCD d, its Bezout pair (x, y) and the
side.  For the right GCD of (a, b), d divides a and b on the right and

    d = x*a + y*b;

for the left GCD, d divides both on the left and d = a*x + b*y.
``gcd_cofactor`` returns the same d with the cofactor a' of a instead
(a = a'*d on the right, a = d*a' on the left), from the continuant its loop
carries in place of the Bezout pair; factoring peels each prime with it.
"""

from __future__ import annotations

from .core import OrderElement, Record, half_product, units
from .dyadic import _sided, primary_associate

TYPE_CHECKING = False  # typing's own flag without importing typing (3-4 ms)
if TYPE_CHECKING:
    from .dyadic import Side

#: Half-coordinate parities of the four cosets of 2Z^4 that make up the order.
_COSETS = ((0, 0, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1), (0, 0, 1, 1))
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


def _add(u, v) -> tuple[int, int, int, int]:
    return u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3]


def _sub(u, v) -> tuple[int, int, int, int]:
    return u[0] - v[0], u[1] - v[1], u[2] - v[2], u[3] - v[3]


def _step(a, b, side: Side):
    # One Euclid step on half coordinates: (q, r) with a = q*b + r ("right")
    # or a = b*q + r ("left"), b nonzero, q decoded from the numerator
    # a*conj(b) (conj(b)*a) as the best of the four coset points.
    A, B, C, D = b
    nb = (A * A + B * B + 2 * (C * C + D * D)) >> 2
    mul = _sided(side, half_product)
    H = mul(a, (A, -B, -C, -D))
    # x = p + 2*ceil((h/nb - p - 1)/2) is the integer of parity p nearest to
    # h/nb, the lower one on a tie; x*nb - h is its error.  No tie is lost:
    # were the least-coordinate quotient of least norm(r) an upper tie in A
    # or B, a step of -2 there, and in C or D (its A, B are then exact) a
    # step of (-1,-1,-1,0) or (-1,-1,0,-1), would keep norm(r) and lower the
    # quotient's coordinates.
    nb2 = 2 * nb
    rounded = []
    for h in H:
        even = -2 * ((nb - h) // nb2)
        odd = 1 - 2 * ((nb2 - h) // nb2)
        e, o = even * nb - h, odd * nb - h
        rounded.append(((even, e * e), (odd, o * o)))
    ra, rb, rc, rd = rounded
    best = None
    for pa, pb, pc, pd in _COSETS:
        (xa, ea), (xb, eb), (xc, ec), (xd, ed) = ra[pa], rb[pb], rc[pc], rd[pd]
        # 4*nb*norm(r), then the quotient's basis coordinates.
        key = (ea + eb + 2 * (ec + ed), (xa - xc - xd) >> 1, (xb - xc - xd) >> 1, xc, xd)
        if best is None or key < best:
            best, q = key, (xa, xb, xc, xd)
    r = _sub(a, mul(q, b))
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


def _associate(d: OrderElement, side: Side) -> tuple[OrderElement, OrderElement]:
    # The unit w and the canonical associate of d that keep the divisor side:
    # w*d for a right gcd, d*w for a left gcd.  Odd gcds get their unique
    # primary associate; even ones the lexicographically smallest coordinates.
    if d.norm() % 2 == 1:
        return primary_associate(d, "left" if side == "right" else "right")
    mul = _sided(side)
    w = min(units(), key=lambda u: mul(u, d).coords)
    return w, mul(w, d)


def _normalize(d: OrderElement, x: OrderElement, y: OrderElement, side: Side):
    # d's canonical associate, with the Bezout pair moved along.
    mul = _sided(side)
    w, c = _associate(d, side)
    return c, mul(w, x), mul(w, y)


def gcd(a: OrderElement, b: OrderElement, side: Side = "right") -> GcdResult:
    """One-sided GCD by the Euclidean algorithm, with exact Bezout cofactors.

    The right GCD divides both inputs on the right and satisfies
    d = x*a + y*b; the left GCD divides on the left with d = a*x + b*y.
    Output is normalized to the primary associate when odd, else to the
    associate with smallest coordinates.

    Raises:
        ValueError: both arguments are zero.
    """
    mul = _sided(side, half_product)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    r0, x0, y0 = a.half_coords, _ONE, _ZERO
    r1, x1, y1 = b.half_coords, _ZERO, _ONE
    while any(r1):
        q, r = _step(r0, r1, side)
        r0, x0, y0, r1, x1, y1 = r1, x1, y1, r, _sub(x0, mul(q, x1)), _sub(y0, mul(q, y1))
    d, x, y = (OrderElement.from_half(*h) for h in (r0, x0, y0))
    d, x, y = _normalize(d, x, y, side)
    return GcdResult(d, (x, y), side)


def gcd_cofactor(a: OrderElement, b: OrderElement, side: Side) -> tuple[OrderElement, OrderElement]:
    """The GCD that ``gcd`` returns, with a's cofactor in place of the Bezout pair.

    Returns (d, a') with a = a'*d ("right") or a = d*a' ("left").  The
    Euclidean loop carries the continuant U instead: on the right,
    a = U_i*r_i + V_i*r_(i+1) holds at each step, and r_i = q_i*r_(i+1) + r_(i+2)
    gives U_(i+1) = U_i*q_i + V_i and V_(i+1) = U_i, one product per step (the
    left side mirrors every product).  At the end a = U_n*r_n, so with the
    canonical associate d = w*r_n the cofactor is a' = U_n*conj(w).

    Raises:
        ValueError: both arguments are zero.
    """
    mul = _sided(side, half_product)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1, u0, u1 = a.half_coords, b.half_coords, _ONE, _ZERO
    while any(r1):
        q, r = _step(r0, r1, side)
        r0, r1, u0, u1 = r1, r, _add(mul(u0, q), u1), u0
    w, d = _associate(OrderElement.from_half(*r0), side)
    return d, OrderElement.from_half(*mul(u0, w.conjugate().half_coords))
