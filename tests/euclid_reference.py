"""The 81-candidate quotient search, kept apart from the library.

Rounds the exact quotient a * conj(b) / norm(b) coordinatewise and tries
every quotient within one step of it in each coordinate; the least
remainder norm wins, ties going to the smallest quotient coordinates.
Every quotient with remainder norm below norm(b) lies in that box, so the
search is exhaustive.  Only core arithmetic is used, nothing from
``quat1122.euclid``.
"""

import itertools

from quat1122 import OrderElement

ZERO = OrderElement(0, 0, 0, 0)
ONE = OrderElement(1, 0, 0, 0)

_OFFSETS = tuple(itertools.product((-1, 0, 1), repeat=4))


def round_half_even(num, den):
    """Nearest integer to num/den with ties going to the even integer; den > 0."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2):
        return q + 1
    return q


def div_rem(a, b, side="right"):
    """(quotient, remainder) with a = q*b + r ("right") or a = b*q + r ("left")."""
    nb = b.norm()
    if nb == 0:
        raise ZeroDivisionError("division by zero quaternion")
    numerator = a * b.conjugate() if side == "right" else b.conjugate() * a
    base = tuple(round_half_even(g, nb) for g in numerator.coords)

    best = None
    best_q = best_r = ZERO
    for off in _OFFSETS:
        q = OrderElement(base[0] + off[0], base[1] + off[1], base[2] + off[2], base[3] + off[3])
        r = a - (q * b if side == "right" else b * q)
        key = (r.norm(), q.coords)
        if best is None or key < best:
            best, best_q, best_r = key, q, r
    if best is None or best[0] >= nb:
        raise ArithmeticError(
            f"Euclidean quotient search failed for {a} / {b} ({side}): "
            f"best remainder norm {best and best[0]} >= {nb}"
        )
    return best_q, best_r


def gcd_loop(a, b, side="right"):
    """(d, x, y) from the Euclidean loop on the reference division, unnormalized:
    d = x*a + y*b ("right") or d = a*x + b*y ("left")."""
    r0, x0, y0 = a, ONE, ZERO
    r1, x1, y1 = b, ZERO, ONE
    while not r1.is_zero:
        q, r = div_rem(r0, r1, side)
        if side == "right":
            r0, x0, y0, r1, x1, y1 = r1, x1, y1, r, x0 - q * x1, y0 - q * y1
        else:
            r0, x0, y0, r1, x1, y1 = r1, x1, y1, r, x0 - x1 * q, y0 - y1 * q
    return r0, x0, y0
