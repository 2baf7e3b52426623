"""The nondegenerate lift and the gcd-then-divide peel, kept apart from the library.

``lift_nondegenerate`` moves f to a representative of f mod p whose norm has
p-valuation exactly 1; ``reference_primary_prime`` then takes the right GCD
with p, which has norm p because the lift's norm does.  ``reference_peel`` is
the prime step as factoring took it before ``euclid.gcd_cofactor``: a full
``gcd`` with p, Bezout pair included, then an exact ``div_rem``.  Nothing is
imported from ``quat1122.factor``.
"""

from quat1122 import OrderElement
from quat1122.euclid import div_rem, gcd as quat_gcd
from quat1122.intarith import is_prime
from quat1122.modm import reduce_mod_m


def _check_lift_preconditions(f: OrderElement, p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd rational prime")
    if not reduce_mod_m(f, p).is_primitive():
        raise ValueError(f"{f} is not primitive to {p}")
    if f.norm() % p:
        raise ValueError(f"norm {f.norm()} of {f} is not divisible by {p}")


def lift_nondegenerate(f: OrderElement, p: int) -> OrderElement:
    """A representative of f mod p whose norm is divisible by p but not p^2.

    If norm(f) already has p-valuation 1 the input is returned unchanged.
    Otherwise one coordinate is shifted by a multiple of p: the norm changes
    by p times a linear form in the shift, and primitivity guarantees some
    coefficient of that form is invertible mod p.
    """
    _check_lift_preconditions(f, p)
    if f.norm() % (p * p):
        return f
    f1, f2, f3, f4 = f.coords
    gradient = (
        2 * f1 + f3 + f4,
        2 * f2 + f3 + f4,
        f1 + f2 + 2 * f3 + f4,
        f1 + f2 + f3 + 2 * f4,
    )
    for index, coeff in enumerate(gradient):
        if coeff % p:
            t = pow(coeff, -1, p)
            shift = [0, 0, 0, 0]
            shift[index] = p * t
            lifted = f + OrderElement(*shift)
            if lifted.norm() % p == 0 and lifted.norm() % (p * p):
                return lifted
            raise ArithmeticError(f"lift of {f} at p={p} missed its target valuation")
    raise ArithmeticError(f"no invertible gradient coefficient for {f} mod {p}")


def reference_primary_prime(f: OrderElement, p: int) -> OrderElement:
    """The right GCD of the nondegenerate lift of f with p."""
    return quat_gcd(lift_nondegenerate(f, p), OrderElement(p, 0, 0, 0), side="right").gcd


def reference_peel(f: OrderElement, p: int, side: str) -> tuple[OrderElement, OrderElement]:
    """The primary gcd d of f with p on the given side and div_rem's exact
    quotient c, with f = c*d ("right") or f = d*c ("left")."""
    d = quat_gcd(f, OrderElement(p, 0, 0, 0), side).gcd
    division = div_rem(f, d, side)
    if not division.remainder.is_zero:
        raise ArithmeticError(f"{d} does not {side}-divide {f}")
    return d, division.quotient
