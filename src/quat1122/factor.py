"""Prime quaternions and unique factorization into primary primes.

An element is prime exactly when its norm is a rational prime.  Up to the
dyadic part (powers of 1+i), a unit, and an integer content, every nonzero
element is a product of *primary* primes, one per rational prime factor of
the norm, and the product can be rearranged to follow any ordering of those
rational primes:

    x = (1+i)^r * u * (sign * content) * pi_1 * pi_2 * ... * pi_k

The primary prime attached to a given norm-p slot is extracted as a
one-sided GCD with p, which the Euclidean layer normalizes to its primary
associate.  One step, ``_peel``, does this on either side with
``euclid.gcd_cofactor``, which also returns the cofactor that
factor_primitive carries on to the next prime; it and the content come off
by the one exact-division rule, ``core.exact_coords``.  The peel and the
cofactor it carries are half-coordinate tuples, from the first Euclid step
to the next prime; an element is built only for each ``PrimaryPrime``, for
the last cofactor and for an error message.  The last prime takes no
gcd: a primary element of norm p is its own gcd with p, so the cofactor
left after the other primes is the last prime itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as int_gcd

from .core import ONE_PLUS_I, OrderElement, Record, exact_quotient, half_norm, half_product
from .dyadic import is_primary, primary_associate, valuation_1pi
from .euclid import gcd_cofactor
# Unused here: bench/selftest.py checks that its tracer patches euclid.gcd under this name.
from .euclid import gcd as quat_gcd  # noqa: F401
from .intarith import factorize, is_prime
from .modm import reduce_mod_m
from .repcount import ENUMERATION_BOUND, enumerate_norm_solutions


class PrimaryPrime(Record):
    """A prime of the order in canonical form: primary, with rational prime norm.

    For p = 2 the canonical prime is 1+i (no primary associate exists in the
    even world); all other primes here are odd and primary.
    """

    element: OrderElement
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not a rational prime")
        if self.element.norm() != self.p:
            raise ValueError(f"{self.element} has norm {self.element.norm()}, not {self.p}")
        if self.p == 2:
            if self.element != ONE_PLUS_I:
                raise ValueError("the canonical norm-2 prime is 1+i")
        elif not is_primary(self.element):
            raise ValueError(f"{self.element} is not primary")


# Factorization stays a dataclass, unlike core.Record's subclasses: callers
# rebuild one with dataclasses.replace, which needs a dataclass.
@dataclass(frozen=True, slots=True)
class Factorization:
    """x = (1+i)^r * unit * (sign * content) * primes[0] * primes[1] * ...

    ``content`` is the odd positive integer coordinate gcd of the primary
    part and is reported unfactored; ``primes`` multiply left to right.
    """

    r: int
    unit: OrderElement
    sign: int
    content: int
    primes: tuple[PrimaryPrime, ...]

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("dyadic exponent must be nonnegative")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +/-1, got {self.sign}")
        if self.content < 1 or self.content % 2 == 0:
            raise ValueError(f"content must be odd and positive, got {self.content}")
        if not self.unit.is_unit():
            raise ValueError(f"{self.unit} is not a unit")

    def reassemble(self) -> OrderElement:
        out = (ONE_PLUS_I ** self.r) * self.unit * (self.sign * self.content)
        for pi in self.primes:
            out = out * pi.element
        return out

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "unit": self.unit.to_json(),
            "sign": self.sign,
            "content": self.content,
            "primes": [pi.element.to_json() for pi in self.primes],
        }


def primary_prime_from(f: OrderElement, p: int) -> PrimaryPrime:
    """The primary prime of norm p attached to f: the right GCD of f with p.

    For f primitive to p with p | norm(f), tau sends f mod p to a rank-1
    matrix over Z/p, so the left ideal Of + Op has index p^2 even when
    p^2 | norm(f): no lift of f is needed, the GCD has norm p, and it depends
    only on f mod p.  Elements f, q*f (q invertible mod p) give the same prime.

    Raises ValueError when p is not an odd prime, f is not primitive to p or
    p does not divide norm(f), and ArithmeticError when the GCD's norm is not p.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd rational prime")
    if not reduce_mod_m(f, p).is_primitive():
        raise ValueError(f"{f} is not primitive to {p}")
    if f.norm() % p:
        raise ValueError(f"norm {f.norm()} of {f} is not divisible by {p}")
    return _peel(f.half_coords, p, "right")[0]


def _peel(f, p: int, side: str) -> tuple[PrimaryPrime, tuple[int, int, int, int]]:
    # The one prime step, on the half coordinates f: the primary gcd d of f
    # with p on the given side, of norm p, and the cofactor c with f = c*d
    # ("right") or f = d*c ("left"), returned as half coordinates.
    d, c = gcd_cofactor(f, (2 * p, 0, 0, 0), side)
    n = half_norm(d)
    if n != p:
        f = OrderElement.from_half(*f)
        raise ArithmeticError(f"{side} gcd of {f} and {p} has norm {n}, expected {p}")
    if (half_product(c, d) if side == "right" else half_product(d, c)) != f:
        d, c, f = (OrderElement.from_half(*h) for h in (d, c, f))
        raise ArithmeticError(f"{d} times the cofactor {c} ({side}) is not {f}")
    return PrimaryPrime(OrderElement.from_half(*d), p), c


def _prime_order(n: int) -> list[int]:
    # The rational prime factors of n with multiplicity, increasing.
    return sorted(p for p, e in factorize(n).items() for _ in range(e))


def p_conjugate(pi: PrimaryPrime) -> PrimaryPrime:
    """The signed conjugate that stays primary; an involution.

    Equals conjugate(pi) when p = 1 mod 4 (then pi = 1 mod 2(1+i)) and
    -conjugate(pi) when p = 3 mod 4 (then pi = 1+2v3 mod 2(1+i)): the norm
    mod 4 is constant on each class.  The product of pi with its
    p-conjugate is +p respectively -p.
    """
    if pi.p == 2:
        raise ValueError("p-conjugation is defined for odd primary primes")
    sign = 1 if pi.p % 4 == 1 else -1
    return PrimaryPrime(sign * pi.element.conjugate(), pi.p)


def primary_primes_of_norm(p: int) -> tuple[PrimaryPrime, ...]:
    """All primary primes of norm p (an odd rational prime), sorted; p+1 of them."""
    if p == 2:
        raise ValueError(
            "no primary primes of norm 2: the norm-2 primes are the 24 "
            "associates of 1+i, reported by enumerate_norm_solutions(2)"
        )
    # p above the enumeration bound is refused there, before any trial division.
    if p <= ENUMERATION_BOUND and not is_prime(p):
        raise ValueError(f"{p} is not a rational prime")
    return tuple(
        PrimaryPrime(e, p) for e in enumerate_norm_solutions(p, primary=True)
    )


def is_primitive(c: OrderElement) -> bool:
    """Primary with coprime coordinates: the inputs of the decomposition theorem."""
    return is_primary(c) and int_gcd(*c.coords) == 1


def factor_primitive(c: OrderElement, prime_order: list[int]) -> list[PrimaryPrime]:
    """Factor a primitive element into primary primes following prime_order.

    prime_order must list the rational prime factorization of norm(c), with
    multiplicity, in the desired left-to-right order; any ordering works.
    Each step takes the primary left GCD of the running cofactor with the
    next prime and divides it off on the left.  The last prime is the
    cofactor left over, checked to be primary of norm prime_order[-1] (with
    an empty order, to be 1).

    Raises:
        ValueError: c not primitive, or prime_order inconsistent with norm(c).
        ArithmeticError: a peeled GCD has the wrong norm or times its cofactor
            does not give the running cofactor back, or the last cofactor is
            not primary of the last prime's norm (fatal invariant violations).
    """
    if not is_primitive(c):
        raise ValueError(f"{c} is not primitive (primary with coprime coordinates)")
    if sorted(prime_order) != _prime_order(c.norm()):
        raise ValueError(
            f"prime order {prime_order} does not factor norm {c.norm()}"
        )
    out: list[PrimaryPrime] = []
    cofactor = c.half_coords
    for p in prime_order[:-1]:
        pi, cofactor = _peel(cofactor, p, "left")
        out.append(pi)
    cofactor = OrderElement.from_half(*cofactor)
    # A primary element of norm p is its own left gcd with p: the last prime
    # needs no peel.  With no primes the cofactor is c, primary of norm 1: 1.
    last = prime_order[-1] if prime_order else 1
    if cofactor.norm() != last or not is_primary(cofactor):
        raise ArithmeticError(
            f"factorization of {c} left cofactor {cofactor}, not primary of norm {last}")
    if prime_order:
        out.append(PrimaryPrime(cofactor, last))
    return out


def full_factor(x: OrderElement) -> Factorization:
    """Canonical factorization of any nonzero element; reassembles exactly.

    The dyadic part comes off first, then the unique unit/primary split of
    the odd part, then the integer content with its sign, and finally the
    primitive part is factored with primes in increasing norm order.
    """
    if x.is_zero:
        raise ValueError("cannot factor the zero element")
    r, b = valuation_1pi(x)
    w, c = primary_associate(b, "left")
    unit = w.conjugate()
    content = int_gcd(*c.coords)
    # content is odd and 4 lies in 2(1+i)O, so c = content*d = +/-d there.
    sign = 1 if content % 4 == 1 else -1
    primitive_part = exact_quotient(c, sign * content)
    if not is_primary(primitive_part):
        raise ArithmeticError(f"{primitive_part} is not primary while factoring {x}")
    primes = factor_primitive(primitive_part, _prime_order(primitive_part.norm()))
    return Factorization(r=r, unit=unit, sign=sign, content=content, primes=tuple(primes))
