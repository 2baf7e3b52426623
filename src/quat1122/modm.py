"""Residues modulo odd m and the isomorphism onto 2x2 matrices over Z/m.

For odd m every element of the order is congruent mod m to a unique

    q1 + q2*i + q3*sqrt(2)j + q4*sqrt(2)k,     0 <= q_i < m,

so the quotient ring has m^4 elements, ResidueElement(m, *q) for q in
product(range(m), repeat=4); reduce_mod_m halves the half coordinates mod m,
and OrderElement.from_standard(*q.coords) lifts a residue back.  Picking
(r, s) with 2^-1 + r^2 + s^2 = 0 (mod m) yields a ring isomorphism tau onto
the full matrix ring M_2(Z/m) that carries the norm to the determinant; the
paper's xi_1..xi_4 are tau_inv(2 E_k) for the matrix units E_k.  The
counting functions at the bottom give the number of residues that are
primitive to m with norm divisible by m (psi) and the number with norm
congruent to 1, each with an exact formula and an exhaustive enumerator.
"""

from __future__ import annotations

from itertools import product
from math import gcd as int_gcd
from operator import add

from .core import OrderElement, Record, standard_product
from .intarith import factorize

SOLVE_RS_BOUND = 10**7  # solve_rs keeps a table of m bytes


def _check_odd_modulus(m: int) -> None:
    if m < 1 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {m}")


class _ModM(Record):
    """A value over Z/m: the fields are the odd modulus m, then entries reduced mod m."""

    def __post_init__(self):
        m, *entries = self._key(self)
        _check_odd_modulus(m)
        for x in entries:
            if not 0 <= x < m:
                raise ValueError(f"coordinate {x} not reduced mod {m}")

    @classmethod
    def make(cls, m: int, *entries: int):
        _check_odd_modulus(m)  # before reducing: m = 0 would divide by zero
        return cls(m, *(x % m for x in entries))

    def _same_modulus(self, other: "_ModM") -> None:
        if self.m != other.m:
            raise ValueError(f"mismatched moduli {self.m} and {other.m}")

    def __add__(self, other):
        self._same_modulus(other)
        return self.make(self.m, *map(add, self._key(self)[1:], other._key(other)[1:]))

    def is_primitive(self) -> bool:
        return int_gcd(*self._key(self)) == 1


class ResidueElement(_ModM):
    """q1 + q2*i + q3*sqrt(2)j + q4*sqrt(2)k with coordinates reduced mod m."""

    m: int
    q1: int
    q2: int
    q3: int
    q4: int

    @property
    def coords(self) -> tuple[int, int, int, int]:
        return (self.q1, self.q2, self.q3, self.q4)

    def __neg__(self) -> "ResidueElement":
        return self.scale(-1)

    def __sub__(self, other: "ResidueElement") -> "ResidueElement":
        return self.__add__(-other)

    def __mul__(self, other: "ResidueElement") -> "ResidueElement":
        self._same_modulus(other)
        return ResidueElement.make(self.m, *standard_product(self.coords, other.coords))

    def scale(self, k: int) -> "ResidueElement":
        return ResidueElement.make(self.m, *(k * q for q in self.coords))

    def norm(self) -> int:
        q1, q2, q3, q4 = self.coords
        return (q1 * q1 + q2 * q2 + 2 * q3 * q3 + 2 * q4 * q4) % self.m


def reduce_mod_m(e: OrderElement, m: int) -> ResidueElement:
    """Reduce an element of the order into the canonical residue system mod odd m.

    The standard coordinates are the half coordinates over 2, and 2 is a unit mod m.
    """
    _check_odd_modulus(m)  # before pow, which refuses an even m in its own words
    inv2 = pow(2, -1, m)
    return ResidueElement.make(m, *(x * inv2 for x in e.half_coords))


class RSParams(Record):
    """Parameters (r, s) with 2^-1 + r^2 + s^2 = 0 (mod m)."""

    m: int
    r: int
    s: int

    def __post_init__(self):
        _check_odd_modulus(self.m)
        if not (0 <= self.r < self.m and 0 <= self.s < self.m):
            raise ValueError(f"(r, s) = ({self.r}, {self.s}) not reduced mod {self.m}")
        inv2 = pow(2, -1, self.m)
        if (inv2 + self.r * self.r + self.s * self.s) % self.m:
            raise ValueError(
                f"2^-1 + r^2 + s^2 != 0 mod {self.m} for (r, s) = ({self.r}, {self.s})"
            )


def solve_rs(m: int) -> RSParams:
    """The lexicographically smallest (r, s) in [0, m)^2 solving the congruence.

    r is the first value with -(2^-1 + r^2) a square mod m, s that square's
    smallest root; one exists for every odd m.  m > SOLVE_RS_BOUND is refused.
    """
    _check_odd_modulus(m)
    if m > SOLVE_RS_BOUND:
        raise ValueError(f"modulus {m} exceeds the solve_rs bound {SOLVE_RS_BOUND}")
    inv2 = pow(2, -1, m)
    is_square = bytearray(m)
    for s in range(m // 2 + 1):  # s and m - s have the same square
        is_square[s * s % m] = 1
    for r in range(m):
        target = -(inv2 + r * r) % m
        if is_square[target]:
            return RSParams(m, r, next(s for s in range(m) if s * s % m == target))
    raise ArithmeticError(f"no (r, s) found for m = {m}; this cannot happen")


class MatrixModM(_ModM):
    """A 2x2 matrix [[a, b], [c, d]] over Z/m."""

    m: int
    a: int
    b: int
    c: int
    d: int

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def __mul__(self, other: "MatrixModM") -> "MatrixModM":
        self._same_modulus(other)
        return MatrixModM.make(
            self.m,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.m


def tau(q: ResidueElement, params: RSParams) -> MatrixModM:
    """The ring isomorphism onto M_2(Z/m); det(tau(q)) = norm(q) mod m."""
    if q.m != params.m:
        raise ValueError(f"residue mod {q.m} but parameters mod {params.m}")
    m, r, s = params.m, params.r, params.s
    q1, q2, q3, q4 = q.coords
    return MatrixModM.make(
        m,
        q1 - 2 * r * q3 - 2 * s * q4,
        q2 - 2 * s * q3 + 2 * r * q4,
        -q2 - 2 * s * q3 + 2 * r * q4,
        q1 + 2 * r * q3 + 2 * s * q4,
    )


def tau_inv(mat: MatrixModM, params: RSParams) -> ResidueElement:
    """The exact two-sided inverse of tau."""
    if mat.m != params.m:
        raise ValueError(f"matrix mod {mat.m} but parameters mod {params.m}")
    m, r, s = params.m, params.r, params.s
    a, b, c, d = mat.entries
    inv2 = pow(2, -1, m)
    return ResidueElement.make(
        m,
        (a + d) * inv2,
        (b - c) * inv2,
        (r * (a - d) + s * (b + c)) * inv2,
        (s * (a - d) - r * (b + c)) * inv2,
    )


# -- counting ----------------------------------------------------------------

def count_psi(m: int) -> int:
    """Residues primitive to m with norm = 0 mod m:  m^3 * prod (1-p^-2)(1+p^-1)."""
    _check_odd_modulus(m)
    total = 1
    for p, e in factorize(m).items():
        total *= p ** (3 * e - 3) * (p * p - 1) * (p + 1)
    return total


def count_psi_enum(m: int) -> int:
    """Exhaustive count over all m^4 residues (intended for small m)."""
    return _count_residues(m, 0, primitive=True)


def count_norm1(m: int) -> int:
    """Residues with norm = 1 mod m:  m^3 * prod (1 - p^-2)."""
    _check_odd_modulus(m)
    total = 1
    for p, e in factorize(m).items():
        total *= p ** (3 * e - 2) * (p * p - 1)
    return total


def count_norm1_enum(m: int) -> int:
    """Exhaustive count over all m^4 residues (intended for small m)."""
    return _count_residues(m, 1, primitive=False)


def _count_residues(m: int, target: int, primitive: bool) -> int:
    """Residues (q1, q2, q3, q4) mod m with norm = target (mod m), one by one.

    primitive=True counts only those with gcd(q1, q2, q3, q4, m) = 1.
    """
    _check_odd_modulus(m)
    target %= m
    return sum(1 for q1, q2, q3, q4 in product(range(m), repeat=4)
               if (q1 * q1 + q2 * q2 + 2 * q3 * q3 + 2 * q4 * q4) % m == target
               and (not primitive or int_gcd(q1, q2, q3, q4, m) == 1))
