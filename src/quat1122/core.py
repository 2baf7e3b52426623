"""Exact arithmetic in the quaternion order of the form x^2 + y^2 + 2z^2 + 2w^2.

The order is the integer span of the basis

    v1 = 1,   v2 = i,   v3 = (1 + i + sqrt(2) j) / 2,   v4 = (1 + i + sqrt(2) k) / 2,

a norm-Euclidean ring with exactly 24 units.  Elements are stored as the
integer coordinate 4-tuple (g1, g2, g3, g4) in this basis.  The alternative
"half coordinate" view (A, B, C, D), meaning (A + B*i + C*sqrt(2)j +
D*sqrt(2)k) / 2, is exposed for parity checks and is where multiplication
is carried out.

The sublattice spanned by {1, i, sqrt(2)j, sqrt(2)k} (all half coordinates
even) is where the norm literally evaluates the quadratic form on integer
4-tuples; ``is_integral`` tests membership.

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import re
from functools import cache
from operator import attrgetter


class _RecordType(type):
    # Each name annotated in a record's class body becomes a field and a slot.
    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["__slots__"] = fields
        cls = super().__new__(mcls, name, bases, namespace)
        cls._fields = fields
        if fields:
            cls._key = staticmethod(attrgetter(*fields))
        return cls


class Record(metaclass=_RecordType):
    """Base of the library's immutable values, in place of a frozen dataclass.

    A direct subclass annotates its fields in its class body and may define
    ``__post_init__`` to check them.  It is built from its fields by position
    or keyword, compares and hashes field-wise (equal only to an instance of
    its own class), has the dataclass repr, refuses assignment with an
    ``AttributeError`` and pickles and copies by rebuilding itself.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            if len(values) != len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields "
                                f"{', '.join(fields)} once each, got {args!r} and {kwargs!r}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _check_half_parity(A: int, B: int, C: int, D: int) -> None:
    # Membership condition for the order: A = B and A = C + D (mod 2).
    if (A - B) % 2 or (A - C - D) % 2:
        raise ValueError(
            f"half coordinates ({A},{B},{C},{D}) violate parity: "
            "need A = B (mod 2) and A = C + D (mod 2)"
        )


class OrderElement(Record):
    """A quaternion g1*v1 + g2*v2 + g3*v3 + g4*v4 with integer coordinates.

    Any integer 4-tuple is a valid element (the basis is free).  Supports
    +, -, unary -, * (with another element or an int scalar) and ** with a
    nonnegative integer exponent.  Multiplication is noncommutative.
    """

    g1: int
    g2: int
    g3: int
    g4: int

    def __init__(self, g1: int, g2: int, g3: int, g4: int):
        # Spelled out: the most frequent construction, and cheaper than
        # Record's generic one.
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "g3", g3)
        object.__setattr__(self, "g4", g4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_half(cls, A: int, B: int, C: int, D: int) -> "OrderElement":
        """Build from half coordinates, rejecting parity-violating tuples."""
        _check_half_parity(A, B, C, D)
        return cls((A - C - D) // 2, (B - C - D) // 2, C, D)

    @classmethod
    def from_standard(cls, x: int, y: int, z: int, w: int) -> "OrderElement":
        """Build x + y*i + z*sqrt(2)j + w*sqrt(2)k from integer coefficients."""
        return cls.from_half(2 * x, 2 * y, 2 * z, 2 * w)

    # -- views -------------------------------------------------------------

    @property
    def coords(self) -> tuple[int, int, int, int]:
        return (self.g1, self.g2, self.g3, self.g4)

    @property
    def half_coords(self) -> tuple[int, int, int, int]:
        """(A, B, C, D) with self = (A + Bi + C*sqrt2 j + D*sqrt2 k) / 2."""
        g1, g2, g3, g4 = self.coords
        return (2 * g1 + g3 + g4, 2 * g2 + g3 + g4, g3, g4)

    @property
    def is_integral(self) -> bool:
        """True if the standard coefficients of 1, i, sqrt2 j, sqrt2 k are integers."""
        A, B, C, D = self.half_coords
        return A % 2 == 0 and B % 2 == 0 and C % 2 == 0 and D % 2 == 0

    @property
    def is_zero(self) -> bool:
        return self.coords == (0, 0, 0, 0)

    def to_json(self) -> dict:
        return {"v": list(self.coords)}

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: OrderElement | int) -> "OrderElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return OrderElement(
            self.g1 + other.g1, self.g2 + other.g2, self.g3 + other.g3, self.g4 + other.g4
        )

    __radd__ = __add__

    def __sub__(self, other: OrderElement | int) -> "OrderElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return OrderElement(
            self.g1 - other.g1, self.g2 - other.g2, self.g3 - other.g3, self.g4 - other.g4
        )

    def __rsub__(self, other: OrderElement | int) -> "OrderElement":
        return (-self).__add__(other)

    def __neg__(self) -> "OrderElement":
        return OrderElement(-self.g1, -self.g2, -self.g3, -self.g4)

    def __mul__(self, other: OrderElement | int) -> "OrderElement":
        if isinstance(other, int):
            return OrderElement(
                self.g1 * other, self.g2 * other, self.g3 * other, self.g4 * other
            )
        if not isinstance(other, OrderElement):
            return NotImplemented
        try:
            half = half_product(self.half_coords, other.half_coords)
        except ArithmeticError:
            # Name the factors by their basis coordinates.
            raise ArithmeticError(f"non-integral product of {self} and {other}") from None
        return OrderElement.from_half(*half)

    def __rmul__(self, other: int) -> "OrderElement":
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exp: int) -> "OrderElement":
        if exp < 0:
            raise ValueError("negative powers are not defined in the order")
        result = ONE
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def conjugate(self) -> "OrderElement":
        """Negate the i, j, k standard coefficients.

        In basis coordinates: (g1, g2, g3, g4) -> (g1+g3+g4, -g2, -g3, -g4).
        An additive involution with conjugate(a*b) = conjugate(b)*conjugate(a).
        """
        return OrderElement(self.g1 + self.g3 + self.g4, -self.g2, -self.g3, -self.g4)

    def norm(self) -> int:
        """The nonnegative integer self * conjugate(self).

        Equals (A^2 + B^2 + 2C^2 + 2D^2)/4 in half coordinates; zero only for
        the zero element.  Multiplicative: norm(a*b) = norm(a)*norm(b).
        """
        g1, g2, g3, g4 = self.coords
        return (
            g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4
            + g1 * g3 + g2 * g3 + g1 * g4 + g2 * g4 + g3 * g4
        )

    def is_unit(self) -> bool:
        return self.norm() == 1

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        return f"[{self.g1},{self.g2},{self.g3},{self.g4}]"


def standard_product(u, v) -> tuple[int, int, int, int]:
    """The product of u1 + u2*i + u3*sqrt2 j + u4*sqrt2 k and v, as a 4-tuple."""
    u1, u2, u3, u4 = u
    v1, v2, v3, v4 = v
    return (
        u1 * v1 - u2 * v2 - 2 * u3 * v3 - 2 * u4 * v4,
        u1 * v2 + u2 * v1 + 2 * u3 * v4 - 2 * u4 * v3,
        u1 * v3 - u2 * v4 + u3 * v1 + u4 * v2,
        u1 * v4 + u2 * v3 - u3 * v2 + u4 * v1,
    )


def half_product(u, v) -> tuple[int, int, int, int]:
    """The half coordinates of the product of the elements with half coordinates u, v.

    The product is taken in doubled standard coordinates, where the division
    by 2 must be exact (ring closure); that is checked rather than assumed.

    Raises:
        ArithmeticError: a coordinate of the doubled product is odd.
    """
    AA, BB, CC, DD = standard_product(u, v)
    if (AA | BB | CC | DD) & 1:
        raise ArithmeticError(
            f"non-integral product of half coordinates {tuple(u)} and {tuple(v)}")
    return AA >> 1, BB >> 1, CC >> 1, DD >> 1


def _coerce(value: OrderElement | int) -> OrderElement:
    if isinstance(value, OrderElement):
        return value
    if isinstance(value, int):
        return OrderElement(value, 0, 0, 0)
    return NotImplemented


ZERO = OrderElement(0, 0, 0, 0)
ONE = OrderElement(1, 0, 0, 0)
I = OrderElement(0, 1, 0, 0)
V3 = OrderElement(0, 0, 1, 0)
V4 = OrderElement(0, 0, 0, 1)
ONE_PLUS_I = OrderElement(1, 1, 0, 0)
SQRT2_J = OrderElement(-1, -1, 2, 0)


# The 24 units: +/- {v1, v2, v3, v4, v3-v1, v3-v2, v4-v3, v4-v1, v4-v2,
# v3-v2-v1, v4-v2-v1, v4+v3-v2-v1}, i.e. in the standard basis
# +/- {1, i, (1 +/- i +/- sqrt2 j)/2, (1 +/- i +/- sqrt2 k)/2,
#      (sqrt2 j +/- sqrt2 k)/2 * ...}.
UNITS_MOD_SIGN = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 1, 0),
    (0, -1, 1, 0),
    (0, 0, -1, 1),
    (-1, 0, 0, 1),
    (0, -1, 0, 1),
    (-1, -1, 1, 0),
    (-1, -1, 0, 1),
    (-1, -1, 1, 1),
)


@cache
def units() -> tuple[OrderElement, ...]:
    """The 24 norm-1 elements, sorted by basis coordinates."""
    table = []
    for g in UNITS_MOD_SIGN:
        u = OrderElement(*g)
        table.append(u)
        table.append(-u)
    table.sort(key=lambda u: u.coords)
    out = tuple(table)
    if len(set(out)) != 24 or not all(u.is_unit() for u in out):
        raise ArithmeticError("the unit table does not hold 24 distinct units")
    return out


# -- text round trip --------------------------------------------------------

_COORDINATE = re.compile(r"[+-]?[0-9]+")
_HALF_TERM = re.compile(r"([+-]?)([0-9]*)(r2j|r2k|i)?")


def parse(text: str) -> OrderElement:
    """Parse "[g1,g2,g3,g4]" (basis form) or "(A+Bi+Cr2j+Dr2k)/2" (half form).

    A basis coordinate is an optionally signed run of ASCII digits.  The
    half form uses the tokens ``i``, ``r2j``, ``r2k`` for the units
    i, sqrt(2)j, sqrt(2)k; terms may appear in any order and be omitted, and
    every term after the first starts with ``+`` or ``-``.

    Raises:
        ValueError: malformed text, or a parity violation in the half form.
    """
    s = text.strip().replace(" ", "")
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated basis form: {text!r}")
        parts = s[1:-1].split(",")
        if len(parts) != 4:
            raise ValueError(f"basis form needs 4 coordinates: {text!r}")
        if not all(_COORDINATE.fullmatch(p) for p in parts):
            raise ValueError(f"non-integer coordinate in {text!r}")
        return OrderElement(*map(int, parts))
    if s.startswith("(") and s.endswith(")/2"):
        return OrderElement.from_half(*_parse_half_body(s[1:-3], text))
    raise ValueError(f"unrecognized quaternion syntax: {text!r}")


def _parse_half_body(body: str, original: str) -> tuple[int, int, int, int]:
    acc = {None: 0, "i": 0, "r2j": 0, "r2k": 0}
    pos = 0
    seen_term = False
    while pos < len(body):
        m = _HALF_TERM.match(body, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"malformed half form near {body[pos:]!r} in {original!r}")
        sign, digits, token = m.groups()
        if not digits and token is None:
            raise ValueError(f"dangling sign in {original!r}")
        if seen_term and not sign:
            raise ValueError(f"unsigned term near {body[pos:]!r} in {original!r}")
        value = int(digits) if digits else 1
        if sign == "-":
            value = -value
        acc[token] += value
        pos = m.end()
        seen_term = True
    if not seen_term:
        raise ValueError(f"empty half form: {original!r}")
    return (acc[None], acc["i"], acc["r2j"], acc["r2k"])


def format_half(e: OrderElement) -> str:
    """Half-coordinate text form "(A+Bi+Cr2j+Dr2k)/2"."""
    A, B, C, D = e.half_coords
    return f"({A}{B:+d}i{C:+d}r2j{D:+d}r2k)/2"
