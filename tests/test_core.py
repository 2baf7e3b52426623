import random

import pytest

from quat1122 import (
    OrderElement,
    format_half,
    parse,
    units,
)
from quat1122.core import I, ONE, ONE_PLUS_I, SQRT2_J, V3, V4, ZERO

# The twelve positive units; the full table is +/- these.
POSITIVE_UNITS = [
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
]
UNIT_TABLE = {OrderElement(*g) for g in POSITIVE_UNITS} | {
    -OrderElement(*g) for g in POSITIVE_UNITS
}


def rand_elem(rng, lo=-50, hi=50):
    return OrderElement(*(rng.randint(lo, hi) for _ in range(4)))


def standard_coords(e):
    """Integer standard coefficients (x, y, z, w) of an integral element."""
    A, B, C, D = e.half_coords
    if not e.is_integral:
        raise ValueError(f"{e} has half-integer standard coefficients")
    return (A // 2, B // 2, C // 2, D // 2)


def from_json(obj):
    """The element that ``OrderElement.to_json`` encoded as ``obj``."""
    return OrderElement(*map(int, obj["v"]))


# -- coordinate views --------------------------------------------------------

def test_half_coords_examples():
    assert V3.half_coords == (1, 1, 1, 0)
    assert ONE_PLUS_I.half_coords == (2, 2, 0, 0)
    # v1+v2+v3+v4 = 2 + 2i + (sqrt2/2)j + (sqrt2/2)k, norm (16+16+2+2)/4 = 9
    assert OrderElement(1, 1, 1, 1).half_coords == (4, 4, 1, 1)
    assert type(V3.half_coords) is tuple


def test_half_round_trip():
    rng = random.Random(1)
    for _ in range(500):
        e = rand_elem(rng)
        assert OrderElement.from_half(*e.half_coords) == e
        assert OrderElement.from_half(*e.half_coords).norm() == e.norm()


@pytest.mark.parametrize("bad", [(1, 0, 1, 0), (1, 1, 1, 1), (0, 1, 0, 0), (2, 2, 1, 0)])
def test_from_half_rejects_parity_violations(bad):
    with pytest.raises(ValueError):
        OrderElement.from_half(*bad)


def test_from_standard():
    assert OrderElement.from_standard(1, 1, 0, 0) == ONE_PLUS_I
    assert OrderElement.from_standard(0, 0, 1, 0) == SQRT2_J


def test_is_integral():
    assert not V3.is_integral
    assert ONE_PLUS_I.is_integral
    assert (2 * V3 - ONE - I).is_integral  # sqrt(2) j
    assert standard_coords(SQRT2_J) == (0, 0, 1, 0)
    with pytest.raises(ValueError):
        standard_coords(V3)


# -- multiplication ----------------------------------------------------------

def test_mul_examples():
    assert V3 * V3 == V3 - ONE == OrderElement(-1, 0, 1, 0)
    assert ONE_PLUS_I * OrderElement(1, -1, 0, 0) == OrderElement(2, 0, 0, 0)
    rng = random.Random(2)
    for _ in range(50):
        q = rand_elem(rng)
        assert ONE * q == q == q * ONE


def test_mul_ring_axioms():
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = (rand_elem(rng, -20, 20) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_scalar_mul_and_pow():
    assert 3 * V3 == V3 * 3 == OrderElement(0, 0, 3, 0)
    assert ONE_PLUS_I ** 2 == OrderElement(0, 2, 0, 0)  # (1+i)^2 = 2i
    assert V3 ** 0 == ONE
    with pytest.raises(ValueError):
        V3 ** -1


# -- conjugation and norm ----------------------------------------------------

def test_conjugate_examples():
    assert ONE.conjugate() == ONE
    assert V3.conjugate() == OrderElement(1, 0, -1, 0)
    assert I.conjugate() == -I


def test_conjugate_is_anti_involution():
    rng = random.Random(4)
    for _ in range(300):
        a, b = rand_elem(rng), rand_elem(rng)
        assert a.conjugate().conjugate() == a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()


def test_trace_is_rational_integer():
    # e + conj(e) is twice the real part, a scalar of the order
    rng = random.Random(5)
    for _ in range(300):
        e = rand_elem(rng)
        t = e + e.conjugate()
        assert t == OrderElement(t.g1, 0, 0, 0)


def test_norm_examples():
    assert (ONE + V3 - V4).norm() == 2
    assert ZERO.norm() == 0
    assert OrderElement(1, 1, 1, 1).norm() == 9


def test_norm_is_conjugate_product():
    rng = random.Random(6)
    for _ in range(300):
        e = rand_elem(rng)
        assert e * e.conjugate() == OrderElement(e.norm(), 0, 0, 0)
        A, B, C, D = e.half_coords
        assert 4 * e.norm() == A * A + B * B + 2 * C * C + 2 * D * D


def test_norm_multiplicative():
    rng = random.Random(7)
    for _ in range(10_000):
        a, b = rand_elem(rng), rand_elem(rng)
        assert (a * b).norm() == a.norm() * b.norm()


def test_norm_positive_definite_on_box():
    for g1 in range(-3, 4):
        for g2 in range(-3, 4):
            for g3 in range(-3, 4):
                for g4 in range(-3, 4):
                    e = OrderElement(g1, g2, g3, g4)
                    assert e.norm() >= 0
                    assert (e.norm() == 0) == e.is_zero


# -- units -------------------------------------------------------------------

def test_units_match_table():
    assert len(units()) == 24
    assert set(units()) == UNIT_TABLE
    assert all(u.norm() == 1 for u in units())
    assert {-u for u in units()} == set(units())


def test_units_check_is_a_runtime_error(monkeypatch):
    # The table check raises ArithmeticError (exit 3), not an assert that -O strips.
    import quat1122.core as core

    monkeypatch.setattr(core, "UNITS_MOD_SIGN", core.UNITS_MOD_SIGN[:-1] + ((2, 0, 0, 0),))
    with pytest.raises(ArithmeticError):
        units.__wrapped__()


def test_half_product_checks_exact_halving(monkeypatch):
    # The one exact halving behind every product of elements: a doubled
    # product with an odd coordinate is not in the order.
    import quat1122.core as core

    assert core.half_product((1, 1, 1, 0), (2, 0, 0, 0)) == (1, 1, 1, 0)
    with pytest.raises(ArithmeticError, match="non-integral product"):
        core.half_product((1, 0, 0, 0), (1, 0, 0, 0))
    monkeypatch.setattr(core, "standard_product", lambda u, v: (1, 0, 0, 0))
    with pytest.raises(ArithmeticError, match=r"of \[1,0,0,0\] and \[0,1,0,0\]$"):
        ONE * I


def test_unit_search_exhaustive():
    # independent route: scan all valid half-coordinate tuples in [-2, 2]^4
    found = set()
    for A in range(-2, 3):
        for B in range(-2, 3):
            for C in range(-2, 3):
                for D in range(-2, 3):
                    if (A - B) % 2 or (A - C - D) % 2:
                        continue
                    if A * A + B * B + 2 * C * C + 2 * D * D == 4:
                        found.add(OrderElement.from_half(A, B, C, D))
    assert found == UNIT_TABLE


def test_is_unit_examples():
    assert (V4 + V3 - I - ONE).is_unit()
    assert not ONE_PLUS_I.is_unit()
    assert not ZERO.is_unit()


def test_unit_inverse():
    # a unit's two-sided inverse is its conjugate; for a non-unit it is not
    for u in units():
        assert u * u.conjugate() == ONE
        assert u.conjugate() * u == ONE
    assert ONE_PLUS_I * ONE_PLUS_I.conjugate() != ONE


# -- text and JSON forms -----------------------------------------------------

def test_parse_examples():
    assert parse("[0,0,1,0]") == V3
    assert parse("(2+2i)/2") == ONE_PLUS_I
    assert parse("(1+1i+1r2j+0r2k)/2") == V3
    assert parse(" [ 1, -2, 3, 4 ] ") == OrderElement(1, -2, 3, 4)
    assert parse("(-2+2i-2r2j+4r2k)/2") == OrderElement.from_half(-2, 2, -2, 4)


@pytest.mark.parametrize("bad", [
    "(1+0i+1r2j+0r2k)/2",   # parity violation: A odd, B even
    "[1,2,3]",
    "[1,2,3,4,5]",
    "[1,2,x,4]",
    "(1+2q)/2",
    "1+2i",
    "()/2",
    "(+)/2",
    "(2r2j2)/2",            # a term after the first needs a sign
    "[1_0,0,0,0]",          # int() would read the digit group as 10
    "[\u0663,0,0,0]",       # a non-ASCII digit
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse(bad)


def test_format_round_trip():
    rng = random.Random(8)
    for _ in range(300):
        e = rand_elem(rng)
        assert parse(str(e)) == e
        assert parse(format_half(e)) == e


def test_json_round_trip():
    rng = random.Random(9)
    for _ in range(100):
        e = rand_elem(rng)
        assert from_json(e.to_json()) == e
    assert OrderElement(1, 1, 0, 0).to_json() == {"v": [1, 1, 0, 0]}
