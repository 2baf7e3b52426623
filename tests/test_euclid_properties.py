"""Property tests for division and GCDs on coordinates up to 1e30.

Derandomized and without an example database, so every run draws the same
examples.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quat1122 import OrderElement, div_rem, gcd
from quat1122.core import ZERO
from quat1122.euclid import DivisionResult

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=500)

coords = st.integers(-10**30, 10**30)
elements = st.builds(OrderElement, coords, coords, coords, coords)
sides = st.sampled_from(("left", "right"))


def divides(d, a, side):
    """d divides a on the given side: a = a'*d (right) or a = d*a' (left)."""
    n = d.norm()
    num = a * d.conjugate() if side == "right" else d.conjugate() * a
    return all(g % n == 0 for g in num.coords)


@PROFILE
@given(elements, elements, sides)
def test_division_identity_and_remainder_bound(a, b, side):
    assume(not b.is_zero)
    res = div_rem(a, b, side)
    q, r = res.quotient, res.remainder
    assert (q * b if side == "right" else b * q) + r == a
    assert r.norm() < b.norm()


@PROFILE
@given(elements, elements, sides)
def test_gcd_bezout_and_divisibility(a, b, side):
    assume(not (a.is_zero and b.is_zero))
    res = gcd(a, b, side)
    d, (x, y) = res.gcd, res.cofactors
    assert (x * a + y * b if side == "right" else a * x + b * y) == d
    assert divides(d, a, side) and divides(d, b, side)


@PROFILE
@given(elements, elements)
def test_exact_division_returns_the_exact_quotient(q, b):
    assume(not b.is_zero)
    assert div_rem(q * b, b, "right") == DivisionResult(q, ZERO, "right")
    assert div_rem(b * q, b, "left") == DivisionResult(q, ZERO, "left")
