"""Property tests for the dyadic layer on coordinates up to 1e30.

Derandomized and without an example database, so every run draws the same
examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from quat1122 import OrderElement, is_primary, residue_mod_2_1pi

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=500)

coords = st.integers(-10**30, 10**30)

#: Elements congruent to 1 mod 2: g1 odd, g2, g3, g4 even.
one_mod_2 = st.builds(
    lambda a, b, c, d: OrderElement(2 * a + 1, 2 * b, 2 * c, 2 * d),
    coords, coords, coords, coords,
)

primaries = one_mod_2.map(lambda c: c if is_primary(c) else -c)


@PROFILE
@given(one_mod_2)
def test_exactly_one_sign_is_primary(c):
    assert is_primary(c) != is_primary(-c)


@PROFILE
@given(one_mod_2, one_mod_2)
def test_residue_is_multiplicative(a, b):
    product_of_residues = residue_mod_2_1pi(a) * residue_mod_2_1pi(b)
    assert residue_mod_2_1pi(a * b) == residue_mod_2_1pi(product_of_residues)


@PROFILE
@given(primaries, primaries)
def test_product_of_primaries_is_primary(a, b):
    assert is_primary(a) and is_primary(b)
    assert is_primary(a * b)
