"""Property tests for the matrix isomorphism tau on coordinates up to 1e30.

Derandomized and without an example database, so every run draws the same
examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from modm_reference import twice_matrix_units, xi
from quat1122 import OrderElement, reduce_mod_m, solve_rs, tau, tau_inv

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=300)

coords = st.integers(-10**30, 10**30)
elements = st.builds(OrderElement, coords, coords, coords, coords)
odd_moduli = st.integers(0, 49_999).map(lambda k: 2 * k + 1)


@PROFILE
@given(odd_moduli, elements, elements)
def test_tau_is_a_ring_homomorphism(m, a, b):
    params = solve_rs(m)

    def image(e):
        return tau(reduce_mod_m(e, m), params)

    assert image(a * b) == image(a) * image(b)
    assert image(a + b) == image(a) + image(b)
    assert image(a).det() == a.norm() % m


@PROFILE
@given(odd_moduli)
def test_xi_k_is_tau_inv_of_twice_the_matrix_units(m):
    params = solve_rs(m)
    units2 = twice_matrix_units(m)
    assert xi(params) == tuple(tau_inv(e, params) for e in units2)
    assert [tau(x, params) for x in xi(params)] == units2

