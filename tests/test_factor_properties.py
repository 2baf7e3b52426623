"""Property tests for the factor layer on norms below about 10^10.

Derandomized and without an example database, so every run draws the same
examples.  Norms stay small because factoring trial-divides them.
"""

from functools import reduce
from operator import mul

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quat1122 import (
    OrderElement,
    factor_primitive,
    full_factor,
    is_primary,
    p_conjugate,
    primary_primes_of_norm,
)
from quat1122.core import ONE, ONE_PLUS_I
from quat1122.factor import is_primitive
from quat1122.intarith import factorize, is_prime

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=200)

#: Plain elements with norm below 5.4e9.
wide = st.builds(OrderElement, *[st.integers(-3 * 10**4, 3 * 10**4)] * 4)

#: (1+i)^r * k * y with an odd k, so the dyadic part and the content are
#: often nontrivial; norm below 4.8e9.
scaled = st.builds(
    lambda r, k, y: ONE_PLUS_I ** r * (2 * k + 1) * y,
    st.integers(0, 3),
    st.integers(0, 49),
    st.builds(OrderElement, *[st.integers(-100, 100)] * 4),
)

#: Primary elements with coprime coordinates; norm below 2.5e9.
primitives = st.builds(
    lambda a, b, c, d: OrderElement(2 * a + 1, 2 * b, 2 * c, 2 * d),
    *[st.integers(-10**4, 10**4)] * 4,
).map(lambda c: c if is_primary(c) else -c).filter(is_primitive)

odd_primes = st.sampled_from([p for p in range(3, 200) if is_prime(p)])


@PROFILE
@given(st.one_of(wide, scaled))
def test_full_factor_reassembles_with_sign_of_content(x):
    assume(not x.is_zero)
    f = full_factor(x)
    assert f.reassemble() == x
    assert f.sign == (1 if f.content % 4 == 1 else -1)
    assert 2**f.r * f.content**2 * reduce(mul, (pi.p for pi in f.primes), 1) == x.norm()


@PROFILE
@given(primitives, st.data())
def test_factor_primitive_follows_any_prime_order(c, data):
    norm_primes = [p for p, e in factorize(c.norm()).items() for _ in range(e)]
    order = data.draw(st.permutations(norm_primes))
    primes = factor_primitive(c, order)
    assert [pi.p for pi in primes] == order
    assert reduce(mul, (pi.element for pi in primes), ONE) == c


@PROFILE
@given(odd_primes.flatmap(lambda p: st.sampled_from(primary_primes_of_norm(p))))
def test_p_conjugate_is_an_involution(pi):
    pc = p_conjugate(pi)
    assert p_conjugate(pc) == pi
    assert pi.element * pc.element == OrderElement(pi.p if pi.p % 4 == 1 else -pi.p, 0, 0, 0)
