import itertools
import random

import pytest

import euclid_reference
from quat1122 import OrderElement, div_rem, gcd
from quat1122.core import ONE, ONE_PLUS_I, ZERO, V3
from quat1122.dyadic import is_odd, is_primary
from quat1122.euclid import _normalize, gcd_cofactor
from quat1122.factor import primary_primes_of_norm
from quat1122.intarith import factorize


def rand_elem(rng, lo=-40, hi=40):
    return OrderElement(*(rng.randint(lo, hi) for _ in range(4)))


def rand_nonzero(rng, lo=-40, hi=40):
    while True:
        e = rand_elem(rng, lo, hi)
        if not e.is_zero:
            return e


def divides(d, a, side):
    """Exact divisibility on the given side, checked via conjugate division."""
    n = d.norm()
    num = a * d.conjugate() if side == "right" else d.conjugate() * a
    return all(g % n == 0 for g in num.coords)


# -- division ----------------------------------------------------------------

def test_div_examples():
    two = OrderElement(2, 0, 0, 0)
    res = div_rem(two, ONE_PLUS_I, "right")
    assert res.quotient == OrderElement(1, -1, 0, 0) and res.remainder == ZERO

    res = div_rem(V3, two, "right")
    assert res.quotient == ZERO and res.remainder == V3


def test_exact_products_divide_back():
    rng = random.Random(10)
    for _ in range(300):
        q, b = rand_elem(rng, -15, 15), rand_nonzero(rng, -15, 15)
        right = div_rem(q * b, b, "right")
        assert right.remainder == ZERO and right.quotient == q
        left = div_rem(b * q, b, "left")
        assert left.remainder == ZERO and left.quotient == q


def test_remainder_norm_bound():
    rng = random.Random(11)
    for _ in range(2000):
        a, b = rand_elem(rng), rand_nonzero(rng)
        for side in ("left", "right"):
            res = div_rem(a, b, side)
            assert res.remainder.norm() < b.norm()
            if side == "right":
                assert res.quotient * b + res.remainder == a
            else:
                assert b * res.quotient + res.remainder == a


def test_div_deterministic():
    rng = random.Random(12)
    for _ in range(100):
        a, b = rand_elem(rng), rand_nonzero(rng)
        first = div_rem(a, b, "right")
        second = div_rem(a, b, "right")
        assert first.quotient == second.quotient


def test_div_rem_matches_reference_search():
    # Differential check against the 81-candidate search the decoder replaced.
    # The box is tie-heavy: 2,276 of its 3,750 divisions below have more than
    # one nearest quotient.  The random pairs reach large coordinates.
    def check(a, b, side):
        res = div_rem(a, b, side)
        expected = euclid_reference.div_rem(a, b, side)
        assert (res.quotient, res.remainder) == expected, (a, b, side)

    box = [OrderElement(*g) for g in itertools.product(range(-2, 3), repeat=4)]
    for b in [b for b in box if not b.is_zero][::208]:
        for a in box:
            check(a, b, "right")
            check(a, b, "left")
    rng = random.Random(17)
    for bound in (10, 10**6, 10**30):
        for k in range(3000):
            a, b = rand_elem(rng, -bound, bound), rand_nonzero(rng, -bound, bound)
            check(a, b, ("right", "left")[k % 2])


def check_gcd(a, b, side):
    res = gcd(a, b, side)
    expected = _normalize(*euclid_reference.gcd_loop(a, b, side), side)
    assert (res.gcd, *res.cofactors) == expected, (a, b, side)


def test_gcd_matches_reference_loop():
    rng = random.Random(18)
    for bound, count in ((20, 500), (10**6, 150), (10**30, 50)):
        for k in range(count):
            a, b = rand_nonzero(rng, -bound, bound), rand_nonzero(rng, -bound, bound)
            check_gcd(a, b, ("right", "left")[k % 2])


def test_gcd_with_a_prime_matches_reference_loop():
    # The calls factoring makes: an element with each rational prime of its
    # norm (a gcd of norm p), and with a prime that misses it (a unit gcd).
    rng = random.Random(19)
    for _ in range(40):
        x = rand_nonzero(rng, -10**6, 10**6)
        for p in [*factorize(x.norm()), 999983]:
            for side in ("left", "right"):
                check_gcd(x, OrderElement(p, 0, 0, 0), side)


def test_div_rem_checks_the_remainder_at_runtime(monkeypatch):
    # With a coset missing from the decoder's table, V3 / 1 leaves a remainder
    # of norm 1; the check raises ArithmeticError (exit 3), not an assert.
    import quat1122.euclid as euclid

    monkeypatch.setattr(euclid, "_COSETS", euclid._COSETS[:1])
    for side in ("right", "left"):
        with pytest.raises(ArithmeticError, match="remainder norm 1 >= 1"):
            div_rem(V3, ONE, side)
    with pytest.raises(ArithmeticError, match="remainder norm"):
        gcd(V3, ONE, "right")


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        div_rem(ONE, ZERO, "right")


def test_bad_side():
    with pytest.raises(ValueError):
        div_rem(ONE, ONE, "middle")


# -- gcd ---------------------------------------------------------------------

def test_gcd_of_2_and_1_plus_i():
    res = gcd(OrderElement(2, 0, 0, 0), ONE_PLUS_I, "right")
    assert res.gcd.norm() == 2
    assert divides(res.gcd, OrderElement(2, 0, 0, 0), "right")
    assert divides(res.gcd, ONE_PLUS_I, "right")


def test_gcd_with_one_is_one():
    rng = random.Random(13)
    for _ in range(50):
        a = rand_elem(rng)
        assert gcd(a, ONE, "right").gcd == ONE
        assert gcd(a, ONE, "left").gcd == ONE


def test_gcd_of_prime_and_its_norm():
    # the right gcd of (p, pi) recovers pi for a primary prime pi of norm p
    for p in (3, 5, 7):
        pi = primary_primes_of_norm(p)[0].element
        res = gcd(OrderElement(p, 0, 0, 0), pi, "right")
        assert res.gcd == pi


def test_gcd_divides_and_bezout():
    rng = random.Random(14)
    for _ in range(400):
        a, b = rand_nonzero(rng, -25, 25), rand_nonzero(rng, -25, 25)
        for side in ("left", "right"):
            res = gcd(a, b, side)
            d, (x, y) = res.gcd, res.cofactors
            assert divides(d, a, side) and divides(d, b, side)
            if side == "right":
                assert x * a + y * b == d
            else:
                assert a * x + b * y == d


def test_gcd_symmetric_up_to_associates():
    rng = random.Random(15)
    for _ in range(200):
        a, b = rand_nonzero(rng), rand_nonzero(rng)
        assert gcd(a, b, "right").gcd.norm() == gcd(b, a, "right").gcd.norm()


def test_gcd_normalization():
    # odd gcds come out primary, the only primary unit being 1
    rng = random.Random(16)
    for _ in range(200):
        a, b = rand_nonzero(rng), rand_nonzero(rng)
        d = gcd(a, b, "right").gcd
        if is_odd(d):
            assert is_primary(d)


def test_gcd_cofactor_is_gcd_and_rebuilds_a():
    # Odd and even gcds, units, a zero on either side and large coordinates:
    # the same d as gcd, and a = a'*d (right) or d*a' (left), a' exact.
    rng = random.Random(20)
    pairs = [(rand_elem(rng, -25, 25), rand_nonzero(rng, -25, 25)) for _ in range(300)]
    pairs += [(rand_nonzero(rng, -10**20, 10**20), rand_nonzero(rng, -10**20, 10**20))
              for _ in range(30)]
    pairs += [(OrderElement(2, 0, 0, 0), ONE_PLUS_I), (ONE_PLUS_I * V3, OrderElement(4, 0, 0, 0)),
              (OrderElement(3, 1, 0, 2), ZERO), (ZERO, ONE)]
    for a, b in pairs:
        for side in ("left", "right"):
            d, cofactor = gcd_cofactor(a, b, side)
            assert d == gcd(a, b, side).gcd, (a, b, side)
            assert (cofactor * d if side == "right" else d * cofactor) == a, (a, b, side)
    with pytest.raises(ValueError):
        gcd_cofactor(ZERO, ZERO, "left")


def test_gcd_zero_cases():
    a = OrderElement(3, 1, 0, 2)
    assert divides(gcd(a, ZERO, "right").gcd, a, "right")
    assert divides(gcd(ZERO, a, "left").gcd, a, "left")
    with pytest.raises(ValueError):
        gcd(ZERO, ZERO, "right")
