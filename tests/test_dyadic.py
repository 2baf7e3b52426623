import itertools
import random

import pytest

from quat1122 import (
    OrderElement,
    PrimaryClass,
    divide_by_1pi,
    is_odd,
    is_primary,
    primary_associate,
    primary_class,
    residue_mod_1pi,
    residue_mod_2,
    residue_mod_2_1pi,
    unit_congruences_mod2,
    units,
    valuation_1pi,
)
from quat1122.core import I, ONE, ONE_PLUS_I, V3, V4, ZERO
from quat1122.dyadic import (
    CANONICAL_RESIDUES_2_1PI,
    COSET_REPS_1PI,
    COSET_REPS_MOD2,
    ONE_PLUS_2V3,
    congruent_mod_2_1pi,
    divisible_by_2_1pi,
)


def box(radius):
    for g in itertools.product(range(-radius, radius + 1), repeat=4):
        yield OrderElement(*g)


def rand_odd(rng, lo=-30, hi=30):
    while True:
        e = OrderElement(*(rng.randint(lo, hi) for _ in range(4)))
        if is_odd(e):
            return e


def divisible_by_1pi(e, side):
    # e = h*(1+i) iff e*(1-i) is twice an element; same on the left
    t = e * OrderElement(1, -1, 0, 0) if side == "right" else OrderElement(1, -1, 0, 0) * e
    return all(g % 2 == 0 for g in t.coords)


def test_is_odd():
    assert is_odd(ONE)
    assert not is_odd(ONE_PLUS_I)
    assert is_odd(V3)
    assert not is_odd(ZERO)


# -- residues mod (1+i) ------------------------------------------------------

def test_residue_mod_1pi_examples():
    assert residue_mod_1pi(ZERO) == ZERO
    assert residue_mod_1pi(I) == ONE
    assert residue_mod_1pi(V4) == ONE + V3


def test_residue_mod_1pi_reps_incongruent():
    # differences of distinct representatives have odd norm
    for a, b in itertools.combinations(COSET_REPS_1PI, 2):
        assert (a - b).norm() % 2 == 1


def test_residue_mod_1pi_difference_divisible():
    rng = random.Random(20)
    for _ in range(300):
        e = OrderElement(*(rng.randint(-30, 30) for _ in range(4)))
        diff = e - residue_mod_1pi(e)
        assert divisible_by_1pi(diff, "right")
        assert divisible_by_1pi(diff, "left")


def test_even_norm_iff_1pi_divides_both_sides():
    # both directions, exhaustively on a coordinate box
    for e in box(4):
        even = e.norm() % 2 == 0
        assert divisible_by_1pi(e, "left") == even
        assert divisible_by_1pi(e, "right") == even


# -- exact division and valuation --------------------------------------------

def test_divide_by_1pi_examples():
    two = OrderElement(2, 0, 0, 0)
    assert divide_by_1pi(two, "right") == OrderElement(1, -1, 0, 0)
    assert divide_by_1pi(ONE_PLUS_I, "right") == ONE
    # v1 + v3 - v4 factors with cofactor (1 - i + sqrt2 j)/2 on the left of
    # 1+i and (1 - i - sqrt2 k)/2 on its right
    e = ONE + V3 - V4
    assert divide_by_1pi(e, "right") == OrderElement(0, -1, 1, 0)
    assert divide_by_1pi(e, "left") == OrderElement(1, 0, 0, -1)


def test_divide_by_1pi_reassembles():
    rng = random.Random(21)
    count = 0
    while count < 200:
        e = OrderElement(*(rng.randint(-30, 30) for _ in range(4)))
        if is_odd(e):
            continue
        assert divide_by_1pi(e, "right") * ONE_PLUS_I == e
        assert ONE_PLUS_I * divide_by_1pi(e, "left") == e
        count += 1


def test_divide_by_1pi_rejects_odd():
    with pytest.raises(ValueError):
        divide_by_1pi(V3, "right")


def test_valuation_examples():
    assert valuation_1pi(OrderElement(2, 0, 0, 0)) == (2, -I)
    assert valuation_1pi(ONE_PLUS_I) == (1, ONE)
    assert valuation_1pi(V3) == (0, V3)


def test_valuation_properties():
    rng = random.Random(22)
    for _ in range(300):
        e = OrderElement(*(rng.randint(-20, 20) for _ in range(4)))
        if e.is_zero:
            continue
        r, odd = valuation_1pi(e)
        assert is_odd(odd)
        assert ONE_PLUS_I ** r * odd == e
        n = e.norm()
        two_adic = 0
        while n % 2 == 0:
            n //= 2
            two_adic += 1
        assert r == two_adic
    with pytest.raises(ValueError):
        valuation_1pi(ZERO)


# -- residues mod 2 ----------------------------------------------------------

def test_mod2_reps():
    assert len(COSET_REPS_MOD2) == 16
    assert len({tuple(g % 2 for g in rep.coords) for rep in COSET_REPS_MOD2}) == 16
    # twelve units with positive sign, four even-norm non-units
    assert sum(1 for rep in COSET_REPS_MOD2 if rep.is_unit()) == 12
    non_units = [rep for rep in COSET_REPS_MOD2 if not rep.is_unit()]
    assert all(rep.norm() % 2 == 0 for rep in non_units)


def test_residue_mod_2_examples():
    assert residue_mod_2(ZERO) == ZERO
    assert residue_mod_2(V3) == V3
    assert residue_mod_2(ONE_PLUS_I + 2 * V3) == ONE_PLUS_I


def test_residue_mod_2_congruence():
    rng = random.Random(23)
    for _ in range(300):
        e = OrderElement(*(rng.randint(-30, 30) for _ in range(4)))
        assert all(g % 2 == 0 for g in (e - residue_mod_2(e)).coords)


def test_odd_elements_are_units_mod_2():
    rng = random.Random(24)
    for _ in range(200):
        b = rand_odd(rng)
        assert residue_mod_2(b).is_unit()


def test_odd_multiplication_permutes_units_mod_2():
    twelve = frozenset(rep for rep in COSET_REPS_MOD2 if rep.is_unit())
    rng = random.Random(25)
    for _ in range(100):
        b = rand_odd(rng)
        assert {residue_mod_2(b * u) for u in twelve} == twelve
        assert {residue_mod_2(u * b) for u in twelve} == twelve


# -- the ideal (2(1+i)) and primary elements ---------------------------------

def test_canonical_residues_distinct():
    for a, b in itertools.combinations(CANONICAL_RESIDUES_2_1PI, 2):
        assert not congruent_mod_2_1pi(a, b)


def test_residue_mod_2_1pi_examples():
    assert residue_mod_2_1pi(OrderElement(3, 0, 0, 0)) == -ONE
    assert residue_mod_2_1pi(OrderElement(5, 0, 0, 0)) == ONE
    # 1 + 2*v3^2 = -1 + 2*v3, congruent to -1 - 2*v3
    assert residue_mod_2_1pi(ONE + 2 * (V3 * V3)) == -ONE_PLUS_2V3
    assert residue_mod_2_1pi(ONE_PLUS_I) is None


def test_everything_congruent_one_mod_2_is_classified():
    rng = random.Random(26)
    count = 0
    while count < 200:
        e = OrderElement(*(rng.randint(-30, 30) for _ in range(4)))
        if any(g % 2 for g in (e - ONE).coords):
            continue
        assert residue_mod_2_1pi(e) is not None
        count += 1


def test_primary_class_examples():
    assert primary_class(ONE) is PrimaryClass.ONE
    assert primary_class(ONE_PLUS_2V3) is PrimaryClass.ONE_PLUS_2V3
    assert primary_class(I) is PrimaryClass.NOT_PRIMARY
    assert not is_primary(OrderElement(3, 0, 0, 0))


def test_primary_implies_integral():
    for e in box(4):
        if is_primary(e):
            assert e.is_integral


def test_product_of_primaries_is_primary():
    primaries = [e for e in box(3) if is_primary(e)]
    assert primaries
    rng = random.Random(27)
    for _ in range(200):
        a, b = rng.choice(primaries), rng.choice(primaries)
        assert is_primary(a * b)


def test_divisibility_by_2_1pi():
    assert divisible_by_2_1pi(OrderElement(4, 0, 0, 0))
    assert not divisible_by_2_1pi(OrderElement(2, 0, 0, 0))
    assert divisible_by_2_1pi(2 * ONE_PLUS_I)


# -- primary associates ------------------------------------------------------

def test_primary_associate_examples():
    assert primary_associate(ONE, "right") == (ONE, ONE)
    assert primary_associate(I, "right") == (-I, ONE)
    rng = random.Random(28)
    for _ in range(50):
        b = rand_odd(rng)
        if is_primary(b):
            assert primary_associate(b, "right") == (ONE, b)
            assert primary_associate(b, "left") == (ONE, b)


def test_primary_associate_both_sides():
    rng = random.Random(29)
    for _ in range(200):
        b = rand_odd(rng)
        u, c = primary_associate(b, "right")
        assert u.is_unit() and is_primary(c) and b * u == c
        u, c = primary_associate(b, "left")
        assert u.is_unit() and is_primary(c) and u * b == c


def test_primary_associate_rejects_even():
    with pytest.raises(ValueError):
        primary_associate(ONE_PLUS_I, "right")


def test_exactly_one_associate_is_primary():
    rng = random.Random(30)
    for _ in range(100):
        b = rand_odd(rng)
        assert sum(1 for u in units() if is_primary(b * u)) == 1
        assert sum(1 for u in units() if is_primary(u * b)) == 1


def scan_primary_associate(b, side):
    # reference: try all 24 units
    hits = [(u, b * u if side == "right" else u * b) for u in units()]
    hits = [(u, c) for u, c in hits if is_primary(c)]
    assert len(hits) == 1
    return hits[0]


def test_primary_associate_matches_unit_scan_large():
    rng = random.Random(32)
    for _ in range(150):
        b = rand_odd(rng, -10**30, 10**30)
        for side in ("left", "right"):
            assert primary_associate(b, side) == scan_primary_associate(b, side)


def test_conjugate_of_primary():
    # class 1 conjugates stay primary; class 1+2v3 needs the sign flip
    primaries = [e for e in box(3) if is_primary(e)]
    for e in primaries:
        if primary_class(e) is PrimaryClass.ONE:
            assert is_primary(e.conjugate())
        else:
            assert is_primary(-e.conjugate())


# -- unit congruences mod 2 --------------------------------------------------

def test_unit_congruences_examples():
    assert unit_congruences_mod2(ONE) == (ONE, ONE)
    assert unit_congruences_mod2(OrderElement(3, 0, 0, 0)) == (ONE, ONE)
    u, u1 = unit_congruences_mod2(V3)
    assert all(g % 2 == 0 for g in (V3 * u - ONE).coords)
    assert all(g % 2 == 0 for g in (u1 * V3 - ONE).coords)


def test_unit_congruences_random():
    rng = random.Random(31)
    for _ in range(200):
        b = rand_odd(rng)
        u, u1 = unit_congruences_mod2(b)
        assert u.is_unit() and u1.is_unit()
        assert all(g % 2 == 0 for g in (b * u - ONE).coords)
        assert all(g % 2 == 0 for g in (u1 * b - ONE).coords)
    with pytest.raises(ValueError):
        unit_congruences_mod2(ONE_PLUS_I)


def test_unit_congruences_match_unit_scan_large():
    def scan(prod):
        # reference: every unit solving the congruence, least norm(prod - 1) first
        hits = [u for u in units() if all(g % 2 == 0 for g in (prod(u) - ONE).coords)]
        assert len(hits) == 2
        return min(hits, key=lambda u: ((prod(u) - ONE).norm(), u.coords))

    rng = random.Random(33)
    for _ in range(100):
        b = rand_odd(rng, -10**30, 10**30)
        assert unit_congruences_mod2(b) == (scan(lambda u: b * u), scan(lambda u: u * b))
