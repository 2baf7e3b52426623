from math import isqrt

import pytest

from quat1122 import (
    complementary_count_formula,
    count_primary_enum,
    count_primitive_enum,
    enumerate_norm_solutions,
    is_primary,
    q_formula,
    rep_count_formula,
    rep_count_oracle,
    rep_counts_upto,
    sigma,
    units,
)
from quat1122.core import I, ONE, ONE_PLUS_I

#: Which signed (x, y, z, w) each restriction counts, stated directly.
ADMITS = {
    "none": lambda x, y, z, w: True,
    "i": lambda x, y, z, w: x % 2 == y % 2 == 0 and z % 2 == w % 2 == 1,
    "ii": lambda x, y, z, w: x % 2 == y % 2 == 0 and z % 2 == w % 2 == 1,
    "iii": lambda x, y, z, w: x % 2 == y % 2 == 1 and z % 2 != w % 2,
    "iii-zodd": lambda x, y, z, w: x % 2 == y % 2 == 1 and z % 2 == 1 and w % 2 == 0,
    "iii-wodd": lambda x, y, z, w: x % 2 == y % 2 == 1 and z % 2 == 0 and w % 2 == 1,
}


def reference_oracle(n, restriction="none"):
    """Signed solutions of x^2 + y^2 + 2z^2 + 2w^2 = n by a direct x/y/z loop."""
    admits = ADMITS[restriction]
    total = 0
    for x in range(isqrt(n) + 1):
        rem_x = n - x * x
        for y in range(isqrt(rem_x) + 1):
            rem_xy = rem_x - y * y
            for z in range(isqrt(rem_xy // 2) + 1):
                rem = rem_xy - 2 * z * z
                if rem % 2:
                    continue
                w = isqrt(rem // 2)
                if 2 * w * w == rem and admits(x, y, z, w):
                    total += (2 - (x == 0)) * (2 - (y == 0)) * (2 - (z == 0)) * (2 - (w == 0))
    return total


def admitted_restrictions(n):
    if n % 8 == 4:
        return ("none", "i", "iii", "iii-zodd", "iii-wodd")
    if n % 16 == 8:
        return ("none", "ii")
    return ("none",)


def test_sigma_values():
    assert sigma(1) == 1
    assert sigma(9) == 13
    assert sigma(15) == 24
    assert sigma(12) == 28


def test_q_formula_values():
    assert q_formula(1) == 1
    assert q_formula(3) == 4
    assert q_formula(15) == 24
    assert q_formula(3) * q_formula(5) == q_formula(15)
    with pytest.raises(ValueError):
        q_formula(6)


def test_primary_counts_small():
    assert count_primary_enum(1) == 1
    assert count_primary_enum(3) == 4 == sigma(3)
    assert count_primary_enum(9) == 13 == sigma(9)


def test_primitive_counts_small():
    assert count_primitive_enum(3) == 4
    assert count_primitive_enum(15) == 24


def test_the_single_primary_of_norm_1_is_one():
    norm1 = [e for e in enumerate_norm_solutions(1) if is_primary(e)]
    assert norm1 == [ONE]


# -- the representation formula ------------------------------------------------

@pytest.mark.parametrize("n,expected", [(1, 4), (2, 8), (4, 24), (12, 96)])
def test_rep_count_spot_values(n, expected):
    assert rep_count_formula(n).formula_count == expected
    assert rep_count_oracle(n) == expected


def test_rep_count_with_oracle():
    res = rep_count_formula(12, with_oracle=True)
    assert res.formula_count == res.oracle_count == 96
    assert res.decomposition == (2, 3)


def test_rep_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        rep_count_formula(0)
    with pytest.raises(ValueError):
        rep_count_oracle(0)


def test_oracle_bound():
    with pytest.raises(ValueError):
        rep_count_oracle(100, bound=50)
    with pytest.raises(ValueError):
        enumerate_norm_solutions(100, bound=50)


def test_oracle_matches_reference_small():
    for n in range(1, 401):
        admitted = admitted_restrictions(n)
        for restriction in ADMITS:
            if restriction in admitted:
                assert rep_count_oracle(n, restriction) == reference_oracle(n, restriction)
            else:
                with pytest.raises(ValueError):
                    rep_count_oracle(n, restriction)


@pytest.mark.parametrize("n", [10007, 13122, 15000, 16384, 19996])
def test_oracle_matches_reference_large(n):
    for restriction in admitted_restrictions(n):
        assert rep_count_oracle(n, restriction) == reference_oracle(n, restriction)


def test_batch_matches_single_oracle():
    counts = rep_counts_upto(200)
    for n in range(1, 201):
        assert counts[n] == rep_count_oracle(n)


# -- parity-restricted counts ---------------------------------------------------

def test_restricted_spot_values():
    assert rep_count_oracle(4, "i") == 4
    assert rep_count_oracle(8, "ii") == 16
    assert rep_count_oracle(4, "iii") == 16


def test_complementary_formula_values():
    assert complementary_count_formula(1, "i") == 4
    assert complementary_count_formula(1, "ii") == 16
    assert complementary_count_formula(1, "iii") == 16
    assert complementary_count_formula(3, "iii") == 64
    with pytest.raises(ValueError):
        complementary_count_formula(2, "i")
    with pytest.raises(ValueError):
        complementary_count_formula(3, "iv")


@pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 15])
def test_restricted_oracle_matches_formula(m):
    assert rep_count_oracle(4 * m, "i") == complementary_count_formula(m, "i")
    assert rep_count_oracle(8 * m, "ii") == complementary_count_formula(m, "ii")
    assert rep_count_oracle(4 * m, "iii") == complementary_count_formula(m, "iii")


@pytest.mark.parametrize("m", [1, 3, 5, 9])
def test_case_iii_subcases_split_evenly(m):
    # each of the two opposite-parity shapes contributes half of case iii
    zodd = rep_count_oracle(4 * m, "iii-zodd")
    wodd = rep_count_oracle(4 * m, "iii-wodd")
    assert zodd == wodd == 8 * sigma(m)


def test_restriction_shape_validation():
    with pytest.raises(ValueError):
        rep_count_oracle(8, "i")  # 8/4 = 2 is even
    with pytest.raises(ValueError):
        rep_count_oracle(12, "ii")
    with pytest.raises(ValueError):
        rep_count_oracle(6, "iii")
    with pytest.raises(ValueError):
        rep_count_oracle(4, "bogus")
    with pytest.raises(ValueError):
        rep_counts_upto(10, "bogus")


def test_restricted_batch_matches_single():
    for case in ("i", "iii"):
        counts = rep_counts_upto(100, case)
        for m in (1, 3, 5, 7, 9, 11, 13, 15):
            assert counts[4 * m] == rep_count_oracle(4 * m, case)
    counts = rep_counts_upto(200, "ii")
    for m in (1, 3, 5, 7, 9, 11, 13, 15):
        assert counts[8 * m] == rep_count_oracle(8 * m, "ii")


# -- lattice enumeration ---------------------------------------------------------

def test_enumerate_norm_1():
    assert set(enumerate_norm_solutions(1)) == set(units())
    integral_units = enumerate_norm_solutions(1, integral=True)
    assert set(integral_units) == {ONE, -ONE, I, -I}


def test_enumerate_norm_2_integral():
    assert len(enumerate_norm_solutions(2, integral=True)) == 8


def test_integral_counts_match_oracle():
    for n in range(1, 40):
        sols = enumerate_norm_solutions(n, integral=True)
        assert len(sols) == rep_count_oracle(n)
        assert all(e.norm() == n and e.is_integral for e in sols)


def test_enumeration_is_sorted_and_duplicate_free():
    sols = enumerate_norm_solutions(9)
    assert list(sols) == sorted(set(sols), key=lambda e: e.coords)


# -- unit filtrations used by the counting proofs --------------------------------

def test_unit_filtration_integral():
    assert sum(1 for u in units() if u.is_integral) == 4
    assert sum(1 for u in units() if (ONE_PLUS_I * u).is_integral) == 8
    two_i = ONE_PLUS_I * ONE_PLUS_I
    assert sum(1 for u in units() if (two_i * u).is_integral) == 24


def test_unit_filtration_half_integer_shapes():
    def shape(e):
        A, B, C, D = e.half_coords
        return (A % 2, B % 2, C % 2, D % 2)

    # half-integer coefficients only in the sqrt2 j / sqrt2 k slots
    assert sum(1 for u in units() if shape(u) == (0, 0, 1, 1)) == 4
    assert sum(1 for u in units() if shape(ONE_PLUS_I * u) == (0, 0, 1, 1)) == 16
    # half-integer in 1, i and exactly one of the sqrt2 slots
    mixed = {(1, 1, 1, 0), (1, 1, 0, 1)}
    assert sum(1 for u in units() if shape(u) in mixed) == 16
