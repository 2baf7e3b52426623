import random
import time
from math import isqrt

import pytest

import dyadic_reference as ref
import repcount_reference as count_ref
from repcount_reference import count_primitive_enum, q_formula
from quat1122 import (
    OrderElement,
    enumerate_norm_solutions,
    is_primary,
    primary_primes_of_norm,
    rep_count_formula,
    rep_count_oracle,
    rep_counts_upto,
    sigma,
    units,
)
from quat1122.core import I, ONE, ONE_PLUS_I
from quat1122.intarith import FACTOR_BOUND, factorize, is_prime
from quat1122.repcount import (
    COUNT_BOUND,
    ENUMERATION_BOUND,
    ORACLE_BOUND,
    RESTRICTIONS,
    TABLE_BOUND,
)

#: The two halves of case iii, by which of z, w is odd, as (x, y, z, w)
#: parities.  The library counts only their sum; count_ref counts each.
CASE_III_HALVES = {"iii-zodd": (1, 1, 1, 0), "iii-wodd": (1, 1, 0, 1)}

#: Which signed (x, y, z, w) each restriction, or half of case iii, counts,
#: stated directly.
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


def reference_norm_shell(n):
    """Elements of norm n by a direct triple loop over half coordinates, sorted."""
    found = []
    # A^2 + B^2 + 2C^2 + 2D^2 = 4n with A = B, A = C + D (mod 2).
    target = 4 * n
    for A in range(-isqrt(target), isqrt(target) + 1):
        rem_a = target - A * A
        for B in range(-isqrt(rem_a), isqrt(rem_a) + 1):
            if (A - B) % 2:
                continue
            rem_ab = rem_a - B * B
            for C in range(-isqrt(rem_ab // 2), isqrt(rem_ab // 2) + 1):
                rem = rem_ab - 2 * C * C
                if rem % 2:
                    continue
                D = isqrt(rem // 2)
                if 2 * D * D != rem:
                    continue
                for DD in {D, -D}:
                    if (A - C - DD) % 2 == 0:
                        found.append(OrderElement.from_half(A, B, C, DD))
    found.sort(key=lambda e: e.coords)
    return tuple(found)


def reference_primary(n):
    """The primary elements of norm n, taken from the reference shell.

    A primary element is 1 or 1 + 2*v3 modulo 2(1+i), hence 1 mod 2; the
    cheap coordinate parity test only skips elements the definitional
    classifier rejects.
    """
    return tuple(e for e in reference_norm_shell(n)
                 if [g % 2 for g in e.coords] == [1, 0, 0, 0] and ref.is_primary(e))


def admitted_restrictions(n):
    if n % 8 == 4:
        return ("none", "i", "iii", *CASE_III_HALVES)
    if n % 16 == 8:
        return ("none", "ii")
    return ("none",)


def oracle_count(n, restriction):
    """rep_count_oracle, or the reference pattern count for a half of case iii."""
    if restriction in CASE_III_HALVES:
        return count_ref.pattern_count(n, CASE_III_HALVES[restriction])
    return rep_count_oracle(n, restriction)


def primary_count(m):
    return len(enumerate_norm_solutions(m, primary=True))


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
    assert primary_count(1) == 1
    assert primary_count(3) == 4 == sigma(3)
    assert primary_count(9) == 13 == sigma(9)


def test_primitive_counts_small():
    assert count_primitive_enum(3) == 4
    assert count_primitive_enum(15) == 24


def test_primary_and_primitive_counts_match_formulas():
    # Every odd m < 1000; then a prime near the enumeration bound, a prime
    # square, a product of three distinct primes and a seeded sample up to it.
    rng = random.Random(1122)
    large = [19997, 139**2, 7 * 11 * 257, *rng.sample(range(1001, ENUMERATION_BOUND, 2), 3)]
    for m in [*range(1, 1000, 2), *large]:
        assert primary_count(m) == sigma(m), m
        assert count_primitive_enum(m) == q_formula(m), m


def test_the_single_primary_of_norm_1_is_one():
    norm1 = [e for e in enumerate_norm_solutions(1) if is_primary(e)]
    assert norm1 == [ONE]


# -- the representation formula ------------------------------------------------

@pytest.mark.parametrize("n,expected", [(1, 4), (2, 8), (4, 24), (12, 96)])
def test_rep_count_spot_values(n, expected):
    assert rep_count_formula(n).formula_count == expected
    assert rep_count_oracle(n) == expected


def test_rep_count_with_oracle():
    res = rep_count_formula(12)
    assert res.formula_count == rep_count_oracle(12) == 96
    assert res.decomposition == (2, 3)


def test_rep_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        rep_count_formula(0)
    with pytest.raises(ValueError):
        rep_count_oracle(0)


def test_oracle_bound():
    with pytest.raises(ValueError, match=f"oracle bound {ORACLE_BOUND}$"):
        rep_count_oracle(ORACLE_BOUND + 1)
    with pytest.raises(ValueError, match=f"enumeration bound {ENUMERATION_BOUND}$"):
        enumerate_norm_solutions(ENUMERATION_BOUND + 1)


def test_factor_bound():
    assert COUNT_BOUND == FACTOR_BOUND
    assert factorize(FACTOR_BOUND) == {2: 15, 5: 15}
    with pytest.raises(ValueError, match=f"factoring bound {FACTOR_BOUND}$"):
        factorize(FACTOR_BOUND + 1)


def test_oracle_matches_reference_small():
    for n in range(1, 401):
        admitted = admitted_restrictions(n)
        for restriction in admitted:
            expected = reference_oracle(n, restriction)
            assert oracle_count(n, restriction) == expected
            if restriction in CASE_III_HALVES:
                assert 2 * expected == rep_count_formula(n, "iii").formula_count
            else:
                assert rep_count_formula(n, restriction).formula_count == expected
        for restriction in RESTRICTIONS.keys() - set(admitted):
            with pytest.raises(ValueError):
                rep_count_oracle(n, restriction)
            with pytest.raises(ValueError):
                rep_count_formula(n, restriction)


@pytest.mark.parametrize("n", [10007, 13122, 15000, 16384, 19996])
def test_oracle_matches_reference_large(n):
    for restriction in admitted_restrictions(n):
        assert oracle_count(n, restriction) == reference_oracle(n, restriction)


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
    assert rep_count_formula(4 * 1, "i").formula_count == 4
    assert rep_count_formula(8 * 1, "ii").formula_count == 16
    assert rep_count_formula(4 * 1, "iii").formula_count == 16
    assert rep_count_formula(4 * 3, "iii").formula_count == 64
    with pytest.raises(ValueError):
        rep_count_formula(4 * 2, "i")
    with pytest.raises(ValueError):
        rep_count_formula(4 * 3, "iv")


@pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 15])
def test_restricted_oracle_matches_formula(m):
    assert rep_count_oracle(4 * m, "i") == rep_count_formula(4 * m, "i").formula_count
    assert rep_count_oracle(8 * m, "ii") == rep_count_formula(8 * m, "ii").formula_count
    assert rep_count_oracle(4 * m, "iii") == rep_count_formula(4 * m, "iii").formula_count


@pytest.mark.parametrize("m", [1, 3, 5, 9])
def test_case_iii_subcases_split_evenly(m):
    # each of the two opposite-parity shapes contributes half of case iii
    zodd, wodd = (count_ref.pattern_count(4 * m, p) for p in CASE_III_HALVES.values())
    assert zodd == wodd == 8 * sigma(m)
    assert zodd + wodd == rep_count_oracle(4 * m, "iii")


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
    # the halves of case iii are counted in the tests only
    for half in CASE_III_HALVES:
        for count in (rep_count_oracle, rep_count_formula, rep_counts_upto):
            with pytest.raises(ValueError, match=f"^unknown restriction '{half}'$"):
                count(4, half)


def test_restricted_batch_matches_single():
    for case in ("i", "iii"):
        counts = rep_counts_upto(100, case)
        for m in (1, 3, 5, 7, 9, 11, 13, 15):
            assert counts[4 * m] == rep_count_oracle(4 * m, case)
    counts = rep_counts_upto(200, "ii")
    for m in (1, 3, 5, 7, 9, 11, 13, 15):
        assert counts[8 * m] == rep_count_oracle(8 * m, "ii")


# -- the sweep table -------------------------------------------------------------

@pytest.mark.parametrize("restriction", list(RESTRICTIONS))
def test_table_matches_nested_loop(restriction):
    # Every limit up to 64 covers empty series and truncation at the top.
    for limit in [*range(65), 3000]:
        assert rep_counts_upto(limit, restriction) == count_ref.rep_counts_upto(
            limit, restriction), limit


@pytest.mark.parametrize("half", list(CASE_III_HALVES))
def test_case_iii_half_table_is_half_of_case_iii(half):
    # The nested-loop table of one half, at every n = 4m <= 3000, is half of
    # the library's case iii table; elsewhere the two halves sum to it.
    limit = 3000
    tables = {h: count_ref.pattern_table(limit, p) for h, p in CASE_III_HALVES.items()}
    iii = rep_counts_upto(limit, "iii")
    assert [sum(c) for c in zip(*tables.values())] == iii
    for n in RESTRICTIONS["iii"].admissible(limit):
        assert 2 * tables[half][n] == iii[n] == 16 * sigma(n // 4), n


@pytest.mark.parametrize("limit", [5 * 10**4, 2 * 10**5])
def test_large_table_matches_single_oracle(limit):
    rng = random.Random(limit)
    for case in ("none", "i", "ii", "iii"):
        counts = rep_counts_upto(limit, case)
        admissible = RESTRICTIONS[case].admissible(limit)
        for n in [admissible[0], admissible[-1], *rng.sample(admissible, 5)]:
            assert counts[n] == rep_count_oracle(n, case), (case, n)


def test_table_bound_is_refused_at_once():
    assert TABLE_BOUND == 2 * 10**5
    start = time.monotonic()
    with pytest.raises(ValueError) as excinfo:
        rep_counts_upto(TABLE_BOUND + 1)
    assert time.monotonic() - start < 1.0
    assert str(excinfo.value) == "limit = 200001 exceeds the table bound 200000"


# -- lattice enumeration ---------------------------------------------------------

def test_enumerate_norm_1():
    assert set(enumerate_norm_solutions(1)) == set(units())
    integral_units = [e for e in enumerate_norm_solutions(1) if e.is_integral]
    assert set(integral_units) == {ONE, -ONE, I, -I}


def test_enumerate_norm_2_integral():
    assert len([e for e in enumerate_norm_solutions(2) if e.is_integral]) == 8


def test_integral_counts_match_oracle():
    for n in range(1, 40):
        sols = [e for e in enumerate_norm_solutions(n) if e.is_integral]
        assert len(sols) == rep_count_oracle(n)
        assert all(e.norm() == n for e in sols)


def test_enumeration_is_sorted_and_duplicate_free():
    sols = enumerate_norm_solutions(9)
    assert list(sols) == sorted(set(sols), key=lambda e: e.coords)


def test_shell_matches_reference():
    for n in range(1, 301):
        assert enumerate_norm_solutions(n) == reference_norm_shell(n), n


def test_primary_shell_matches_reference():
    for n in range(1, 402, 2):
        assert enumerate_norm_solutions(n, primary=True) == reference_primary(n), n


def test_primary_primes_match_reference():
    for p in filter(is_prime, range(3, 1000)):
        primes = tuple(pi.element for pi in primary_primes_of_norm(p))
        assert primes == reference_primary(p), p


def test_primary_shell_rejects_even_norm():
    with pytest.raises(ValueError, match="odd norm"):
        enumerate_norm_solutions(12, primary=True)


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
