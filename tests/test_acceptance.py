"""Acceptance suite: every counting theorem and structural guarantee, exactly.

Each criterion asserts exact equalities (no tolerances: this is integer
arithmetic) and prints one PASS line; run with ``pytest -v -s`` to see them.
The brute-force oracles here enumerate integer tuples directly and share no
code with the formulas they check.
"""

import random
import time
from itertools import product

from modm_reference import count_annihilator_enum
from repcount_reference import count_primitive_enum, q_formula
from quat1122 import (
    OrderElement,
    count_norm1,
    count_norm1_enum,
    count_psi,
    count_psi_enum,
    div_rem,
    enumerate_norm_solutions,
    factor_primitive,
    full_factor,
    gcd,
    is_primary,
    primary_primes_of_norm,
    rep_count_formula,
    rep_count_oracle,
    rep_counts_upto,
    sigma,
    solve_rs,
    tau,
    tau_inv,
    units,
)
from quat1122.core import ONE_PLUS_I
from quat1122.factor import is_primitive
from quat1122.intarith import factorize
from quat1122.modm import ResidueElement


def _ok(num, text):
    print(f"PASS  criterion {num}: {text}")


def rand_elem(rng, lo, hi):
    return OrderElement(*(rng.randint(lo, hi) for _ in range(4)))


def test_criterion_01_representation_formula_sweep():
    """Formula count equals the brute-force oracle for every n in [1, 5000]."""
    start = time.monotonic()
    oracle = rep_counts_upto(5000)
    for n in range(1, 5001):
        assert oracle[n] == rep_count_formula(n).formula_count, f"mismatch at n={n}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(1, f"formula == oracle for n in [1, 5000] ({elapsed:.2f}s)")


def test_criterion_02_complementary_representations():
    """Parity-restricted counts match the oracle for every odd m <= 199."""
    cases = (("i", 4, 4), ("ii", 8, 16), ("iii", 4, 16))
    for case, n_per_m, multiplier in cases:
        oracle = rep_counts_upto(n_per_m * 199, case)
        for m in range(1, 200, 2):
            formula = rep_count_formula(n_per_m * m, case).formula_count
            assert formula == multiplier * sigma(m)
            assert oracle[n_per_m * m] == formula, f"case {case}, m={m}"
    _ok(2, "cases i/ii/iii match the restricted oracle for odd m <= 199")


def test_criterion_03_spot_values():
    """Frozen spot values, each confirmed by direct enumeration."""
    for n, expected in ((1, 4), (2, 8), (4, 24)):
        assert rep_count_oracle(n) == expected
        assert rep_count_formula(n).formula_count == expected
    oracle_i = rep_counts_upto(4, "i")
    oracle_ii = rep_counts_upto(8, "ii")
    oracle_iii = rep_counts_upto(4, "iii")
    assert oracle_i[4] == 4
    assert oracle_ii[8] == 16
    assert oracle_iii[4] == 16
    _ok(3, "r(1)=4, r(2)=8, r(4)=24; restricted counts at m=1 are 4/16/16")


def test_criterion_04_primary_count_is_sigma():
    """Primary elements of norm m number sigma(m), odd m <= 99."""
    for m in range(1, 100, 2):
        assert len(enumerate_norm_solutions(m, primary=True)) == sigma(m), f"m={m}"
    _ok(4, "norm-m primary count == sigma(m) for all odd m <= 99")


def test_criterion_05_primitive_count():
    """Primitive elements of norm m number m * prod(1 + 1/p), odd m <= 99."""
    for m in range(1, 100, 2):
        assert count_primitive_enum(m) == q_formula(m), f"m={m}"
    coprime_pairs = [(3, 5), (3, 7), (5, 9), (7, 11), (3, 25), (9, 11)]
    for a, b in coprime_pairs:
        assert q_formula(a * b) == q_formula(a) * q_formula(b)
    _ok(5, "primitive count matches the formula for odd m <= 99; multiplicative")


def test_criterion_06_units():
    """24 units from exhaustive search; 4 integral; 8 with (1+i)u integral."""
    found = set()
    for A in range(-2, 3):
        for B in range(-2, 3):
            for C in range(-2, 3):
                for D in range(-2, 3):
                    if (A - B) % 2 or (A - C - D) % 2:
                        continue
                    if A * A + B * B + 2 * C * C + 2 * D * D == 4:
                        found.add(OrderElement.from_half(A, B, C, D))
    assert found == set(units())
    assert len(found) == 24
    assert sum(1 for u in units() if u.is_integral) == 4
    assert sum(1 for u in units() if (ONE_PLUS_I * u).is_integral) == 8
    _ok(6, "exactly 24 units; 4 integral; 8 with (1+i)u integral")


def test_criterion_07_matrix_correspondence():
    """tau is a bijective ring map with det = norm; psi and norm-1 counts match."""
    params3 = solve_rs(3)
    residues3 = [ResidueElement(3, *q) for q in product(range(3), repeat=4)]
    images = set()
    for a in residues3:
        images.add(tau(a, params3).entries)
        assert tau_inv(tau(a, params3), params3) == a
        assert tau(a, params3).det() == a.norm()
    assert len(images) == 81
    for a in residues3:
        for b in residues3:
            assert tau(a + b, params3) == tau(a, params3) + tau(b, params3)
            assert tau(a * b, params3) == tau(a, params3) * tau(b, params3)

    rng = random.Random(7001)
    for m in (5, 7, 9):
        params = solve_rs(m)
        for _ in range(1000):
            a = ResidueElement(m, *(rng.randrange(m) for _ in range(4)))
            b = ResidueElement(m, *(rng.randrange(m) for _ in range(4)))
            assert tau(a + b, params) == tau(a, params) + tau(b, params)
            assert tau(a * b, params) == tau(a, params) * tau(b, params)
            assert tau(a, params).det() == a.norm()

    assert count_psi(3) == 32 and count_psi(5) == 144
    for m in (3, 5, 9, 15):
        assert count_psi_enum(m) == count_psi(m), f"psi mismatch at m={m}"
        assert count_norm1_enum(m) == count_norm1(m), f"norm-1 mismatch at m={m}"
    _ok(7, "correspondence exact at m=3; random homs at m in {5,7,9}; "
           "psi(3)=32, psi(5)=144, enumerations match formulas for m in {3,5,9,15}")


def test_criterion_08_prime_counts():
    """p+1 primary primes of norm p; 24(p+1) primes in all; annihilators p^2."""
    for p in (3, 5, 7, 11, 13):
        assert len(primary_primes_of_norm(p)) == p + 1, f"p={p}"
    for p in (3, 5):
        assert len(enumerate_norm_solutions(p)) == 24 * (p + 1), f"p={p}"
    p = 3
    residues = (ResidueElement(p, *q) for q in product(range(p), repeat=4))
    valid = [f for f in residues if f.is_primitive() and f.norm() % p == 0]
    assert len(valid) == count_psi(p)
    for f in valid:
        assert count_annihilator_enum(f, p) == p * p
    _ok(8, "primary primes number p+1 (p <= 13); all primes 24(p+1) (p in {3,5}); "
           "annihilator count p^2 exhaustive at p=3")


def test_criterion_09_factorization_soundness():
    """500 random elements of norm <= 10^6 factor and reassemble exactly."""
    rng = random.Random(9001)
    done = 0
    while done < 500:
        x = rand_elem(rng, -300, 300)
        if x.is_zero or x.norm() > 10**6:
            continue
        f = full_factor(x)
        assert f.reassemble() == x
        norm_acc = 2**f.r * f.content**2
        for pi in f.primes:
            assert is_primary(pi.element)
            assert pi.element.norm() == pi.p
            norm_acc *= pi.p
        assert norm_acc == x.norm()
        expected_multiset = sorted(
            p for p, e in factorize(x.norm() // (2**f.r * f.content**2)).items()
            for _ in range(e)
        )
        assert sorted(pi.p for pi in f.primes) == expected_multiset
        done += 1

    norm15_primitives = [e for e in enumerate_norm_solutions(15) if is_primitive(e)]
    assert len(norm15_primitives) == q_formula(15) == 24
    for c in norm15_primitives:
        first = factor_primitive(c, [3, 5])
        second = factor_primitive(c, [5, 3])
        assert first[0].element * first[1].element == c
        assert second[0].element * second[1].element == c
        assert (first[0].p, first[1].p) == (3, 5)
        assert (second[0].p, second[1].p) == (5, 3)
    _ok(9, "500 random factorizations reassemble exactly; norm multisets match; "
           "norm-15 primitives factor under both prime orders")


def test_criterion_10_euclidean_layer():
    """10^4 random divisions obey the remainder bound; Bezout identities exact."""
    rng = random.Random(10001)
    for i in range(10_000):
        a = rand_elem(rng, -50, 50)
        while True:
            b = rand_elem(rng, -50, 50)
            if not b.is_zero:
                break
        side = "right" if i % 2 == 0 else "left"
        res = div_rem(a, b, side)
        assert res.remainder.norm() < b.norm()
        if side == "right":
            assert res.quotient * b + res.remainder == a
        else:
            assert b * res.quotient + res.remainder == a

    for _ in range(500):
        a = rand_elem(rng, -30, 30)
        b = rand_elem(rng, -30, 30)
        if a.is_zero and b.is_zero:
            continue
        for side in ("left", "right"):
            result = gcd(a, b, side)
            x, y = result.cofactors
            if side == "right":
                assert x * a + y * b == result.gcd
            else:
                assert a * x + b * y == result.gcd
    _ok(10, "10^4 divisions satisfy norm(r) < norm(b); Bezout identities exact")
