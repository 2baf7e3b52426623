import random
from itertools import product
from math import gcd as int_gcd

import pytest

from modm_reference import count_annihilator_enum, twice_matrix_units, xi
from quat1122 import (
    MatrixModM,
    OrderElement,
    ResidueElement,
    RSParams,
    count_norm1,
    count_norm1_enum,
    count_psi,
    count_psi_enum,
    reduce_mod_m,
    solve_rs,
    tau,
    tau_inv,
    units,
)
from quat1122.core import I, ONE, V3
from quat1122.modm import SOLVE_RS_BOUND


def rand_residue(rng, m):
    return ResidueElement(m, *(rng.randrange(m) for _ in range(4)))


# -- the residue system ------------------------------------------------------

def test_reduce_examples():
    assert reduce_mod_m(V3, 3).coords == (2, 2, 2, 0)
    assert reduce_mod_m(OrderElement(0, 0, 0, 0), 5) == ResidueElement.make(5, 0, 0, 0, 0)
    rng = random.Random(40)
    for _ in range(50):
        e = OrderElement(*(rng.randint(-20, 20) for _ in range(4)))
        assert reduce_mod_m(5 * e, 5) == ResidueElement.make(5, 0, 0, 0, 0)


def test_reduce_rejects_even_m():
    with pytest.raises(ValueError):
        reduce_mod_m(V3, 4)


def test_reduce_is_ring_homomorphism():
    rng = random.Random(41)
    for m in (3, 5, 9):
        for _ in range(100):
            a = OrderElement(*(rng.randint(-30, 30) for _ in range(4)))
            b = OrderElement(*(rng.randint(-30, 30) for _ in range(4)))
            assert reduce_mod_m(a + b, m) == reduce_mod_m(a, m) + reduce_mod_m(b, m)
            assert reduce_mod_m(a * b, m) == reduce_mod_m(a, m) * reduce_mod_m(b, m)


def test_residue_lift_round_trip():
    rng = random.Random(42)
    for m in (3, 7):
        for _ in range(50):
            q = rand_residue(rng, m)
            lift = OrderElement.from_standard(*q.coords)
            assert reduce_mod_m(lift, m) == q
            assert lift.norm() % m == q.norm()


def test_residues_are_distinct_mod_m():
    # the m^4 residues in [0, m)^4 really are pairwise incongruent: their
    # lifts differ by something with a coordinate not divisible by m
    m = 3
    lifts = [OrderElement.from_standard(*q) for q in product(range(m), repeat=4)]
    assert len(lifts) == m**4
    seen = {tuple(g % m for g in e.coords) for e in lifts}
    assert len(seen) == m**4


def test_m_equals_one():
    assert reduce_mod_m(V3, 1) == ResidueElement.make(1, 0, 0, 0, 0)
    assert count_psi(1) == count_psi_enum(1) == 1
    assert count_norm1(1) == count_norm1_enum(1) == 1


# -- (r, s) parameters -------------------------------------------------------

def test_solve_rs_examples():
    assert solve_rs(1) == RSParams(1, 0, 0)
    # lexicographically smallest solutions: 2^-1 = 2 mod 3 and 2 + 0 + 1 = 3
    assert solve_rs(3) == RSParams(3, 0, 1)
    assert solve_rs(5) == RSParams(5, 1, 1)


def nested_search_rs(m):
    """The lexicographically smallest (r, s) by trying every pair in order."""
    inv2 = pow(2, -1, m)
    for r in range(m):
        rr = (inv2 + r * r) % m
        for s in range(m):
            if (rr + s * s) % m == 0:
                return RSParams(m, r, s)
    raise AssertionError(f"no (r, s) for m = {m}")


def test_solve_rs_matches_nested_search():
    for m in range(1, 4000, 2):
        assert solve_rs(m) == nested_search_rs(m), f"m={m}"


def test_solve_rs_rejects_modulus_above_bound():
    with pytest.raises(ValueError, match=f"bound {SOLVE_RS_BOUND}$"):
        solve_rs(SOLVE_RS_BOUND + 1)


def test_solve_rs_invariant_holds():
    for m in range(1, 46, 2):
        params = solve_rs(m)
        inv2 = pow(2, -1, m)
        assert (inv2 + params.r**2 + params.s**2) % m == 0


def test_rsparams_validates():
    with pytest.raises(ValueError):
        RSParams(3, 1, 1)
    with pytest.raises(ValueError):
        RSParams(4, 0, 0)
    RSParams(3, 1, 0)  # 2 + 1 + 0 = 3: also a valid (non-minimal) choice


# -- the xi spanning set -----------------------------------------------------

def test_xi_basis_example():
    params = RSParams(3, 1, 0)
    assert xi(params) == (ResidueElement(3, 1, 0, 1, 0),  # 1 + sqrt2 j mod 3
                          ResidueElement(3, 0, 1, 0, 2),
                          ResidueElement(3, 0, 2, 0, 2),
                          ResidueElement(3, 1, 0, 2, 0))
    assert xi(params) == tuple(tau_inv(e, params) for e in twice_matrix_units(3))


@pytest.mark.parametrize("m", [3, 5, 7, 9, 15])
def test_xi_relations_validated_on_construction(m):
    # xi_k is tau_inv(2*E_k), so the xi's multiply as twice the matrix units:
    # xi_(ij) * xi_(kl) = 2 * delta_jk * xi_(il), all sixteen products.
    params = solve_rs(m)
    xis = xi(params)
    units2 = twice_matrix_units(m)
    assert xis == tuple(tau_inv(e, params) for e in units2)
    assert [tau(x, params) for x in xis] == units2
    zero = ResidueElement.make(m, 0, 0, 0, 0)
    for (i, j), a in zip(((0, 0), (0, 1), (1, 0), (1, 1)), xis):
        for (k, l), b in zip(((0, 0), (0, 1), (1, 0), (1, 1)), xis):
            expected = xis[2 * i + l].scale(2) if j == k else zero
            assert a * b == expected, (i, j, k, l)


def test_xi_expansion_matches_tau_inv():
    # 2*q = a*xi1 + b*xi2 + c*xi3 + d*xi4 for tau(q) = [[a, b], [c, d]]
    rng = random.Random(43)
    for m in (3, 5, 7):
        params = solve_rs(m)
        xi1, xi2, xi3, xi4 = xi(params)
        for _ in range(100):
            mat = MatrixModM(m, *(rng.randrange(m) for _ in range(4)))
            q = tau_inv(mat, params)
            combo = (xi1.scale(mat.a) + xi2.scale(mat.b)
                     + xi3.scale(mat.c) + xi4.scale(mat.d))
            assert q.scale(2) == combo


# -- the matrix isomorphism --------------------------------------------------

def test_tau_of_one_is_identity():
    for m in (3, 5, 7):
        assert tau(reduce_mod_m(ONE, m), solve_rs(m)) == MatrixModM.make(m, 1, 0, 0, 1)


def test_tau_example_at_explicit_params():
    mat = tau(reduce_mod_m(I, 3), RSParams(3, 1, 0))
    assert mat.rows() == [[0, 1], [2, 0]]
    assert mat.det() == 1
    assert tau_inv(mat, RSParams(3, 1, 0)) == reduce_mod_m(I, 3)


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_tau_is_ring_homomorphism(m):
    params = solve_rs(m)
    rng = random.Random(44 + m)
    for _ in range(1000):
        a, b = rand_residue(rng, m), rand_residue(rng, m)
        assert tau(a + b, params) == tau(a, params) + tau(b, params)
        assert tau(a * b, params) == tau(a, params) * tau(b, params)


def test_tau_bijective_exhaustive_m3():
    params = solve_rs(3)
    images = set()
    for q in (ResidueElement(3, *c) for c in product(range(3), repeat=4)):
        mat = tau(q, params)
        images.add(mat.entries)
        assert tau_inv(mat, params) == q
    assert len(images) == 3**4
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    mat = MatrixModM(3, a, b, c, d)
                    assert tau(tau_inv(mat, params), params) == mat


def test_det_equals_norm():
    params = solve_rs(3)
    for q in (ResidueElement(3, *c) for c in product(range(3), repeat=4)):
        assert tau(q, params).det() == q.norm()
    rng = random.Random(45)
    for m in (5, 7):
        params = solve_rs(m)
        for _ in range(300):
            q = rand_residue(rng, m)
            assert tau(q, params).det() == q.norm()


def test_tau_rejects_mismatched_moduli():
    with pytest.raises(ValueError):
        tau(reduce_mod_m(ONE, 3), solve_rs(5))
    with pytest.raises(ValueError):
        tau_inv(MatrixModM.make(3, 1, 0, 0, 1), solve_rs(5))


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_units_distinct_mod_m(m):
    residues = {reduce_mod_m(u, m) for u in units()}
    assert len(residues) == 24


# -- primitivity -------------------------------------------------------------

def test_is_primitive_to_m():
    assert reduce_mod_m(ONE, 3).is_primitive()
    assert reduce_mod_m(V3, 3).is_primitive()
    assert not reduce_mod_m(3 * V3, 3).is_primitive()
    assert reduce_mod_m(V3, 1).is_primitive()
    assert not reduce_mod_m(OrderElement(15, 0, 5 * 10**29, 35), 45).is_primitive()
    assert reduce_mod_m(OrderElement(15, 0, 5 * 10**29, 36), 45).is_primitive()
    with pytest.raises(ValueError, match="^modulus must be odd and positive, got 6$"):
        reduce_mod_m(V3, 6)


def test_primitivity_agrees_in_both_coordinate_systems():
    # the gcd with m of the basis coordinates and of the standard residue
    # coordinates agree, composite m and coordinates up to 1e30 included
    rng = random.Random(46)
    for m in (3, 9, 15, 45, 105, 1001):
        for _ in range(200):
            d = rng.choice([1, 3, 5, 7, m])
            e = OrderElement(*(d * rng.randint(-10**30, 10**30) for _ in range(4)))
            assert reduce_mod_m(e, m).is_primitive() == (int_gcd(*e.coords, m) == 1)


def test_primitivity_preserved_by_tau_exhaustive_m3():
    params = solve_rs(3)
    for q in (ResidueElement(3, *c) for c in product(range(3), repeat=4)):
        assert q.is_primitive() == tau(q, params).is_primitive()


# -- counting ----------------------------------------------------------------

def test_psi_values():
    assert count_psi(3) == 32
    assert count_psi(5) == 144
    assert count_psi(5) == (5**2 - 1) * (5 + 1)
    assert count_psi(9) == 864
    assert count_psi(15) == 4608


@pytest.mark.parametrize("m", [1, 3, 5, 9])
def test_psi_enum_matches_formula(m):
    assert count_psi_enum(m) == count_psi(m)


def test_norm1_values():
    assert count_norm1(3) == 24
    assert count_norm1(5) == 120


@pytest.mark.parametrize("m", [1, 3, 5, 9])
def test_norm1_enum_matches_formula(m):
    assert count_norm1_enum(m) == count_norm1(m)


def test_even_m_rejected():
    for fn in (count_psi, count_psi_enum, count_norm1, count_norm1_enum):
        with pytest.raises(ValueError):
            fn(4)


def test_annihilator_count_p3():
    p = 3
    valid = [q for q in (ResidueElement(p, *c) for c in product(range(p), repeat=4))
             if q.is_primitive() and q.norm() % p == 0]
    assert len(valid) == count_psi(p)
    for f in valid:
        assert count_annihilator_enum(f, p) == p * p


def test_annihilator_count_p5_spot():
    p = 5
    rng = random.Random(47)
    valid = [q for q in (ResidueElement(p, *c) for c in product(range(p), repeat=4))
             if q.is_primitive() and q.norm() % p == 0]
    for f in rng.sample(valid, 5):
        assert count_annihilator_enum(f, p) == p * p


def test_annihilator_rejects_bad_input():
    with pytest.raises(ValueError):
        count_annihilator_enum(ResidueElement.make(3, 0, 0, 0, 0), 3)  # not primitive
    with pytest.raises(ValueError):
        count_annihilator_enum(ResidueElement(3, 1, 0, 0, 0), 3)  # norm 1
