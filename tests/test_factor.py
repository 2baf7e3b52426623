import random
import time
from itertools import product

import pytest

import quat1122.dyadic
import quat1122.factor
from factor_reference import reference_peel, reference_primary_prime
from quat1122 import (
    Factorization,
    OrderElement,
    PrimaryPrime,
    enumerate_norm_solutions,
    factor_primitive,
    full_factor,
    is_primary,
    p_conjugate,
    primary_associate,
    primary_prime_from,
    primary_primes_of_norm,
    units,
)
from quat1122.cli import main
from quat1122.core import I, ONE, ONE_PLUS_I, V3, ZERO
from quat1122.euclid import gcd as quat_gcd, gcd_cofactor
from quat1122.factor import is_primitive
from quat1122.intarith import FACTOR_BOUND, factorize, is_prime
from quat1122.modm import ResidueElement, reduce_mod_m


def primitive_residue_reps(p):
    """Order elements representing the residues primitive to p with norm = 0 mod p."""
    residues = (ResidueElement(p, *q) for q in product(range(p), repeat=4))
    return [OrderElement.from_standard(*q.coords) for q in residues
            if q.is_primitive() and q.norm() % p == 0]


# -- primality ---------------------------------------------------------------

def test_is_prime_quat():
    # an element of the order is prime exactly when its norm is a rational prime
    assert is_prime(ONE_PLUS_I.norm())
    assert not is_prime(OrderElement(2, 0, 0, 0).norm())
    assert not is_prime(V3.norm())
    assert not is_prime(ZERO.norm())


#: Callers that test primality, each on a prime far above the bound.  The
#: "is_prime_quat" entry tests an element of the order through its norm.
PRIMALITY_CALLERS = {
    "is_prime": is_prime,
    "is_prime_quat": lambda n: is_prime(OrderElement(n, 0, 0, 0).norm()),
    "PrimaryPrime": lambda n: PrimaryPrime(ONE, n),
    "primary_prime_from": lambda n: primary_prime_from(ONE, n),
}


@pytest.mark.parametrize("call", PRIMALITY_CALLERS.values(), ids=PRIMALITY_CALLERS.keys())
def test_primality_bound_refused_fast(call):
    assert not is_prime(FACTOR_BOUND)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"bound {FACTOR_BOUND}$"):
        call(10**20 + 39)
    assert time.perf_counter() - start < 1.0


def test_norm2_primes_are_the_associates_of_1pi():
    primes = enumerate_norm_solutions(2)
    assert len(primes) == 24
    assert set(primes) == {ONE_PLUS_I * u for u in units()}
    assert set(primes) == {u * ONE_PLUS_I for u in units()}


# -- the gcd-to-primary-prime map ---------------------------------------------

def test_lift_rejects_bad_input():
    with pytest.raises(ValueError, match=r"^\[0,0,3,0\] is not primitive to 3$"):
        primary_prime_from(3 * V3, 3)
    # norm divisible by p, every coordinate too: refused as not primitive
    f = 7 * OrderElement(10**29 + 1, 3, -5, 2)
    message = rf"^\[{7 * 10**29 + 7},21,-35,14\] is not primitive to 7$"
    with pytest.raises(ValueError, match=message):
        primary_prime_from(f, 7)
    with pytest.raises(ValueError, match="not divisible"):
        primary_prime_from(ONE, 3)
    with pytest.raises(ValueError, match="odd rational prime"):
        primary_prime_from(ONE_PLUS_I, 2)


def test_prime_from_matches_reference_lift_on_every_residue():
    for p in (3, 5, 7):
        for f in primitive_residue_reps(p):
            assert primary_prime_from(f, p) == PrimaryPrime(reference_primary_prime(f, p), p)


def test_prime_from_matches_reference_lift_seeded():
    # f = r*pi + p*s has p | norm(f); f = r*rho*pi + p^2*s has p^2 | norm(f),
    # the case the reference lift moves away from.  Coordinates up to 5p^2.
    rng = random.Random(55)
    odd_primes = [p for p in range(3, 200) if is_prime(p)]
    primes_of = {p: primary_primes_of_norm(p) for p in odd_primes}
    checked = deep = 0
    while checked < 5000:
        p = rng.choice(odd_primes)
        pi = rng.choice(primes_of[p]).element
        r = OrderElement(*(rng.randint(-p, p) for _ in range(4)))
        if rng.random() < 0.25:
            f, step = r * rng.choice(primes_of[p]).element * pi, p * p
        else:
            f, step = r * pi, p
        spread = 5 * p * p // step - 1
        f = OrderElement(*((g + step // 2) % step - step // 2
                           + step * rng.randint(-spread, spread) for g in f.coords))
        if not reduce_mod_m(f, p).is_primitive():
            continue
        assert max(map(abs, f.coords)) <= 5 * p * p
        assert primary_prime_from(f, p) == PrimaryPrime(reference_primary_prime(f, p), p)
        checked += 1
        deep += f.norm() % (p * p) == 0
    assert deep >= 300

def test_prime_from_reproduces_primary_primes():
    for p in (3, 5, 7):
        for pi in primary_primes_of_norm(p):
            assert primary_prime_from(pi.element, p) == pi


def test_prime_from_is_lift_independent():
    p = 5
    rng = random.Random(50)
    for f in primitive_residue_reps(p)[:40]:
        base = primary_prime_from(f, p)
        # congruent representative: shift by random multiples of p
        shifted = f + p * OrderElement(*(rng.randint(-3, 3) for _ in range(4)))
        assert primary_prime_from(shifted, p) == base


def test_prime_from_constant_on_left_multiples():
    p = 3
    rng = random.Random(51)
    for f in primitive_residue_reps(p)[:30]:
        base = primary_prime_from(f, p)
        while True:
            q = OrderElement(*(rng.randint(-5, 5) for _ in range(4)))
            if q.norm() % p:
                break
        assert primary_prime_from(q * f, p) == base


def test_prime_from_fibers():
    # the map onto primary primes of norm p has p+1 fibers of size p^2 - 1
    for p in (3, 5):
        fibers = {}
        for q in (ResidueElement(p, *c) for c in product(range(p), repeat=4)):
            if q.is_primitive() and q.norm() % p == 0:
                pi = primary_prime_from(OrderElement.from_standard(*q.coords), p)
                fibers.setdefault(pi, []).append(q)
        assert len(fibers) == p + 1
        assert all(len(v) == p * p - 1 for v in fibers.values())
        assert set(fibers) == set(primary_primes_of_norm(p))


# -- p-conjugation -----------------------------------------------------------

def test_p_conjugate_sign_matches_p_mod_4():
    for p in (3, 5, 7, 11, 13):
        for pi in primary_primes_of_norm(p):
            pc = p_conjugate(pi)
            assert is_primary(pc.element)
            product = pi.element * pc.element
            if p % 4 == 1:
                assert pc.element == pi.element.conjugate()
                assert product == OrderElement(p, 0, 0, 0)
            else:
                assert pc.element == -pi.element.conjugate()
                assert product == OrderElement(-p, 0, 0, 0)
            assert p_conjugate(pc) == pi


def test_p_conjugate_rejects_norm_2():
    with pytest.raises(ValueError):
        p_conjugate(PrimaryPrime(ONE_PLUS_I, 2))


# -- prime enumeration -------------------------------------------------------

@pytest.mark.parametrize("p,count", [(3, 4), (5, 6), (7, 8), (11, 12), (13, 14)])
def test_primary_prime_counts(p, count):
    primes = primary_primes_of_norm(p)
    assert len(primes) == count
    for pi in primes:
        assert pi.element.norm() == p and is_primary(pi.element)


def test_all_primes_of_norm_p():
    # every element of prime norm is prime; 24 per primary prime
    for p in (3, 5):
        all_of_norm_p = enumerate_norm_solutions(p)
        assert len(all_of_norm_p) == 24 * (p + 1)
        assert all(is_prime(e.norm()) for e in all_of_norm_p)


def test_primes_of_norm_rejects():
    with pytest.raises(ValueError):
        primary_primes_of_norm(2)
    with pytest.raises(ValueError):
        primary_primes_of_norm(9)


def test_primary_prime_validates():
    with pytest.raises(ValueError):
        PrimaryPrime(V3, 3)  # norm 1, not 3
    with pytest.raises(ValueError):
        PrimaryPrime(OrderElement(1, 2, 0, 0), 5)  # norm 5 but not primary


# -- factoring primitive elements ---------------------------------------------

def test_factor_primitive_trivial_cases():
    assert factor_primitive(ONE, []) == []
    pi = primary_primes_of_norm(7)[2]
    assert factor_primitive(pi.element, [7]) == [pi]


def test_norm15_products_are_all_primitives():
    # products pi3 * pi5 exhaust the primitives of norm 15, and factoring
    # under either prime order recovers a valid decomposition
    threes = primary_primes_of_norm(3)
    fives = primary_primes_of_norm(5)
    products = {}
    for a in threes:
        for b in fives:
            c = a.element * b.element
            assert is_primitive(c)
            products[c] = (a, b)
    primitives = [e for e in enumerate_norm_solutions(15) if is_primitive(e)]
    assert set(products) == set(primitives)

    for c, (a, b) in products.items():
        assert factor_primitive(c, [3, 5]) == [a, b]
        chi5, chi3 = factor_primitive(c, [5, 3])
        assert chi5.p == 5 and chi3.p == 3
        assert chi5.element * chi3.element == c


def test_factor_primitive_rejects_bad_input():
    with pytest.raises(ValueError):
        factor_primitive(OrderElement(3, 0, 0, 0), [3, 3])  # not primitive
    pi = primary_primes_of_norm(3)[0]
    with pytest.raises(ValueError):
        factor_primitive(pi.element, [5])  # wrong prime order


def test_gcd_of_wrong_norm_is_an_invariant_violation(monkeypatch, capsys):
    # A gcd whose norm is not p cannot happen; faking one reaches exit 3.
    # factor_primitive peels every prime but the last, so it takes two primes.
    monkeypatch.setattr(quat1122.factor, "gcd_cofactor", lambda a, b, side: (ONE.half_coords, a))
    pi = primary_primes_of_norm(3)[0]
    with pytest.raises(ArithmeticError, match="right gcd of .* has norm 1, expected 3"):
        primary_prime_from(pi.element, 3)
    c = pi.element * primary_primes_of_norm(5)[0].element
    with pytest.raises(ArithmeticError, match="left gcd of .* has norm 1, expected 3"):
        factor_primitive(c, [3, 5])
    assert main(["factor", "[6,3,1,-2]"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violation: ")


def test_cofactor_that_does_not_rebuild_is_an_invariant_violation(monkeypatch, capsys):
    # The true gcd with a wrong cofactor: d*c != f is caught, on both sides.
    def negated_cofactor(a, b, side):
        d, c = gcd_cofactor(a, b, side)
        return d, (-OrderElement.from_half(*c)).half_coords

    monkeypatch.setattr(quat1122.factor, "gcd_cofactor", negated_cofactor)
    pi = primary_primes_of_norm(3)[0]
    with pytest.raises(ArithmeticError, match=r"times the cofactor .* \(right\) is not"):
        primary_prime_from(pi.element, 3)
    c = pi.element * primary_primes_of_norm(5)[0].element
    with pytest.raises(ArithmeticError, match=r"times the cofactor .* \(left\) is not"):
        factor_primitive(c, [3, 5])
    assert main(["factor", "[6,3,1,-2]"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violation: ")


@pytest.mark.parametrize("fault", [
    lambda c: -c,  # an associate of the last prime, not primary
    lambda c: -3 * c,  # primary, of 9 times the last prime's norm
], ids=["not-primary", "wrong-norm"])
def test_last_cofactor_that_is_not_the_last_prime_is_an_invariant_violation(
        monkeypatch, capsys, fault):
    # The last prime is the leftover cofactor itself, checked to be primary of
    # norm prime_order[-1]; a peel that leaves anything else reaches exit 3.
    peel = quat1122.factor._peel

    def faulty_peel(f, p, side):
        pi, c = peel(f, p, side)
        return pi, fault(OrderElement.from_half(*c)).half_coords

    monkeypatch.setattr(quat1122.factor, "_peel", faulty_peel)
    c = primary_primes_of_norm(3)[0].element * primary_primes_of_norm(5)[0].element
    with pytest.raises(ArithmeticError, match="not primary of norm 5"):
        factor_primitive(c, [3, 5])
    assert main(["factor", "[6,3,1,-2]"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violation: ")
    assert "left cofactor" in captured.err


def test_factor_primitive_peels_every_prime_but_the_last(monkeypatch):
    # An empty order and one prime take no gcd; p^2 (the last two primes
    # equal) takes one, and its two primes come back in order.
    peel, peeled = quat1122.factor._peel, []

    def counted_peel(f, p, side):
        peeled.append(p)
        return peel(f, p, side)

    monkeypatch.setattr(quat1122.factor, "_peel", counted_peel)
    assert factor_primitive(ONE, []) == []
    for pi in primary_primes_of_norm(5):
        assert factor_primitive(pi.element, [5]) == [pi]
    assert peeled == []
    threes = primary_primes_of_norm(3)
    pairs = [(a, b) for a in threes for b in threes if is_primitive(a.element * b.element)]
    assert len(pairs) == 12
    for a, b in pairs:
        assert factor_primitive(a.element * b.element, [3, 3]) == [a, b]
    assert peeled == [3] * len(pairs)


def test_cofactor_division_that_is_not_exact_is_an_invariant_violation(monkeypatch, capsys):
    # A gcd three times too large does not divide the element: the cofactor's
    # exact division refuses it before _peel's checks, and factor exits 3.
    associate = quat1122.euclid._associate

    def tripled(d, side):
        w, c = associate(d, side)
        return w, (3 * OrderElement.from_half(*c)).half_coords

    monkeypatch.setattr(quat1122.euclid, "_associate", tripled)
    pi = primary_primes_of_norm(13)[0]
    for side in ("left", "right"):
        with pytest.raises(ArithmeticError, match="is not divisible by 117"):
            gcd_cofactor(pi.element.half_coords, OrderElement(13, 0, 0, 0).half_coords, side)
    assert main(["factor", "[6,3,1,-2]"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violation: ")
    assert "is not divisible by" in captured.err


def wrong_units_mod_2(monkeypatch):
    # Every unit of the mod-2 table times i: b times it is then never 1 mod 2.
    table = quat1122.dyadic._MOD2_HALF
    monkeypatch.setattr(quat1122.dyadic, "_MOD2_HALF", {
        key: (I * OrderElement.from_half(*u)).half_coords for key, u in table.items()})


def sign_blind_classifier(monkeypatch):
    # Every element that is 1 mod 2 reads as primary, so c and -c both do.
    classify = quat1122.dyadic._class_2_1pi
    monkeypatch.setattr(quat1122.dyadic, "_class_2_1pi",
                        lambda *g: None if classify(*g) is None else 0)


KERNEL_FAULTS = {
    "not-1-mod-2": (wrong_units_mod_2, "is not 1 mod 2"),
    "not-unique": (sign_blind_classifier, "is not unique up to sign"),
}


@pytest.mark.parametrize("fault, message", KERNEL_FAULTS.values(), ids=KERNEL_FAULTS.keys())
def test_primary_associate_kernel_checks_are_invariant_violations(
        monkeypatch, capsys, fault, message):
    # One kernel takes every primary associate: primary_associate's, and the
    # gcd's in each peel.  Its two checks raise ArithmeticError and exit 3.
    c = primary_primes_of_norm(3)[0].element * primary_primes_of_norm(5)[0].element
    fault(monkeypatch)
    for side in ("left", "right"):
        with pytest.raises(ArithmeticError, match=rf"\({side}\) {message}"):
            primary_associate(I, side)
    with pytest.raises(ArithmeticError, match=message):
        primary_prime_from(c, 3)
    with pytest.raises(ArithmeticError, match=message):
        factor_primitive(c, [3, 5])
    assert main(["factor", "[6,3,1,-2]"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violation: ")
    assert message in captured.err


def seeded_primitives(rng, count, bound):
    """Primitive elements (primary, coprime coordinates) with coordinates below bound."""
    out = []
    while len(out) < count:
        x = OrderElement(*(rng.randint(-bound, bound) for _ in range(4)))
        if x.norm() % 2:
            c = primary_associate(x, "left")[1]
            if is_primitive(c):
                out.append(c)
    return out


@pytest.mark.parametrize("side", ["left", "right"])
def test_peel_matches_gcd_and_div_rem(side):
    # For each prime of the norm, the kernel's d is gcd's d, d times the
    # cofactor gives the element back, and the cofactor is div_rem's quotient.
    rng = random.Random(1800 + (side == "left"))
    elements = seeded_primitives(rng, 60, 10**3) + seeded_primitives(rng, 40, 10**6)
    elements += [pi.element for pi in primary_primes_of_norm(13)]
    for f in elements:
        for p in sorted(factorize(f.norm())):
            halves = gcd_cofactor(f.half_coords, OrderElement(p, 0, 0, 0).half_coords, side)
            d, c = (OrderElement.from_half(*h) for h in halves)
            assert d == quat_gcd(f, OrderElement(p, 0, 0, 0), side).gcd
            assert (c * d if side == "right" else d * c) == f
            assert (d, c) == reference_peel(f, p, side), (f, p)


def test_factor_primitive_matches_reference_peel():
    # The whole left-to-right walk, prime after prime, against gcd + div_rem.
    rng = random.Random(1802)
    for c in seeded_primitives(rng, 40, 10**5):
        order = sorted(p for p, e in factorize(c.norm()).items() for _ in range(e))
        rng.shuffle(order)
        cofactor, expected = c, []
        for p in order:
            d, cofactor = reference_peel(cofactor, p, "left")
            expected.append(d)
        assert cofactor == ONE
        assert [pi.element for pi in factor_primitive(c, order)] == expected


# -- full factorization ------------------------------------------------------

def test_full_factor_of_1_plus_i():
    f = full_factor(ONE_PLUS_I)
    assert (f.r, f.unit, f.sign, f.content, f.primes) == (1, ONE, 1, 1, ())


def test_full_factor_of_3():
    # 3 = -1 mod 2(1+i), so its primary left associate is -3 = (-1)*3 and
    # the content splits off with a compensating sign
    f = full_factor(OrderElement(3, 0, 0, 0))
    assert f.r == 0
    assert f.unit == -ONE
    assert f.sign == -1
    assert f.content == 3
    assert f.primes == ()
    assert f.reassemble() == OrderElement(3, 0, 0, 0)


def test_full_factor_recovers_built_product():
    rng = random.Random(52)
    fives = primary_primes_of_norm(5)
    for _ in range(24):
        u = rng.choice(units())
        pi = rng.choice(fives)
        x = ONE_PLUS_I ** 2 * u * pi.element
        f = full_factor(x)
        assert f.r == 2
        assert f.unit == u
        assert any(f.unit is v for v in units())  # shared, not a fresh copy
        assert f.sign == 1 and f.content == 1
        assert f.primes == (pi,)
        assert f.reassemble() == x


def test_full_factor_random_reassembly():
    rng = random.Random(53)
    done = 0
    while done < 120:
        x = OrderElement(*(rng.randint(-40, 40) for _ in range(4)))
        if x.is_zero or x.norm() > 10**4:
            continue
        f = full_factor(x)
        assert f.reassemble() == x
        norm_product = 2**f.r * f.content**2
        for pi in f.primes:
            assert is_primary(pi.element)
            norm_product *= pi.p
        assert norm_product == x.norm()
        done += 1


def test_adjacent_p_conjugates_never_appear():
    # factoring a primitive element never puts pi next to its p-conjugate
    rng = random.Random(54)
    done = 0
    while done < 60:
        x = OrderElement(*(rng.randint(-20, 20) for _ in range(4)))
        if x.is_zero or x.norm() > 4000 or not is_primitive(x):
            continue
        primes = full_factor(x).primes
        for a, b in zip(primes, primes[1:]):
            if a.p == b.p:
                assert p_conjugate(a) != b
        done += 1


def test_rational_primes_are_not_prime_here():
    # p is never a unit times a single prime of the order
    for p in (2, 3, 5, 7):
        f = full_factor(OrderElement(p, 0, 0, 0))
        atoms = f.r + len(f.primes) + (0 if f.content == 1 else 2)
        assert atoms >= 2
        assert not (f.content == 1 and f.r + len(f.primes) == 1)


def test_full_factor_rejects_zero():
    with pytest.raises(ValueError):
        full_factor(ZERO)


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(r=-1, unit=ONE, sign=1, content=1, primes=())
    with pytest.raises(ValueError):
        Factorization(r=0, unit=ONE, sign=2, content=1, primes=())
    with pytest.raises(ValueError):
        Factorization(r=0, unit=ONE, sign=1, content=2, primes=())
    with pytest.raises(ValueError):
        Factorization(r=0, unit=V3 + I, sign=1, content=1, primes=())


def test_factorization_json():
    f = full_factor(OrderElement(3, 1, 1, 0))
    blob = f.to_json()
    assert blob["r"] == f.r and blob["content"] == f.content
    assert blob["unit"] == f.unit.to_json()
    assert [p["v"] for p in blob["primes"]] == [list(p.element.coords) for p in f.primes]
