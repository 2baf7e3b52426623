"""Property tests for the ring axioms and the immutable records.

Derandomized and without an example database, so every run draws the same
examples.  Coordinates go up to 1e30.
"""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quat1122 import (
    CountResult,
    DivisionResult,
    GcdResult,
    MatrixModM,
    OrderElement,
    PrimaryPrime,
    ResidueElement,
    RSParams,
    primary_primes_of_norm,
    solve_rs,
)
from quat1122.core import ONE_PLUS_I, Record, exact_quotient
from quat1122.repcount import Restriction

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=300)

coords = st.integers(-10**30, 10**30)
nonzero = coords.filter(bool)
elements = st.builds(OrderElement, coords, coords, coords, coords)
sides = st.sampled_from(["left", "right"])
odd_moduli = st.integers(0, 499).map(lambda k: 2 * k + 1)


# -- ring axioms --------------------------------------------------------------

@PROFILE
@given(elements, elements, elements)
def test_multiplication_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@PROFILE
@given(elements, elements, elements)
def test_multiplication_distributes_on_both_sides(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@PROFILE
@given(elements, elements)
def test_conjugation_reverses_products_and_norm_is_multiplicative(a, b):
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()
    assert (a * b).norm() == a.norm() * b.norm()


@PROFILE
@given(elements, nonzero)
def test_exact_quotient_inverts_the_integer_multiple(e, n):
    assert exact_quotient(e * n, n) == e


@PROFILE
@given(elements, nonzero.filter(lambda n: abs(n) > 1), st.integers(0, 3), coords)
def test_exact_quotient_refuses_a_non_multiple(e, n, k, r):
    # Coordinate k of e*n moved by 1 .. |n|-1: not divisible by n, whatever its sign.
    g = list((e * n).coords)
    g[k] += 1 + r % (abs(n) - 1)
    with pytest.raises(ArithmeticError, match="is not divisible by"):
        exact_quotient(OrderElement(*g), n)


# -- records ------------------------------------------------------------------

def _residues(m):
    return st.builds(ResidueElement.make, st.just(m), coords, coords, coords, coords)


parities = st.sampled_from([None, 0, 1])
primary_primes = st.sampled_from(
    (PrimaryPrime(ONE_PLUS_I, 2),) + primary_primes_of_norm(3) + primary_primes_of_norm(101))

#: Every record type, with a strategy for its valid instances.
RECORDS = {
    OrderElement: elements,
    DivisionResult: st.builds(DivisionResult, elements, elements, sides),
    GcdResult: st.builds(GcdResult, elements, st.tuples(elements, elements), sides),
    ResidueElement: odd_moduli.flatmap(_residues),
    RSParams: odd_moduli.map(solve_rs),
    MatrixModM: st.builds(MatrixModM.make, odd_moduli, coords, coords, coords, coords),
    Restriction: st.builds(
        Restriction, st.lists(st.tuples(parities, parities, parities, parities),
                              min_size=1, max_size=2).map(tuple),
        st.none() | st.integers(0, 3),
        st.lists(st.integers(1, 24), min_size=1, max_size=3).map(tuple)),
    CountResult: st.builds(CountResult, st.integers(1, 10**30),
                           st.tuples(st.integers(0, 60), st.integers(1, 10**30))),
    PrimaryPrime: primary_primes,
}


def _twin(cls):
    """A record class with the same name and fields as cls, but another class."""
    return type(Record)(cls.__name__, (Record,),
                        {"__annotations__": dict.fromkeys(cls._fields, "object")})


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    twin = _twin(cls)

    @PROFILE
    @given(RECORDS[cls])
    def check(record):
        assert type(record) is cls and not hasattr(record, "__dict__")
        values = [getattr(record, name) for name in cls._fields]
        for same in (cls(*values), cls(**dict(zip(cls._fields, values)))):
            assert same == record and not same != record
            assert hash(same) == hash(record) == hash(tuple(values))
        other = twin(*values)
        assert other != record and record != other
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record
        if cls is OrderElement:
            assert eval(repr(record)) == record
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert getattr(record, cls._fields[0]) is values[0]

    check()


def test_record_fields_follow_the_annotations():
    for cls in RECORDS:
        assert cls._fields == cls.__slots__ == tuple(cls.__annotations__)


def test_record_repr_and_checks():
    assert repr(CountResult(3744, (3, 125))) == \
        "CountResult(formula_count=3744, decomposition=(3, 125))"
    assert repr(OrderElement(1, -2, 0, 3)) == "OrderElement(g1=1, g2=-2, g3=0, g4=3)"
    with pytest.raises(ValueError, match="coordinate 5 not reduced mod 3"):
        ResidueElement(3, 5, 0, 0, 0)
    with pytest.raises(ValueError, match="modulus must be odd"):
        MatrixModM(m=4, a=0, b=0, c=0, d=0)


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),                                  # missing field
    ((1, (0, 1), 3), {}),                        # extra field
    ((1,), {"formula_count": 1}),                # a field twice
    ((1,), {"decomposition": (0, 1), "r": 0}),   # unknown field
])
def test_record_constructor_rejects_wrong_fields(args, kwargs):
    with pytest.raises(TypeError, match="formula_count, decomposition"):
        CountResult(*args, **kwargs)


# -- the records over Z/m -----------------------------------------------------

MOD_M_RECORDS = (ResidueElement, MatrixModM)
by_name = pytest.mark.parametrize("cls", MOD_M_RECORDS, ids=lambda cls: cls.__name__)


@by_name
def test_mod_m_record_refuses_an_unreduced_entry(cls):
    @PROFILE
    @given(odd_moduli, st.integers(0, 3), st.integers(0, 10**30), st.booleans())
    def check(m, slot, k, below):
        value = -1 - k if below else m + k
        entries = [0, 0, 0, 0]
        entries[slot] = value
        with pytest.raises(ValueError, match=f"^coordinate {value} not reduced mod {m}$"):
            cls(m, *entries)
        assert cls.make(m, *entries) == cls(m, *(x % m for x in entries))

    check()


@by_name
def test_mod_m_record_refuses_an_even_or_nonpositive_modulus(cls):
    @PROFILE
    @given(st.just(0) | st.integers(-10**30, 10**30).filter(lambda m: m < 1 or m % 2 == 0))
    def check(m):
        for build in (cls, cls.make):
            with pytest.raises(ValueError, match=f"^modulus must be odd and positive, got {m}$"):
                build(m, 0, 0, 0, 0)

    check()


@by_name
def test_mod_m_record_sum_and_product_refuse_mismatched_moduli(cls):
    @PROFILE
    @given(RECORDS[cls], st.integers(1, 10**6), st.tuples(coords, coords, coords, coords))
    def check(a, shift, entries):
        b = cls.make(a.m + 2 * shift, *entries)
        for op in (lambda x, y: x + y, lambda x, y: x * y):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError, match=f"^mismatched moduli {x.m} and {y.m}$"):
                    op(x, y)
        same = cls.make(a.m, *entries)
        assert a + same == cls.make(a.m, *(x + y for x, y in zip(a._key(a)[1:], entries)))

    check()


@by_name
def test_mod_m_record_is_primitive_agrees_with_gcd(cls):
    @PROFILE
    @given(odd_moduli, st.integers(0, 6), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def check(m, scale, small):
        # scaling by a divisor of m makes common factors with m frequent
        d = math.gcd(m, scale) or 1
        record = cls.make(m, *(d * x for x in small))
        fields = [getattr(record, name) for name in cls._fields]
        assert record.is_primitive() == (math.gcd(*fields) == 1)

    check()
