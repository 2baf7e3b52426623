"""The table-first trial division agrees with the plain one it replaced.

``tests/intarith_reference.py`` keeps ``is_prime`` and ``factorize`` as
they were before the table of small primes; every check here compares the
library against that copy, with the most care at the hand-off from the
table to the loops past it and at the edges of the table's gcd-filtered
blocks.  The table's bound was 2^14 before it was 2^15, and both hand-offs
stay checked.
"""

import math
import random
from itertools import combinations
from math import prod

import pytest

import intarith_reference as ref
import quat1122.intarith
from quat1122.intarith import (
    _BLOCK,
    _SIEVE_BOUND,
    FACTOR_BOUND,
    _blocks,
    _small_primes,
    factorize,
    is_prime,
)

#: The primes on either side of 2^14 and of 2^28, and of 2^15 and of 2^30.
BELOW_2_14, ABOVE_2_14, NEXT_ABOVE_2_14 = 16381, 16411, 16417
BELOW_2_28, ABOVE_2_28 = 268435399, 268435459
BELOW_2_15, ABOVE_2_15, NEXT_ABOVE_2_15 = 32749, 32771, 32779
BELOW_2_30, ABOVE_2_30 = 1073741789, 1073741827

HAND_OFF = [
    ABOVE_2_14**2, ABOVE_2_14**2 - 2, ABOVE_2_14 * NEXT_ABOVE_2_14, BELOW_2_14**2,
    BELOW_2_14**3, BELOW_2_14 * ABOVE_2_28, ABOVE_2_14 * ABOVE_2_28,
    BELOW_2_28, ABOVE_2_28, 2**28, 2**28 + 1, 16385**2, 16387**2,
    BELOW_2_15, ABOVE_2_15, NEXT_ABOVE_2_15, BELOW_2_30, ABOVE_2_30,
    ABOVE_2_15**2 - 2, BELOW_2_15**2, BELOW_2_15**3, BELOW_2_15 * ABOVE_2_30,
    ABOVE_2_15 * ABOVE_2_30, 2**30, 2**30 + 1, 32773**2,
    FACTOR_BOUND, FACTOR_BOUND - 1,
]


#: The first and the last prime of every block of the table.
BLOCK_EDGES = sorted({p for block, _ in _blocks() for p in (block[0], block[-1])})


def assert_same_factorization(n):
    """Same primes, exponents and key order as the reference."""
    assert list(factorize(n).items()) == list(ref.factorize(n).items()), n


def assert_agrees(values):
    for n in values:
        assert is_prime(n) == ref.is_prime(n), n
        assert_same_factorization(n)


def test_table_is_the_primes_below_its_bound():
    assert _SIEVE_BOUND == 2**15
    table = _small_primes()
    assert table is _small_primes()
    assert len(table) == 3512 and table[-1] == BELOW_2_15
    # a sieve with no shortcuts: every n >= 2 strikes all its multiples
    marks = [True] * _SIEVE_BOUND
    marks[0] = marks[1] = False
    for n in range(2, _SIEVE_BOUND):
        for multiple in range(2 * n, _SIEVE_BOUND, n):
            marks[multiple] = False
    assert list(table) == [n for n in range(_SIEVE_BOUND) if marks[n]]


def test_blocks_cut_the_table_in_order():
    blocks = _blocks()
    assert blocks is _blocks()
    assert [p for block, _ in blocks for p in block] == list(_small_primes())
    assert {len(block) for block, _ in blocks[:-1]} == {_BLOCK}
    assert all(product == prod(block) for block, product in blocks)
    assert blocks[0][0][-1] == 311 and blocks[-1][0][-1] == BELOW_2_15


def test_agrees_with_reference_at_block_edges():
    # every edge prime alone, squared, cubed and times each later edge prime
    # (first times last of one block, and across blocks)
    assert_agrees(BLOCK_EDGES)
    assert_agrees(p**2 for p in BLOCK_EDGES)
    assert_agrees(p**3 for p in BLOCK_EDGES)
    assert_agrees(p * q for p, q in combinations(BLOCK_EDGES, 2))
    # an edge prime next to a prime past the table: the blocks, then the loops
    assert_agrees(p * q for p in BLOCK_EDGES
                  for q in (ABOVE_2_14, ABOVE_2_28, ABOVE_2_15, ABOVE_2_30))
    # The walk stops at the first block past the square root of what is left
    # to divide: a first-block prime times the first prime of each later
    # block, the square of an edge prime times a prime past the table, and
    # cofactors at 2^28 and 2^30 +- small after the first block or a prime
    # past it.
    starts = [block[0] for block, _ in _blocks()[1:]] + [ABOVE_2_14, ABOVE_2_15]
    assert_agrees(p * q for p in (2, 3, 311) for q in starts)
    assert_agrees(p * p * q for p in BLOCK_EDGES
                  for q in (ABOVE_2_14, NEXT_ABOVE_2_14, ABOVE_2_15, NEXT_ABOVE_2_15))
    assert_agrees(p * (2**e + k) for p in (2, 3, 311, 313, BELOW_2_14, BELOW_2_15)
                  for e in (28, 30) for k in range(-6, 7))


def test_agrees_with_reference_on_products_within_and_across_blocks():
    rng = random.Random(1801)
    blocks = [block for block, _ in _blocks()]
    same = [rng.choice(block) * rng.choice(block) for block in blocks for _ in range(8)]
    across = [rng.choice(a) * rng.choice(b) for a, b in combinations(blocks, 2)]
    assert_agrees(same + across)
    # a mid-table block's prime times the first prime of a later block, alone
    # and times 2^19 (the largest power of 2 that keeps every such product
    # within FACTOR_BOUND): the cofactor drops below the later block's square
    assert_agrees(rng.choice(a) * b[0] * m for a, b in combinations(blocks[1:], 2)
                  for m in (1, 2**19))


def test_walk_stops_at_the_square_root_of_what_is_left(monkeypatch):
    # Each gcd tests one block, the first included.  Once 2^20 comes off in
    # the first block, 16411 needs no later block; once 4759 comes off in
    # block 10, 5851 needs none past it, where a walk to sqrt(n) would test
    # all 55.
    tested = []
    monkeypatch.setattr(quat1122.intarith, "gcd", lambda n, m: tested.append(n) or math.gcd(n, m))
    n = 2**20 * ABOVE_2_14
    assert factorize(n) == {2: 20, ABOVE_2_14: 1}
    assert tested == [n]
    tested.clear()
    n = 2**20 * 4759 * 5851
    assert factorize(n) == {2: 20, 4759: 1, 5851: 1}
    assert tested == [n] + [4759 * 5851] * 10
    assert _blocks()[10][0][0] == 4759 and _blocks()[11][0][0] ** 2 > 5851


def test_one_gcd_decides_is_prime(monkeypatch):
    # A prime past the table takes one gcd per block, all 55; a factor in
    # the first block ends the walk at once.  210 = 2*3*5*7 shares all of
    # itself with the first block's product, yet it is not one of its primes.
    tested = []
    monkeypatch.setattr(quat1122.intarith, "gcd", lambda n, m: tested.append(n) or math.gcd(n, m))
    for n, gcds, prime in [(ABOVE_2_30, 55, True), (3 * ABOVE_2_30, 1, False), (210, 1, False)]:
        tested.clear()
        assert is_prime(n) is prime
        assert tested == [n] * gcds, n


@pytest.fixture
def table_bound(request, monkeypatch):
    # The table sieved again at another bound; the real one comes back after.
    monkeypatch.setattr(quat1122.intarith, "_SIEVE_BOUND", request.param)
    _small_primes.cache_clear()
    _blocks.cache_clear()
    yield request.param
    _small_primes.cache_clear()
    _blocks.cache_clear()


def nearest_primes(n, count, step):
    """The first count primes after n, going up (step 1) or down (step -1)."""
    out = []
    while len(out) < count:
        n += step
        if ref.is_prime(n):
            out.append(n)
    return out


@pytest.mark.parametrize("table_bound", [2**14, 2**15, 2**16], indirect=True)
def test_loops_past_the_table_start_where_it_ends(table_bound):
    # The 6k +- 1 loop starts from the bound: 2^15 + 1 is 3 mod 6, so a loop
    # started there would miss every prime that is 1 mod 6, such as 32779.
    assert _small_primes() == tuple(n for n in range(table_bound) if ref.is_prime(n))
    past = nearest_primes(table_bound, 3, 1)
    assert_agrees(past)
    assert_agrees(p * q for p in past for q in past if p <= q)
    square = table_bound**2
    assert_agrees(nearest_primes(square, 2, -1) + nearest_primes(square, 2, 1))


def test_agrees_with_reference_on_squarefree_runs_of_a_block():
    # A whole block's product lies past FACTOR_BOUND, so each block gives the
    # longest runs from its first and from its last prime that stay within it.
    values = []
    for block, _ in _blocks():
        for run in (block, block[::-1]):
            n = 1
            for p in run:
                if n * p > FACTOR_BOUND:
                    break
                n *= p
                values.append(n)
    assert_agrees(values)


def test_agrees_with_reference_below_2_17():
    for n in range(-3, 2**17):
        assert is_prime(n) == ref.is_prime(n), n
    for n in range(1, 2**17):
        assert_same_factorization(n)


def test_agrees_with_reference_on_seeded_large_n():
    # magnitudes drawn from every decade up to 10^13, so the draws around
    # 2^28 are not crowded out by the top decades
    rng = random.Random(1122)
    for _ in range(300):
        n = rng.randint(1, 10 ** rng.randint(1, 13))
        assert is_prime(n) == ref.is_prime(n), n
        assert_same_factorization(n)


@pytest.mark.parametrize("n", HAND_OFF)
def test_agrees_with_reference_at_the_hand_off(n):
    assert_agrees([n])
    keys = list(factorize(n))
    assert keys == sorted(keys)


def test_hand_off_values():
    assert is_prime(BELOW_2_28) and is_prime(ABOVE_2_28)
    assert not is_prime(ABOVE_2_14 * NEXT_ABOVE_2_14)
    assert factorize(ABOVE_2_14**2) == {ABOVE_2_14: 2}
    assert factorize(BELOW_2_14**3) == {BELOW_2_14: 3}
    assert factorize(BELOW_2_14 * ABOVE_2_28) == {BELOW_2_14: 1, ABOVE_2_28: 1}
    assert is_prime(BELOW_2_15) and is_prime(ABOVE_2_15) and is_prime(NEXT_ABOVE_2_15)
    assert is_prime(BELOW_2_30) and is_prime(ABOVE_2_30)
    assert factorize(NEXT_ABOVE_2_15**2) == {NEXT_ABOVE_2_15: 2}
    assert factorize(BELOW_2_15 * ABOVE_2_30) == {BELOW_2_15: 1, ABOVE_2_30: 1}


def test_nonpositive_n_is_refused():
    for n in (0, -7):
        with pytest.raises(ValueError, match="cannot factor"):
            factorize(n)
