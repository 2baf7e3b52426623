"""A grammar fuzz of the command line: no argv exits 2 or 3 or raises.

Derandomized Hypothesis draws argv for the seven verbs from a grammar of
their arguments and options: integers from -10^40 to 10^40, quaternion
texts both well-formed and malformed, ``--json`` on and off, options in any
order, and now and then a missing argument or a stray token.  Each call runs
in process through ``cli.main``; it must exit 0 or 1 without raising, print
no traceback, and print one JSON document whenever ``--json`` exits 0.

Sizes are drawn where a call costs milliseconds or past the verb's bound,
where it is refused before any work; never just inside a bound, where one
call can take seconds (``tests/test_cli.py`` times the refusals).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden.cli_corpus import MALFORMED, basis, half, run_cli
from quat1122.intarith import FACTOR_BOUND
from quat1122.modm import SOLVE_RS_BOUND
from quat1122.repcount import ENUMERATION_BOUND, ORACLE_BOUND, TABLE_BOUND

HUGE = 10**40
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def sized(cheap, bound: int):
    """A draw from cheap, or an integer past bound up to 10^40, or down to -10^40."""
    return st.one_of(cheap, st.integers(bound + 1, HUGE), st.integers(-HUGE, -1))


#: Any four coordinates.
ANY = st.tuples(*[st.integers(-HUGE, HUGE)] * 4)
#: Four coordinates for factor: all small, or each small or 10^10 to 10^40 in
#: magnitude.  An element with a huge coordinate is refused unless its
#: content leaves a small primitive part; coordinates between the two could
#: give a primitive norm just inside the factoring bound, which takes seconds.
SMALL = st.integers(-30, 30)
FACTORABLE = st.one_of(st.tuples(*[SMALL] * 4), st.tuples(*[st.one_of(
    SMALL, st.integers(10**10, HUGE), st.integers(-HUGE, -10**10))] * 4))


@st.composite
def quaternion(draw, coords=ANY) -> list[str]:
    kind = draw(st.sampled_from(["basis", "basis", "half", "half", "malformed"]))
    if kind == "malformed":
        return [draw(st.sampled_from(MALFORMED))]
    g = draw(coords)
    if kind == "basis":
        return [basis(g)]
    A, B, C, D = g
    if draw(st.integers(0, 3)):  # mostly A = B = C + D (mod 2), as an element needs
        A, B = A - (A - C - D) % 2, B - (B - C - D) % 2
    return [half(A, B, C, D)]


#: An optional --side; "up" is refused.
SIDE = st.sampled_from([[], ["--side", "left"], ["--side", "right"]] * 2 + [["--side", "up"]])
#: Tokens that no verb expects; none abbreviates --help.
STRAY = st.sampled_from(["--bogus", "-x", "--", "-", "7", "[1,0,0,0]", "--json=1", "--sid"])
#: The theorems' shapes n = 2^r * m with m odd, and restrictions that are refused.
SHAPES = {"none": 0, "i": 2, "ii": 3, "iii": 2, "iii-zodd": 2, "iv": 0}
ODD = st.integers(0, 1000).map(lambda k: 2 * k + 1)
SMALL_ODD = st.integers(0, 100).map(lambda k: 2 * k + 1)
SMALL_PRIMES = st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11, 13, 101, 211, 307, 499])


@st.composite
def count_args(draw):
    restriction = draw(st.sampled_from(sorted(SHAPES)))
    shaped = ODD.map(lambda m: m << SHAPES[restriction])
    oracle = draw(st.booleans())
    # The oracle enumerates about n pairs; the formula trial-divides up to sqrt(n).
    cheap = st.one_of(shaped, st.integers(-10, 2000 if oracle else 10**6))
    n = draw(sized(cheap, ORACLE_BOUND if oracle else FACTOR_BOUND))
    chunks = [[str(n)], ["--restriction", restriction]]
    if oracle:
        chunks.append(["--oracle"])
    return chunks


def _args(*chunks):
    return st.tuples(*chunks).map(list)


#: For each verb, its arguments as chunks of tokens that stay together.
VERBS = {
    "count": count_args(),
    "factor": _args(quaternion(FACTORABLE)),
    "gcd": _args(quaternion(), quaternion(), SIDE),
    "tau": _args(sized(st.one_of(SMALL_ODD, st.integers(-10, 200)), SOLVE_RS_BOUND).map(
        lambda m: ["-m", str(m)]), quaternion()),
    "primary": _args(quaternion(), SIDE),
    "primes": _args(sized(SMALL_PRIMES, ENUMERATION_BOUND).map(lambda p: ["-p", str(p)])),
    "verify": _args(sized(st.integers(-10, 300), TABLE_BOUND).map(lambda n: ["--max-n", str(n)])),
}


@st.composite
def argvs(draw, verb: str) -> list[str]:
    chunks = draw(VERBS[verb])
    if draw(st.booleans()):
        chunks.append(["--json"])
    chunks = draw(st.permutations(chunks))
    mishap = draw(st.sampled_from(["none"] * 8 + ["drop", "stray"]))
    if mishap == "drop":
        chunks = chunks[1:]
    elif mishap == "stray":
        chunks.append([draw(STRAY)])
    return [verb, *(token for chunk in chunks for token in chunk)]


@pytest.mark.parametrize("verb", sorted(VERBS))
@PROFILE
@given(data=st.data())
def test_every_drawn_argv_exits_0_or_1(verb, data):
    argv = data.draw(argvs(verb), label="argv")
    got = run_cli(argv)
    assert got["exit"] in (0, 1), got
    assert "Traceback" not in got["stderr"], got
    if got["exit"] == 0 and "--json" in argv:
        json.loads(got["stdout"])
