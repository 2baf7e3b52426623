"""Seeded generator of the CLI golden corpus, ``tests/golden/cli.jsonl``.

Each line of the corpus is one ``quat1122`` call run in process through
``cli.main``: its argv, exit code, stdout and stderr.  Every verb appears in
text and ``--json`` form and on both sides where it has them, with
coordinates up to 1e30, half forms, malformed quaternions, usage errors and
each refusal just past its bound.  argparse words its own usage errors
differently across Python versions, so those entries pin only the exit code
and the ``error: `` prefix (key ``stderr_prefix`` instead of ``stderr``).

Regenerating the corpus is a reviewed change: every entry that moves needs a
reason.  Run from the repository root:

    PYTHONPATH=src python tests/golden/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "cli.jsonl"
SEED = 1122

#: Bounds the refusals sit just past, as the library states them.
COUNT_BOUND = 10**15
ORACLE_BOUND = 10**6
SOLVE_RS_BOUND = 10**7
ENUMERATION_BOUND = 2 * 10**4
TABLE_BOUND = 2 * 10**5

#: Usage errors worded by argparse itself: only the exit code and prefix are pinned.
ARGPARSE_ERRORS = [
    [],
    ["frobnicate"],
    ["count"],
    ["count", "abc"],
    ["count", "1e30"],
    ["count", "12", "--restriction", "iv"],
    ["count", "12", "--bogus"],
    ["factor"],
    ["factor", "[1,0,0,0]", "extra"],
    ["gcd", "[1,0,0,0]"],
    ["gcd", "--side", "up", "[1,0,0,0]", "[1,0,0,0]"],
    ["tau", "[0,1,0,0]"],
    ["tau", "-m", "x", "[0,1,0,0]"],
    ["primary", "--side", "middle", "[1,0,0,0]"],
    ["primes"],
    ["primes", "-p", "2.5"],
    ["verify", "--max-n", "ten"],
]

#: Quaternion texts that parse() refuses; their messages are this library's own.
MALFORMED = [
    "[1,2]", "[1,2,3,4", "[1,2,3,4,5]", "[1_0,0,0,0]", "[a,b,c,d]", "[1,,2,3]",
    "[1.5,0,0,0]", "1+i", "", "(1+i)/2", "(1+i+r2j)/2", "(2r2j2)/2", "()/2",
    "(+)/2", "(2+i-)/2", "(2+2x)/2", "(2+2i)/3", "(2+2i+2r2j+2r2k",
]


def run_cli(argv: list[str]) -> dict:
    """Run ``cli.main(argv)`` in process; its exit code and captured output."""
    from quat1122 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def basis(g) -> str:
    return "[" + ",".join(map(str, g)) + "]"


def half(A, B, C, D) -> str:
    return f"({A}{B:+d}i{C:+d}r2j{D:+d}r2k)/2"


def coords(rng: random.Random, bound: int) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(4)]


def half_coords(rng: random.Random, bound: int) -> tuple[int, int, int, int]:
    """Half coordinates of an element: A = B = C + D (mod 2)."""
    C, D = rng.randint(-bound, bound), rng.randint(-bound, bound)
    parity = (C + D) % 2
    A = 2 * rng.randint(-bound, bound) + parity
    B = 2 * rng.randint(-bound, bound) + parity
    return A, B, C, D


def quaternion(rng: random.Random, bound: int) -> str:
    if rng.random() < 0.3:
        return half(*half_coords(rng, bound))
    return basis(coords(rng, bound))


def argvs(rng: random.Random) -> list[list[str]]:
    """Every call of the corpus except the argparse-worded usage errors."""
    calls: list[list[str]] = []

    # count: formula alone, restricted shapes, oracle-checked, refusals
    for _ in range(24):
        calls.append(["count", str(rng.randint(1, 10**9))])
    for restriction, shift in (("i", 2), ("ii", 3), ("iii", 2)):
        for _ in range(4):
            n = (2 * rng.randint(0, 10**6) + 1) << shift
            calls.append(["count", str(n), "--restriction", restriction])
        calls.append(["count", str(2 * rng.randint(1, 10**6) + 1), "--restriction",
                      restriction])
    for _ in range(8):
        restriction = rng.choice(["none", "i", "ii", "iii"])
        n = rng.randint(1, 2000)
        if restriction != "none":
            n = (2 * rng.randint(0, 200) + 1) << (3 if restriction == "ii" else 2)
        calls.append(["count", str(n), "--restriction", restriction, "--oracle"])
    calls += [["count", "1"], ["count", "0"], ["count", "-5"],
              ["count", str(COUNT_BOUND)], ["count", str(COUNT_BOUND + 1)],
              ["count", str(10**30)],
              ["count", str(ORACLE_BOUND + 1), "--oracle"],
              ["count", "8", "--restriction", "i"]]
    # n at the hand-off from the table of primes below 2^14 to plain trial
    # division: 16411 and 16417 are the first primes past 2^14, 268435399 and
    # 268435459 the primes on either side of 2^28
    calls += [["count", str(16411 * 16417)], ["count", str(16411**2)],
              ["count", str(16381**3)], ["count", "268435399"], ["count", "268435459"],
              ["count", str(16381 * 268435459)],
              ["count", str(4 * 16411 * 16417), "--restriction", "i"]]
    # n at the edges of the table's 64-prime blocks: 311 | 313 and 719 | 727
    # end and start blocks 0, 1 and 2, 2131..2657 is block 5 and 15923..16381
    # the last block; 2131*2137*2141*2143 is block 5's first four primes
    calls += [["count", str(311 * 313)], ["count", str(313**2)], ["count", str(719 * 727)],
              ["count", str(15923 * 16381)], ["count", str(3 * 15923**2)],
              ["count", str(2131 * 2137 * 2141 * 2143)],
              ["count", str(4 * 311 * 313), "--restriction", "i"]]

    # factor: small coordinates, contents and powers of 2 up to 1e30, half forms
    for _ in range(30):
        calls.append(["factor", quaternion(rng, 1000)])
    for _ in range(12):
        g = coords(rng, 30)
        k = rng.choice([2 * rng.randint(1, 10**28) + 1, 2 ** rng.randint(1, 90),
                        3 ** rng.randint(1, 60)])
        calls.append(["factor", basis([k * x for x in g])])
    for _ in range(4):
        A, B, C, D = half_coords(rng, 10**6)
        calls.append(["factor", half(A, B, C, D)])
    calls += [["factor", "[0,0,0,0]"], ["factor", "[1,0,0,0]"], ["factor", "[6,3,1,-2]"],
              ["factor", "(1+i+r2j+r2k)/2"],
              # primitive norm 31622777^2 + 4 lies just past the factoring bound
              ["factor", "[31622777,2,0,0]"],
              ["factor", "[100000000000000000000000000001,0,0,1]"]]
    # primitive norms 16411*16417, 16411^2, 3*268435459, 16381*268435459 and
    # 5*7*268435459: prime factors just past 2^14 and just past 2^28; the last
    # element is twice the first, so (1+i)^2 is peeled before the same norm
    calls += [["factor", "[16236,2403,2,0]"], ["factor", "[15111,6388,8,0]"],
              ["factor", "[28297,2084,8,0]"], ["factor", "[2096612,36663,54,0]"],
              ["factor", "[96884,2519,24,0]"], ["factor", "[32472,4806,4,0]"]]
    # primitive norms at the edges of the table's blocks: 311*313, 719*727,
    # 3*15923^2, 7*2131*2657 and 15923*16381
    calls += [["factor", "[307,32,6,0]"], ["factor", "[691,186,8,4]"],
              ["factor", "[25868,9553,2,4]"], ["factor", "[6287,286,2,2]"],
              ["factor", "[14318,7469,2,0]"]]

    # gcd: both sides, coordinates up to 1e30
    for _ in range(30):
        bound = rng.choice([10, 10**6, 10**30])
        calls.append(["gcd", "--side", rng.choice(["left", "right"]),
                      quaternion(rng, bound), quaternion(rng, bound)])
    calls += [["gcd", "[2,0,0,0]", "[1,1,0,0]"],
              ["gcd", "--side", "left", "[2,0,0,0]", "[1,1,0,0]"],
              ["gcd", "[0,0,0,0]", "[0,0,0,0]"], ["gcd", "[0,0,0,0]", "[7,1,2,3]"],
              ["gcd", "[7,1,2,3]", "[0,0,0,0]"],
              ["gcd", "--side", "left", "[7,1,2,3]", "[0,0,0,0]"],
              ["gcd", "--side", "left", "[0,0,0,0]", "[7,1,2,3]"]]

    # tau: odd moduli up to 10^4, coordinates up to 1e30, refusals
    for _ in range(24):
        m = 2 * rng.randint(0, 5000) + 1
        calls.append(["tau", "-m", str(m), quaternion(rng, rng.choice([10, 10**30]))])
    calls += [["tau", "-m", "1", "[1,2,3,4]"], ["tau", "-m", "15", "[0,1,0,0]"],
              ["tau", "-m", "4", "[0,1,0,0]"], ["tau", "-m", "0", "[0,1,0,0]"],
              ["tau", "-m", "-3", "[0,1,0,0]"],
              ["tau", "-m", str(SOLVE_RS_BOUND + 1), "[0,1,0,0]"],
              ["tau", "-m", "99999999977", "[0,1,0,0]"]]

    # primary: both sides, odd and even norms, coordinates up to 1e30
    for _ in range(30):
        calls.append(["primary", quaternion(rng, rng.choice([10, 10**6, 10**30])),
                      "--side", rng.choice(["left", "right"])])
    calls += [["primary", "[3,0,0,0]"], ["primary", "[1,1,0,0]"],
              ["primary", "[0,0,0,0]"]]

    # primes: small odd primes, non-primes, refusals
    for p in (3, 5, 7, 11, 13, 17, 97, 101, 499, 1009):
        calls.append(["primes", "-p", str(p)])
    calls += [["primes", "-p", "2"], ["primes", "-p", "9"], ["primes", "-p", "1"],
              ["primes", "-p", "0"], ["primes", "-p", "-7"],
              ["primes", "-p", str(ENUMERATION_BOUND + 1)],
              ["primes", "-p", "1000000000000000003"]]

    # verify: small sweeps and the refusal just past the table bound
    for n in (0, 1, 2, 10, 64, 300):
        calls.append(["verify", "--max-n", str(n)])
    calls += [["verify", "--max-n", "-1"], ["verify", "--max-n", str(TABLE_BOUND + 1)]]

    # malformed quaternions, through every verb that parses one
    for text in MALFORMED:
        calls.append(["factor", text])
    for text in MALFORMED[:6]:
        calls += [["gcd", text, "[1,0,0,0]"], ["primary", text],
                  ["tau", "-m", "5", text]]
    return calls


def build() -> list[dict]:
    rng = random.Random(SEED)
    entries = []
    for argv in argvs(rng):
        entries.append(run_cli(argv))
        entries.append(run_cli(argv + ["--json"]))
    for argv in ARGPARSE_ERRORS:
        entry = run_cli(argv)
        if entry["exit"] != 1 or not entry["stderr"].startswith("error: "):
            raise AssertionError(f"{argv} is not a usage error: {entry}")
        del entry["stderr"]
        entry["stderr_prefix"] = "error: "
        entries.append(entry)
    return entries


def main() -> int:
    entries = build()
    with CORPUS.open("w", encoding="utf-8", newline="\n") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
