"""The benchmark workloads: seeded inputs, one operation, its check.

Each workload turns a seed into an endless, reproducible stream of
operations; the library sees only these generated inputs.  Operations come
in rounds: ``round_len`` consecutive operations cover every input class
(cost stratum, verb form) exactly once, and a timed run stops on
a round boundary so that every run has the same mix.  Sizes that drive the cost of
an operation continuously (``tau``'s m, ``primes``'s p, ``verify``'s N, the
oracle's n) are drawn from a low-discrepancy sequence with a seeded start,
so that a run of a few dozen operations already covers their range evenly.
"""

from __future__ import annotations

import bisect
import functools
import io
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator, NamedTuple

from quat1122 import cli, factor
from quat1122.core import ONE_PLUS_I, OrderElement

import checks

SIDES = ("right", "left")
BIG_PRIME = 10**9
_GOLDEN = (5**0.5 - 1) / 2


class _Even:
    """Draws in [0, 1) from the golden-ratio sequence, started at a seeded point."""

    def __init__(self, rng: Random):
        self._u = rng.random()

    def __call__(self) -> float:
        self._u = (self._u + _GOLDEN) % 1.0
        return self._u


def _element(rng: Random, bound: int) -> OrderElement:
    while True:
        e = OrderElement(*(rng.randint(-bound, bound) for _ in range(4)))
        if not e.is_zero:
            return e


def _shares(counter: Counter, total: int) -> dict:
    return {str(key): count / total for key, count in sorted(counter.items())}


def main_inproc(argv: list[str]) -> tuple[int, str]:
    """Run ``quat1122 argv`` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int], Iterator]  # seed -> endless stream of operations
    run: Callable  # op -> result; the operation as timed
    check: Callable  # (op, result) -> None, or the reason the result is wrong
    shares: Callable  # (ops, results) -> measured shares of input properties
    round_len: int  # consecutive ops that cover every input class once
    trace_ops: int  # fixed number of ops in a traced run
    replay: Callable | None = None  # in-process form of run, for traced runs


# -- factor: one full factorization ------------------------------------------

# 135 strata put both the median and the 90th percentile in the middle of a
# stratum (ranks 67.5 and 121.5), not on a boundary between two, where they
# would follow the extremes of the neighbouring strata from seed to seed.
# Narrower strata also narrow the range the 90th percentile can take.
FACTOR_STRATA = 135
_SMALL_PRIMES = tuple(p for p in range(2, 1000)
                      if all(p % d for d in range(2, int(p**0.5) + 1)))


def _factor_candidates(rng: Random) -> Iterator[OrderElement]:
    while True:
        x = _element(rng, 10**6)
        if rng.random() < 0.5:
            # The two input forms weigh equally: half the candidates carry a
            # dyadic part and an odd content, so that the valuation and
            # content paths run too.
            x = ONE_PLUS_I ** rng.randint(0, 6) * (x * rng.randrange(1, 100, 2))
        yield x


def _cost_key(x: OrderElement) -> tuple:
    """Orders elements by the trial-division work that factoring them takes.

    That work grows with the square root of the norm's cofactor free of
    primes below 1000, and with the cofactor itself when it is prime.  The
    coordinates break ties.
    """
    n = x.norm()
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
    return (n if checks.is_prime(n) else math.isqrt(n), x.coords)


@functools.cache
def _factor_strata() -> tuple:
    # Quantiles of the cost key over a fixed sample, the same for every seed.
    sample = sorted(map(_cost_key, itertools.islice(
        _factor_candidates(Random("factor:strata")), 50 * FACTOR_STRATA)))
    return tuple(sample[len(sample) * k // FACTOR_STRATA] for k in range(1, FACTOR_STRATA))


def _factor_ops(seed: int) -> Iterator[OrderElement]:
    # Stratified sampling: each round takes the first candidate to fall in
    # each cost stratum, so every run sees the cost tail in the same share.
    edges = _factor_strata()
    candidates = _factor_candidates(Random(f"factor:{seed}"))
    while True:
        empty = set(range(FACTOR_STRATA))
        for x in candidates:
            stratum = bisect.bisect(edges, _cost_key(x))
            if stratum in empty:
                empty.remove(stratum)
                yield x
                if not empty:
                    break


def _factor_check(x: OrderElement, fact) -> str | None:
    if any(pi.p != pi.element.norm() for pi in fact.primes):
        return "a prime's p differs from its norm"
    return checks.factorization(x, fact.r, fact.unit, fact.sign, fact.content,
                                [pi.element for pi in fact.primes])


def _factor_shares(ops, results) -> dict:
    facts = [f for f in results if not isinstance(f, BaseException)]
    n = len(facts) or 1
    return {"r>0": sum(f.r > 0 for f in facts) / n,
            "content>1": sum(f.content > 1 for f in facts) / n,
            "prime>1e9": sum(any(pi.p > BIG_PRIME for pi in f.primes) for f in facts) / n}


# -- cli: one `python -m quat1122.cli <verb> ... --json` process --------------

class CliOp(NamedTuple):
    slot: str
    verb: str
    argv: list
    params: dict


# One slot per verb form: each of the seven verbs, with count split into its
# formula and oracle forms.
_CLI_SLOTS = ("factor", "gcd", "primary", "tau", "count", "count-oracle", "primes", "verify")
_HEAVY_PRIMES = tuple(p for p in _SMALL_PRIMES if p > 500)
_RESTRICTIONS = ("none", "i", "none", "ii", "iii")


def _odd_element(rng: Random, bound: int) -> OrderElement:
    while True:
        e = _element(rng, bound)
        if e.norm() % 2:
            return e


def _cli_op(slot: str, rng: Random, even: dict, cycle: dict) -> CliOp:
    if slot == "factor":
        x = _element(rng, 10**6)
        params, args = {"x": x}, [str(x)]
    elif slot == "gcd":
        a, b, s = _element(rng, 10**12), _element(rng, 10**12), next(cycle["gcd"])
        params, args = {"a": a, "b": b, "side": s}, ["--side", s, str(a), str(b)]
    elif slot == "primary":
        x, s = _odd_element(rng, 10**6), next(cycle["primary"])
        params, args = {"x": x, "side": s}, [str(x), "--side", s]
    elif slot == "tau":
        m = int(10 ** (3 + 2 * even["tau"]())) | 1  # odd, log-uniform in [1e3, 1e5]
        x = _element(rng, 10**6)
        params, args = {"m": m, "x": x}, ["-m", str(m), str(x)]
    elif slot == "count":
        n = rng.randint(1, 10**12)
        params, args = {"n": n, "restriction": "none", "oracle": False}, [str(n)]
    elif slot == "count-oracle":
        restriction, u = next(cycle[slot]), even[slot]()
        if restriction == "none":
            n = 10000 + int(u * 10000)
        elif restriction == "ii":
            n = 8 * (1251 + 2 * int(u * 625))
        else:
            n = 4 * (2501 + 2 * int(u * 1250))
        params = {"n": n, "restriction": restriction, "oracle": True}
        args = [str(n), "--oracle"] + (["--restriction", restriction]
                                       if restriction != "none" else [])
    elif slot == "primes":
        p = _HEAVY_PRIMES[int(even[slot]() * len(_HEAVY_PRIMES))]
        params, args = {"p": p}, ["-p", str(p)]
    else:
        max_n = 500 + int(even["verify"]() * 2500)
        params, args = {"max_n": max_n}, ["--max-n", str(max_n)]
    verb = slot.split("-")[0]
    return CliOp(slot, verb, [verb, *args, "--json"], params)


def _cli_ops(seed: int) -> Iterator[CliOp]:
    rng = Random(f"cli:{seed}")
    even = {slot: _Even(rng) for slot in ("tau", "count-oracle", "primes", "verify")}
    cycle = {verb: itertools.cycle(SIDES) for verb in ("gcd", "primary")}
    # A restriction in three of five oracle counts, in a fixed cycle from a
    # seeded start, so that every run has the same mix of their costs.
    cycle["count-oracle"] = itertools.islice(
        itertools.cycle(_RESTRICTIONS), rng.randrange(len(_RESTRICTIONS)), None)
    while True:
        slots = list(_CLI_SLOTS)
        rng.shuffle(slots)
        for slot in slots:
            yield _cli_op(slot, rng, even, cycle)


def spawn(argv: list[str], env: dict, cwd: str) -> tuple[int, str, int]:
    """Run a process to completion; returns (exit code, output, peak RSS in KiB).

    The child is reaped with wait4 so that its own peak RSS is known.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=cwd)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss


def _cli_check(op: CliOp, res) -> str | None:
    return checks.cli(op.verb, op.params, res[0], res[1])


def _cli_shares(ops, results) -> dict:
    return {"slot": _shares(Counter(op.slot for op in ops), len(ops))}


def build(env: dict, cwd: str) -> dict[str, Workload]:
    """The workloads by name; ``cli`` processes run with this env and cwd."""

    def cli_run(op: CliOp):
        return spawn([sys.executable, "-m", "quat1122.cli", *op.argv], env, cwd)

    workloads = [
        Workload("factor", _factor_ops, lambda x: factor.full_factor(x),
                 _factor_check, _factor_shares, round_len=FACTOR_STRATA, trace_ops=2 * FACTOR_STRATA),
        Workload("cli", _cli_ops, cli_run, _cli_check, _cli_shares,
                 round_len=len(_CLI_SLOTS), trace_ops=50,
                 replay=lambda op: main_inproc(op.argv)),
    ]
    return {w.name: w for w in workloads}
