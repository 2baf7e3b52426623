"""Self-tests of the benchmark itself.

Usage (from the root of a checkout): python3 bench/selftest.py [-v]

They check that inputs follow the seed, that wrong results are counted as
failed, that a run prints every metric BENCHMARK.json names with its unit,
that per-layer self times stay within their span totals and that a run
refuses to start without the library's sources.  The file is not named
test_*.py so that the repository's test suite does not collect it.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

run.load_library()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quat1122 import euclid, factor  # noqa: E402
from quat1122.core import ONE_PLUS_I, OrderElement  # noqa: E402

WORKLOADS = workloads.build(run.child_env(), str(run.ROOT))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def first_ops(name: str, seed: int, count: int = 24) -> list:
    return list(itertools.islice(WORKLOADS[name].ops(seed), count))


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run.BENCH / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True, check=False)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(first_ops(name, 7), first_ops(name, 7))
                self.assertNotEqual(first_ops(name, 7), first_ops(name, 8))

    def test_rounds_cover_each_input_class_once(self):
        slots = [op.slot for op in first_ops("cli", 3, len(workloads._CLI_SLOTS))]
        self.assertEqual(sorted(slots), sorted(workloads._CLI_SLOTS))
        edges = workloads._factor_strata()
        strata = {bisect.bisect(edges, workloads._cost_key(x))
                  for x in first_ops("factor", 3, workloads.FACTOR_STRATA)}
        self.assertEqual(len(strata), workloads.FACTOR_STRATA)


class WrongResultsFail(unittest.TestCase):
    def assert_fails(self, name, op, good, bad):
        workload = WORKLOADS[name]
        self.assertEqual(run.failures(workload, [op], [good]), {})
        self.assertIn(0, run.failures(workload, [op], [bad]))

    def test_gcd_times_a_non_unit(self):
        ops = [op for op in first_ops("cli", 1, 32) if op.verb == "gcd"]
        self.assertEqual(len(ops), 4)
        for op in ops:
            a, b, side = op.params["a"], op.params["b"], op.params["side"]
            good = euclid.gcd(a, b, side)
            self.assertIsNone(checks.gcd(a, b, side, good.gcd, *good.cofactors))
            self.assertIsNotNone(checks.gcd(a, b, side, good.gcd * ONE_PLUS_I,
                                            *good.cofactors))

    def test_factorization_with_one_prime_swapped(self):
        x = OrderElement(123, -45, 67, 89)
        good = factor.full_factor(x)
        primes = list(good.primes)
        primes[0] = factor.p_conjugate(primes[0])
        self.assertNotEqual(primes[0], good.primes[0])
        self.assert_fails("factor", x, good, dataclasses.replace(good, primes=tuple(primes)))

    def test_exception_and_bad_exit_fail(self):
        self.assertIn(0, run.failures(WORKLOADS["factor"], [OrderElement(1, 0, 0, 0)],
                                      [ValueError("boom")]))
        op = next(op for op in first_ops("cli", 1) if op.verb == "verify")
        good = workloads.main_inproc(op.argv)
        self.assert_fails("cli", op, good, (2, good[1]))

    def test_cli_outputs_with_a_wrong_field(self):
        for op in first_ops("cli", 2, 10):
            good = workloads.main_inproc(op.argv)
            payload = json.loads(good[1])
            key = {"count": "formula", "factor": "content", "gcd": "gcd", "primary": "unit",
                   "primes": "count", "tau": "det", "verify": "ok"}[op.verb]
            payload[key] = {"v": [9, 9, 9, 9]} if op.verb in ("gcd", "primary") else (
                payload[key] + 2 if op.verb != "verify" else False)
            with self.subTest(verb=op.verb):
                self.assert_fails("cli", op, good, (0, json.dumps(payload)))


class Output(unittest.TestCase):
    def last_line(self, *args):
        proc = bench(*args)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return {name: m["unit"] for name, m in result["metrics"].items()}

    def test_every_metric_with_its_unit(self):
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.last_line("--workload", name, "--seed", "5",
                                                "--seconds", "1", "--trace", "0"), end_to_end)
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual(self.last_line("--workload", "factor", "--seed", "5",
                                        "--seconds", "1", "--trace", "1"), per_layer)

    def test_refuses_to_run_without_library_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, f"{bare}/bench", ignore=shutil.ignore_patterns("out"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "factor",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Spans(unittest.TestCase):
    def trace(self, ops, workload):
        run.warm_up(workload.name)  # lazy tables fill once per process
        tracer = spans.Tracer()
        tracer.install()
        try:
            run.run_ops(workload.replay or workload.run, ops)
        finally:
            tracer.uninstall()
        return spans.layer_metrics(tracer.spans, tracer.counts)

    def test_self_time_within_span_total_and_counts_repeat(self):
        for name in ("factor", "cli"):
            workload = WORKLOADS[name]
            ops = first_ops(name, 4, 10)
            first, second = self.trace(ops, workload), self.trace(ops, workload)
            with self.subTest(workload=name):
                for metric, value in first.items():
                    if metric.endswith(".self_s"):
                        total = first[metric.replace(".self_s", ".total_s")]
                        self.assertTrue(0 <= value <= total, (metric, value, total))
                    if metric.endswith(".calls"):
                        self.assertEqual(value, second[metric], metric)

    def test_install_covers_from_imports_and_uninstall_restores(self):
        from quat1122 import cli, intarith

        original = euclid.gcd
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIs(factor.quat_gcd, euclid.gcd)
            self.assertIsNot(euclid.gcd, original)
            self.assertIs(factor.factorize, intarith.factorize)
            self.assertIs(cli.full_factor, factor.full_factor)
        finally:
            tracer.uninstall()
        self.assertIs(euclid.gcd, original)
        self.assertIs(factor.quat_gcd, original)


if __name__ == "__main__":
    unittest.main()
