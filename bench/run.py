"""The quat1122 benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {factor,cli} --seed N \
        --seconds S --trace {0,1}

Each workload is a closed loop with a single caller: the next operation
starts when the previous one has returned.  With ``--trace 0`` the loop runs
for S seconds (to the end of the current round of inputs) and the run
reports the end-to-end metrics; set-up is timed separately, in fresh
interpreters started between operations at even steps of the loop's busy
time, so that its median covers the whole run.  With ``--trace 1`` a fixed number of operations, independent
of S so that call counts repeat exactly, each runs in process twice:
untraced, and with a span around every call into a layer.  For ``cli`` they
run once more as processes.  That run reports the per-layer metrics.

Every result is checked after its loop ends, outside the timed region.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment, the measured shares of the input properties and the sample
counts.  The exit code is 1 if any operation failed and 2 if the run could
not start, for instance outside a checkout with the library's sources.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from setup_probe import warm_up

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("factor", "cli")
SETUP_PROBES = 31

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_NAMES = (
    "core.mul.calls", "core.norm.calls",
    "euclid.div_rem.calls", "euclid.div_rem.self_s", "euclid.div_rem.mul_per_call",
    "euclid.gcd.calls", "euclid.gcd.self_s", "euclid.gcd.div_rem_per_call",
    "dyadic.primary_associate.calls", "dyadic.primary_associate.self_s",
    "dyadic.primary_associate.mul_per_call",
    "dyadic.valuation_1pi.calls", "dyadic.valuation_1pi.self_s",
    "intarith.factorize.calls", "intarith.factorize.self_s",
    "intarith.factorize.repeat_ratio",
    "intarith.is_prime.calls", "intarith.is_prime.self_s",
    "intarith.sigma.calls", "intarith.sigma.self_s",
    "modm.solve_rs.calls", "modm.solve_rs.self_s", "modm.tau.calls", "modm.tau.self_s",
    "factor.full_factor.calls", "factor.full_factor.self_s",
    "factor.factor_primitive.self_s", "factor.primary_primes_of_norm.self_s",
    "repcount.rep_counts_upto.calls", "repcount.rep_counts_upto.self_s",
    "repcount.rep_count_formula.calls", "repcount.rep_count_formula.self_s",
    "repcount.rep_count_oracle.calls", "repcount.rep_count_oracle.self_s",
    "repcount.enumerate_norm_solutions.calls", "repcount.enumerate_norm_solutions.self_s",
    "cli.main.self_s", "cli.startup_s",
    "trace.overhead_ratio",
)


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_call"):
        return "1/call"
    return "ratio"


PER_LAYER = {name: layer_unit(name) for name in PER_LAYER_NAMES}


def die(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def inside_checkout(path: str) -> bool:
    return ROOT in Path(path).resolve().parents


def load_library() -> str:
    """Import quat1122 from this checkout's src/, refusing any other copy."""
    if not (SRC / "quat1122" / "__init__.py").is_file():
        die(f"no library sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import quat1122

    if not inside_checkout(quat1122.__file__):
        die(f"quat1122 was imported from {quat1122.__file__}, outside {ROOT}")
    return quat1122.__file__


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(library_path: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "quat1122").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            "quat1122": str(Path(library_path).resolve().relative_to(ROOT))}


class SetupProbes:
    """Set-up times of fresh interpreters for one workload.

    The first probe, which may compile bytecode, is discarded.
    """

    def __init__(self, workload: str, env: dict, spawn):
        self.argv = [sys.executable, str(BENCH / "setup_probe.py"), workload]
        self.env, self.spawn = env, spawn
        self.values = []
        self.probe()
        self.values.clear()

    def probe(self) -> None:
        rc, out, _ = self.spawn(self.argv, self.env, str(ROOT))
        if rc:
            die(f"set-up probe exited {rc}:\n{out}")
        probe = json.loads(out)
        if not inside_checkout(probe["path"]):
            die(f"a fresh interpreter imports quat1122 from {probe['path']}")
        self.values.append(probe["setup_s"])


def run_ops(run, ops, stop=None, between=None):
    """Run ops in order until ``stop(busy_s, ops_done)`` or the ops run out.

    ``between(busy_s)``, if given, is called before each op, outside the
    timed region.  Returns (ops run, results, latencies in s, busy time in
    s).  Busy time sums the latencies, leaving out input generation and
    ``between``.  An op that raises yields its exception as the result.
    """
    done, results, latencies = [], [], []
    busy = 0.0
    for op in ops:
        if between:
            between(busy)
        start = time.perf_counter()
        try:
            result = run(op)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            result = exc
        latencies.append(time.perf_counter() - start)
        busy += latencies[-1]
        done.append(op)
        results.append(result)
        if stop and stop(busy, len(done)):
            break
    return done, results, latencies, busy


def failures(workload, ops, results) -> dict[int, str]:
    """The ops whose result raised or failed its check, with the reason."""
    reasons = {}
    for index, (op, result) in enumerate(zip(ops, results)):
        if isinstance(result, Exception):
            reason = f"raised {result!r}"
        else:
            try:
                reason = workload.check(op, result)
            except Exception as exc:  # noqa: BLE001 - malformed output fails the op
                reason = f"output could not be checked: {exc!r}"
        if reason:
            reasons[index] = reason
    return reasons


def untraced_run(workload, seed: int, seconds: float, env: dict, spawn):
    setup = SetupProbes(workload.name, env, spawn)
    warm_up(workload.name)

    def probe_when_due(busy: float) -> None:
        if len(setup.values) < SETUP_PROBES and busy >= seconds * len(setup.values) / SETUP_PROBES:
            setup.probe()

    ops, results, latencies, busy_s = run_ops(
        workload.run, workload.ops(seed),
        stop=lambda busy, done: busy >= seconds and done % workload.round_len == 0,
        between=probe_when_due)
    while len(setup.values) < SETUP_PROBES:  # steps that one long last op passed
        setup.probe()
    failed = failures(workload, ops, results)
    lat_ms = [1e3 * t for t in latencies]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
    if workload.replay:  # ops are processes: the largest child's peak
        rss_kib = max((r[2] for r in results if not isinstance(r, Exception)), default=0)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup.values),
        "work_per_s": len(ops) / busy_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90,
        "peak_rss_mb": rss_kib * 1024 / 1e6,
    }
    info = {"ops": len(ops), "busy_s": busy_s, "latency_samples": len(lat_ms),
            "beyond_p90": sum(t > p90 for t in lat_ms),
            "failed_ratio": len(failed) / len(ops),
            "inputs": workload.shares(ops, results)}
    return len(ops), failed, metrics, info


def traced_run(workload, seed: int):
    import spans

    ops = list(itertools.islice(workload.ops(seed), workload.trace_ops))
    replay = workload.replay or workload.run
    warm_up(workload.name)
    # Each op runs untraced and traced, alternating which goes first, so that
    # drift in machine speed and warm caches fall on both sides alike.
    tracer = spans.Tracer()
    passes = {False: ([], []), True: ([], [])}  # traced? -> (results, latencies)
    for index, op in enumerate(ops):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.op = index
                tracer.install()
            try:
                _, results, latencies, _ = run_ops(replay, [op])
            finally:
                tracer.uninstall()
            passes[traced][0].extend(results)
            passes[traced][1].extend(latencies)
    (base, base_lat), (traced, traced_lat) = passes[False], passes[True]
    failed = {**failures(workload, ops, base), **failures(workload, ops, traced)}
    layers = spans.layer_metrics(tracer.spans, tracer.counts)
    layers["trace.overhead_ratio"] = sum(traced_lat) / sum(base_lat)
    layers["cli.startup_s"] = 0.0
    if workload.replay:
        _, procs, proc_lat, _ = run_ops(workload.run, ops)
        failed.update(failures(workload, ops, procs))
        layers["cli.startup_s"] = statistics.median(
            p - q for p, q in zip(proc_lat, base_lat))
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"spans-{workload.name}-{seed}.json.gz"
    tracer.write(trace_file)
    metrics = {name: layers[name] for name in PER_LAYER}
    info = {"ops": len(ops), "untraced_s": sum(base_lat), "traced_s": sum(traced_lat),
            "spans": len(tracer.spans), "spans_file": str(trace_file.relative_to(ROOT)),
            "layers": layers, "inputs": workload.shares(ops, traced)}
    return len(ops), failed, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env_info = environment(load_library())
    import workloads

    env = child_env()
    workload = workloads.build(env, str(ROOT))[args.workload]
    print("env: " + json.dumps(env_info))
    if args.trace:
        attempted, failed, metrics, info = traced_run(workload, args.seed)
        units = PER_LAYER
    else:
        attempted, failed, metrics, info = untraced_run(
            workload, args.seed, args.seconds, env, workloads.spawn)
        units = END_TO_END
    print("run: " + json.dumps(info))
    for index, reason in sorted(failed.items())[:10]:
        print(f"FAILED op {index}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
