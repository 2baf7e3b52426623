"""Run the benchmark over several seeds and summarise every metric.

Usage (from the root of a checkout):

    python3 bench/collect.py [--runs 10] [--out bench/baseline.json]

For each workload in BENCHMARK.json, runs ``bench/run.py`` untraced for
``run_seconds`` once per seed (seeds 1 to ``--runs``) and reports,
per end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  A spread above a
third of the metric's bound in BENCHMARK.json is flagged.  Then it runs the
traced form twice with seed 1 and reports whether the call counts repeat
exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACED_RUNS = 2


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                 f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["run"] = next(json.loads(line[5:]) for line in lines if line.startswith("run: "))
    result["env"] = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    out = {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": list(range(1, args.runs + 1)),
              "untraced": {}, "traced": {}}
    for workload in names:
        runs = [run(workload, seed, seconds, 0) for seed in report["seeds"]]
        report["env"] = runs[0]["env"]
        summary = {}
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"unit": metric["unit"], **summarise(values, bounds.get(name))}
            summary[name]["values"] = values
            flag = "" if summary[name].get("steady", True) else "  <-- spread above bound/3"
            print(f"{workload:7s} {name:16s} median {summary[name]['median']:12.4f} "
                  f"{metric['unit']:5s} spread {summary[name]['spread']:.4f}{flag}", flush=True)
        summary["ops"] = [r["run"]["ops"] for r in runs]
        report["untraced"][workload] = summary

        traced = [run(workload, 1, seconds, 1) for _ in range(TRACED_RUNS)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
                  for t in traced]
        report["traced"][workload] = {
            "seed": 1,
            "counts_repeat": all(c == counts[0] for c in counts),
            "metrics": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            "untraced_s": traced[0]["run"]["untraced_s"],
            "traced_s": traced[0]["run"]["traced_s"],
        }
        print(f"{workload:7s} traced: counts repeat "
              f"{report['traced'][workload]['counts_repeat']}, overhead ratio "
              f"{[t['metrics']['trace.overhead_ratio']['value'] for t in traced]}",
              flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
