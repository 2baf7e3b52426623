"""Time a fresh interpreter's set-up for one workload.

Usage: python3 bench/setup_probe.py <workload>, with the checkout's src/ on
PYTHONPATH.  Times ``import quat1122`` plus the first call into each layer
the workload uses (which fills lazy tables such as ``units()``), then prints
one JSON line with the seconds taken and the path quat1122 was imported
from.  Nothing but sys, time and io (already loaded at start-up) is imported
before the clock starts.
"""

import io
import sys
import time

# One small argv per verb, as the cli workload's first calls.
CLI_ARGVS = (
    ["factor", "[6,3,1,-2]", "--json"],
    ["gcd", "[7,1,2,3]", "[3,0,0,0]", "--json"],
    ["primary", "[3,0,0,0]", "--json"],
    ["tau", "-m", "15", "[0,1,0,0]", "--json"],
    ["count", "12", "--json"],
    ["count", "20", "--restriction", "i", "--oracle", "--json"],
    ["primes", "-p", "5", "--json"],
    ["verify", "--max-n", "64", "--json"],
)


def warm_up(workload: str) -> None:
    """Make the first call into each layer ``workload`` uses."""
    from quat1122 import cli, factor
    from quat1122.core import OrderElement

    if workload == "factor":
        factor.full_factor(OrderElement(6, 3, 1, -2))
    else:
        saved = sys.stdout
        sys.stdout = io.StringIO()
        try:
            for argv in CLI_ARGVS:
                cli.main(argv)
        finally:
            sys.stdout = saved


if __name__ == "__main__":
    start = time.perf_counter()
    warm_up(sys.argv[1])
    elapsed = time.perf_counter() - start

    import json

    import quat1122

    print(json.dumps({"setup_s": elapsed, "path": quat1122.__file__}))
