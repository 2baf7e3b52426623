"""Command-line front end: counting, factoring, GCDs, the matrix map, sweeps.

Exit codes: 0 success, 1 invalid arguments or malformed input, 2 a
verification sweep found a formula/oracle mismatch, 3 an internal
invariant was violated.

Quaternions are written in basis form "[g1,g2,g3,g4]" or half form
"(A+Bi+Cr2j+Dr2k)/2"; JSON output encodes them as {"v": [g1,g2,g3,g4]}.

Each verb imports the layers it runs when it runs, so a process loads only
those: ``primary`` core and dyadic, ``gcd`` those and euclid, ``tau`` modm
and intarith, ``count`` and ``verify`` the repcount stack, and ``factor``
and ``primes`` every layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

TYPE_CHECKING = False  # typing's own flag without importing typing (3-4 ms)
if TYPE_CHECKING:
    from .core import OrderElement


def __getattr__(name: str):
    # Read from factor on every access, so that a caller sees what factor holds now.
    if name != "full_factor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .factor import full_factor

    return full_factor


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this artifact reserves 2
    # for verification mismatches, so route usage problems to exit 1.
    def error(self, message):
        raise _UsageError(message)


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _quat(text: str) -> OrderElement:
    from .core import parse

    # argparse reports only an ArgumentTypeError's message, not a ValueError's.
    try:
        return parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _run_count(args) -> int:
    from . import repcount

    n = args.n
    # The oracle goes first, so that an n past its bound is refused before sigma runs.
    oracle = repcount.rep_count_oracle(n, args.restriction) if args.oracle else None
    result = repcount.rep_count_formula(n, args.restriction)
    formula = result.formula_count
    r, m = result.decomposition
    if repcount.RESTRICTIONS[args.restriction].two_exponent is None:
        decomposition = {"two_exponent": r, "odd_part": m}
    else:
        decomposition = {"odd_part": m}
    payload = {"n": n, "restriction": args.restriction, "formula": formula,
               "decomposition": decomposition}
    lines = [f"count({n}, restriction={args.restriction}) = {formula}"]
    if args.oracle:
        payload["oracle"] = oracle
        lines.append(f"oracle({n}, restriction={args.restriction}) = {oracle}")
    _emit(args, payload, lines)
    if oracle is not None and oracle != formula:
        print(f"MISMATCH: formula {formula} != oracle {oracle}", file=sys.stderr)
        return 2
    return 0


def _run_factor(args) -> int:
    from .factor import full_factor

    fact = full_factor(args.quat)
    payload = fact.to_json()
    lines = [
        f"x = (1+i)^{fact.r} * u * ({fact.sign:+d} * {fact.content}) * primes",
        f"  dyadic exponent: {fact.r}",
        f"  unit u:          {fact.unit}",
        f"  sign:            {fact.sign:+d}",
        f"  content:         {fact.content}",
        f"  primes:          {[str(p.element) for p in fact.primes]}",
        f"  reassembled:     {fact.reassemble()}",
    ]
    _emit(args, payload, lines)
    return 0


def _run_gcd(args) -> int:
    from . import euclid

    result = euclid.gcd(args.a, args.b, args.side)
    x, y = result.cofactors
    payload = {"gcd": result.gcd.to_json(), "side": result.side,
               "cofactors": [x.to_json(), y.to_json()]}
    if args.side == "right":
        identity = f"{result.gcd} = ({x})*a + ({y})*b"
    else:
        identity = f"{result.gcd} = a*({x}) + b*({y})"
    _emit(args, payload, [f"gcd_{args.side}(a, b) = {result.gcd}", identity])
    return 0


def _run_tau(args) -> int:
    from .modm import reduce_mod_m, solve_rs, tau

    params = solve_rs(args.m)
    residue = reduce_mod_m(args.quat, args.m)
    matrix = tau(residue, params)
    payload = {"m": args.m, "rs": [params.r, params.s],
               "residue": list(residue.coords), "matrix": matrix.rows(),
               "det": matrix.det(), "norm_mod_m": residue.norm()}
    lines = [
        f"m = {args.m}, (r, s) = ({params.r}, {params.s})",
        f"residue = {residue.coords}",
        f"tau = {matrix.rows()}",
        f"det = {matrix.det()} = norm mod m = {residue.norm()}",
    ]
    _emit(args, payload, lines)
    return 0


def _run_primary(args) -> int:
    from .dyadic import primary_associate

    unit, primary = primary_associate(args.quat, args.side)
    payload = {"unit": unit.to_json(), "primary": primary.to_json(), "side": args.side}
    if args.side == "right":
        lines = [f"b * {unit} = {primary} (primary)"]
    else:
        lines = [f"{unit} * b = {primary} (primary)"]
    _emit(args, payload, lines)
    return 0


def _run_primes(args) -> int:
    from .factor import primary_primes_of_norm

    primes = primary_primes_of_norm(args.p)
    payload = {"p": args.p, "count": len(primes),
               "primes": [pi.element.to_json() for pi in primes]}
    lines = [f"{len(primes)} primary primes of norm {args.p}:"]
    lines += [f"  {pi.element}" for pi in primes]
    _emit(args, payload, lines)
    return 0


def _run_verify(args) -> int:
    from . import repcount

    limit = args.max_n
    mismatches: list[dict] = []
    checked: dict[str, int] = {}
    for case in ("none", "i", "ii", "iii"):
        counts = repcount.rep_counts_upto(limit, case)
        admissible = repcount.RESTRICTIONS[case].admissible(limit)
        for n in admissible:
            formula = repcount.rep_count_formula(n, case).formula_count
            if counts[n] != formula:
                mismatches.append({"n": n, "restriction": case,
                                   "formula": formula, "oracle": counts[n]})
        checked[case] = len(admissible)

    payload = {"max_n": limit, "checked": checked,
               "mismatches": mismatches, "ok": not mismatches}
    lines = [
        f"representation formula vs oracle for n in [1, {limit}]: "
        f"{'OK' if not any(m['restriction'] == 'none' for m in mismatches) else 'MISMATCH'}",
    ]
    for case in ("i", "ii", "iii"):
        bad = any(m["restriction"] == case for m in mismatches)
        lines.append(f"complementary case {case} ({checked[case]} odd m values): "
                     f"{'OK' if not bad else 'MISMATCH'}")
    lines.append("verification " + ("PASSED" if not mismatches else "FAILED"))
    _emit(args, payload, lines)
    if mismatches:
        for miss in mismatches:
            print(f"MISMATCH: {miss}", file=sys.stderr)
        return 2
    return 0


@cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by later ones."""
    parser = _Parser(prog="quat1122",
                     description="Exact arithmetic and representation counts for "
                                 "the quadratic form x^2 + y^2 + 2z^2 + 2w^2.")
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON object instead of text")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_count = sub.add_parser("count", parents=[common],
                             help="representation count of n, optionally oracle-checked")
    p_count.add_argument("n", type=int)
    p_count.add_argument("--restriction", choices=["none", "i", "ii", "iii"],
                         default="none")
    p_count.add_argument("--oracle", action="store_true",
                         help="cross-check against brute-force enumeration")
    p_count.set_defaults(func=_run_count)

    p_factor = sub.add_parser("factor", parents=[common],
                              help="factor into (1+i)^r * unit * content * primary primes")
    p_factor.add_argument("quat", type=_quat)
    p_factor.set_defaults(func=_run_factor)

    p_gcd = sub.add_parser("gcd", parents=[common], help="one-sided gcd with Bezout data")
    p_gcd.add_argument("--side", choices=["left", "right"], default="right")
    p_gcd.add_argument("a", type=_quat)
    p_gcd.add_argument("b", type=_quat)
    p_gcd.set_defaults(func=_run_gcd)

    p_tau = sub.add_parser("tau", parents=[common],
                           help="image under the mod-m matrix isomorphism")
    p_tau.add_argument("-m", type=int, required=True, dest="m")
    p_tau.add_argument("quat", type=_quat)
    p_tau.set_defaults(func=_run_tau)

    p_primary = sub.add_parser("primary", parents=[common],
                               help="unit and primary associate of an odd element")
    p_primary.add_argument("quat", type=_quat)
    p_primary.add_argument("--side", choices=["left", "right"], default="right")
    p_primary.set_defaults(func=_run_primary)

    p_primes = sub.add_parser("primes", parents=[common],
                              help="all primary primes of norm p")
    p_primes.add_argument("-p", type=int, required=True, dest="p")
    p_primes.set_defaults(func=_run_primes)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="sweep all counting formulas against the oracle")
    p_verify.add_argument("--max-n", type=int, default=5000, dest="max_n")
    p_verify.set_defaults(func=_run_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
    except BrokenPipeError:
        # Python's documented recipe: the flush at exit then writes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
