"""Independent checks of the library's outputs.

No check calls the library function whose output it checks.  They use only
ring arithmetic from ``quat1122.core`` (multiplication, conjugation, norm)
and integer helpers written here: a trial-division sigma and a
Miller-Rabin primality test.  Each check returns None when the output is
correct and a one-line reason when it is not.
"""

from __future__ import annotations

import json

from quat1122.core import ONE, ONE_PLUS_I, V3, OrderElement

_PRIMARY_REPS = (ONE, ONE + V3 * 2)
# Miller-Rabin with these bases is exact below 3.1e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sigma(n: int) -> int:
    """Sum of the divisors of n >= 1 by trial division."""
    total, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            power, term = 1, 1
            while n % d == 0:
                n //= d
                power *= d
                term += power
            total *= term
        d += 1 if d == 2 else 2
    return total * (n + 1) if n > 1 else total


def is_primary(e: OrderElement) -> bool:
    """e = 1 or 1 + 2*v3 modulo the ideal 2(1+i): e - rep = 2h with norm(h) even."""
    for rep in _PRIMARY_REPS:
        h = e - rep
        if all(g % 2 == 0 for g in h.coords):
            if OrderElement(*(g // 2 for g in h.coords)).norm() % 2 == 0:
                return True
    return False


def _quat(obj) -> OrderElement:
    return OrderElement(*(int(g) for g in obj["v"]))


def _divides(d: OrderElement, e: OrderElement, side: str) -> bool:
    # d right-divides e iff e*conj(d) is norm(d) times an element of the order.
    n = d.norm()
    product = e * d.conjugate() if side == "right" else d.conjugate() * e
    return all(g % n == 0 for g in product.coords)


def gcd(a, b, side, d, x, y) -> str | None:
    if d.is_zero:
        return "gcd is zero"
    if not (_divides(d, a, side) and _divides(d, b, side)):
        return f"{d} does not {side}-divide both inputs"
    bezout = x * a + y * b if side == "right" else a * x + b * y
    if bezout != d:
        return f"Bezout identity fails: {bezout} != {d}"
    if d.norm() % 2 and not is_primary(d):
        return f"odd gcd {d} is not primary"
    return None


def factorization(x, r, unit, sign, content, primes) -> str | None:
    if r < 0 or sign not in (1, -1) or content < 1 or content % 2 == 0:
        return f"malformed factorization r={r} sign={sign} content={content}"
    if unit.norm() != 1:
        return f"{unit} is not a unit"
    out = ONE
    for _ in range(r):
        out = out * ONE_PLUS_I
    out = out * unit * (sign * content)
    norms = 1
    for pi in primes:
        p = pi.norm()
        if not is_prime(p):
            return f"factor {pi} has composite norm {p}"
        if p != 2 and not is_primary(pi):
            return f"factor {pi} is not primary"
        out = out * pi
        norms *= p
    if out != x:
        return f"factors reassemble to {out}, not {x}"
    if (norms * content * content) << r != x.norm():
        return "prime norms do not multiply to the norm of the primitive part"
    return None


def verify(max_n: int, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"verify --max-n {max_n} exited {rc}"
    payload = json.loads(stdout)
    expected = {"none": max_n, "i": (max_n // 4 + 1) // 2,
                "ii": (max_n // 8 + 1) // 2, "iii": (max_n // 4 + 1) // 2}
    if payload["max_n"] != max_n or not payload["ok"] or payload["mismatches"]:
        return f"verify --max-n {max_n} reported failure"
    if payload["checked"] != expected:
        return f"verify checked {payload['checked']}, expected {expected}"
    return None


def _count(params, payload) -> str | None:
    n, restriction = params["n"], params["restriction"]
    if restriction == "none":
        r, m = 0, n
        while m % 2 == 0:
            m //= 2
            r += 1
        expected = (4 if r == 0 else 8 if r == 1 else 24) * sigma(m)
        if payload["decomposition"] != {"two_exponent": r, "odd_part": m}:
            return f"count {n}: wrong decomposition {payload['decomposition']}"
    else:
        m = n // (8 if restriction == "ii" else 4)
        expected = (4 if restriction == "i" else 16) * sigma(m)
    if payload["formula"] != expected:
        return f"count {n} ({restriction}): formula {payload['formula']} != {expected}"
    if params["oracle"] and payload.get("oracle") != expected:
        return f"count {n} ({restriction}): oracle {payload.get('oracle')} != {expected}"
    return None


def _tau(params, payload) -> str | None:
    m, x = params["m"], params["x"]
    r, s = payload["rs"]
    if not (0 <= r < m and 0 <= s < m) or (pow(2, -1, m) + r * r + s * s) % m:
        return f"tau -m {m}: invalid (r, s) = ({r}, {s})"
    inv2 = pow(2, -1, m)
    expected = [h * inv2 % m for h in x.half_coords]
    if payload["residue"] != expected:
        return f"tau -m {m}: residue {payload['residue']} != {expected}"
    (a, b), (c, d) = payload["matrix"]
    det = (a * d - b * c) % m
    if not payload["det"] == det == payload["norm_mod_m"] == x.norm() % m:
        return f"tau -m {m}: det {det} does not match norm {x.norm() % m}"
    return None


def _primary(params, payload) -> str | None:
    b, side = params["x"], params["side"]
    unit, primary = _quat(payload["unit"]), _quat(payload["primary"])
    if unit.norm() != 1:
        return f"{unit} is not a unit"
    if primary != (b * unit if side == "right" else unit * b):
        return f"{primary} is not the {side} associate of {b} by {unit}"
    if not is_primary(primary):
        return f"{primary} is not primary"
    return None


def _primes(params, payload) -> str | None:
    p = params["p"]
    primes = {tuple(e["v"]) for e in payload["primes"]}
    if payload["count"] != p + 1 or len(primes) != p + 1:
        return f"primes -p {p}: {len(primes)} distinct primes, expected {p + 1}"
    for coords in primes:
        e = OrderElement(*coords)
        if e.norm() != p or not is_primary(e):
            return f"primes -p {p}: {e} is not a primary prime of norm {p}"
    return None


def _gcd_payload(params, payload) -> str | None:
    x, y = (_quat(c) for c in payload["cofactors"])
    return gcd(params["a"], params["b"], params["side"], _quat(payload["gcd"]), x, y)


def _factor_payload(params, payload) -> str | None:
    return factorization(params["x"], payload["r"], _quat(payload["unit"]),
                         payload["sign"], payload["content"],
                         [_quat(pi) for pi in payload["primes"]])


_CLI_CHECKS = {
    "count": _count,
    "factor": _factor_payload,
    "gcd": _gcd_payload,
    "primary": _primary,
    "primes": _primes,
    "tau": _tau,
}


def cli(verb: str, params: dict, rc: int, stdout: str) -> str | None:
    """Check one ``quat1122 <verb> ... --json`` invocation from its exit code and output."""
    if verb == "verify":
        return verify(params["max_n"], rc, stdout)
    if rc != 0:
        return f"{verb} exited {rc}"
    return _CLI_CHECKS[verb](params, json.loads(stdout))
