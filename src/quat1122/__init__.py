"""Exact arithmetic for the quaternion order of x^2 + y^2 + 2z^2 + 2w^2.

The package is layered bottom-up:

- ``core``:     the order, its 24 units, conjugation, norm, text/JSON forms
- ``euclid``:   one-sided division with remainder and GCDs with Bezout data
- ``dyadic``:   the (1+i)-adic structure and primary elements
- ``modm``:     residues mod odd m and the 2x2 matrix isomorphism
- ``factor``:   primary primes and unique factorization
- ``repcount``: representation counts with brute-force oracles
- ``cli``:      the ``quat1122`` command

Importing the package loads none of them: each public name below is looked
up in its layer on every access, and the layer is imported the first time.
"""

from importlib import import_module

#: The public names, by the layer that defines them.
_EXPORTS = {
    "core": ("OrderElement", "format_half", "parse", "units"),
    "dyadic": (
        "divide_by_1pi",
        "is_odd",
        "is_primary",
        "primary_associate",
        "residue_mod_1pi",
        "residue_mod_2",
        "residue_mod_2_1pi",
        "valuation_1pi",
    ),
    "euclid": ("DivisionResult", "GcdResult", "div_rem", "gcd"),
    "factor": (
        "Factorization",
        "PrimaryPrime",
        "factor_primitive",
        "full_factor",
        "p_conjugate",
        "primary_prime_from",
        "primary_primes_of_norm",
    ),
    "intarith": ("sigma",),
    "modm": (
        "MatrixModM",
        "ResidueElement",
        "RSParams",
        "count_norm1",
        "count_norm1_enum",
        "count_psi",
        "count_psi_enum",
        "reduce_mod_m",
        "solve_rs",
        "tau",
        "tau_inv",
    ),
    "repcount": (
        "CountResult",
        "enumerate_norm_solutions",
        "rep_count_formula",
        "rep_count_oracle",
        "rep_counts_upto",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
