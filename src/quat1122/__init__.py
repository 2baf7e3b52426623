"""Exact arithmetic for the quaternion order of x^2 + y^2 + 2z^2 + 2w^2.

The package is layered bottom-up:

- ``core``:     the order, its 24 units, conjugation, norm, text/JSON forms
- ``euclid``:   one-sided division with remainder and GCDs with Bezout data
- ``dyadic``:   the (1+i)-adic structure and primary elements
- ``modm``:     residues mod odd m and the 2x2 matrix isomorphism
- ``factor``:   primary primes and unique factorization
- ``repcount``: representation counts with brute-force oracles
- ``cli``:      the ``quat1122`` command
"""

from .core import (
    HalfCoords,
    OrderElement,
    format_half,
    parse,
    unit_inverse,
    units,
)
from .dyadic import (
    PrimaryClass,
    divide_by_1pi,
    is_odd,
    is_primary,
    primary_associate,
    primary_class,
    residue_mod_1pi,
    residue_mod_2,
    residue_mod_2_1pi,
    unit_congruences_mod2,
    valuation_1pi,
)
from .euclid import DivisionResult, GcdResult, div_rem, gcd
from .factor import (
    Factorization,
    PrimaryPrime,
    factor_primitive,
    full_factor,
    is_prime_quat,
    norm2_primes,
    p_conjugate,
    primary_prime_from,
    primary_primes_of_norm,
)
from .intarith import sigma
from .modm import (
    MatrixModM,
    ResidueElement,
    RSParams,
    XiBasis,
    count_annihilator_enum,
    count_norm1,
    count_norm1_enum,
    count_psi,
    count_psi_enum,
    is_primitive_to_m,
    reduce_mod_m,
    solve_rs,
    tau,
    tau_inv,
    xi_basis,
)
from .repcount import (
    CountResult,
    count_primary_enum,
    count_primitive_enum,
    enumerate_norm_solutions,
    q_formula,
    rep_count_formula,
    rep_count_oracle,
    rep_counts_upto,
)

__all__ = [
    "CountResult",
    "DivisionResult",
    "Factorization",
    "GcdResult",
    "HalfCoords",
    "MatrixModM",
    "OrderElement",
    "PrimaryClass",
    "PrimaryPrime",
    "RSParams",
    "ResidueElement",
    "XiBasis",
    "count_annihilator_enum",
    "count_norm1",
    "count_norm1_enum",
    "count_primary_enum",
    "count_primitive_enum",
    "count_psi",
    "count_psi_enum",
    "div_rem",
    "divide_by_1pi",
    "enumerate_norm_solutions",
    "factor_primitive",
    "format_half",
    "full_factor",
    "gcd",
    "is_odd",
    "is_primary",
    "is_prime_quat",
    "is_primitive_to_m",
    "norm2_primes",
    "p_conjugate",
    "parse",
    "primary_associate",
    "primary_class",
    "primary_prime_from",
    "primary_primes_of_norm",
    "q_formula",
    "reduce_mod_m",
    "rep_count_formula",
    "rep_count_oracle",
    "rep_counts_upto",
    "residue_mod_1pi",
    "residue_mod_2",
    "residue_mod_2_1pi",
    "sigma",
    "solve_rs",
    "tau",
    "tau_inv",
    "unit_congruences_mod2",
    "unit_inverse",
    "units",
    "valuation_1pi",
    "xi_basis",
]
