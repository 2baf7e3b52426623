"""The paper's xi basis and an annihilator count, kept apart from the library.

``xi`` writes the paper's xi_1..xi_4 in (r, s); the tests check them against
``tau_inv`` of twice the matrix units.

For an odd prime p and f primitive to p with p | norm(f), tau sends f to a
rank-1 matrix over Z/p, so exactly p^2 residues x satisfy x*f = 0.  The
search below counts them over all p^4 residues.
"""

from itertools import product

from quat1122 import MatrixModM, ResidueElement
from quat1122.intarith import is_prime


def xi(params):
    """The paper's xi_1..xi_4 for the parameters (r, s) mod m.

    xi1 = 1 + r*sqrt2 j + s*sqrt2 k        xi2 = i + s*sqrt2 j - r*sqrt2 k
    xi3 = -i + s*sqrt2 j - r*sqrt2 k       xi4 = 1 - r*sqrt2 j - s*sqrt2 k
    """
    m, r, s = params.m, params.r, params.s
    return (ResidueElement.make(m, 1, 0, r, s), ResidueElement.make(m, 0, 1, s, -r),
            ResidueElement.make(m, 0, -1, s, -r), ResidueElement.make(m, 1, 0, -r, -s))


def twice_matrix_units(m):
    """2*E11, 2*E12, 2*E21, 2*E22 over Z/m, in the order of xi1..xi4."""
    return [MatrixModM.make(m, *(2 * (k == slot) for k in range(4))) for slot in range(4)]


def count_annihilator_enum(f, p):
    """Number of residues x mod p with x*f = 0; equals p^2 for valid f.

    Raises:
        ValueError: p not an odd prime, f not primitive to p, or norm(f)
            not divisible by p.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    if f.m != p:
        raise ValueError(f"residue mod {f.m} does not match p = {p}")
    if not f.is_primitive():
        raise ValueError(f"{f} is not primitive to {p}")
    if f.norm() % p:
        raise ValueError(f"norm of {f} is not divisible by {p}")
    zero = ResidueElement.make(p, 0, 0, 0, 0)
    return sum(1 for x in product(range(p), repeat=4) if ResidueElement(p, *x) * f == zero)
