"""The annihilator count by exhaustive search, kept apart from the library.

For an odd prime p and f primitive to p with p | norm(f), tau sends f to a
rank-1 matrix over Z/p, so exactly p^2 residues x satisfy x*f = 0.  The
search below counts them over all p^4 residues.
"""

from quat1122 import ResidueElement
from quat1122.intarith import is_prime
from quat1122.modm import iter_residues


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
    zero = ResidueElement.zero(p)
    return sum(1 for x in iter_residues(p) if x * f == zero)
