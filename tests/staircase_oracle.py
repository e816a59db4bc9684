"""Test oracle for colengths of monomial ideals, sharing no code with
``icis.basis``."""

from itertools import product
from math import inf


def staircase_colength_bruteforce(monomials, ring_size):
    """Count the lattice points under the staircase of a monomial ideal
    by direct enumeration of the box cut out by its pure powers; +inf
    when some variable has no pure power."""
    gens = [tuple(m) for m in monomials]
    bounds = []
    for i in range(ring_size):
        pures = [m[i] for m in gens
                 if m[i] > 0 and all(m[j] == 0 for j in range(ring_size) if j != i)]
        if not pures:
            return inf
        bounds.append(min(pures))
    return sum(
        1
        for point in product(*(range(b) for b in bounds))
        if not any(all(p >= e for p, e in zip(point, m)) for m in gens)
    )
