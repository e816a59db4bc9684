"""Test oracle for the truncated colengths c_k = dim Q[x]/(I + m^k),
sharing no code with ``icis.basis``: the number of monomials of degree
< k minus the rank over Q of the dense matrix of every multiple x^a*g
of every generator, truncated below degree k.  No row is skipped."""

from itertools import product
from math import gcd, lcm


def monomials_below(n, k):
    """Exponent tuples of the monomials of degree < k in n variables."""
    return [e for e in product(range(k), repeat=n) if sum(e) < k]


def truncated_colength(gens, n, k):
    """c_k of the ideal of ``gens``, each a dict of exponent tuples to
    rationals (Fractions or ints)."""
    cols = monomials_below(n, k)
    index = {e: j for j, e in enumerate(cols)}
    rows = []
    for g in gens:
        # a generator times the lcm of its denominators spans the same line
        den = lcm(*(getattr(c, "denominator", 1) for c in g.values()))
        for a in cols:
            row = [0] * len(cols)
            for e, c in g.items():
                m = tuple(p + q for p, q in zip(a, e))
                if sum(m) < k:
                    row[index[m]] += int(c * den)
            rows.append(row)
    return len(cols) - rank(rows)


def rank(rows):
    """Rank over Q of a list of equal-length integer rows, by
    fraction-free Gaussian elimination on copies: a row is cleared at a
    pivot column as p*row - row[col]*top, then divided by its content."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[col]
        for i in range(r + 1, len(rows)):
            q = rows[i][col]
            if q:
                new = [p * v - q * w for v, w in zip(rows[i], top)]
                content = gcd(*new)
                rows[i] = [v // content for v in new] if content > 1 else new
        r += 1
    return r


def first_stable_colength(gens, n, K):
    """c_d for the first d < K with c_d = c_(d+1), or None when there is
    none: by Nakayama's lemma, the local colength when it is an int."""
    prev = truncated_colength(gens, n, 0)
    for d in range(K):
        cur = truncated_colength(gens, n, d + 1)
        if cur == prev:
            return prev
        prev = cur
    return None
