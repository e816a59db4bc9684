"""Independent Milnor-number oracle, sharing no code with ``icis``.

Polynomials are dicts from exponent tuples to integers or Fractions.
The local colength of an ideal I at the origin is found by truncated
linear algebra: c_k = dim Q[x]/(I + m^k) is the number of monomials of
degree < k minus the rank of the truncated multiples x^a * g.  At the
first k with c_k = c_{k+1}, m^k lies in I + m^(k+1), so Nakayama's lemma
gives m^k in I*O and c_k is the exact local colength.  Ideals that are
not m-primary never stabilise; they return None once ``k_max`` is hit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def diff(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def det(m):
    """Laplace expansion; entries are polynomials."""
    if len(m) == 1:
        return m[0][0]
    total = {}
    for j, entry in enumerate(m[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total = add(total, mul(entry, det(minor)), -1 if j % 2 else 1)
    return total


def maximal_minors(maps, n):
    """Maximal minors of the Jacobian of ``maps`` (rows) in n variables."""
    jac = [[diff(f, i) for i in range(n)] for f in maps]
    rows = len(jac)
    return [det([[row[j] for j in cols] for row in jac])
            for cols in combinations(range(n), rows)]


def _monomials_below(n, k):
    """All exponent tuples in n variables of total degree < k."""
    out = [()]
    for i in range(n):
        out = [m + (e,) for m in out for e in range(k - sum(m))]
    return out


def _integer_row(poly_terms, index):
    den = lcm(*(Fraction(c).denominator for c in poly_terms.values()))
    row = {index[e]: int(Fraction(c) * den) for e, c in poly_terms.items()}
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()}


def _rank(rows):
    """Exact rank over Q of integer rows, by fraction-free elimination."""
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            a, b = piv[lead], row[lead]
            new = {}
            for j in row.keys() | piv.keys():
                v = a * row.get(j, 0) - b * piv.get(j, 0)
                if v:
                    new[j] = v
            if new:
                g = gcd(*new.values())
                new = {j: v // g for j, v in new.items()}
            row = new
    return len(pivots)


def truncated_colength(gens, n, k):
    """dim Q[x]/(I + m^k)."""
    monos = _monomials_below(n, k)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        if not g:
            continue
        order = min(sum(e) for e in g)
        for a in _monomials_below(n, k - order):
            shifted = {tuple(x + y for x, y in zip(a, e)): c for e, c in g.items()}
            kept = {e: c for e, c in shifted.items() if sum(e) < k}
            if kept:
                rows.append(_integer_row(kept, index))
    return len(monos) - _rank(rows)


def local_colength(gens, n, k_max=40):
    """Exact dim O/I at the origin, or None if I is not m-primary
    (no stabilisation up to k_max)."""
    if any(g.get((0,) * n) for g in gens):
        return 0
    prev = truncated_colength(gens, n, 1)
    for k in range(2, k_max + 1):
        cur = truncated_colength(gens, n, k)
        if cur == prev:
            return cur
        prev = cur
    return None


def milnor(f, n):
    """Milnor number of a hypersurface germ f in n variables."""
    return local_colength([diff(f, i) for i in range(n)], n)


def icis_milnor(phis, n):
    """Milnor number of the ICIS V(phi_1..phi_p) by the Le-Greuel chain
    mu(X_k) + mu(X_{k-1}) = dim O/(phi_1..phi_{k-1}, k-minors of phi_1..phi_k).

    The chain needs every stage to be finite, which holds for a generic
    choice of equations; when the given order fails, the equations are
    recombined as phi_i + c * sum_{j > i} phi_j for c = 1, 2, ..."""
    for c in range(len(phis) * 4):
        eqs = [add(p, _scaled_sum(phis[i + 1:], c)) for i, p in enumerate(phis)]
        mu = _chain(eqs, n)
        if mu is not None:
            return mu
    return None


def _scaled_sum(polys, c):
    total = {}
    for q in polys:
        total = add(total, {e: c * v for e, v in q.items()})
    return total


def _chain(phis, n):
    mu = 0
    for k in range(1, len(phis) + 1):
        c = local_colength(list(phis[:k - 1]) + maximal_minors(phis[:k], n), n)
        if c is None:
            return None
        mu = c - mu
    return mu


def function_milnor(f, phis, n):
    """Milnor number of f on the ICIS V(phis): dim O/(phi, J(f, phi))."""
    return local_colength(list(phis) + maximal_minors([f] + list(phis), n), n)


def spec_milnor(spec):
    """Oracle value for a generated problem's (kind, polys, nvars)."""
    kind, polys, n = spec
    if kind == "milnor":
        return milnor(polys["f"][0], n)
    if kind == "icis-milnor":
        return icis_milnor(polys["phi"], n)
    return function_milnor(polys["f"][0], polys["phi"], n)
