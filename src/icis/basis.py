"""Standard-basis engines and colength computation.

Global orders use Buchberger's algorithm with the product and chain
criteria; local orders use Mora's weak normal form with ecart-minimal
reducer selection (the tangent-cone algorithm).

Every reduction step counts against a step budget: running out raises
``BudgetExhaustedError``, it never returns a truncated answer.  Inside a
``with step_budget(limit):`` block every completion and normal form
charges one shared budget, so the limit caps the whole block; outside
any block each call gets a fresh budget of ``DEFAULT_BUDGET`` steps.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from math import inf

from .errors import BudgetExhaustedError, ZeroInputError
from .poly import Polynomial

DEFAULT_BUDGET = 10**6


class _Budget:
    __slots__ = ("remaining", "spent")

    def __init__(self, limit):
        self.remaining = limit
        self.spent = 0

    def step(self):
        if self.remaining <= 0:
            raise BudgetExhaustedError()
        self.remaining -= 1
        self.spent += 1


_active_budget = ContextVar("icis_step_budget", default=None)


@contextmanager
def step_budget(limit=DEFAULT_BUDGET):
    """Charge every reduction step inside the block to one budget of
    ``limit`` steps; yields it (``.spent`` counts the steps so far).
    The previous budget is restored on every exit path."""
    budget = _Budget(limit)
    token = _active_budget.set(budget)
    try:
        yield budget
    finally:
        _active_budget.reset(token)


def _current_budget():
    budget = _active_budget.get()
    return _Budget(DEFAULT_BUDGET) if budget is None else budget


@dataclass(frozen=True)
class StandardBasis:
    order: object
    generators: tuple
    leading_monomials: tuple
    completed: bool = False
    steps_used: int = 0

    @property
    def ring(self):
        return self.order.ring


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _monomul(poly, exps, coeff):
    return poly * Polynomial.monomial(poly.ring, exps, coeff)


def s_polynomial(f, g, order):
    """spoly(f, g): the leading terms of both scalings cancel."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("s_polynomial of zero polynomial")
    lm_f, lc_f = f.leading(order)
    lm_g, lc_g = g.leading(order)
    lcm = _lcm(lm_f, lm_g)
    a = _monomul(f, tuple(l - m for l, m in zip(lcm, lm_f)), 1 / lc_f)
    b = _monomul(g, tuple(l - m for l, m in zip(lcm, lm_g)), 1 / lc_g)
    return a - b


def _ecart(f, order):
    lm, _ = f.leading(order)
    return f.total_degree() - sum(lm)


def _reduce_global(f, gens, order, budget):
    """Ordinary multivariate division, fully reduced."""
    lms = [g.leading(order) for g in gens]
    remainder = Polynomial.zero(f.ring)
    h = f
    while not h.is_zero():
        lm_h, lc_h = h.leading(order)
        hit = None
        for g, (lm_g, lc_g) in zip(gens, lms):
            if _divides(lm_g, lm_h):
                hit = (g, lm_g, lc_g)
                break
        if hit is None:
            remainder = remainder + Polynomial.monomial(f.ring, lm_h, lc_h)
            h = h - Polynomial.monomial(f.ring, lm_h, lc_h)
        else:
            budget.step()
            g, lm_g, lc_g = hit
            h = h - _monomul(g, tuple(a - b for a, b in zip(lm_h, lm_g)), lc_h / lc_g)
    return remainder


def _reduce_mora(f, gens, order, budget):
    """Mora weak normal form: u*f = result modulo the ideal, u a unit.

    Intermediate results join the reducer pool; among applicable
    reducers the one with minimal ecart (earliest insertion on ties)
    is chosen, which is what makes the loop terminate.
    """
    pool = [(g, g.leading(order), _ecart(g, order)) for g in gens]
    h = f
    while not h.is_zero():
        lm_h, lc_h = h.leading(order)
        usable = [
            (entry[2], idx, entry)
            for idx, entry in enumerate(pool)
            if _divides(entry[1][0], lm_h)
        ]
        if not usable:
            break
        ec_g, _, (g, (lm_g, lc_g), _) = min(usable, key=lambda u: (u[0], u[1]))
        if ec_g > _ecart(h, order):
            pool.append((h, (lm_h, lc_h), _ecart(h, order)))
        budget.step()
        h = h - _monomul(g, tuple(a - b for a, b in zip(lm_h, lm_g)), lc_h / lc_g)
    return h


def normal_form(f, sb):
    """Normal form of f against a completed basis.

    Zero iff f lies in the ideal (the localized ideal for local orders,
    where this is Mora's weak normal form)."""
    if not sb.completed:
        raise ValueError("normal form requires a completed basis")
    if f.is_zero() or not sb.generators:
        return f
    budget = _current_budget()
    if sb.order.is_global:
        return _reduce_global(f, sb.generators, sb.order, budget)
    return _reduce_mora(f, sb.generators, sb.order, budget)


def complete_basis(generators, order):
    """Run Buchberger (global) or the tangent-cone loop (local) to a
    completed standard basis; the result is minimalized and monic.
    ``steps_used`` counts the steps this completion spent."""
    budget = _current_budget()
    start = budget.spent
    reduce = _reduce_global if order.is_global else _reduce_mora
    G = []
    seen = set()
    for g in generators:
        if g.is_zero():
            continue
        _, lc = g.leading(order)
        g = g * (1 / lc)
        if g not in seen:
            seen.add(g)
            G.append(g)
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    lms = [g.leading(order)[0] for g in G]
    done = set()

    def chain_skippable(i, j):
        l = _lcm(lms[i], lms[j])
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(lms[k], l):
                if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
                    return True
        return False

    while pairs:
        i, j = min(pairs, key=lambda p: (sum(_lcm(lms[p[0]], lms[p[1]])), p))
        pairs.discard((i, j))
        done.add((i, j))
        lcm = _lcm(lms[i], lms[j])
        # product criterion: coprime leading monomials reduce to zero
        if lcm == tuple(a + b for a, b in zip(lms[i], lms[j])):
            continue
        if chain_skippable(i, j):
            continue
        h = reduce(s_polynomial(G[i], G[j], order), G, order, budget)
        if h.is_zero():
            continue
        _, lc = h.leading(order)
        h = h * (1 / lc)
        G.append(h)
        lms.append(h.leading(order)[0])
        k = len(G) - 1
        pairs.update((i2, k) for i2 in range(k))

    # minimalize: drop generators whose leading monomial is redundant
    keep = _minimal_indices(lms)
    G = [G[i] for i in keep]
    lms = [lms[i] for i in keep]

    if order.is_global and G:
        # inter-reduce tails for a canonical reduced basis
        reduced = []
        for i, g in enumerate(G):
            others = G[:i] + G[i + 1:]
            if others:
                g = _reduce_global(g, others, order, budget)
            _, lc = g.leading(order)
            reduced.append(g * (1 / lc))
        G = reduced
        lms = [g.leading(order)[0] for g in G]

    idx = sorted(range(len(G)), key=lambda i: order.key(lms[i]))
    G = [G[i] for i in idx]
    lms = [lms[i] for i in idx]
    return StandardBasis(order, tuple(G), tuple(lms), True, budget.spent - start)


def _minimal_indices(lms):
    keep = []
    for i, m in enumerate(lms):
        redundant = False
        for j, other in enumerate(lms):
            if i == j:
                continue
            if _divides(other, m) and (other != m or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    return keep


def staircase(sb):
    """Minimal generators of the leading-monomial ideal (an antichain)."""
    lms = list(sb.leading_monomials)
    return tuple(lms[i] for i in _minimal_indices(lms))


def is_zero_dimensional(sb):
    """True iff the quotient is finite-dimensional: the ideal is the
    unit ideal, or every variable occurs to a pure power among the
    leading monomials."""
    if not sb.completed:
        raise ValueError("requires a completed basis")
    n = len(sb.ring)
    gens = staircase(sb)
    if (0,) * n in gens:
        return True
    for i in range(n):
        if not any(m[i] > 0 and all(m[j] == 0 for j in range(n) if j != i) for m in gens):
            return False
    return True


def colength(sb):
    """Number of standard monomials (monomials outside the leading
    ideal); the vector-space dimension of the quotient.  +inf when the
    quotient is infinite-dimensional."""
    if not sb.completed:
        raise ValueError("requires a completed basis")
    gens = staircase(sb)
    n = len(sb.ring)
    zero = (0,) * n
    if any(m == zero for m in gens):
        return 0
    if n == 0:
        return 1
    if not is_zero_dimensional(sb):
        return inf
    bounds = []
    for i in range(n):
        powers = [m[i] for m in gens if all(m[j] == 0 for j in range(n) if j != i) and m[i] > 0]
        bounds.append(min(powers))
    return _count_standard(gens, bounds)


def _count_standard(gens, bounds):
    n = len(bounds)
    count = 0
    point = [0] * n

    def rec(i):
        nonlocal count
        if i == n:
            if not any(_divides(m, tuple(point)) for m in gens):
                count += 1
            return
        for e in range(bounds[i]):
            point[i] = e
            rec(i + 1)
        point[i] = 0

    rec(0)
    return count


def staircase_colength_bruteforce(monomials, ring_size):
    """Independent combinatorial oracle: count lattice points under the
    staircase of a monomial ideal by direct enumeration."""
    gens = [tuple(m) for m in monomials]
    bounds = []
    for i in range(ring_size):
        pures = [m[i] for m in gens if m[i] > 0 and all(m[j] == 0 for j in range(ring_size) if j != i)]
        if not pures:
            return inf
        bounds.append(min(pures))
    return _count_standard(gens, bounds)
