"""Standard-basis engines and colength computation.

Global orders use Buchberger's algorithm with the product and chain
criteria.  Local orders use Lazard's method: Buchberger on the
homogenized generators under a global order, then dehomogenization;
normal forms against a local basis are Mora's weak normal form.

``local_colength`` computes dim O/I at the origin by truncated linear
algebra; Lazard's method decides the ideals whose truncations do not
stabilize.

Every reduction step and row elimination counts against a step budget:
running out raises ``BudgetExhaustedError``, it never returns a
truncated answer.  Inside a ``with step_budget(limit):`` block every
completion, normal form and local colength charges one shared budget,
so the limit caps the whole block; outside any block each call gets a
fresh budget of ``DEFAULT_BUDGET`` steps.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb, gcd, inf, lcm

from .errors import BudgetExhaustedError, ZeroInputError
from .orders import homogenized, negdegrevlex
from .poly import Polynomial

DEFAULT_BUDGET = 10**6
# Truncations of local_colength with more columns than this go to
# Lazard's method alone; on the benchmark corpus the largest truncation
# that stabilized had 680 columns.
MONOMIAL_CAP = 5000
# A step of Lazard's method (a reduction over Q) took 30 to 75 times as
# long as a row elimination of local_colength on the benchmark corpus;
# Lazard's loans are counted in its own steps.
LAZARD_STEP_RATIO = 64


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


class _LoanExhausted(Exception):
    """A loan of steps ran out; the lender's own budget may not have."""


class _Loan(_Budget):
    """Up to ``limit`` steps lent out of ``lender``, which is charged
    for each of them."""

    __slots__ = ("lender",)

    def __init__(self, limit, lender):
        super().__init__(limit)
        self.lender = lender

    def step(self):
        if self.remaining <= 0:
            raise _LoanExhausted()
        self.lender.step()
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
    """Run Buchberger (global) or Lazard's method (local) to a completed
    standard basis; the result is minimalized and monic.
    ``steps_used`` counts the steps this completion spent."""
    budget = _current_budget()
    start = budget.spent
    if order.is_global:
        G = _buchberger(generators, order, budget)
        # inter-reduce tails for a canonical reduced basis
        G = [_monic(_reduce_global(g, G[:i] + G[i + 1:], order, budget), order)
             for i, g in enumerate(G)]
    else:
        G = _lazard(generators, order, budget)
    lms = [g.leading(order)[0] for g in G]
    idx = sorted(range(len(G)), key=lambda i: order.key(lms[i]))
    G = [G[i] for i in idx]
    lms = [lms[i] for i in idx]
    return StandardBasis(order, tuple(G), tuple(lms), True, budget.spent - start)


def _monic(g, order):
    _, lc = g.leading(order)
    return g * (1 / lc)


def _buchberger(generators, order, budget):
    """Minimal monic standard basis under a global order."""
    G = []
    seen = set()
    for g in generators:
        if g.is_zero():
            continue
        g = _monic(g, order)
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
        h = _reduce_global(s_polynomial(G[i], G[j], order), G, order, budget)
        if h.is_zero():
            continue
        h = _monic(h, order)
        G.append(h)
        lms.append(h.leading(order)[0])
        k = len(G) - 1
        pairs.update((i2, k) for i2 in range(k))
    return [G[i] for i in _minimal_indices(lms)]


def _lazard(generators, order, budget):
    """Minimal monic standard basis under the local degree order
    ``order``: the dehomogenized basis of the homogenized generators
    (Lazard 1983; Greuel-Pfister, section 1.7)."""
    ring = order.ring
    tag = "_h"
    while tag in ring:
        tag += "_"
    hom = [Polynomial(ring + (tag,), {e + (g.total_degree() - sum(e),): c
                                      for e, c in g.terms.items()})
           for g in generators]
    # setting h = 1 merges no terms, as each g is homogeneous
    G = [_monic(Polynomial(ring, {e[:-1]: c for e, c in g.terms.items()}), order)
         for g in _buchberger(hom, homogenized(ring + (tag,)), budget)]
    return [G[i] for i in _minimal_indices([g.leading(order)[0] for g in G])]


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


def local_colength(gens, ring):
    """dim O/I for the ideal I of ``gens`` in the local ring O at the
    origin: an int, or +inf when I is not primary to the maximal ideal m.

    c_k = dim Q[x]/(I + m^k) is read off one fraction-free integer
    elimination of the multiples x^a*g truncated below degree K.  At the
    first k with c_k = c_(k+1), m^k lies in I + m^(k+1), so Nakayama's
    lemma gives m^k in I*O and c_k is exact.  K starts at the largest
    generator order plus 3 and grows by half.

    No truncation stabilizes when I is not m-primary, while Lazard's
    method decides every ideal.  So after each truncation that does not
    stabilize, Lazard's method may spend that truncation's row
    eliminations over ``LAZARD_STEP_RATIO`` of its own steps, about as
    long in time.  A loan of no steps is tried only after a truncation
    without eliminations: it settles ideals such as <x> in two variables,
    which need no reduction.  Past ``MONOMIAL_CAP`` columns Lazard's
    method gets the whole budget."""
    ring = tuple(ring)
    n = len(ring)
    int_gens = [_primitive(g) for g in gens if not g.is_zero()]
    budget = _current_budget()
    K = max((min(map(sum, g)) for g in int_gens), default=0) + 3
    while comb(n + K - 1, n) <= MONOMIAL_CAP:
        start = budget.spent
        c = _truncated_colength(int_gens, n, K, budget)
        if c is not None:
            return c
        spent = budget.spent - start
        if spent == 0 or spent >= LAZARD_STEP_RATIO:
            try:
                loan = _Loan(spent // LAZARD_STEP_RATIO, budget)
                return _lazard_colength(gens, ring, loan)
            except _LoanExhausted:
                pass
        K += K // 2
    return _lazard_colength(gens, ring, budget)


def _lazard_colength(gens, ring, budget):
    token = _active_budget.set(budget)
    try:
        return colength(complete_basis(gens, negdegrevlex(ring)))
    finally:
        _active_budget.reset(token)


def _primitive(g):
    """Coefficients of g scaled to coprime integers."""
    den = lcm(*(c.denominator for c in g.terms.values()))
    ints = {e: int(c * den) for e, c in g.terms.items()}
    content = gcd(*ints.values())
    return {e: v // content for e, v in ints.items()}


@lru_cache(maxsize=64)
def _columns(n, K):
    """The monomials of degree < K in n variables as codes sum e_i*K^i,
    one tuple per degree, each largest first under the local order (the
    code orders like the reversed exponent tuple); and each code's
    column."""
    units = [K**i for i in range(n)]
    by_degree = [(0,)]
    for _ in range(1, K):
        by_degree.append(tuple(sorted({c + u for c in by_degree[-1] for u in units})))
    index = {c: j for j, c in enumerate(chain.from_iterable(by_degree))}
    return by_degree, index


def _truncated_colength(int_gens, n, K, budget):
    """c_k for the first k < K with c_k = c_(k+1), or None; ``int_gens``
    are the generators with coprime integer coefficients.

    Columns are the monomials of degree < K, lowest degree first, so a
    row's lowest column is its local leading monomial.  The rows x^a*g
    whose lowest column has degree d are built and eliminated degree by
    degree; no later row can add a pivot of degree <= d, and
    c_(d+1) = c_d exactly when every monomial of degree d is a pivot."""
    by_degree, index = _columns(n, K)
    coded = []  # (order, [(degree, code, coefficient)]) per generator
    for g in int_gens:
        terms = [(sum(e), sum(k * K**i for i, k in enumerate(e)), c) for e, c in g.items()]
        coded.append((min(t[0] for t in terms), [t for t in terms if t[0] < K]))
    pivots = {}
    below = 0  # columns of degree < d
    found = 0  # pivots of degree < d
    for d, codes in enumerate(by_degree):
        rows = []
        for order, terms in coded:
            if order <= d:
                # x^a*g with |a| = d - order, truncated below degree K
                kept = [(code, c) for deg, code, c in terms if deg + d - order < K]
                rows += ({index[a + code]: c for code, c in kept} for a in by_degree[d - order])
        rows.sort(key=min)
        for row in rows:
            _eliminate(row, pivots, budget)
        end = below + len(codes)
        at_d = sum(1 for j in range(below, end) if j in pivots)
        if at_d == len(codes):
            return below - found
        below, found = end, found + at_d
    return None


def _eliminate(row, pivots, budget):
    """Reduce an integer row by the pivot rows, each keyed by its lowest
    column, and keep what is left as a new pivot row."""
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            pivots[lead] = row
            return
        budget.step()
        a, b = piv[lead], row[lead]
        g = gcd(a, b)
        a, b = a // g, b // g
        new = {j: a * v for j, v in row.items()}
        for j, v in piv.items():
            w = new.get(j, 0) - b * v
            if w:
                new[j] = w
            else:
                del new[j]
        if new:
            g = gcd(*new.values())
            if g != 1:
                new = {j: v // g for j, v in new.items()}
        row = new
