"""Standard-basis engines and colength computation.

Every monomial order in ``orders`` is global (1 is the least
monomial), and ``complete_basis`` runs Buchberger's algorithm with the
product and chain criteria.  Pairs are taken lowest lcm degree first
from a heap (the normal selection strategy), and reduction works in
place on a term dict of exponent tuples to Fractions, with the
monomials' order keys cached; the multiply-accumulate kernel is
``poly._add_shifted``.  ``normal_form`` reduces against a completed
basis, and ``minimal_polynomial`` reads the minimal polynomial of a
variable off the basis of a zero-dimensional ideal by single-variable
FGLM.

``local_colength`` computes dim O/I at the origin by truncated linear
algebra; Lazard's method decides the ideals whose truncations do not
stabilize.  It completes the homogenized generators under
``Homogenized`` and reads the local staircase off the leading
monomials, so no local order is needed.

Every reduction step and row elimination counts against a step budget:
running out raises ``BudgetExhaustedError``, it never returns a
truncated answer.  Inside a ``with step_budget(limit):`` block every
completion, normal form, minimal polynomial and local colength charges
one shared budget, so the limit caps the whole block; outside any block
each call gets a fresh budget of ``DEFAULT_BUDGET`` steps.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from math import comb, gcd, inf, lcm, prod

from .errors import BudgetExhaustedError, NonIsolatedError
from .orders import homogenized
from .poly import Polynomial, _add_shifted, _monic, fresh_variable

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


def _quotient(a, b):
    return tuple(x - y for x, y in zip(a, b))


class _Keys(dict):
    """order.key of each monomial, computed on first lookup."""

    def __init__(self, order):
        super().__init__()
        self.key = order.key

    def __missing__(self, exps):
        k = self[exps] = self.key(exps)
        return k


def _reducers(gens, keys):
    """(leading monomial, leading coefficient, other terms) per generator."""
    out = []
    for g in gens:
        lm = max(g.terms, key=keys.__getitem__)
        out.append((lm, g.terms[lm], [(e, c) for e, c in g.terms.items() if e != lm]))
    return out


def _s_terms(r, s, lcm):
    """Terms of spoly for two reducers; their leading terms cancel."""
    h = {}
    _add_shifted(h, r[2], _quotient(lcm, r[0]), 1 / r[1])
    _add_shifted(h, s[2], _quotient(lcm, s[0]), -1 / s[1])
    return h


def _reduce_global(h, reducers, keys, budget):
    """Ordinary multivariate division of the term dict h, fully reduced,
    by the first reducer whose leading monomial divides; h is used up.
    Returns the remainder's term dict."""
    remainder = {}
    while h:
        lm_h = max(h, key=keys.__getitem__)
        lc_h = h.pop(lm_h)
        for lm_g, lc_g, tail in reducers:
            if _divides(lm_g, lm_h):
                break
        else:
            remainder[lm_h] = lc_h
            continue
        budget.step()
        _add_shifted(h, tail, _quotient(lm_h, lm_g), -lc_h / lc_g)
    return remainder


def normal_form(f, sb):
    """Normal form of f against a completed basis; zero iff f lies in
    the ideal."""
    if not sb.completed:
        raise ValueError("normal form requires a completed basis")
    if f.is_zero() or not sb.generators:
        return f
    keys = _Keys(sb.order)
    reducers = _reducers(sb.generators, keys)
    return Polynomial(f.ring, _reduce_global(dict(f.terms), reducers, keys, _current_budget()))


def minimal_polynomial(sb, var):
    """Minimal polynomial of multiplication by ``var`` on Q[x]/I, for
    the ideal I of a completed basis ``sb``: the monic generator of I
    meeting Q[var], over the ring (var,); 1 for the unit ideal.  A
    positive-dimensional I raises ``NonIsolatedError``.

    Single-variable FGLM (Faugere-Gianni-Lazard-Mora 1993): the normal
    form of each power of ``var`` is ``var`` times the last one, reduced
    against sb, and each is eliminated by the rows of the earlier ones
    over Q, carrying its combination of powers along.  The first power
    eliminated to zero gives the dependency; the quotient has dimension
    colength(sb), so that is within colength + 1 powers."""
    if not sb.completed:
        raise ValueError("minimal polynomial requires a completed basis")
    dim = colength(sb)
    if dim == inf:
        raise NonIsolatedError("the minimal polynomial needs a zero-dimensional ideal")
    keys = _Keys(sb.order)
    reducers = _reducers(sb.generators, keys)
    budget = _current_budget()
    zero = (0,) * len(sb.ring)
    i = sb.ring.index(var)
    rows = []  # (pivot monomial, row, its combination of powers)
    nf = _reduce_global({zero: Fraction(1)}, reducers, keys, budget)
    for k in range(dim + 1):
        row, combo = dict(nf), {(k,): Fraction(1)}
        for pivot, prow, pcombo in rows:
            c = row.get(pivot)
            if c:
                budget.step()
                q = -c / prow[pivot]
                _add_shifted(row, prow.items(), zero, q)
                _add_shifted(combo, pcombo.items(), (0,), q)
        if not row:
            return Polynomial((var,), combo)
        rows.append((next(iter(row)), row, combo))
        nf = _reduce_global({e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in nf.items()},
                            reducers, keys, budget)
    raise AssertionError("colength + 1 normal forms are always dependent")


def complete_basis(generators, order):
    """Run Buchberger to the reduced standard basis: minimal, monic and
    tail-reduced.  ``steps_used`` counts the steps this completion
    spent."""
    budget = _current_budget()
    start = budget.spent
    G = _buchberger(generators, order, budget)
    # inter-reduce tails for a canonical reduced basis; G is minimal and
    # monic, so each leading term survives with coefficient 1
    keys = _Keys(order)
    reducers = _reducers(G, keys)
    G = [Polynomial(g.ring, _reduce_global(dict(g.terms), reducers[:i] + reducers[i + 1:],
                                           keys, budget))
         for i, g in enumerate(G)]
    lms = [g.leading(order)[0] for g in G]
    idx = sorted(range(len(G)), key=lambda i: order.key(lms[i]))
    G = [G[i] for i in idx]
    lms = [lms[i] for i in idx]
    return StandardBasis(order, tuple(G), tuple(lms), True, budget.spent - start)


def _buchberger(generators, order, budget):
    """Minimal monic standard basis under ``order``.  Pairs wait in
    a heap keyed by (degree of their lcm, i, j), the lcm computed once
    when the pair is made (the normal selection strategy)."""
    G = []
    seen = set()
    for g in generators:
        if g.is_zero():
            continue
        g = _monic(g, order)
        if g not in seen:
            seen.add(g)
            G.append(g)
    keys = _Keys(order)
    reducers = _reducers(G, keys)
    lms = [r[0] for r in reducers]
    pairs = []
    done = set()

    def add_pairs(j):
        for i in range(j):
            lcm = _lcm(lms[i], lms[j])
            heappush(pairs, (sum(lcm), i, j, lcm))

    for j in range(len(G)):
        add_pairs(j)
    while pairs:
        _, i, j, lcm = heappop(pairs)
        done.add((i, j))
        # product criterion: coprime leading monomials reduce to zero
        if lcm == tuple(a + b for a, b in zip(lms[i], lms[j])):
            continue
        # chain criterion: some lm_k divides the lcm, (i, k) and (j, k)
        # done; (k, k) never is, so k is neither i nor j
        if any((min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               and _divides(lms[k], lcm) for k in range(len(G))):
            continue
        h = _reduce_global(_s_terms(reducers[i], reducers[j], lcm), reducers, keys, budget)
        if not h:
            continue
        lm = max(h, key=keys.__getitem__)
        G.append(Polynomial(G[i].ring, h) * (1 / h[lm]))
        reducers += _reducers(G[-1:], keys)
        lms.append(lm)
        add_pairs(len(G) - 1)
    return [G[i] for i in _minimal_indices(lms)]


def _minimal_indices(lms):
    """Indices of the monomials no other divides; of equal ones, the first."""
    return [i for i, m in enumerate(lms)
            if not any(_divides(o, m) and (o != m or j < i) for j, o in enumerate(lms) if j != i)]


def staircase(sb):
    """Minimal generators of the leading-monomial ideal (an antichain)."""
    return _antichain(sb.leading_monomials)


def _antichain(lms):
    return tuple(lms[i] for i in _minimal_indices(lms))


def _pure_power_bounds(gens, n):
    """For each variable, the least exponent of its pure powers among
    the monomials ``gens``; None when some variable has none."""
    bounds = [inf] * n
    for m in gens:
        support = [i for i in range(n) if m[i]]
        if len(support) == 1:
            (i,) = support
            bounds[i] = min(bounds[i], m[i])
    return None if inf in bounds else bounds


def colength(sb):
    """Number of standard monomials (monomials outside the leading
    ideal); the vector-space dimension of the quotient.  +inf when the
    quotient is infinite-dimensional."""
    if not sb.completed:
        raise ValueError("requires a completed basis")
    return _staircase_colength(sb.leading_monomials, len(sb.ring))


def _staircase_colength(lms, n):
    """Number of monomials in n variables that no monomial of ``lms``
    divides: 0 when 1 is among them, +inf when some variable has no
    pure power among them."""
    gens = _antichain(lms)
    if (0,) * n in gens:
        return 0
    bounds = _pure_power_bounds(gens, n)
    if bounds is None:
        return inf
    return _count_standard(gens, bounds)


def _count_standard(gens, bounds):
    """Monomials below ``bounds`` that no generator divides.  The box is
    cut at the generators' exponents in each coordinate; within a cell
    each generator divides every point or none, so each cell counts by
    the product of its interval lengths.  ``live`` holds the generators
    that divide the cell's points in the coordinates fixed so far."""
    n = len(bounds)

    def rec(i, live):
        if not live:
            return prod(bounds[i:])
        if i == n:
            return 0
        cuts = sorted({0, bounds[i]} | {m[i] for m in live if m[i] < bounds[i]})
        return sum((hi - lo) * rec(i + 1, [m for m in live if m[i] <= lo])
                   for lo, hi in zip(cuts, cuts[1:]))

    return rec(0, gens)


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
    """dim O/I by Lazard's method (Lazard 1983; Greuel-Pfister, section
    1.7), every step charged to ``budget``: Buchberger on the
    homogenized generators under ``Homogenized``.  The leading monomial
    of a homogeneous basis element, without its h-exponent, is the local
    leading monomial of its dehomogenization (lowest degree, ties by
    revlex), and these generate the local leading ideal."""
    tag = fresh_variable(ring, "_h")
    order = homogenized(ring + (tag,))
    hom = [Polynomial(order.ring, {e + (g.total_degree() - sum(e),): c
                                   for e, c in g.terms.items()})
           for g in gens]
    lms = [g.leading(order)[0][:-1] for g in _buchberger(hom, order, budget)]
    return _staircase_colength(lms, len(ring))


def _primitive(g):
    """Coefficients of g scaled to coprime integers."""
    den = lcm(*(c.denominator for c in g.terms.values()))
    ints = {e: int(c * den) for e, c in g.terms.items()}
    content = gcd(*ints.values())
    return {e: v // content for e, v in ints.items()}


@lru_cache(maxsize=64)
def _columns(n, K):
    """The monomials of degree < K in n variables as codes sum e_i*K^i,
    one tuple per degree, each sorted by code (the code orders like the
    reversed exponent tuple); and each code's column."""
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
