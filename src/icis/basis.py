"""Standard-basis engines and colength computation.

Every monomial order in ``orders`` is global (1 is the least
monomial), and ``complete_basis`` runs Buchberger's algorithm with the
product and chain criteria.  Pairs are taken lowest lcm degree first
from a heap (the normal selection strategy).  Reduction is
fraction-free (Geddes-Czapor-Labahn, ch. 10): each reducer is a row of
coprime integer coefficients, and it works in place on a term dict of
exponent tuples to ints, with the monomials' order keys cached; the
multiply-accumulate kernel is ``poly._add_shifted``.  Every
divisibility test is screened first by short exponent vectors
(``_mask``, Bachmann-Schoenemann 1998).  Rationals appear only at the
boundary: the generators of a ``StandardBasis`` are monic polynomials,
built from the primitive rows of the inter-reduced basis, whose
coefficients are Fractions only where the leading coefficient does not
divide them; ``complete_basis``, ``normal_form`` and
``minimal_polynomial`` divide by a reduction's scale once per result,
exactly (``poly._div``).  ``normal_form`` reduces
against a completed basis, and ``minimal_polynomial`` reads the minimal
polynomial of a variable off the basis of a zero-dimensional ideal by
single-variable FGLM; both reduce by the rows that the
``StandardBasis`` keeps next to its generators.

``eliminate`` is the one entry for elimination ideals under a block
order (``ideals.elimination_ideal`` and ``poly.gcd`` call it).  It
substitutes away every eliminated variable that some generator holds in
one linear term c*v (Singular's ``elimpart``; Greuel-Pfister, *A Singular
Introduction to Commutative Algebra*), completes the rest, and
inter-reduces only the rows free of the eliminated block.  That
substitution, ``_substitute_linear``, also finds a map's unfoldings.

``local_colength`` computes dim O/I at the origin by truncated linear
algebra; Lazard's method decides the ideals whose truncations do not
stabilize.  It completes the homogenized generators under the
elimination order of the homogenizing variable and reads the local
staircase off the leading monomials, so no local order is needed.
Both the truncation and ``minimal_polynomial`` eliminate integer rows
with one kernel, ``_eliminate``, which reduces a row in place.  The
truncation skips the rows that the Koszul criterion (Faugere's F5, 2002)
shows dependent: x^a*g_j when an earlier generator's local leading
monomial divides x^a.

Before it truncates, ``local_colength`` looks for a certificate that
spends no step: when the generators' local leading monomials, taken in
degree or under Arnold's weights, are pairwise coprime, the colength is
the staircase count of their monomial ideal.  Its truncations resume one
another's rows (``_TruncationState``), and each one that does not
stabilize may lend Lazard's method steps: a loan is a ``_Budget`` of its
own, whose steps are charged to the run's budget.  The docstring of
``local_colength`` gives the reasons, the measurements and the proofs.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from itertools import chain
from math import comb, gcd, inf, lcm, prod
from operator import itemgetter, le, mul, sub

from .errors import BudgetExhaustedError, NonIsolatedError
from .orders import elimination_order
from .poly import Polynomial, _add_shifted, _div, fresh_variable

DEFAULT_BUDGET = 10**6
# Truncations of local_colength with more columns than this go to
# Lazard's method alone; on the perfbench germs (2 rounds), families (1
# round) and hard_germs (8 rounds) corpora, seed 1, the largest
# truncation that stabilized had 680 columns (re-measured with resumed
# truncations).
MONOMIAL_CAP = 5000
# A step of Lazard's method (an integer reduction step of Buchberger) took
# about 8 times as long as a row elimination of local_colength: 56.8-57.3
# against 6.5-7.5 us on a 2-core Xeon (two runs, resumed truncations),
# over the 102 of the 190 local_colength calls of the perfbench germs
# (2 rounds), families (1 round) and hard_germs (8 rounds) corpora, seed
# 1, that the coprime-staircase certificate leaves to the truncation and
# that eliminate; per-call quartiles 3.8 / 6.1-6.6 / 9.0-9.9.  Lazard's
# loans are counted in its own steps, with a floor of twice this many
# (local_colength).  With ratios from 4 to 8, and a floor of one ratio,
# the hard cases of tests/test_germs.py took 37,324-37,644, 6,194-6,236
# and 1,682-1,833 steps, the fewest at 8.
LAZARD_STEP_RATIO = 8


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
    The previous budget is restored on every exit path.  ``limit`` must
    be a non-negative int; it is checked when the block opens."""
    if not isinstance(limit, int) or isinstance(limit, bool):
        raise TypeError(f"step budget must be an int, not {type(limit).__name__}")
    if limit < 0:
        raise ValueError(f"step budget must be non-negative, not {limit}")
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
    """``rows`` holds the reducer row of each generator, in the order of
    ``generators``, and ``keys`` the ``_Keys`` they were built with;
    normal forms and minimal polynomials reduce by them.  The colength
    is counted on first use and kept (``colength``)."""

    order: object
    generators: tuple
    leading_monomials: tuple
    rows: tuple = field(repr=False, compare=False)
    keys: object = field(repr=False, compare=False)
    steps_used: int = 0

    @property
    def ring(self):
        return self.order.ring

    @cached_property
    def _colength(self):
        return _staircase_colength(self.leading_monomials, len(self.ring))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _divides(a, b):
    return all(map(le, a, b))


def _quotient(a, b):
    return tuple(map(sub, a, b))


_NIBBLES = (0, 1, 3, 7, 15)  # the thresholds 1, 2, 4, 8 reached, by bit length


def _mask(e):
    """Short exponent vector of the monomial e (Bachmann-Schoenemann
    1998): four bits per variable, one for each of the thresholds 1, 2,
    4 and 8 that its exponent reaches.  If a divides b then
    _mask(a) & ~_mask(b) == 0, so a nonzero value proves that a does
    not divide b; and a, b are coprime iff _mask(a) & _mask(b) == 0."""
    m = 0
    for i, x in enumerate(e):
        if x:
            m |= _NIBBLES[min(x.bit_length(), 4)] << 4 * i
    return m


class _Keys(dict):
    """order.key of each monomial, computed on first lookup; ``masks``
    likewise caches ``_mask``."""

    def __init__(self, order):
        super().__init__()
        self.key = order.key
        self.masks = _Masks()

    def __missing__(self, exps):
        k = self[exps] = self.key(exps)
        return k


class _Masks(dict):
    def __missing__(self, exps):
        m = self[exps] = _mask(exps)
        return m


def _row(terms, keys):
    """The reducer row (leading monomial, leading coefficient, other
    terms, mask of the leading monomial) of an integer term dict, scaled
    to coprime integers with a positive leading coefficient: the same
    row for every rational multiple of the polynomial."""
    lm = max(terms, key=keys.__getitem__)
    content = gcd(*terms.values())
    if terms[lm] < 0:
        content = -content
    return (lm, terms[lm] // content,
            [(e, c // content) for e, c in terms.items() if e != lm], keys.masks[lm])


def _s_terms(r, s, lcm):
    """Integer terms of the S-polynomial of two reducer rows, times
    lc_r*lc_s/gcd(lc_r, lc_s); their leading terms cancel."""
    g = gcd(r[1], s[1])
    h = {}
    _add_shifted(h, r[2], _quotient(lcm, r[0]), s[1] // g)
    _add_shifted(h, s[2], _quotient(lcm, s[0]), -(r[1] // g))
    return h


def _reduce_global(h, reducers, keys, budget):
    """Ordinary multivariate division of the integer term dict h, fully
    reduced, by the first reducer row whose leading monomial divides; h
    is used up.  Fraction-free: before a step cancels c*x^a against a
    row led by lc, h and the remainder are multiplied by lc/gcd(lc, c).
    Returns (remainder, scale): the remainder's integer term dict is the
    product ``scale`` of those factors times the normal form of the h
    given."""
    remainder = {}
    scale = 1  # remainder + h == scale * (the h given), modulo the reducers
    masks = keys.masks
    while h:
        lm_h = max(h, key=keys.__getitem__)
        lc_h = h.pop(lm_h)
        outside = ~masks[lm_h]
        for lm_g, lc_g, tail, mask_g in reducers:
            if not mask_g & outside and _divides(lm_g, lm_h):
                break
        else:
            remainder[lm_h] = lc_h
            continue
        budget.step()
        q, r = divmod(lc_h, lc_g)
        if r:
            g = gcd(lc_g, lc_h)
            m, q = lc_g // g, lc_h // g
            for terms in (h, remainder):
                for e in terms:
                    terms[e] *= m
            scale *= m
        _add_shifted(h, tail, _quotient(lm_h, lm_g), -q)
    return remainder, scale


def normal_form(f, sb):
    """Normal form of f against a completed basis; zero iff f lies in
    the ideal."""
    if f.is_zero() or not sb.generators:
        return f
    ints = _primitive(f)
    e, c = next(iter(f.terms.items()))
    k = _div(c, ints[e])  # f = k * ints
    rem, scale = _reduce_global(ints, sb.rows, sb.keys, _current_budget())
    k = _div(k, scale)
    return Polynomial(f.ring, {e: k * v for e, v in rem.items()})


def minimal_polynomial(sb, var):
    """Minimal polynomial of multiplication by ``var`` on Q[x]/I, for
    the ideal I of a completed basis ``sb``: the monic generator of I
    meeting Q[var], over the ring (var,); 1 for the unit ideal.  A
    positive-dimensional I raises ``NonIsolatedError``.

    Single-variable FGLM (Faugere-Gianni-Lazard-Mora 1993): the normal
    form of each power v^k is v times the last one, reduced against sb
    as a primitive integer term dict; v^k is factors[k] times it.  Each
    dict is a row of ``_eliminate`` over the standard monomials, columns
    below dim = colength(sb), plus an entry 1 in the tag column dim + k.
    The first kept row whose lowest column is a tag has eliminated its
    monomials: its tag entries over the powers' factors are the
    coefficients of the dependency, which comes within dim + 1 powers."""
    dim = NonIsolatedError.unless_finite(
        colength(sb), "the minimal polynomial needs a zero-dimensional ideal")
    budget = _current_budget()
    i = sb.ring.index(var)
    columns, pivots, factors = {}, {}, []
    nf, factor = {(0,) * len(sb.ring): 1}, Fraction(1)
    for k in range(dim + 1):
        nf, scale = _reduce_global(nf, sb.rows, sb.keys, budget)
        content = gcd(*nf.values())
        if content > 1:
            nf = {e: v // content for e, v in nf.items()}
            factor *= content
        factor /= scale
        factors.append(factor)
        row = {columns.setdefault(e, len(columns)): v for e, v in nf.items()}
        row[dim + k] = 1
        row = _eliminate(row, pivots, budget)
        if min(row) >= dim:
            lead = row[dim + k] / factor
            return Polynomial((var,), {(j - dim,): v / factors[j - dim] / lead
                                       for j, v in row.items()})
        nf = {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in nf.items()}
    raise AssertionError("colength + 1 normal forms are always dependent")


def complete_basis(generators, order):
    """Run Buchberger to the reduced standard basis: minimal, monic and
    tail-reduced.  ``steps_used`` counts the steps this completion
    spent."""
    budget = _current_budget()
    start = budget.spent
    keys = _Keys(order)
    minimal = _buchberger([_primitive(g) for g in generators if not g.is_zero()], keys, budget)
    rows = _inter_reduce(minimal, keys, budget)
    generators = tuple(Polynomial(order.ring, _monic_terms(r)) for r in rows)
    lms = tuple(r[0] for r in rows)
    return StandardBasis(order, generators, lms, rows, keys, budget.spent - start)


def eliminate(generators, order):
    """Reduced basis of the elimination ideal I ∩ Q[kept], for the ideal I
    of ``generators`` and a ``Block`` order: monic polynomials over the
    kept variables (in ring order), sorted by leading monomial.  It is
    the block-free part of ``complete_basis(generators, order)``, without
    completing the rest.

    First the linear variables go (``_substitute_linear``): while some
    generator holds an eliminated variable v only in one term c*v, v is
    set to its value in the other generators and v and that generator
    are dropped.  The quotient rings agree over the other variables, so
    the elimination ideal is unchanged.  Then Buchberger completes what
    is left over the kept variables and the eliminated ones still used,
    under the same block order on them, and only the minimal rows whose
    leading monomial is free of the eliminated block are kept: under a
    block order every term of such a row is block-free, and only such
    rows divide its monomials, so inter-reducing them among themselves
    gives the block-free rows of the reduced basis."""
    budget = _current_budget()
    block = sorted(order.eliminate)
    gens = _substitute_linear([_primitive(g) for g in generators if not g.is_zero()],
                              block, len(order.ring))
    live = [i for i in block if any(e[i] for g in gens for e in g)]
    places = sorted(live + list(order.keep))
    order = elimination_order([order.ring[i] for i in places], [order.ring[i] for i in live])
    gens = [{tuple([e[i] for i in places]): c for e, c in g.items()} for g in gens]
    keys = _Keys(order)
    minimal = [r for r in _buchberger(gens, keys, budget)
               if not any(r[0][i] for i in order.eliminate)]
    kept = order.keep
    ring = tuple(order.ring[i] for i in kept)
    return tuple(Polynomial(ring, {tuple([e[i] for i in kept]): c
                                   for e, c in _monic_terms(r).items()})
                 for r in _inter_reduce(minimal, keys, budget))


def _substitute_linear(gens, block, n):
    """The integer term dicts ``gens`` with every linear variable of
    ``block`` substituted away, in a list; ``gens`` is not changed.  A
    variable x_i is linear in g when its only term in g holding x_i is
    c*x_i; g = c*x_i + h gives x_i = -h/c, and each other generator f,
    of degree d in x_i, becomes c^d*f(x_i = -h/c), primitive, with g
    dropped (zero results too).  Variables are taken in ring order and
    generators in list order, and the search restarts after each
    substitution, since it can make a later generator linear.  ``n`` is
    the number of variables.  Each substitution removes a variable, so
    there are at most len(block) of them; they are not reductions and
    charge no step.  Callers: ``eliminate``, and ``germs.discriminant``
    on a map's graph."""
    while True:
        for i in block:
            unit = (0,) * i + (1,) + (0,) * (n - i - 1)
            j = next((j for j, g in enumerate(gens)
                      if unit in g and not any(e[i] for e in g if e != unit)), None)
            if j is not None:
                break
        else:
            return gens
        c = gens[j][unit]
        minus_h = [(e, -v) for e, v in gens[j].items() if e != unit]
        gens = [f for f in (_substitute(f, i, c, minus_h) for f in gens[:j] + gens[j + 1:]) if f]


def _substitute(f, i, c, minus_h):
    """c^d * f(x_i = -h/c) for the integer term dict f of degree d in
    x_i, by Horner's rule on the coefficients of f in x_i; primitive."""
    parts = {}
    for e, v in f.items():
        parts.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = v
    d = max(parts)
    if not d:
        return f
    out = parts[d]
    for k in range(d - 1, -1, -1):
        prev, out = out, {e: c ** (d - k) * v for e, v in parts.get(k, {}).items()}
        for e, v in prev.items():
            _add_shifted(out, minus_h, e, v)
    content = gcd(*out.values())
    return {e: v // content for e, v in out.items()}


def _inter_reduce(minimal, keys, budget):
    """The rows of a minimal basis with their tails inter-reduced, sorted
    by leading monomial: the rows of the reduced basis.  The basis is
    minimal, so each leading term survives."""
    rows = {}
    for i, (lm, lc, tail, _) in enumerate(minimal):
        h = dict(tail)
        h[lm] = lc
        rem, _ = _reduce_global(h, minimal[:i] + minimal[i + 1:], keys, budget)
        rows[lm] = _row(rem, keys)
    return tuple(rows[m] for m in sorted(rows, key=keys.__getitem__))


def _monic_terms(row):
    """The term dict of a reducer row scaled to leading coefficient 1."""
    lm, lc, tail, _ = row
    return {lm: 1, **{e: _div(c, lc) for e, c in tail}}


def _buchberger(generators, keys, budget):
    """Reducer rows of a minimal standard basis, under the order of
    ``keys``, of the nonzero integer term dicts ``generators``.  Pairs
    wait in a heap keyed by (degree of their lcm, i, j), the lcm
    computed once when the pair is made (the normal selection
    strategy)."""
    rows = []
    seen = set()
    for g in generators:
        r = _row(g, keys)
        key = (r[0], r[1], frozenset(r[2]))
        if key not in seen:
            seen.add(key)
            rows.append(r)
    lms = [r[0] for r in rows]
    masks = [r[3] for r in rows]
    pairs = []
    done = set()

    def add_pairs(j):
        for i in range(j):
            lcm = _lcm(lms[i], lms[j])
            heappush(pairs, (sum(lcm), i, j, lcm))

    for j in range(len(rows)):
        add_pairs(j)
    while pairs:
        _, i, j, lcm = heappop(pairs)
        done.add((i, j))
        done.add((j, i))
        # product criterion: coprime leading monomials reduce to zero
        if not masks[i] & masks[j]:
            continue
        # chain criterion: some lm_k divides the lcm, (i, k) and (j, k)
        # done; (k, k) never is, so k is neither i nor j.  ``done`` holds
        # both orientations of a pair and is asked first: in few variables
        # most masks pass the screen
        outside = ~(masks[i] | masks[j])  # the mask of the lcm
        if any((i, k) in done and (j, k) in done and _divides(lms[k], lcm)
               for k, m in enumerate(masks) if not m & outside):
            continue
        h, _ = _reduce_global(_s_terms(rows[i], rows[j], lcm), rows, keys, budget)
        if not h:
            continue
        rows.append(_row(h, keys))
        lms.append(rows[-1][0])
        masks.append(rows[-1][3])
        add_pairs(len(rows) - 1)
    return [rows[i] for i in _minimal_indices(lms)]


def _minimal_indices(lms):
    """Indices of the monomials no other divides; of equal ones, the first."""
    masks = [_mask(m) for m in lms]
    return [i for i, m in enumerate(lms)
            if not any(not masks[j] & ~masks[i] and _divides(o, m) and (o != m or j < i)
                       for j, o in enumerate(lms) if j != i)]


def staircase(sb):
    """Minimal generators of the leading-monomial ideal (an antichain):
    the leading monomials of the reduced basis."""
    return sb.leading_monomials


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
    quotient is infinite-dimensional.  Counted once per basis:
    ``minimal_polynomial`` asks for it once per variable."""
    return sb._colength


def _staircase_colength(lms, n):
    """Number of monomials in n variables that no monomial of ``lms``
    divides: 0 when 1 is among them, +inf when some variable has no
    pure power among them."""
    gens = [lms[i] for i in _minimal_indices(lms)]
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
    elimination of the multiples x^a*g truncated below degree K, less
    the rows the Koszul criterion drops (``_truncated_colength``).  At
    the first k with c_k = c_(k+1), m^k lies in I + m^(k+1), so
    Nakayama's lemma gives m^k in I*O and c_k is exact.  K starts at the
    largest generator order plus 3 and grows by half.

    Each truncation resumes where the last one's rows were whole.  A
    row x^a*g built at degree d spans degrees d to d + S, S the largest
    deg - order of a generator, so at truncation K every row built at a
    degree <= w = K - S - 1, and every row it was reduced by, is uncut.
    A column's number depends only on its degree and reversed exponents,
    not on K, so the pivots, ``below`` and ``found`` at the end of degree
    w are those of every larger K.  The next truncation starts at degree
    w + 1 from a copy of them (at degree 0 while w < 0).  The stop is
    Nakayama's as before, so every answer is that of a truncation built
    from degree 0.

    No truncation stabilizes when I is not m-primary, while Lazard's
    method decides every ideal.  So after each truncation that does not
    stabilize, Lazard's method may spend that truncation's row
    eliminations over ``LAZARD_STEP_RATIO`` of its own steps, about as
    long in time, priced from that truncation alone, which costs the
    hard germs of ``tests/test_germs.py`` fewer steps than a loan priced
    from all the truncations of the call.  A loan must cover the set-up of
    a start (homogenizing, pairs, S-polynomials: a start that fails on its
    first step took 0.14-0.18 ms, 22-24 eliminations, on the calls that
    price ``LAZARD_STEP_RATIO``) and then some reduction, so none of fewer
    than 2 * ``LAZARD_STEP_RATIO`` steps is lent: a smaller loan runs out
    and throws its set-up away.  A loan of no steps is lent only after a
    truncation without eliminations: it settles an ideal whose generators
    overlap only in an lcm above the first K, such as <x^5*y, x*z^5>, in
    no step, where the later truncations take 153.  A loan is a
    ``_Budget`` of its steps, or of the run's remaining steps when fewer,
    charged to the run on every exit; a loan that runs out is given up,
    but when the run's budget ran out first, ``BudgetExhaustedError``
    propagates.  Past ``MONOMIAL_CAP`` columns Lazard's method gets the
    whole budget.

    Before any truncation, the generators' local leading monomials LL_j
    (each the least term in degree, then reversed exponents: the
    truncation's lowest column) are checked for being pairwise coprime.
    If they are, the colength is that of the monomial ideal <LL>
    (``_staircase_colength``), which is what every truncation converges
    to, and no step is spent.  Proof: a kept row x^a*g_j has lowest
    column x^a*LL_j.  If x^a*LL_j = x^b*LL_k with j < k, coprimality
    gives LL_j | x^b, so the Koszul cut already dropped x^b*g_k.  Hence
    every kept row is a pivot.  A monomial x^c of <LL> is x^a*LL_j for
    the least j with LL_j | x^c, and no earlier LL_i divides x^a, so that
    row is kept: the pivots are the monomials of <LL>, and c_k counts the
    standard monomials of <LL> below degree k, for every K.  So c_k
    stabilizes at the count of <LL> when it has a pure power of every
    variable; when one is missing (and 1 is not in <LL>), c_k >= k for
    all k and I is not m-primary.

    When the degree leads are not coprime, there are exactly n nonzero
    generators, and every variable x_i has a pure power among their
    terms, the least of exponent b_i, the leads are taken again under
    Arnold's weights W_i = L/(b_i + 1), L the lcm of the b_i + 1: LL_j
    is the least term of g_j under the key (sum W_i*e_i, sum e_i,
    reversed e).  If these are pairwise coprime, the answer is again the
    staircase count of <LL>, with no step.  Otherwise b_i is taken once
    more, as the least exponent of a pure power of x_i in g_i alone.  For
    a semi-quasihomogeneous f = sum c_i*x_i^a_i + (terms of weighted
    degree sum e_i/a_i > 1) and g_i = df/dx_i, that b_i is a_i - 1, and
    the least term of g_i is x_i^(a_i - 1), so mu = prod (a_i - 1), as
    Arnold's theorem gives (Arnold 1974, "Normal forms of functions near
    degenerate critical points").  The least over all the g_j can be
    smaller: in w^2 + x^5 + w*x^3, x^3 is a term of g_w.  That least is
    tried first all the same, since it also reads the stage ideals of
    ``germs``, whose generators are not partials in ring order.

    Proof, for any weights W > 0.  The least term of g_j lies in its
    initial form G_j, the part of g_j of least weighted degree.  On a
    W-homogeneous polynomial the key picks the leading term of a global
    monomial order (weighted degree first, then the key's tie-break
    reversed), so pairwise coprime LL_j make the G_j a Groebner basis of
    J = <G_1, ..., G_n> with leading ideal <LL> (Buchberger's product
    criterion).  A lead 1 makes g_j a unit, and the count is 0.
    Otherwise n pairwise coprime leads in n variables are pure powers of
    distinct variables, so Q[x]/J is finite: J is m-primary and the n
    homogeneous G_j are a regular sequence.  Then J is the ideal of
    initial forms of I*O.  Take h = sum p_j*g_j and let d be the least
    weighted degree of the p_j*g_j; if h's is larger, the initial forms
    of the p_j at d give a homogeneous syzygy of the G_j, which is
    Koszul by regularity, in(p_j) = sum_k c_jk*G_k with c_jk = -c_kj,
    and p_j - sum_k c_jk*g_k gives the same h with a larger d.  So the
    initial form of h is in J.  Filtering O/I by weighted degree, its
    graded ring is Q[x]/J, finite, so O/I is finite (Krull's
    intersection theorem) and dim O/I = dim Q[x]/J, the staircase count
    of <LL> (Greuel-Pfister, section 1.7)."""
    ring = tuple(ring)
    n = len(ring)
    leads = _coprime_local_leads((g.terms for g in gens if not g.is_zero()), n)
    if leads is not None:
        return _staircase_colength(leads, n)
    int_gens = [_primitive(g) for g in gens if not g.is_zero()]
    budget = _current_budget()
    K = max((min(map(sum, g)) for g in int_gens), default=0) + 3
    state = _TruncationState()
    while comb(n + K - 1, n) <= MONOMIAL_CAP:
        start = budget.spent
        c = _truncated_colength(int_gens, n, K, budget, state)
        if c is not None:
            return c
        spent = budget.spent - start
        loan = spent // LAZARD_STEP_RATIO
        if spent == 0 or loan >= 2 * LAZARD_STEP_RATIO:
            lent = _Budget(min(loan, budget.remaining))
            try:
                return _lazard_colength(gens, ring, lent)
            except BudgetExhaustedError:
                if lent.spent < loan:  # the run's own budget ran out
                    raise
            finally:
                budget.remaining -= lent.spent
                budget.spent += lent.spent
        K += K // 2
    return _lazard_colength(gens, ring, budget)


def _local_key(e):
    """Local order of the truncation's columns: degree, then the code
    sum e_i*K^i, which orders like the reversed exponent tuple."""
    return sum(e), e[::-1]


def _coprime_local_leads(term_dicts, n):
    """Local leading monomials of the term dicts, in n variables, that
    are pairwise coprime (1 is coprime to every monomial), or None.  The
    lead is the least term under the ordinary degree (``_local_key``),
    and else, for exactly n term dicts whose terms hold a pure power of
    every variable, under Arnold's weights: the key
    (sum W_i*e_i, sum e_i, reversed e) with W_i = L/(b_i + 1) and L the
    lcm of the b_i + 1.  b_i is first the least exponent of a pure power
    x_i^b among all the terms, then that among the terms of the i-th dict
    alone, when this gives other weights (see ``local_colength``)."""
    term_dicts = list(term_dicts)
    leads = _coprime_leads(term_dicts, _local_key)
    if leads is not None or len(term_dicts) != n:
        return leads
    least, diagonal = [inf] * n, [inf] * n
    for j, terms in enumerate(term_dicts):
        for e in terms:
            b = sum(e)
            if b and b in e:  # a pure power
                i = e.index(b)
                least[i] = min(least[i], b)
                if i == j:
                    diagonal[i] = min(diagonal[i], b)
    tried = {(1,) * n}  # the degree
    return (_weighted_leads(term_dicts, least, tried)
            or _weighted_leads(term_dicts, diagonal, tried))


def _weighted_leads(term_dicts, bounds, tried):
    """``_coprime_leads`` under Arnold's weights for the pure-power
    exponents ``bounds``; None when a bound is inf or the weights are in
    ``tried``, to which they are added."""
    if inf in bounds:
        return None
    top = lcm(*(b + 1 for b in bounds))
    weights = tuple(top // (b + 1) for b in bounds)
    if weights in tried:
        return None
    tried.add(weights)
    return _coprime_leads(term_dicts, lambda e: (sum(map(mul, weights, e)), sum(e), e[::-1]))


def _coprime_leads(term_dicts, key):
    """The least term of each term dict under ``key`` when these are
    pairwise coprime, else None."""
    leads, seen = [], 0
    for terms in term_dicts:
        lead = min(terms, key=key)
        m = _mask(lead)
        if m & seen:
            return None
        seen |= m
        leads.append(lead)
    return leads


def _lazard_colength(gens, ring, budget):
    """dim O/I by Lazard's method (Lazard 1983; Greuel-Pfister, section
    1.7), every step charged to ``budget``: Buchberger on the
    homogenized generators under the elimination order of h.  Every
    polynomial Buchberger handles here is homogeneous: the generators,
    their S-polynomials and what reduction leaves of them.  In a
    homogeneous polynomial a larger h-exponent means a lower degree in
    x, so ranking h first picks the term of lowest x-degree, and equal
    h-exponents fall to grevlex on x, that is revlex.  So the leading
    monomial of a basis element, without its h-exponent, is the local
    leading monomial of its dehomogenization, and these generate the
    local leading ideal."""
    tag = fresh_variable(ring, "_h")
    order = elimination_order(ring + (tag,), [tag])
    hom = []
    for g in gens:
        if not g.is_zero():
            d = g.total_degree()
            hom.append({e + (d - sum(e),): c for e, c in _primitive(g).items()})
    lms = [r[0][:-1] for r in _buchberger(hom, _Keys(order), budget)]
    return _staircase_colength(lms, len(ring))


def _primitive(g):
    """Coefficients of g scaled to coprime integers, in a new term dict."""
    ints = g.terms
    den = lcm(*(c.denominator for c in ints.values()))
    if den != 1:
        ints = {e: c.numerator * (den // c.denominator) for e, c in ints.items()}
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


class _TruncationState:
    """Where the next truncation of one ``local_colength`` call resumes:
    the pivots and the counts ``below`` and ``found`` at the end of
    ``degree``, the last degree whose rows no truncation so far cut; -1
    before any."""

    __slots__ = ("degree", "pivots", "below", "found")

    def __init__(self):
        self.degree, self.pivots, self.below, self.found = -1, {}, 0, 0


def _truncated_colength(int_gens, n, K, budget, state):
    """c_k for the first k < K with c_k = c_(k+1), or None; ``int_gens``
    are the generators with coprime integer coefficients.

    Columns are the monomials of degree < K, lowest degree first, so a
    row's lowest column is its local leading monomial.  The rows x^a*g
    whose lowest column has degree d are built and eliminated degree by
    degree; no later row can add a pivot of degree <= d, and
    c_(d+1) = c_d exactly when every monomial of degree d is a pivot.

    The Koszul cut: the row x^a*g_j is not built when x^a = x^b*LL_i
    for the local leading monomial LL_i (the lowest column) of an
    earlier generator g_i, i < j.  Then
    x^a*g_j = x^b*g_j*g_i - x^b*(g_i - LL_i)*g_j: rows of g_i, and rows
    of g_j whose multiplier x^b*t, t a term of g_i - LL_i, comes later in
    the column order.  Taken by generator, then multiplier from last to
    first, every skipped row is a combination of earlier rows, of lowest
    degree >= d; truncation is linear, so every pivot of degree <= d
    stays.  No regular sequence is needed, so the cut holds for the
    maximal minors of the ICIS chain too.

    The truncation starts after the degree that ``state`` holds, from a
    copy of it, and keeps there the pivots, ``below`` and ``found`` at
    the end of degree w = K - S - 1, whose rows are uncut (see
    ``local_colength``); so K must not shrink from one call to the next
    with the same state."""
    by_degree, index = _columns(n, K)
    coded = []  # (order, code of the local leading monomial, [(degree, code, coefficient)])
    spread = 0  # S
    for g in int_gens:
        terms = [(sum(e), sum(k * K**i for i, k in enumerate(e)), c) for e, c in g.items()]
        order, lead, _ = min(terms)
        spread = max(spread, max(terms)[0] - order)
        coded.append((order, lead, [t for t in terms if t[0] < K]))
    whole = K - spread - 1
    pivots = dict(state.pivots)
    below = state.below  # columns of degree < d
    found = state.found  # pivots of degree < d
    for d in range(state.degree + 1, K):
        codes = by_degree[d]
        rows = []
        for j, (order, lead, terms) in enumerate(coded):
            if order <= d:
                # x^a*g_j with |a| = m, truncated below degree K; the
                # Koszul cut skips the a that an earlier generator's
                # local leading monomial divides
                m = d - order
                skip = {ll + b for o, ll, _ in coded[:j] if o <= m for b in by_degree[m - o]}
                kept = [(code, c) for deg, code, c in terms if deg + m < K]
                rows += ((index[a + lead], {index[a + code]: c for code, c in kept})
                         for a in by_degree[m] if a not in skip)
        # the lowest column of x^a*g_j is that of x^a*LL_j; a row whose
        # lowest column is free is a pivot as it stands
        rows.sort(key=itemgetter(0))
        for lowest, row in rows:
            if lowest in pivots:
                _eliminate(row, pivots, budget)
            else:
                pivots[lowest] = row
        end = below + len(codes)
        at_d = sum(1 for j in range(below, end) if j in pivots)
        if at_d == len(codes):
            return below - found
        below, found = end, found + at_d
        if d == whole:
            state.degree, state.pivots, state.below, state.found = d, dict(pivots), below, found
    return None


def _eliminate(row, pivots, budget):
    """Reduce an integer row in place by the pivot rows, each keyed by
    its lowest column, and keep what is left as a new pivot row; returns
    that row, or None when the row reduces to zero.  A step clears the
    lowest column as a*row - b*pivot, a and b the pivot's and the row's
    coefficients there over their gcd, and divides by the content; the
    row is scaled only when a is not 1."""
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            pivots[lead] = row
            return row
        budget.step()
        a, b = piv[lead], row[lead]
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for j in row:
                row[j] *= a
        for j, v in piv.items():
            w = row.get(j, 0) - b * v
            if w:
                row[j] = w
            else:
                del row[j]
        if row:
            g = gcd(*row.values())
            if g != 1:
                for j in row:
                    row[j] //= g
    return None
