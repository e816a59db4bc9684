"""Differential oracle: reduced grevlex and lex bases from
``complete_basis``, elimination ideals and normal forms against
``sympy.groebner`` and ``sympy.reduced`` on seeded random ideals (with
integer coefficients, and with rational ones for grevlex, the block
elimination order, normal forms and eliminants), and the
polynomial kernel (products, sums, substitution, exact division,
gcd) against ``sympy.expand`` and ``sympy.gcd``, squarefree parts
against ``sympy.sqf_part``, and radical membership against a
Rabinowitsch basis of sympy's own, and univariate eliminants of
zero-dimensional ideals against the one-variable member of a sympy lex
basis.  Discriminants of unfolding maps, and of triangular maps that
a change of source coordinates makes unfoldings, are checked against a
sympy resultant (oracle A), against the block elimination that computes
every other discriminant, and their line intersection numbers against
the Le-Greuel sum of two ICIS Milnor numbers (oracle B).  sympy is a test
dependency only."""

import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
import sympy
from sympy.polys.orderings import MonomialOrder
from sympy.polys.orderings import grevlex as sympy_grevlex

from icis import germs, poly
from icis.basis import complete_basis, eliminate, normal_form, step_budget
from icis.germs import (
    IcisPresentation,
    LineDirection,
    discriminant,
    icis_milnor,
    line_intersection_number,
)
from icis.ideals import (
    IdealPresentation,
    distinct_point_count,
    elimination_ideal,
    jacobian_matrix,
    maximal_minors,
    radical_membership,
    univariate_eliminant,
)
from icis.orders import elimination_order, grevlex, lex
from icis.poly import Polynomial, divexact, format_poly, gcd, squarefree_part
from icis.problem import parse_expression, parse_problem

R = ("x", "y", "z")
SYMBOLS = sympy.symbols(R)
SEEDS = range(15)
INTEGERS = [-3, -2, -1, 1, 2, 3]
# denominators 2, 3 and 7 and an integer, so that no reducer is monic
# over Z and every reduction clears denominators
RATIONALS = [Fraction(a, b) for a, b in [(-1, 2), (1, 2), (-2, 3), (2, 3),
                                         (-5, 7), (5, 7), (-3, 1), (3, 1)]]


def _random_ideal(rng, max_exp=2, coefficients=INTEGERS):
    """Two or three generators in x, y, z with exponents at most
    ``max_exp`` and coefficients drawn from ``coefficients``."""
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            exps = tuple(rng.randint(0, max_exp) for _ in R)
            terms[exps] = Fraction(rng.choice(coefficients))
        gens.append(sum(
            (Polynomial.monomial(R, e, c) for e, c in terms.items()),
            Polynomial.zero(R),
        ))
    return [g for g in gens if not g.is_zero()]


def _to_sympy(f, symbols=SYMBOLS):
    """f with its variables, by position, named by ``symbols``."""
    return sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
        for e, c in f.terms.items()
    )


def _monic_terms(g, order="grevlex", symbols=SYMBOLS):
    """Terms of a sympy polynomial divided by its leading coefficient
    under ``order``, as a set of (exponents, Fraction) pairs."""
    p = sympy.Poly(g, *symbols)
    lc = p.LC(order=order)
    return frozenset(
        (e, Fraction(int((c / lc).p), int((c / lc).q))) for e, c in p.terms()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_grevlex_basis_matches_sympy(seed):
    gens = _random_ideal(random.Random(seed))
    ours = complete_basis(gens, grevlex(R))
    theirs = sympy.groebner([_to_sympy(g) for g in gens], *SYMBOLS, order="grevlex")
    assert {frozenset(g.terms.items()) for g in ours.generators} == {
        _monic_terms(g) for g in theirs.exprs
    }


def _terms(basis):
    return {frozenset(g.terms.items()) for g in basis.generators}


# Lex bases grow fast: on the exponent-2 ideals of seeds 9 and 12 sympy
# itself takes 2.5 and 4.7 s, so the lex cases are multilinear.
LEX_MAX_EXP = 1


@pytest.mark.parametrize("seed", SEEDS)
def test_lex_basis_matches_sympy(seed):
    gens = _random_ideal(random.Random(seed), LEX_MAX_EXP)
    ours = complete_basis(gens, lex(R))
    theirs = sympy.groebner([_to_sympy(g) for g in gens], *SYMBOLS, order="lex")
    assert _terms(ours) == {_monic_terms(g, "lex") for g in theirs.exprs}


@pytest.mark.parametrize("seed", SEEDS)
def test_elimination_ideal_matches_sympy_lex(seed):
    """I meets Q[y, z] in the ideal of the x-free elements of a lex
    basis; both sides are compared by their reduced grevlex bases."""
    gens = _random_ideal(random.Random(seed), LEX_MAX_EXP)
    kept = R[1:]
    ours = elimination_ideal(IdealPresentation(R, gens), kept)
    assert ours.ring == kept
    lex_basis = sympy.groebner([_to_sympy(g) for g in gens], *SYMBOLS, order="lex")
    free = [g for g in lex_basis.exprs if SYMBOLS[0] not in g.free_symbols]
    expected = set()
    if free:
        theirs = sympy.groebner(free, *SYMBOLS[1:], order="grevlex")
        expected = {_monic_terms(g, symbols=SYMBOLS[1:]) for g in theirs.exprs}
    assert _terms(complete_basis(ours.generators, grevlex(kept))) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_normal_form_matches_sympy_reduced(seed):
    """A remainder that no leading monomial divides is unique against a
    Groebner basis, so full division by either side's basis agrees."""
    rng = random.Random(seed)
    basis = complete_basis(_random_ideal(rng), grevlex(R))
    divisors = [_to_sympy(g) for g in basis.generators]
    for f in _random_ideal(rng):
        f = f * f  # degree up to 4, past the leading monomials
        _, r = sympy.reduced(_to_sympy(f), divisors, *SYMBOLS, order="grevlex")
        ours = normal_form(f, basis)
        assert _to_sympy(ours) - r == 0


class _SympyBlock(MonomialOrder):
    """sympy's key for ``elimination_order(R, R[:k])``: grevlex on the
    first k variables, then grevlex on the rest."""

    alias = "block"
    is_global = True

    def __init__(self, k):
        self.k = k

    def __call__(self, monomial):
        return sympy_grevlex(monomial[:self.k]), sympy_grevlex(monomial[self.k:])

    def __eq__(self, other):
        return isinstance(other, _SympyBlock) and other.k == self.k

    def __hash__(self):
        return hash((_SympyBlock, self.k))


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_grevlex_basis_matches_sympy(seed):
    gens = _random_ideal(random.Random(seed), coefficients=RATIONALS)
    theirs = sympy.groebner([_to_sympy(g) for g in gens], *SYMBOLS, order="grevlex")
    assert _terms(complete_basis(gens, grevlex(R))) == {_monic_terms(g) for g in theirs.exprs}


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_block_basis_matches_sympy(seed):
    """The order ``elimination_ideal`` completes under, x eliminated.
    Multilinear like the lex cases: on the exponent-2 ideal of seed 12
    the completion takes over a minute (sympy: 1.5 s), its intermediate
    coefficients passing 20,000 bits."""
    gens = _random_ideal(random.Random(seed), LEX_MAX_EXP, RATIONALS)
    ours = complete_basis(gens, elimination_order(R, ["x"]))
    theirs = sympy.groebner([_to_sympy(g) for g in gens], *SYMBOLS, order=_SympyBlock(1))
    assert _terms(ours) == {_monic_terms(g, _SympyBlock(1)) for g in theirs.exprs}


def _linear_in(v, rng, free_of):
    """c*v + h: h has two or three multilinear terms free of ``free_of``."""
    h = {tuple(0 if u in free_of else rng.randint(0, 1) for u in R): rng.choice(RATIONALS)
         for _ in range(rng.randint(2, 3))}
    return Polynomial.variable(R, v) * rng.choice(RATIONALS) + Polynomial(R, h)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_eliminate_with_linear_variables_matches_sympy_block(seed, k):
    """``eliminate`` substitutes x (and y) away before it completes; its
    result is the block-free part of sympy's reduced basis under the
    block order of the first k variables.  Under k = 2 the y-generator
    is linear in y only once x is substituted."""
    rng = random.Random(seed)
    gens = _random_ideal(rng, LEX_MAX_EXP, RATIONALS)[:3 - k]
    g1 = _linear_in("x", rng, ["x", "y"])
    if k == 1:
        gens.append(g1)
    else:
        y = Polynomial.variable(R, "y")
        gens += [_linear_in("y", rng, ["y"]) + g1 * y, g1]
    eliminated = R[:k]
    ours = eliminate(gens, elimination_order(R, eliminated))
    theirs = sympy.groebner([_to_sympy(g) for g in gens], *SYMBOLS, order=_SympyBlock(k))
    free = [g for g in theirs.exprs if not g.free_symbols & set(SYMBOLS[:k])]
    assert {frozenset(g.terms.items()) for g in ours} == {
        _monic_terms(g, symbols=SYMBOLS[k:]) for g in free}
    assert all(g.ring == R[k:] for g in ours)


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_normal_form_matches_sympy_reduced(seed):
    rng = random.Random(seed)
    basis = complete_basis(_random_ideal(rng, coefficients=RATIONALS), grevlex(R))
    divisors = [_to_sympy(g) for g in basis.generators]
    for f in _random_ideal(rng, coefficients=RATIONALS):
        f = f * f
        _, r = sympy.reduced(_to_sympy(f), divisors, *SYMBOLS, order="grevlex")
        assert _to_sympy(normal_form(f, basis)) - r == 0


RADICAL_MAX_EXP = 1


def _radical_case(seed):
    """I and f with f in rad(I) by construction on even seeds (the first
    generator g enters I squared and f is a multiple of g) and a random
    f on odd seeds."""
    rng = random.Random(seed)
    g, *rest = _random_ideal(rng, RADICAL_MAX_EXP)
    h = _random_ideal(rng, RADICAL_MAX_EXP)[0]
    if seed % 2:
        return [g, *rest], h
    return [g * g, *rest], g * h


def test_radical_membership_matches_sympy_rabinowitsch():
    """f in rad(I) iff 1 lies in I + <1 - w*f>, decided by sympy's own
    grevlex basis; both answers occur among the seeds."""
    w = sympy.Symbol("w")
    answers = set()
    for seed in SEEDS:
        gens, f = _radical_case(seed)
        theirs = sympy.groebner([_to_sympy(g) for g in gens] + [1 - w * _to_sympy(f)],
                                *SYMBOLS, w, order="grevlex")
        expected = theirs.exprs == [1]
        assert radical_membership(f, IdealPresentation(R, gens)) == expected, seed
        answers.add(expected)
    assert answers == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
def test_arithmetic_matches_sympy_expand(seed):
    f, g = _random_ideal(random.Random(seed))[:2]
    F, G = _to_sympy(f), _to_sympy(g)
    assert sympy.expand(_to_sympy(f * g) - F * G) == 0
    assert sympy.expand(_to_sympy(f + g) - (F + G)) == 0
    assert sympy.expand(_to_sympy(f - g) - (F - G)) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_subs_matches_sympy_expand(seed):
    f, g = _random_ideal(random.Random(seed))[:2]
    X = SYMBOLS[0]
    ours = f.subs({"x": g})
    assert sympy.expand(_to_sympy(ours) - _to_sympy(f).subs(X, _to_sympy(g))) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_divexact_undoes_product(seed):
    f, g = _random_ideal(random.Random(seed))[:2]
    assert divexact(f * g, g) == f


def _random_univariate(rng, max_deg=4):
    """A nonconstant polynomial in x alone with small integer
    coefficients."""
    deg = rng.randint(1, max_deg)
    terms = {(k, 0, 0): rng.choice([-3, -2, -1, 0, 1, 2, 3]) for k in range(deg)}
    terms[(deg, 0, 0)] = rng.choice([-2, -1, 1, 2])
    return Polynomial(R, terms)


@pytest.mark.parametrize("seed", SEEDS)
def test_univariate_gcd_matches_sympy(seed):
    """A shared factor of degree at least 1 makes every gcd nontrivial;
    both sides are monic."""
    rng = random.Random(seed)
    common = _random_univariate(rng)
    f = common * _random_univariate(rng)
    g = common * _random_univariate(rng)
    X = SYMBOLS[0]
    theirs = sympy.Poly(sympy.gcd(_to_sympy(f), _to_sympy(g)), X).monic().as_expr()
    assert sympy.expand(_to_sympy(gcd(f, g)) - theirs) == 0


def _random_factor(rng, names):
    """A nonconstant polynomial in the variables ``names`` of R, each
    exponent at most 1, with two or three terms."""
    while True:
        terms = {}
        for _ in range(rng.randint(2, 3)):
            exps = tuple(rng.randint(0, 1) if v in names else 0 for v in R)
            terms[exps] = rng.choice([-3, -2, -1, 1, 2, 3])
        f = Polynomial(R, terms)
        if not f.is_constant():
            return f


def _assert_monic_equal(ours, theirs):
    """ours equals the sympy expression ``theirs`` scaled to leading
    coefficient 1 under grevlex."""
    assert frozenset(ours.terms.items()) == _monic_terms(theirs)


def _assert_squarefree_part(f):
    _assert_monic_equal(squarefree_part(f), sympy.sqf_part(_to_sympy(f)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_squarefree_part_matches_sympy(seed, n):
    """a^2*b*c^3 with c free of x: the cube is invisible on the x axis.
    In three variables c is also a multiple of y*z, so no variable has a
    constant coefficient and the gcds are taken with every partial
    derivative.  a*b*c is squarefree for most seeds."""
    rng = random.Random(seed)
    names = R[:n]
    a, b = _random_factor(rng, names), _random_factor(rng, names)
    c = _random_factor(rng, names[1:])
    if n == 3:
        c = c * parse_expression("y*z", R)
    _assert_squarefree_part(a**2 * b * c**3)
    _assert_squarefree_part(a * b * c)


# leading coefficients in x that vanish at y = 0, 1, -1, 2 (and z = 4)
LC_VANISHING = [
    "((y^3 - y)*x + 1)^2 * (x + y)",
    "((y^3 - y)*x + 1) * (x + y)",
    "((y^2 - 1)*(y - 2)*x^2 + y)^2 * (x - y + 3)",
    "((y^3 - y)*(z - 4)*x + z)^2 * (x + y*z)",
    "((y^3 - y)*(z - 4)*x + z) * (x + y*z) * (y - 2)^2",
]


@pytest.mark.parametrize("text", LC_VANISHING)
def test_squarefree_part_where_the_leading_coefficient_vanishes(text):
    _assert_squarefree_part(parse_expression(text, R))


def test_certificate_refuses_where_the_leading_coefficient_vanishes_at_every_point(monkeypatch):
    # lc_x(h) = (y^2 - 1)(y^2 - 4)(y^2 - 9) vanishes at all six certificate
    # points y = +-1, +-2, +-3, so x certifies nothing and one gcd decides
    checks = []
    monkeypatch.setattr(poly, "_squarefree_mod", lambda *args, original=poly._squarefree_mod:
                        checks.append(args) or original(*args))
    gcds = _counting_gcd(monkeypatch)
    h = parse_expression("(y^2 - 1)*(y^2 - 4)*(y^2 - 9)*x^2 + x*y^8 + x + 1", R)
    for f, steps in [(h, 34), (h**2, 37)]:
        gcds.clear()
        with step_budget() as budget:
            ours = squarefree_part(f)
        assert (budget.spent, len(gcds), checks) == (steps, 1, [])
        _assert_monic_equal(ours, sympy.sqf_part(_to_sympy(f)))


SQUAREFREE = [
    "4*x^3 + 27*y^2",
    "x^2*y + y^3*z + x*z^2",
    "(x*y + z)*(x*z + y)*(y*z + x)",
    "x*y*z",
    "x^5 - y^3 + z^7 - x*y*z",
]


@pytest.mark.parametrize("text", SQUAREFREE)
def test_squarefree_part_of_squarefree_input(text):
    f = parse_expression(text, R)
    _assert_squarefree_part(f)
    assert squarefree_part(f) == f * Fraction(1, f.leading(grevlex(R))[1])


def _counting_euclid(monkeypatch):
    """The calls of the univariate Euclid over Q, recorded as they run."""
    calls = []

    def counting(a, b, original=poly._gcd_univariate):
        calls.append(a)
        return original(a, b)

    monkeypatch.setattr(poly, "_gcd_univariate", counting)
    return calls


def _counting_gcd(monkeypatch):
    """The first arguments of ``poly.gcd``, recorded as it runs."""
    calls = []
    monkeypatch.setattr(poly, "gcd", lambda a, b, original=poly.gcd:
                        calls.append(a) or original(a, b))
    return calls


# 2^31 - 1 divides a denominator of f(x, 1) or the leading coefficient
# of f(x, 1), so the modular test cannot decide the first certificate point
PRIME_DIVIDES = [
    "x^2 + x + 1/2147483647*y",
    "(y + 2147483646)*x^2 + x + y",
]


@pytest.mark.parametrize("text", PRIME_DIVIDES)
def test_certificate_falls_back_where_the_prime_divides(text, monkeypatch):
    # a prime that is not valid refuses like a refusal at a valid prime:
    # one gcd decides, with no Euclid over Q
    euclid = _counting_euclid(monkeypatch)
    gcds = _counting_gcd(monkeypatch)
    f = parse_expression(text, R)
    ours = squarefree_part(f)
    assert (len(gcds), euclid) == (1, [])
    _assert_monic_equal(ours, sympy.sqf_part(_to_sympy(f)))
    assert ours == f * Fraction(1, f.leading(grevlex(R))[1])


def test_certificate_falls_back_where_the_reduction_is_not_squarefree(monkeypatch):
    # f(x, 1) = x^2 + 2*x + 4 is squarefree over Q, and (x + 1)^2 modulo 3:
    # a refusal at a valid prime goes straight to the gcd, which decides,
    # with no Euclid over Q
    monkeypatch.setattr(poly, "_PRIME", 3)
    euclid = _counting_euclid(monkeypatch)
    gcds = _counting_gcd(monkeypatch)
    f = parse_expression("x^2 + 2*x + 1 + 3*y", R)
    ours = squarefree_part(f)
    assert (len(gcds), euclid) == (1, [])
    _assert_monic_equal(ours, sympy.sqf_part(_to_sympy(f)))
    assert ours == f


@pytest.mark.parametrize("seed", SEEDS)
def test_univariate_squarefree_part_matches_sympy(seed, monkeypatch):
    """f = x^k*h with h(0) != 0: once the modular test certifies h, the
    radical is x*h (h for k = 0), with no Euclid over Q; a square factor
    in h sends h to its gcd with h', the Euclid."""
    rng = random.Random(seed)
    x = Polynomial.variable(R, "x")
    h = _random_univariate(rng) * _random_univariate(rng) ** rng.randint(1, 2)
    k = rng.randint(0, 3)
    while h.constant_term() == 0:
        h, k = divexact(h, x), k + 1
    euclid = _counting_euclid(monkeypatch)
    f = x**k * h
    _assert_squarefree_part(f)
    squarefree_h = sympy.degree(sympy.sqf_part(_to_sympy(h)), SYMBOLS[0]) == h.total_degree()
    assert (euclid == []) == squarefree_h


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_multivariate_gcd_matches_sympy(seed, n):
    """f and g share a factor in all n variables; both sides are monic."""
    rng = random.Random(seed)
    names = R[:n]
    common = _random_factor(rng, names) * _random_factor(rng, names)
    f = common * _random_factor(rng, names)
    g = common * _random_factor(rng, names)
    _assert_monic_equal(gcd(f, g), sympy.gcd(_to_sympy(f), _to_sympy(g)))


MONOMIAL_GCD = [
    ("y", "x*z^2 + y^3*z"),
    ("3*x^2*y*z^4", "x^3*y^2*z + 5*x*y*z^2 - y*z^3*x^2"),
    ("-x*y^2", "2*x^2*y^3"),
    ("x^4*y^2*z", "(x*y + z)^3 * x^2"),
]


@pytest.mark.parametrize("a,b", MONOMIAL_GCD)
def test_gcd_with_a_monomial_matches_sympy(a, b):
    f, g = parse_expression(a, R), parse_expression(b, R)
    theirs = sympy.gcd(_to_sympy(f), _to_sympy(g))
    _assert_monic_equal(gcd(f, g), theirs)
    _assert_monic_equal(gcd(g, f), theirs)


def _zero_dimensional_ideal(seed, n, coefficients=INTEGERS):
    """n generators in the first n variables of R, the i-th a pure power
    of the i-th variable, of degree 2 or 3, plus random terms of lower
    total degree with coefficients from ``coefficients`` (the pure
    power's too, when they are not integers): the pure powers lead
    under grevlex, so the ideal is zero-dimensional, and its points are
    irrational for most seeds.  On odd seeds the first generator enters
    squared, so the points are fat and the eliminants have repeated
    roots."""
    rng = random.Random(seed)
    ring = R[:n]
    gens = []
    for i in range(n):
        d = rng.randint(2, 3) if n == 2 else 2
        lead = 1 if coefficients is INTEGERS else abs(rng.choice(coefficients))
        terms = {tuple(d if j == i else 0 for j in range(3)): lead}
        for _ in range(rng.randint(2, 3)):
            e = [0, 0, 0]
            for _ in range(rng.randint(0, d - 1)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.choice(coefficients)
        gens.append(Polynomial(R, terms).in_ring(ring))
    if seed % 2:
        gens[0] = gens[0] * gens[0]
    return IdealPresentation(ring, gens)


def _sympy_eliminant(I, v):
    """The member of sympy's lex basis in v alone, v last in the order,
    as monic terms."""
    symbols = [s for s, name in zip(SYMBOLS, R) if name in I.ring]
    last = SYMBOLS[R.index(v)]
    order = [s for s in symbols if s != last] + [last]
    G = sympy.groebner([_to_sympy(g.in_ring(R)) for g in I.generators], *order, order="lex")
    (e,) = [g for g in G.exprs if g.free_symbols <= {last}]
    return frozenset(sympy.Poly(e, last).monic().terms())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_univariate_eliminant_matches_sympy_lex_and_block_elimination(seed, n):
    """The minimal polynomial of each variable, by FGLM on the grevlex
    basis, is the one-variable member of sympy's lex basis and the
    generator of the block-order elimination ideal."""
    I = _zero_dimensional_ideal(seed, n)
    repeated = irrational = False
    for v in I.ring:
        ours = univariate_eliminant(I, v)
        assert ours.ring == (v,)
        assert elimination_ideal(I, [v]).generators == (ours,)
        theirs = _sympy_eliminant(I, v)
        assert frozenset((e, sympy.Rational(c.numerator, c.denominator))
                         for e, c in ours.terms.items()) == theirs
        factors = sympy.factor_list(sympy.Poly(dict(theirs), sympy.Symbol(v)))[1]
        repeated |= any(k > 1 for _, k in factors)
        irrational |= any(f.degree() > 1 for f, _ in factors)
    assert repeated == bool(seed % 2)
    assert irrational


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_rational_univariate_eliminant_matches_sympy_lex(seed, n):
    I = _zero_dimensional_ideal(seed, n, RATIONALS)
    for v in I.ring:
        ours = univariate_eliminant(I, v)
        assert elimination_ideal(I, [v]).generators == (ours,)
        assert frozenset((e, sympy.Rational(c.numerator, c.denominator))
                         for e, c in ours.terms.items()) == _sympy_eliminant(I, v)


# -- discriminants of unfolding maps -----------------------------------------

NONZERO = [c for c in range(-5, 6) if c]


def _unfolding(seed, degrees=range(3), slope=2, coefficients=None):
    """The map (x, g(x, y)) or (x, y, g(x, y, z)), g monic in its last
    variable z: g is z^d plus c*x*z plus one or two terms c*a*z^j, with d
    from 3 to 7, a a monomial in the other variables of degree e drawn
    from ``degrees`` and j <= d - slope*e when e > 0, or a pure power z^j
    with 2 <= j < d when e = 0; each c in [-5, 5].  No term is 1 or z, so the
    map and dg/dz vanish at 0, and c*x*z makes the critical locus
    V(dg/dz) smooth at 0.  With ``coefficients``, every coefficient of g,
    that of z^d too, and a scaling c of each other component c*x_k are
    drawn from it instead."""
    rng = random.Random(seed)
    draw = (lambda: rng.choice(coefficients)) if coefficients else (lambda: rng.choice(NONZERO))
    n = rng.choice((2, 3))
    ring = R[:n]
    d = rng.randint(3, 7)
    top = draw() if coefficients else 1
    terms = {(0,) * (n - 1) + (d,): top, (1,) + (0,) * (n - 2) + (1,): draw()}
    while len(terms) < 3 + rng.randint(0, 1):
        a = [0] * (n - 1)
        for _ in range(rng.choice(degrees)):
            a[rng.randrange(n - 1)] += 1
        j = rng.randint(0, max(0, d - slope * sum(a))) if any(a) else rng.randint(2, d - 1)
        terms[tuple(a) + (j,)] = draw()
    g = Polynomial(ring, terms)
    scales = [draw() if coefficients else 1 for _ in ring[:-1]]
    return ring, [c * Polynomial.variable(ring, v) for c, v in zip(scales, ring[:-1])] + [g]


def _fixture_map(name):
    problem = parse_problem(
        (Path(__file__).parent / "fixtures" / f"{name}.icis").read_text())
    return problem.ring, problem.bindings["phi"]


def _text_map(text):
    problem = parse_problem(text)
    return problem.ring, problem.bindings["phi"]


UNFOLDINGS = {f"seed{seed}": _unfolding(seed) for seed in range(40)}
UNFOLDINGS["discriminant_plane"] = _fixture_map("discriminant_plane")
# parameter monomials of degree 3 or 4, on seeds of their own
DEEP_UNFOLDINGS = {f"deep{seed}": _unfolding(seed, range(3, 5), 1) for seed in range(40, 50)}
# rational coefficients, z^d's included, and scalings c*x_k with c != 1:
# the only inputs whose characteristic polynomial clears denominators
RATIONAL_UNFOLDINGS = {f"rational{seed}": _unfolding(seed, coefficients=RATIONALS)
                       for seed in range(50, 60)}
# the block elimination ran past 60 s on both; delta has degree 34 and 20
BLOCK_HANGS = {
    "block_hang_plane": _text_map(
        "ring x, z; phi = x, 4*x^3*z^4 + z^7 - 2*x^4*z + 3*x^4 + 5*x*z^2;"
        " kind discriminant;"),
    "block_hang_space": _text_map(
        "ring x, y, z; phi = x, y, 3*y^4*z - y^2*z^3 + x*z^4 + z^5 - 5*x*y^2*z;"
        " kind discriminant;"),
}
# two critical points share a critical value, so the characteristic
# polynomial has a square factor and squarefree_part takes a gcd
REPEATED_VALUES = {
    "repeated_quartic": _text_map("ring x, z; phi = x, z^4 + x*z^2; kind discriminant;"),
    "repeated_octic": _text_map("ring x, z; phi = x, z^8 + x*z^4 - 3*x*z^2; kind discriminant;"),
}
ORACLE_A = {**UNFOLDINGS, **DEEP_UNFOLDINGS, **RATIONAL_UNFOLDINGS, **BLOCK_HANGS,
            **REPEATED_VALUES}
# unfoldings in any component order, with any nonzero scalings
SHAPES = {
    "g_first": _text_map("ring x, y; phi = y^3 + x*y, x; kind discriminant;"),
    "scaled": _text_map("ring x, y; phi = -2*x, 3*y^3 + 1/2*x*y; kind discriminant;"),
    "leading_coefficient_2": _text_map("ring x, y; phi = x, 2*y^3 - x*y; kind discriminant;"),
    "middle": _text_map("ring x, y, z; phi = x, y^4 - x*y^2 + z*y, 3*z; kind discriminant;"),
}

# triangular maps: components c_r*x_r + h_r, h_r free of x_r and of every
# later x_s, and a last one that is an unfolding's g~(u, z) in the
# source coordinates x; each is the name's map and the variables it
# solves for, in order
RATIONAL_C = "x + 1/2*z^2, y - 2/3*z^3 + x*z, z^4 + 5/7*x*z + y*z^2 + 3*x*y"
RATIONAL_D = "x - 3/2*y^2, y^5 + 2/3*x*y^2 + 5/7*x^2*y - x^3"


def _triangular(seed):
    """(x_0, .., x_(n-2), z) -> (phi_0, .., phi_(n-2), g~(phi, z)), n = 2
    or 3: phi_r = c*x_r + h_r, c drawn from ``RATIONALS``, h_r a power
    z^2 or z^3 plus, for r > 0, c'*x_s*z with s < r, and g~(u, z) = z^d
    (d from 3 to 5) + c*u_0*z + c*z^j (2 <= j < d), plus c*u_1*z^k
    (k <= d - 2) when n = 3; other coefficients from [-5, 5]."""
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    ring = R[:n]
    x = [Polynomial.variable(ring, v) for v in ring]
    z = x[-1]
    phi = []
    for r in range(n - 1):
        h = rng.choice(NONZERO) * z ** rng.randint(2, 3)
        if r:
            h = h + rng.choice(NONZERO) * x[rng.randrange(r)] * z
        phi.append(rng.choice(RATIONALS) * x[r] + h)
    d = rng.randint(3, 5)
    g = z**d + rng.choice(NONZERO) * phi[0] * z + rng.choice(NONZERO) * z ** rng.randint(2, d - 1)
    if n == 3:
        g = g + rng.choice(NONZERO) * phi[1] * z ** rng.randint(0, d - 2)
    return (ring, phi + [g]), ring[:-1]


TRIANGULAR = {f"triangular{seed}": _triangular(seed) for seed in range(60, 80)}
TRIANGULAR["rational_c"] = (_text_map(f"ring x, y, z; phi = {RATIONAL_C}; kind discriminant;"),
                            ("x", "y"))
TRIANGULAR["rational_d"] = (_text_map(f"ring x, y; phi = {RATIONAL_D}; kind discriminant;"),
                            ("x",))
# maps whose graph the linear substitution reduces in other ways: a
# component linear in a source variable of g, a linear component with a
# constant, and a source variable no component uses
SUBSTITUTED = {
    "linear_g": _text_map("ring x, y, z; phi = x, z^3 + y + x*z, y; kind discriminant;"),
    "constant": _text_map("ring x, y; phi = 2*x + 1, y^3 + x*y; kind discriminant;"),
    "unused": _text_map("ring x, y, z; phi = x, y^3 + x*y; kind discriminant;"),
}

# maps the substitution leaves no unfolding: u*z^3 shares g~'s top
# z-degree, and y stays in g~ next to z
BLOCK_PATH = {
    "top_with_target": _text_map("ring x, z; phi = x, z^3 + x*z^3 + x*z; kind discriminant;"),
    "two_source_variables": _text_map(
        "ring x, y, z; phi = x + y^2, z^3 + x*z; kind discriminant;"),
}


@cache
def _unfolding_discriminant(name):
    return discriminant(ORACLE_A[name][1])


def _resultant(phi, targets):
    """Res_z(g - w, dg/dz) for phi = (c*x, g(x, z)), in sympy over the
    target symbols (w the last target, u the others), with x = u/c."""
    *u, w = targets
    z = sympy.Symbol("z")
    scales = [next(iter(f.terms.values())) for f in phi[:-1]]
    x = [ui / sympy.Rational(c.numerator, c.denominator) for ui, c in zip(u, scales)]
    g = _to_sympy(phi[-1], (*x, z))
    return sympy.resultant(g - w, sympy.diff(g, z), z)


@pytest.mark.parametrize("name", ORACLE_A)
def test_unfolding_discriminant_is_the_resultant(name):
    """Oracle A: for phi = (c*x, g(x, z)), z^d the only term of g of
    z-degree d, the discriminant is the image of V(dg/dz), whose equation
    is the squarefree part of Res_z(g(u/c, z) - w, dg/dz) (w the last
    target coordinate, u the others); ours must equal it up to a nonzero
    rational."""
    delta = _unfolding_discriminant(name)
    symbols = sympy.symbols(delta.ring)
    expected = sympy.sqf_part(_resultant(ORACLE_A[name][1], symbols))
    ours = sympy.Poly(_to_sympy(delta, symbols), *symbols)
    assert ours.monic() == sympy.Poly(expected, *symbols).monic()


def test_four_targets_are_numbered():
    # past three target coordinates u, v, w the targets are u1, u2, ...;
    # the unfolding of z^3 with three parameters has the cusp's
    # discriminant in u1 and u4, Res_z(z^3 + u1*z - u4, 3*z^2 + u1)
    ring, phi = _text_map("ring w, x, y, z; phi = w, x, y, z^3 + w*z; kind discriminant;")
    with step_budget() as budget:
        delta = discriminant(phi)
    assert (delta.ring, format_poly(delta), budget.spent) == (
        ("u1", "u2", "u3", "u4"), "u1^3 + 27/4*u4^2", 2)
    u1, u2, u3, u4 = us = sympy.symbols(delta.ring)
    z = sympy.Symbol("z")
    expected = sympy.resultant(z**3 + u1 * z - u4, 3 * z**2 + u1, z)
    ours = sympy.Poly(_to_sympy(delta, us), *us)
    assert ours.monic() == sympy.Poly(expected, *us).monic()


@pytest.mark.parametrize("name", TRIANGULAR)
def test_triangular_discriminant_is_the_resultant(name):
    """Oracle A on a triangular map: sympy solves phi_r = u_r for the
    r-th solved variable, in order, and substitutes the solutions into
    the last component, which gives g~(u, z); the discriminant must be
    the squarefree part of Res_z(g~ - w, dg~/dz).  The library's linear
    substitution takes no part."""
    (ring, phi), solved = TRIANGULAR[name]
    delta = discriminant(phi)
    xs, us = sympy.symbols(ring), sympy.symbols(delta.ring)
    values = {}
    for f, v, u in zip(phi, solved, us):
        v = sympy.Symbol(v)
        (values[v],) = sympy.solve(_to_sympy(f, xs).subs(values) - u, v)
    g = sympy.expand(_to_sympy(phi[-1], xs).subs(values))
    (z,) = set(xs) - set(values)
    expected = sympy.sqf_part(sympy.resultant(g - us[-1], sympy.diff(g, z), z))
    ours = sympy.Poly(_to_sympy(delta, us), *us)
    assert ours.monic() == sympy.Poly(expected, *us).monic()


@pytest.mark.parametrize("name", [*TRIANGULAR, *SUBSTITUTED])
def test_substituted_maps_take_the_characteristic_polynomial(name, monkeypatch):
    """The linear substitution leaves every triangular map, and each
    map of ``SUBSTITUTED``, one graph row of an unfolding: none reaches
    the block elimination."""
    def refuse(*args):
        raise AssertionError("a block elimination ran")

    monkeypatch.setattr(germs, "elimination_ideal", refuse)
    discriminant(TRIANGULAR[name][0][1] if name in TRIANGULAR else SUBSTITUTED[name][1])


@pytest.mark.parametrize("name", BLOCK_PATH)
def test_other_maps_take_one_block_elimination(name, monkeypatch):
    """A row left with a target in its top z-term, or with two source
    variables, is no unfolding: the map takes the block elimination."""
    calls = []

    def counted(I, keep):
        calls.append(keep)
        return elimination_ideal(I, keep)

    monkeypatch.setattr(germs, "elimination_ideal", counted)
    discriminant(BLOCK_PATH[name][1])
    assert len(calls) == 1


@pytest.mark.parametrize("name", REPEATED_VALUES)
def test_repeated_critical_values_square_the_resultant(name):
    """The off-traffic case: the resultant is not squarefree, so delta is
    a proper factor of it."""
    symbols = sympy.symbols(_unfolding_discriminant(name).ring)
    res = sympy.Poly(_resultant(REPEATED_VALUES[name][1], symbols), *symbols)
    assert sympy.Poly(sympy.sqf_part(res.as_expr()), *symbols).degree() < res.degree()


@pytest.mark.parametrize("name", REPEATED_VALUES)
def test_repeated_critical_values_go_straight_to_the_gcd(name, monkeypatch):
    """A characteristic polynomial with a square factor is refused by the
    modular test at a valid prime, so its squarefree part takes the block
    gcd of its cofactor, with no univariate Euclid."""
    euclid = _counting_euclid(monkeypatch)
    discriminant(REPEATED_VALUES[name][1])
    assert euclid == []


def _pool_maps():
    """The discriminant maps of the benchmark's recorded problems: the
    fixture and every text of its pool."""
    sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from corpus import recorded_problems
    return {p.name: _text_map(p.text) for p in recorded_problems()
            if "kind discriminant;" in p.text}


POOL_MAPS = _pool_maps()
# map D's block elimination takes about a minute
BLOCK_CHECKED = {**UNFOLDINGS, **REPEATED_VALUES, **SHAPES, **POOL_MAPS, **SUBSTITUTED,
                 **{name: m for name, (m, _) in TRIANGULAR.items() if name != "rational_d"}}


@pytest.mark.parametrize("name", BLOCK_CHECKED)
def test_unfolding_discriminant_is_the_block_eliminant(name):
    """The characteristic polynomial of g on Q[u][z]/(dg/dz) against the
    engine it replaced for unfoldings, called directly: the squarefree
    part of the generator of (graph + minors) meeting Q[u, w]
    (``elimination_ideal``).  Oracle A computes the same resultant as the
    characteristic polynomial; this check shares no code path with it
    beyond ``squarefree_part`` and the linear substitution, which the
    elimination runs on the graph plus the minors and the
    characteristic polynomial on the graph alone.  On triangular maps
    sympy's oracle A does its own substitution."""
    ring, phi = BLOCK_CHECKED[name]
    delta = _unfolding_discriminant(name) if name in ORACLE_A else discriminant(phi)
    big = ring + delta.ring
    graph = [Polynomial.variable(big, u) - f.in_ring(big) for u, f in zip(delta.ring, phi)]
    minors = [m.in_ring(big) for m in maximal_minors(jacobian_matrix(phi, list(ring)))]
    (eliminant,) = elimination_ideal(IdealPresentation(big, graph + minors),
                                     delta.ring).generators
    assert squarefree_part(eliminant) == delta


# every map whose characteristic polynomial is squarefree
CERTIFIED = {**UNFOLDINGS, **BLOCK_HANGS, **POOL_MAPS}


@pytest.mark.parametrize("name", CERTIFIED)
def test_unfolding_discriminant_needs_no_euclid_over_q(name, monkeypatch):
    """The modular certificate decides every squarefree characteristic
    polynomial: none reaches a gcd, so none reaches the univariate
    Euclid over Q."""
    def refuse(*args):
        raise AssertionError("a gcd was taken")

    monkeypatch.setattr(poly, "gcd", refuse)
    discriminant(CERTIFIED[name][1])


LE_GREUEL_CHECKED = {**UNFOLDINGS, "rational_d": TRIANGULAR["rational_d"][0]}


@pytest.mark.parametrize("name", LE_GREUEL_CHECKED)
def test_unfolding_line_intersection_is_the_le_greuel_sum(name):
    """Oracle B: for a line L = s*b of the target, b_p != 0,
    line_intersection_number(delta, L) = mu(F^-1(0)) + mu(F^-1(L)), where
    F^-1(L) = V(phi_i - (b_i/b_p)*phi_p, i < p) (Le 1974; Greuel 1975;
    Looijenga, *Isolated Singular Points on Complete Intersections*, ch. 4).
    The left side is the characteristic polynomial of g on
    Q[u][z]/(dg/dz), the right side two Milnor chains of local
    colengths.  Hypotheses: 0 is the only critical point
    of the map over 0, checked below; the critical locus maps birationally
    onto delta, not checked."""
    ring, phi = LE_GREUEL_CHECKED[name]
    minors = maximal_minors(jacobian_matrix(phi, list(ring)))
    assert distinct_point_count(IdealPresentation(ring, phi + minors)) == 1
    delta = _unfolding_discriminant(name) if name in ORACLE_A else discriminant(phi)
    mu0 = icis_milnor(IcisPresentation(ring, phi))
    rng = random.Random(name)
    for _ in range(3):
        b = [rng.randint(-5, 5) for _ in phi[:-1]] + [rng.choice(NONZERO)]
        line = [f - Fraction(c, b[-1]) * phi[-1] for f, c in zip(phi[:-1], b)]
        muL = icis_milnor(IcisPresentation(ring, line))
        assert line_intersection_number(delta, LineDirection(b)) == mu0 + muL
