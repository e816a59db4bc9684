"""Differential oracle: reduced grevlex bases from ``complete_basis``
against ``sympy.groebner`` on seeded random ideals.  sympy is a test
dependency only."""

import random
from fractions import Fraction

import pytest
import sympy

from icis.basis import complete_basis
from icis.orders import grevlex
from icis.poly import Polynomial

R = ("x", "y", "z")
SYMBOLS = sympy.symbols(R)
SEEDS = range(15)


def _random_ideal(rng):
    """Two or three generators in x, y, z with exponents at most 2 and
    small integer coefficients."""
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            exps = tuple(rng.randint(0, 2) for _ in R)
            terms[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(sum(
            (Polynomial.monomial(R, e, c) for e, c in terms.items()),
            Polynomial.zero(R),
        ))
    return [g for g in gens if not g.is_zero()]


def _to_sympy(f):
    return sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s**k for s, k in zip(SYMBOLS, e)))
        for e, c in f.terms.items()
    )


def _monic_terms(g):
    """Terms of a sympy polynomial divided by its grevlex leading
    coefficient, as a set of (exponents, Fraction) pairs."""
    p = sympy.Poly(g, *SYMBOLS)
    lc = p.LC(order="grevlex")
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
