import random
from collections import defaultdict
from fractions import Fraction
from math import gcd, inf, lcm, prod
from operator import add
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

import icis.basis
from icis.basis import (
    _Budget,
    _divides,
    _eliminate,
    _Keys,
    _lazard_colength,
    _mask,
    _primitive,
    _reduce_global,
    _row,
    _substitute_linear,
    _truncated_colength,
    _TruncationState,
    colength,
    complete_basis,
    eliminate,
    local_colength,
    minimal_polynomial,
    normal_form,
    staircase,
    step_budget,
)
from icis.errors import BudgetExhaustedError
from icis.ideals import critical_ideal
from icis.orders import elimination_order, grevlex, lex
from icis.poly import Polynomial
from icis.problem import parse_expression, parse_problem
from staircase_oracle import staircase_colength_bruteforce
from truncation_oracle import first_stable_colength, truncated_colength

R = ("x", "y")
x = Polynomial.variable(R, "x")
y = Polynomial.variable(R, "y")


class TestCompleteBasis:
    def test_global_circle_parabola(self):
        basis = complete_basis([x**2 + y**2 - 1, x - y], grevlex(R))
        # reduced basis of a zero-dimensional ideal of 2 points: x - y and
        # y^2 - 1/2
        assert basis.leading_monomials == ((1, 0), (0, 2))
        assert colength(basis) == 2

    def test_zero_ideal(self):
        basis = complete_basis([Polynomial.zero(R)], grevlex(R))
        assert basis.generators == ()
        assert colength(basis) == inf

    def test_budget_exhaustion_is_loud(self):
        # cyclic-style system too big for a tiny budget
        R4 = ("a", "b", "c", "d")
        a, b, c, d = (Polynomial.variable(R4, n) for n in R4)
        gens = [
            a + b + c + d,
            a * b + b * c + c * d + d * a,
            a * b * c + b * c * d + c * d * a + d * a * b,
            a * b * c * d - 1,
        ]
        with step_budget(10), pytest.raises(BudgetExhaustedError):
            complete_basis(gens, grevlex(R4))

    def test_step_budget_is_shared_by_the_block(self):
        gens = [x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x]
        alone = complete_basis(gens, grevlex(R)).steps_used
        assert alone > 0
        with step_budget() as budget:
            first = complete_basis(gens, grevlex(R))
            second = complete_basis(gens, grevlex(R))
        # each completion reports its own steps; the block charges both
        assert first.steps_used == second.steps_used == alone
        assert budget.spent == 2 * alone
        with step_budget(2 * alone - 1), pytest.raises(BudgetExhaustedError):
            complete_basis(gens, grevlex(R))
            complete_basis(gens, grevlex(R))

    def test_step_budget_is_reset_on_exit(self):
        gens = [x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x]
        with pytest.raises(BudgetExhaustedError), step_budget(0):
            complete_basis(gens, grevlex(R))
        # no exhausted budget is left behind for calls outside the block
        assert complete_basis(gens, grevlex(R)).leading_monomials == ((0, 2), (1, 1), (2, 0))

    @pytest.mark.parametrize("limit,error", [(None, TypeError), (2.5, TypeError),
                                             (True, TypeError), (-1, ValueError)])
    def test_step_budget_limit_is_checked_when_the_block_opens(self, limit, error):
        # refused before any reduction runs, not at the first step
        entered = False
        with pytest.raises(error):
            with step_budget(limit):
                entered = True
        assert not entered

    def test_generators_equal_up_to_a_scalar_count_once(self):
        gens = [x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x]
        alone = complete_basis(gens, grevlex(R))
        twice = complete_basis(gens + [gens[0] * Fraction(-2, 3)], grevlex(R))
        assert twice.generators == alone.generators
        assert twice.steps_used == alone.steps_used

    def test_deterministic(self):
        gens = [x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x]
        b1 = complete_basis(gens, grevlex(R))
        b2 = complete_basis(list(reversed(gens)), grevlex(R))
        assert b1.generators == b2.generators


# exponents up to 10^6, far past the top mask threshold 8, and small ones
# around the thresholds 1, 2, 4 and 8
_exponent = st.one_of(st.integers(0, 10), st.integers(0, 10**6))


def _monomials(n, **kwargs):
    return st.lists(st.tuples(*[_exponent] * n), **kwargs)


class TestShortExponentVectors:
    @given(st.integers(1, 6).flatmap(lambda n: _monomials(n, min_size=3, max_size=3)))
    @settings(max_examples=300, deadline=None)
    def test_divisors_pass_the_mask(self, monomials):
        a, b, d = monomials
        # a on the even variables and b on the odd ones are coprime
        evens = tuple(x if i % 2 == 0 else 0 for i, x in enumerate(a))
        odds = tuple(x if i % 2 else 0 for i, x in enumerate(b))
        for u, v in [(a, b), (b, a), (a, tuple(map(add, a, d))), (evens, odds)]:
            if _divides(u, v):
                assert not _mask(u) & ~_mask(v)
            # disjoint masks are exactly the coprime pairs
            assert (not _mask(u) & _mask(v)) == (not any(map(min, u, v)))

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        _monomials(n, min_size=1, max_size=6).map(lambda ms: [m for m in ms if any(m)]),
        _monomials(n, min_size=3, max_size=3))))
    @settings(max_examples=200, deadline=None)
    def test_prefiltered_reduction_matches_a_plain_scan(self, case):
        """The reduction with masks against the same reduction with every
        mask 0, which scans the rows plainly.  A marker variable w, last
        and least under lex, tags the tail of row i as w^(i+1), so each
        step shows which row it used.  Large exponents can make long
        chains, so both run on one budget and must stop alike."""
        lms, targets = case
        assume(lms)
        order = lex(tuple(f"x{i}" for i in range(len(lms[0]))) + ("w",))

        def reduce(masked):
            keys = _Keys(order)
            if not masked:
                keys.masks = defaultdict(int)
            rows = [_row({lm + (0,): 1, (0,) * len(lm) + (i + 1,): 2}, keys)
                    for i, lm in enumerate(lms)]
            # a target that some row divides, and two arbitrary ones
            h = {tuple(map(add, lms[-1], targets[0])) + (0,): 3}
            h.update({t + (0,): -1 for t in targets[1:]})
            budget = _Budget(200)
            try:
                return _reduce_global(h, rows, keys, budget), budget.spent
            except BudgetExhaustedError:
                return h, budget.spent

        assert reduce(True) == reduce(False)

    @pytest.mark.parametrize("texts", [
        ["x^9 - y^17", "x^20*y - z^3", "y^12*z - x^2"],
        ["x^9 - y^17 + z", "x^20*y - z^3", "y^10*z^9 - x^16"],
        ["x^9 - 2/3*y^17", "5/7*x^20*y - z^3", "x*y*z^16 - 1/2"],
    ])
    def test_basis_past_the_thresholds_matches_sympy(self, texts):
        ring = ("x", "y", "z")
        symbols = sympy.symbols(ring)
        ours = complete_basis([parse_expression(t, ring) for t in texts], grevlex(ring))
        assert max(map(max, ours.leading_monomials)) > 8
        theirs = sympy.groebner([sympy.sympify(t.replace("^", "**")) for t in texts],
                                *symbols, order="grevlex")
        monic = [sympy.Poly(g, *symbols) for g in theirs.exprs]
        monic = [[(e, c / p.LC(order="grevlex")) for e, c in p.terms()] for p in monic]
        assert {frozenset(g.terms.items()) for g in ours.generators} == {
            frozenset((e, Fraction(int(c.p), int(c.q))) for e, c in terms) for terms in monic}


class TestNormalForm:
    def test_zero_iff_member_global(self):
        basis = complete_basis([x**2 - y, y**2 - x], grevlex(R))
        member = (x**2 - y) * y + (y**2 - x) * x
        assert normal_form(member, basis).is_zero()
        assert not normal_form(x + y, basis).is_zero()

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_are_the_primitive_generators_in_order(self, seed):
        # normal forms and minimal polynomials reduce by the first row
        # whose leading monomial divides, so a change in the order of the
        # rows can change their step counts
        rng = random.Random(seed)
        ring = ("x", "y", "z")
        gens = [Polynomial(ring, {tuple(rng.randint(0, 2) for _ in ring):
                                  Fraction(rng.choice([-3, -1, 2, 4]), rng.choice([1, 2, 5]))
                                  for _ in range(rng.randint(2, 4))})
                for _ in range(rng.randint(2, 3))]
        for order in (grevlex(ring), elimination_order(ring, ["x"])):
            sb = complete_basis(gens, order)
            assert len(sb.rows) == len(sb.generators) > 0
            assert list(sb.rows) == [_row(_primitive(g), sb.keys) for g in sb.generators]

    def test_result_not_divisible_by_leading_monomials(self):
        basis = complete_basis([x**2 + y**2 - 1, x * y - 1], grevlex(R))
        r = normal_form(x**5 + y**5, basis)
        for mono in r.terms:
            for lm in basis.leading_monomials:
                assert any(m < l for m, l in zip(mono, lm))

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_ideal_members_reduce_to_zero(self, multipliers):
        gens = [x**2 - y, y**3 - x * y]
        basis = complete_basis(gens, grevlex(R))
        f = Polynomial.zero(R)
        for g, e in zip(gens * 2, multipliers):
            f = f + g * Polynomial.monomial(R, e, 1)
        assert normal_form(f, basis).is_zero()


class TestColength:
    def test_monomial_box(self):
        basis = complete_basis([x**3, y**4], grevlex(R))
        assert colength(basis) == 12
        assert sorted(staircase(basis)) == [(0, 4), (3, 0)]

    def test_not_zero_dimensional(self):
        basis = complete_basis([x**2], grevlex(R))
        assert colength(basis) == inf

    def test_large_exponents_closed_form(self):
        # x^a, y^b, z^c, xyz leave the abc box monomials minus the
        # (a-1)(b-1)(c-1) multiples of xyz, far too many to enumerate
        ring = ("x", "y", "z")
        a, b, c = 10**6, 10**7 + 3, 999
        gens = [Polynomial.monomial(ring, e, 1)
                for e in ((a, 0, 0), (0, b, 0), (0, 0, c), (1, 1, 1))]
        basis = complete_basis(gens, grevlex(ring))
        assert colength(basis) == a * b * c - (a - 1) * (b - 1) * (c - 1)

    def test_random_monomial_ideals_match_bruteforce(self):
        rng = random.Random(12345)
        for _ in range(30):
            nvars = rng.randint(2, 3)
            ring = ("x", "y", "z")[:nvars]
            lms = {tuple(rng.randint(1, 4) for _ in ring) for _ in range(rng.randint(2, 5))}
            # guarantee zero-dimensionality with pure powers
            for i in range(nvars):
                e = [0] * nvars
                e[i] = rng.randint(1, 5)
                lms.add(tuple(e))
            gens = [Polynomial.monomial(ring, e, 1) for e in sorted(lms)]
            basis = complete_basis(gens, grevlex(ring))
            assert colength(basis) == staircase_colength_bruteforce(
                basis.leading_monomials, len(ring)
            )

    def test_counted_once_per_basis(self, monkeypatch):
        # minimal_polynomial asks for the colength once per variable
        counted = []
        count = icis.basis._staircase_colength
        monkeypatch.setattr(icis.basis, "_staircase_colength",
                            lambda *args: counted.append(args) or count(*args))
        basis = complete_basis([x**2 - y, y**3 - x * y], grevlex(R))
        assert colength(basis) == colength(basis) == 6
        minimal_polynomial(basis, "x")
        minimal_polynomial(basis, "y")
        assert len(counted) == 1


class TestStaircase:
    def test_antichain_of_leading_monomials(self):
        basis = complete_basis(
            [x**4, x**2 * y, y**3, x**3 * y**2], grevlex(R)
        )
        lms = basis.leading_monomials
        for a in lms:
            for b in lms:
                if a != b:
                    assert not all(i >= j for i, j in zip(a, b))

    def test_standard_monomials_are_normal_forms(self):
        basis = complete_basis([x**2 + y**2 - 1, x * y - 1], grevlex(R))
        gens = staircase(basis)
        standard = [
            (i, j)
            for i in range(5)
            for j in range(5)
            if not any(i >= a and j >= b for a, b in gens)
        ]
        assert len(standard) == colength(basis)
        for e in standard:
            m = Polynomial.monomial(R, e, 1)
            assert normal_form(m, basis) == m


def _vanishing_polys(nvars, max_exp):
    """Strategy: lists of polynomials with no constant term, as lists of
    (exponents, coefficient) pairs."""
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars).filter(any)
    term = st.tuples(exps, st.integers(-3, 3).filter(bool))
    return st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=2)


def _build(ring, polys):
    return [Polynomial(ring, dict(terms)) for terms in polys]


class TestLocalColength:
    """The truncated-linear-algebra engine against the grevlex engine."""

    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(1, 4), min_size=n, max_size=n),
                _vanishing_polys(n, 3),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_affine_colength_on_primary_ideals(self, case):
        # pure powers x_i^a_i put V(I) at the origin alone: the local and
        # the affine colength agree
        n, powers, polys = case
        ring = ("x", "y", "z")[:n]
        gens = [Polynomial.monomial(ring, tuple(a if j == i else 0 for j in range(n)), 1)
                for i, a in enumerate(powers)] + _build(ring, polys)
        affine = colength(complete_basis(gens, grevlex(ring)))
        assert local_colength(gens, ring) == affine

    @given(_vanishing_polys(2, 3), _vanishing_polys(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_affine_colength(self, first, second):
        # the origin is one of finitely many points of V(I)
        gens = _build(R, first + second)
        affine = colength(complete_basis(gens, grevlex(R)))
        assume(affine != inf)
        assert local_colength(gens, R) <= affine

    def test_not_primary_is_inf(self):
        assert local_colength([x**2, x * y], R) == inf
        assert local_colength([], R) == inf

    def test_unit_ideal(self):
        assert local_colength([x - 1, y], R) == 0


@st.composite
def _seeded_ideals(draw):
    """(n, ring, generators) in 2 to 4 variables, in a drawn order: pure
    powers plus vanishing polynomials, with a repeated generator, with a
    generator that does not vanish at 0, or a stage ideal of the ICIS
    chain (the maximal minors of a Jacobian, not a regular sequence)."""
    n = draw(st.integers(2, 4))
    ring = ("w", "x", "y", "z")[:n]
    polys = _build(ring, draw(_vanishing_polys(n, 5 - n)))
    powers = [Polynomial.monomial(ring, tuple(a if j == i else 0 for j in range(n)), 1)
              for i, a in enumerate(draw(st.lists(st.integers(1, 5 - n), min_size=n,
                                                   max_size=n)))]
    shape = draw(st.sampled_from(["primary", "repeated", "unit", "stage"]))
    if shape == "stage":
        phi = polys + _build(ring, draw(_vanishing_polys(n, 2)))
        k = draw(st.integers(1, len(phi)))
        gens = list(critical_ideal(phi[:k - 1], phi[k - 1], ring).generators)
        if draw(st.booleans()):
            gens += powers
    else:
        gens = powers + polys
        if shape == "repeated":
            gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(gens)))
        elif shape == "unit":
            gens.insert(draw(st.integers(0, len(gens))),
                        polys[0] + draw(st.integers(-3, 3).filter(bool)))
    return n, ring, draw(st.permutations(gens))


class TestTruncationOracle:
    """Truncated colengths against ``truncation_oracle``: the rank of
    the dense matrix of every truncated multiple, with no row cut."""

    @given(_seeded_ideals(), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_truncation_equals_dense_rank(self, case, K):
        n, _, gens = case
        ints = [_primitive(g) for g in gens if not g.is_zero()]
        expected = first_stable_colength([g.terms for g in gens], n, K)
        assert _truncated_colength(ints, n, K, _Budget(10**6), _TruncationState()) == expected

    @given(_seeded_ideals())
    # at K = 2 the row of x + y^2 built at degree 1 is cut to x: a state
    # kept past degree K - S - 1 = 0 would miss the pivot y^2 at K = 3
    @example((2, R, [x, x + y**2, y**3]))
    @settings(max_examples=40, deadline=None)
    def test_resumed_truncations_equal_dense_rank(self, case):
        # one state carried through a schedule of K, as local_colength
        # carries it; each run resumes where the last one's rows were whole
        n, _, gens = case
        ints = [_primitive(g) for g in gens if not g.is_zero()]
        state = _TruncationState()
        for K in (2, 3, 5, 7):
            expected = first_stable_colength([g.terms for g in gens], n, K)
            assert _truncated_colength(ints, n, K, _Budget(10**6), state) == expected

    @given(_seeded_ideals())
    @settings(max_examples=40, deadline=None)
    def test_local_colength_equals_dense_rank(self, case):
        n, ring, gens = case
        expected = first_stable_colength([g.terms for g in gens], n, 7 - n)
        if expected is not None:
            assert local_colength(gens, ring) == expected

    def test_oracle_known_values(self):
        assert first_stable_colength([(x**2 - y**3).terms, (y**4).terms], 2, 12) == 8
        assert first_stable_colength([(x - x**2).terms, y.terms], 2, 4) == 1
        assert first_stable_colength([(x**2 - y**3).terms], 2, 10) is None
        assert truncated_colength([(x**2).terms, (x * y).terms], 2, 4) == 5


@st.composite
def _coprime_lead_ideals(draw):
    """(n, ring, generators, degree, mu): ideals in 2 to 4 variables
    whose local leading monomials (least degree first) are pairwise
    coprime, with c_k = mu for every k >= degree.  Each generator is
    c*x_i^a plus a random tail of higher degree; the shape adds a
    generator with a constant term (mu = 0), or leaves a pure power out,
    or merges two into x_i*x_j (mu = inf).  The control shape is the
    partials of T_pqr, whose leading monomials yz, xz, xy are not
    coprime: mu = p + q + r - 1, stable from degree max(p, q, r) + 1."""
    shape = draw(st.sampled_from(["finite", "unit", "missing", "merged", "tpqr"]))
    if shape == "tpqr":
        ring = ("x", "y", "z")
        x, y, z = (Polynomial.variable(ring, v) for v in ring)
        p, q, r = draw(st.lists(st.integers(4, 5), min_size=3, max_size=3))
        f = x**p + y**q + z**r + x * y * z
        return 3, ring, [f.diff(v) for v in ring], max(p, q, r) + 1, p + q + r - 1
    n = draw(st.integers(2, 4))
    ring = ("w", "x", "y", "z")[:n]
    powers = draw(st.lists(st.integers(1, 6 - n), min_size=n, max_size=n))
    coefficient = st.integers(-3, 3).filter(bool)
    terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n), coefficient), max_size=3)

    def tail(order):
        return {e: c for e, c in draw(terms) if sum(e) > order}

    leads = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(powers)]
    mu = prod(powers)
    if shape in ("missing", "merged"):
        # no leading monomial is a pure power of x_j
        i, j = draw(st.permutations(range(n)))[:2]
        if shape == "missing":
            del leads[j]
        else:
            leads = [m for k, m in enumerate(leads) if k not in (i, j)]
            leads.append(tuple(int(k in (i, j)) for k in range(n)))
        mu = inf
    gens = [Polynomial(ring, {**tail(sum(m)), m: draw(coefficient)}) for m in leads]
    if shape == "unit":
        gens.append(Polynomial(ring, {**tail(0), (0,) * n: draw(coefficient)}))
        mu = 0
    return n, ring, draw(st.permutations(gens)), sum(powers) - n + 1, mu


@st.composite
def _coprime_monomial_gens(draw):
    """(n, leads, gens): pairwise coprime monomials ``leads`` in 1 to 4
    variables, and one generator per lead, the lead plus a tail of higher
    degree, so that it is the generator's local leading monomial.  Each
    variable belongs to one lead or to none, so a lead may hold several
    variables and some variable may have no pure power (fewer than n
    leads); the constant 1 may be a lead as well."""
    n = draw(st.integers(1, 4))
    owner = draw(st.one_of(st.permutations(range(n)),
                           st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)))
    exps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    leads = [tuple(exps[i] if owner[i] == j else 0 for i in range(n)) for j in range(n)]
    leads = [m for m in leads if any(m)] + [(0,) * n] * draw(st.integers(0, 1))
    coefficient = st.integers(-3, 3).filter(bool)
    terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 5)] * n), coefficient), max_size=3)
    gens = [{**{e: c for e, c in draw(terms) if sum(e) > sum(m)}, m: draw(coefficient)}
            for m in leads]
    return n, leads, draw(st.permutations(gens))


class TestCoprimeLeadCertificate:
    """``local_colength`` of ideals whose local leading monomials are
    pairwise coprime, read off those monomials, against the dense rank
    of ``truncation_oracle`` and the staircase count of
    ``staircase_oracle``."""

    @given(_coprime_monomial_gens())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_equals_the_staircase_count(self, case):
        # 0 with the lead 1, the product of the pure-power exponents when
        # every variable has one, else inf: counted with no step
        n, leads, gens = case
        ring = ("w", "x", "y", "z")[:n]
        with step_budget(0) as budget:
            assert local_colength([Polynomial(ring, g) for g in gens], ring) == (
                staircase_colength_bruteforce(leads, n))
        assert budget.spent == 0

    @given(_coprime_lead_ideals())
    @settings(max_examples=60, deadline=None)
    def test_equals_dense_rank_past_the_staircase(self, case):
        n, ring, gens, degree, mu = case
        terms = [g.terms for g in gens]
        assert local_colength(gens, ring) == mu
        if mu == inf:
            assert first_stable_colength(terms, n, degree + 1) is None
        else:
            assert truncated_colength(terms, n, degree) == mu
            assert truncated_colength(terms, n, degree + 1) == mu

    def test_spends_no_steps(self):
        R3 = ("x", "y", "z")
        for text in ["-7*x^3 + y^4 + 6*z^5", "x^3 + y^4 + z^5 + x^2*y^2*z^2"]:
            f = parse_expression(text, R3)
            with step_budget(0):
                assert local_colength([f.diff(v) for v in R3], R3) == 24


@st.composite
def _semi_quasihomogeneous_germs(draw):
    """(n, ring, f, alphas, degree): f = sum c_i*x_i^alpha_i plus up to
    three monomials of Arnold weighted degree sum e_i/alpha_i > 1, in 2 to
    4 variables.  The partials' local colength is prod (alpha_i - 1), and
    c_k reaches it by k = degree: with W_i = L/alpha_i the weighted
    initial ideal <x_i^(alpha_i - 1)> holds every form of weighted degree
    above s = sum W_i*(alpha_i - 2), and m^degree lies in weighted degree
    > s."""
    n = draw(st.integers(2, 4))
    ring = ("w", "x", "y", "z")[:n]
    alphas = draw(st.lists(st.integers(2, 7 - n), min_size=n, max_size=n))
    coefficient = st.integers(-3, 3).filter(bool)
    terms = {tuple(a if j == i else 0 for j in range(n)): draw(coefficient)
             for i, a in enumerate(alphas)}
    for e, c in draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n), coefficient),
                              max_size=3)):
        if sum(Fraction(k, a) for k, a in zip(e, alphas)) > 1:
            terms.setdefault(e, c)
    top = lcm(*alphas)
    weights = [top // a for a in alphas]
    socle = sum(w * (a - 2) for w, a in zip(weights, alphas))
    return n, ring, Polynomial(ring, terms), alphas, -(-(socle + 1) // min(weights))


class TestWeightedLeadCertificate:
    """``local_colength`` of ideals whose local leading monomials are
    coprime under Arnold's weights but not under the degree: the partials
    of semi-quasihomogeneous germs answer in no step, against the dense
    rank of ``truncation_oracle``; germs whose extra monomial has weighted
    degree < 1 still truncate."""

    @given(_semi_quasihomogeneous_germs())
    # w*x^3 puts the pure power x^3 in df/dw: the least pure power of x
    # over all partials is not alpha_x - 1, df/dx's own is
    @example((2, ("w", "x"), Polynomial(("w", "x"), {(2, 0): 1, (0, 5): 1, (1, 3): 1}),
              [2, 5], 4))
    @settings(max_examples=60, deadline=None)
    def test_partials_equal_dense_rank_past_the_staircase(self, case):
        n, ring, f, alphas, degree = case
        gens = [f.diff(v) for v in ring]
        mu = prod(a - 1 for a in alphas)
        with step_budget(0):
            assert local_colength(gens, ring) == mu
        terms = [g.terms for g in gens]
        assert truncated_colength(terms, n, degree) == mu
        assert truncated_colength(terms, n, degree + 1) == mu

    @pytest.mark.parametrize("names, text, mu", [
        ("xyz", "x^8 + y^10 + z^12 + x^2*y^4*z^5 - 3*x^5*y^5", 693),
        # the principal parts and extra monomials of the five sqh templates
        # of perfbench/corpus.py, with coefficients 1
        ("xyz", "x^4 + y^5 + z^6 + x^2*y^2*z", 60),
        ("xy", "x^5 + y^7 + x^3*y^3", 24),
        ("xy", "x^6 + y^9 + x^5*y^2", 40),
        ("xyz", "x^3 + y^4 + z^5 + x*y^2*z^2", 24),
        ("wxyz", "w^3 + x^3 + y^3 + z^3 + w*x*y*z", 16),
    ])
    def test_spends_no_steps(self, names, text, mu):
        ring = tuple(names)
        f = parse_expression(text, ring)
        with step_budget(0):
            assert local_colength([f.diff(v) for v in ring], ring) == mu

    def test_function_on_a_curve_spends_no_steps(self):
        # the fcurve_b template: y + 5*x*y on 2*x^2 - 3*y^7, whose
        # generators are not partials; the least pure powers x and y^7
        # weigh them (4, 1), and the leads are y^7 and x
        gens = critical_ideal([2 * x**2 - 3 * y**7], y + 5 * x * y, R).generators
        with step_budget(0):
            assert local_colength(gens, R) == 7

    # each extra monomial has weighted degree < 1, so no weight makes the
    # leads coprime, and the truncations spend their steps (nqh4_5_6 is
    # pinned in TestLazardLoans)
    @pytest.mark.parametrize("names, text, mu, steps", [
        ("xyz", "x^3 + y^4 + z^5 + x*y*z^2", 23, 43),  # nqh3_4_5, 59/60
        ("xy", "x^4 + y^6 + x^2*y^2 + x*y^4", 11, 20),  # nqh4_6, 5/6 and 11/12
        ("xyz", "x^3 + y^4 + z^5 + x*y*z", 11, 35),  # T_345, 47/60
        ("xyz", "x^4 + y^5 + z^6 + x*y*z", 14, 55),  # T_456, 37/60
    ])
    def test_below_weighted_degree_one_still_truncates(self, names, text, mu, steps):
        ring = tuple(names)
        f = parse_expression(text, ring)
        with step_budget() as budget:
            assert local_colength([f.diff(v) for v in ring], ring) == mu
        assert budget.spent == steps


def _copying_eliminate(row, pivots, budget):
    """The elimination kernel as it was before it reduced in place: a
    new row at every step.  The reference for ``_eliminate``."""
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


class TestEliminationKernel:
    """``_eliminate`` reduces its row in place, with the same rows,
    pivots and steps as the copying kernel."""

    @given(st.lists(st.dictionaries(st.integers(0, 8), st.integers(-6, 6).filter(bool),
                                    min_size=1, max_size=5), max_size=14))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_copying_kernel(self, rows):
        pivots, reference = {}, {}
        # each row meets each of the 9 columns' pivots at most once
        budget, reference_budget = _Budget(9 * 14), _Budget(9 * 14)
        for row in rows:
            expected = _copying_eliminate(dict(row), reference, reference_budget)
            assert _eliminate(dict(row), pivots, budget) == expected
        assert pivots == reference
        assert budget.spent == reference_budget.spent

    @pytest.mark.parametrize("gens, var, expected, steps", [
        (["x", "y^2"], "x", "x", 1),
        (["6*x^2 - 5*x + 1", "y^2 - 4*x*y"], "y", "y^3 - 10/3*y^2 + 8/3*y", 3),
    ], ids=["zero-normal-form", "content-and-scale"])
    def test_minimal_polynomials_do_not_move(self, gens, var, expected, steps):
        # the cases of test_ideals.py's test_integer_normal_forms
        sb = complete_basis([parse_expression(g, R) for g in gens], grevlex(R))
        with step_budget() as budget:
            assert minimal_polynomial(sb, var) == parse_expression(expected, (var,))
        assert budget.spent == steps


def block_free_part(generators, order):
    """The elimination ideal as it was computed before ``eliminate``: the
    block-free generators of the full reduced basis under the block
    order, over the kept ring.  The reference for ``eliminate``."""
    kept = tuple(order.ring[i] for i in order.keep)
    return tuple(g.in_ring(kept) for g in complete_basis(generators, order).generators
                 if g.variables_used() <= set(kept))


@st.composite
def _linear_elimination_cases(draw):
    """(generators, order): random multilinear generators in 3 or 4
    variables (the first one squared or not), one or two of them
    eliminated, plus a generator c*v + h linear in some
    eliminated variables v (in all of them under the "every" shape).
    Under "chain" a generator c2*v2 + g1*m*v2 + r is linear in v2 only
    once g1 = c1*v1 + h1 is substituted away; under "unit" g1 + k, k a
    nonzero constant, makes the ideal the unit ideal."""
    n = draw(st.integers(3, 4))
    ring = ("a", "b", "c", "d")[:n]
    block = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    coefficient = st.sampled_from([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])

    def poly(free_of=(), max_terms=3):
        exps = st.tuples(*[st.just(0) if i in free_of else st.integers(0, 1)
                           for i in range(n)])
        return Polynomial(ring, draw(st.dictionaries(exps, coefficient,
                                                     min_size=1, max_size=max_terms)))

    def unit(i):
        return Polynomial.variable(ring, ring[i])

    gens = [poly() for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        # degree 2 in the eliminated variables: substitution by Horner's rule
        gens[0] = gens[0] * gens[0]
    shape = draw(st.sampled_from(["some", "every", "chain", "unit"]))
    if shape == "chain" and len(block) == 2:
        v1, v2 = block
        g1 = draw(coefficient) * unit(v1) + poly(free_of=block)
        m = Polynomial.monomial(ring, draw(st.tuples(*[st.just(0) if i in block
                                                      else st.integers(0, 1)
                                                      for i in range(n)])))
        g2 = draw(coefficient) * unit(v2) + g1 * m * unit(v2) + poly(free_of=(v2,))
        gens += [g2, g1]
    else:
        linear = block if shape == "every" else draw(st.lists(st.sampled_from(block),
                                                              max_size=2, unique=True))
        for i in linear:
            gens.append(draw(coefficient) * unit(i) + poly(free_of=(i,)))
        if shape == "unit":
            g1 = draw(coefficient) * unit(block[0]) + poly(free_of=(block[0],))
            gens += [g1, g1 + draw(coefficient)]
    order = elimination_order(ring, [ring[i] for i in block])
    return draw(st.permutations(gens)), order


class TestEliminate:
    """``eliminate`` substitutes the linear variables away and completes
    only what is left: its result is the block-free part of the full
    reduced basis under the same order."""

    @given(_linear_elimination_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_block_free_part_of_the_reduced_basis(self, case):
        # a rational block completion can pass seconds within 2,000 steps;
        # the few ideals over these budgets are skipped, and they run out
        # of the first budget in well under a second
        gens, order = case
        try:
            with step_budget(1000):
                kept = eliminate(gens, order)
            with step_budget(2000):
                expected = block_free_part(gens, order)
        except BudgetExhaustedError:
            assume(False)
        assert kept == expected

    def test_every_variable_substituted_still_completes(self):
        # x = y^2 + 1 leaves y^2*z + z - y and y^3 - 2*z, whose reduced
        # basis has three elements
        R3 = ("x", "y", "z")
        gens = [parse_expression(t, R3) for t in ["x - y^2 - 1", "x*z - y", "2*y^3 - 4*z"]]
        order = elimination_order(R3, ["x"])
        with step_budget() as budget:
            kept = eliminate(gens, order)
        assert kept == block_free_part(gens, order)
        assert kept[0].ring == ("y", "z")
        assert len(kept) == 3 and budget.spent > 0

    def test_chain_of_substitutions(self):
        # x*y - y + z^2 holds y in two terms; x = 2 makes it y + z^2
        R3 = ("x", "y", "z")
        gens = [parse_expression(t, R3) for t in ["y + x*y - 2*y + z^2", "x - 2", "y^2 - z"]]
        order = elimination_order(R3, ["x", "y"])
        with step_budget() as budget:
            assert eliminate(gens, order) == (parse_expression("z^4 - z", ("z",)),)
        assert budget.spent == 0

    def test_substitution_leaves_the_callers_list_as_it_is(self):
        # germs.discriminant keeps its graph rows for the block path after
        # substituting them, so a row popped from its list would be lost
        R3 = ("x", "y", "z")
        rows = [_primitive(parse_expression(t, R3)) for t in ["y^2 - z", "x - 2", "x*z - y"]]
        before = [dict(r) for r in rows]
        left = _substitute_linear(rows, [0, 1], 3)
        assert rows == before
        assert left == [{(0, 0, 2): 4, (0, 0, 1): -1}]

    def test_unit_ideal(self):
        R3 = ("x", "y", "z")
        gens = [parse_expression(t, R3) for t in ["x - y*z", "x - y*z + 3", "z^2 - y"]]
        order = elimination_order(R3, ["x"])
        assert eliminate(gens, order) == (Polynomial.constant(("y", "z"), 1),)

    def test_zero_ideal(self):
        order = elimination_order(R, ["x"])
        assert eliminate([Polynomial.zero(R)], order) == ()


def lazard_colength(gens, ring):
    with step_budget() as budget:
        return _lazard_colength(gens, ring, budget)


# a double surface: ROADMAP's non-reduced germ
NON_REDUCED = "(x^2 - y^3 + z^5)^2*(x + y^2 + z^3)"


def _jacobian(text):
    ring = ("x", "y", "z")
    f = parse_expression(text, ring)
    return [f.diff(v) for v in ring], ring


class TestLazardLoans:
    """Steps and starts of Lazard's method inside ``local_colength``:
    a loan is of no steps after a truncation without eliminations, else
    of at least 2 * LAZARD_STEP_RATIO steps, priced from the truncation
    that just failed."""

    @pytest.fixture
    def starts(self, monkeypatch):
        starts = []
        lazard = icis.basis._lazard_colength
        monkeypatch.setattr(icis.basis, "_lazard_colength",
                            lambda *args: starts.append(args) or lazard(*args))
        return starts

    # x*y^2*z^2 has weighted degree 59/60 < 1, so no weight makes the
    # partials' leads coprime and the truncations run (x^2*y^2*z, of
    # weighted degree 16/15, answers by Arnold's weights in no step).
    # Truncations rebuilt from degree 0, with loans of 1 step and more,
    # took 77 steps and 2 starts on T_237
    @pytest.mark.parametrize("text, mu, steps, most_starts", [
        ("x^4 + y^5 + z^6 + x*y^2*z^2", 58, 159, 0),
        ("x^2 + y^3 + z^7 + x*y*z", 11, 73, 0),
    ])
    def test_pinned_steps_and_starts(self, starts, text, mu, steps, most_starts):
        gens, ring = _jacobian(text)
        with step_budget(steps):
            assert local_colength(gens, ring) == mu
        assert len(starts) <= most_starts

    def test_zero_step_loan_after_a_truncation_without_eliminations(self, starts):
        # the generators' only overlap, x^5*y*z^5, lies above the first
        # truncation's K = 9, so that truncation eliminates no row and a
        # loan of no steps settles the ideal; the truncations alone would
        # take 153 steps
        ring = ("x", "y", "z")
        gens = [parse_expression(text, ring) for text in ("x^5*y", "x*z^5")]
        with step_budget(0):
            assert local_colength(gens, ring) == inf
        assert len(starts) == 1

    def test_non_reduced_germ_within_its_budget(self):
        # no truncation stabilizes; loans priced from the truncation that
        # just failed decide it within the CI budget of the non-reduced ICIS
        gens, ring = _jacobian(NON_REDUCED)
        with step_budget(37_316):
            assert local_colength(gens, ring) == inf

    @pytest.fixture
    def loans(self, monkeypatch):
        """(steps the budget holds, steps spent) of each Lazard start."""
        loans = []
        lazard = icis.basis._lazard_colength

        def record(gens, ring, budget):
            held = budget.remaining
            try:
                return lazard(gens, ring, budget)
            finally:
                loans.append((held, budget.spent))

        monkeypatch.setattr(icis.basis, "_lazard_colength", record)
        return loans

    def test_non_reduced_germ_takes_two_loans(self, loans):
        # a 310-step loan runs out and is given up; a 4,225-step loan
        # decides the ideal in 652 steps
        gens, ring = _jacobian(NON_REDUCED)
        with step_budget() as budget:
            assert local_colength(gens, ring) == inf
        assert loans == [(310, 310), (4_225, 652)]
        assert budget.spent == 37_316

    # the 310-step loan starts after 2,552 steps of truncation.  At 2,700
    # the run runs out 148 steps into the loan, which must not read as the
    # loan's own exhaustion; at 2,862 the two end together, the loan is
    # given up, and the next truncation step runs out
    @pytest.mark.parametrize("limit, loan_spent, raised_in", [
        (2_700, 148, "_lazard_colength"),
        (2_862, 310, "_truncated_colength"),
    ])
    def test_run_out_at_a_loan(self, loans, limit, loan_spent, raised_in):
        gens, ring = _jacobian(NON_REDUCED)
        with step_budget(limit) as budget, pytest.raises(BudgetExhaustedError) as info:
            local_colength(gens, ring)
        assert budget.spent == limit
        assert [spent for _, spent in loans] == [loan_spent]
        assert raised_in in [entry.name for entry in info.traceback]


class TestLazardColength:
    """Lazard's method, which local_colength runs on its step loans,
    against local_colength and against known values."""

    @pytest.mark.parametrize("gens, expected", [
        ([2 * x, 2 * y], 1),  # Morse point
        ([3 * x**2, 2 * y], 2),  # cusp Jacobian
        ([x**2 - y**3, y**4], 8),  # the local leading monomial is x^2
        ([x - x**2, y], 1),  # 1 - x is a unit at 0; the affine colength is 2
        ([x**2 - y**3], inf),  # a plane curve is not m-primary
    ])
    def test_known_local_colengths(self, gens, expected):
        assert lazard_colength(gens, R) == expected
        assert local_colength(gens, R) == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_local_colength_on_primary_germs(self, seed):
        # x_i^a_i (1 - x_i) put V(I) in {0, 1}^n: the origin is isolated,
        # and the points off it make the local and the affine colength differ
        rng = random.Random(seed)
        n = rng.randint(2, 3)
        ring = ("x", "y", "z")[:n]
        gens = []
        for i in range(n):
            e = tuple(rng.randint(1, 3) if j == i else 0 for j in range(n))
            v = Polynomial.variable(ring, ring[i])
            gens.append(Polynomial.monomial(ring, e, 1) * (1 - v))
        for _ in range(rng.randint(1, 2)):
            gens.append(Polynomial(ring, {
                tuple(rng.randint(0, 2) for _ in ring): rng.choice([-2, -1, 1, 3])
                for _ in range(rng.randint(1, 3))
            }) * Polynomial.variable(ring, "x"))
        local = local_colength(gens, ring)
        assert local != inf
        assert lazard_colength(gens, ring) == local
        assert local <= colength(complete_basis(gens, grevlex(ring)))

    def test_non_isolated_fixture_is_inf(self):
        text = (Path(__file__).parent / "fixtures" / "nonisolated.icis").read_text()
        problem = parse_problem(text)
        (f,) = problem.bindings["f"]
        jacobian = [f.diff(v) for v in problem.ring]
        assert lazard_colength(jacobian, problem.ring) == inf
        assert local_colength(jacobian, problem.ring) == inf
