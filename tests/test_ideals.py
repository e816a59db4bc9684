from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from icis import basis, ideals
from icis.basis import complete_basis, normal_form, step_budget
from icis.errors import BudgetExhaustedError, NonIsolatedError
from icis.ideals import (
    IdealPresentation,
    critical_ideal,
    determinant,
    distinct_point_count,
    elimination_ideal,
    is_nilpotent,
    jacobian_matrix,
    lone_point,
    maximal_minors,
    radical_membership,
    univariate_eliminant,
)
from icis.orders import grevlex
from icis.poly import Polynomial, squarefree_part
from icis.problem import parse_expression

R = ("x", "y")
x = Polynomial.variable(R, "x")
y = Polynomial.variable(R, "y")


class TestJacobian:
    def test_plane_maps(self):
        J = jacobian_matrix([x**2 - y**3, x * y], R)
        assert J == [
            [2 * x, -3 * y**2],
            [y, x],
        ]

    def test_determinant(self):
        J = jacobian_matrix([x**2 - y**3, x * y], R)
        assert determinant(J) == 2 * x**2 + 3 * y**3

    def test_maximal_minors_wide(self):
        R3 = ("x", "y", "z")
        x3, y3, z3 = (Polynomial.variable(R3, n) for n in R3)
        J = jacobian_matrix([x3 * y3 * z3], R3)
        minors = maximal_minors(J)
        assert set(map(str, minors)) == {str(y3 * z3), str(x3 * z3), str(x3 * y3)}

    def test_equal_rows_give_zero_minors(self):
        M = [[x, y], [x, y]]
        assert determinant(M).is_zero()


class TestRelativeJacobian:
    """J(F, phi) of a family: the generators of the critical ideal over
    the (t, x)-ring, in the x-variables, after phi."""

    def test_family_minors_exclude_parameter(self):
        Rt = ("t", "x", "y")
        t, xt, yt = (Polynomial.variable(Rt, n) for n in Rt)
        F = xt + t * yt
        phi = xt**2 - yt**3
        I = critical_ideal([phi], F, R)
        assert I.ring == Rt and I.generators[0] == phi
        gens = I.generators[1:]
        # 2x2 determinant of d(phi,F)/d(x,y), up to sign
        expected = -3 * yt**2 - 2 * t * xt
        assert len(gens) == 1
        assert gens[0] in (expected, -1 * expected)

    def test_specialization_commutes_with_minors(self):
        Rt = ("t", "x", "y")
        t, xt, yt = (Polynomial.variable(Rt, n) for n in Rt)
        F = xt + t * xt * yt
        phi = xt**3 - yt**5
        gens = critical_ideal([phi], F, R).generators[1:]
        for t0 in (Fraction(1), Fraction(1, 2), Fraction(-2, 3)):
            specialized = [g.subs({"t": t0}, target_ring=R) for g in gens]
            f0 = F.subs({"t": t0}, target_ring=R)
            phi0 = phi.subs({"t": t0}, target_ring=R)
            direct = maximal_minors(jacobian_matrix([phi0, f0], R))
            assert specialized == direct


class TestElimination:
    def test_discriminant_shape(self):
        # graph of (x, y^3 + x y) plus its critical equation
        Ru = ("x", "y", "u", "v")
        xs, ys, u, v = (Polynomial.variable(Ru, n) for n in Ru)
        I = IdealPresentation(Ru, (u - xs, v - (ys**3 + xs * ys), 3 * ys**2 + xs))
        elim = elimination_ideal(I, keep=("u", "v"))
        basis = complete_basis(list(elim.generators), grevlex(("u", "v")))
        uu = Polynomial.variable(("u", "v"), "u")
        vv = Polynomial.variable(("u", "v"), "v")
        target = 4 * uu**3 + 27 * vv**2
        assert normal_form(target, basis).is_zero()
        assert len(basis.generators) == 1

    def test_projection_of_curve(self):
        I = IdealPresentation(R, (x - y**2,))
        elim = elimination_ideal(I, keep=("y",))
        assert elim.generators == ()

    def test_eliminant_of_intersection(self):
        # x = y^2 and x = 1 meet where y^2 = 1
        I = IdealPresentation(R, (x - y**2, x - 1))
        elim = elimination_ideal(I, keep=("y",))
        g = univariate_eliminant(elim, "y")
        yy = Polynomial.variable(("y",), "y")
        assert g == yy**2 - 1


class TestRadicalMembership:
    def test_nilpotent_direction(self):
        I = IdealPresentation(R, (x**2,))
        assert radical_membership(x, I)
        assert not radical_membership(y, I)

    def test_product_ideal(self):
        I = IdealPresentation(R, (x * y, x**2 - y**2))
        # V(I) = origin, so both variables are in the radical
        assert radical_membership(x, I)
        assert radical_membership(y, I)

    def test_prime_ideal_is_its_own_radical(self):
        I = IdealPresentation(R, (x**2 - y**3,))
        assert not radical_membership(x, I)
        assert radical_membership(x**2 - y**3, I)

    def test_unit_ideal(self):
        I = IdealPresentation(R, (x, y, Polynomial.constant(R, 1)))
        assert radical_membership(Polynomial.constant(R, 5), I)


class TestIsNilpotent:
    X = ("x",)
    xu = Polynomial.variable(X, "x")

    @pytest.mark.parametrize("D", range(1, 10))
    def test_index_exactly_the_dimension(self, D):
        # x^(D-1) is not in <x^D>, but is_nilpotent reduces modulo the
        # radical, and rad<x^D> = <x> for every D: x is nilpotent, x + 1
        # (a unit at the one point x = 0) is not
        I = IdealPresentation(self.X, (self.xu**D,))
        assert is_nilpotent(self.xu, I)
        assert not is_nilpotent(self.xu + 1, I)

    def test_unit_ideal_refutes_nothing(self):
        I = IdealPresentation(self.X, (self.xu + 1, self.xu))
        assert I.colength(grevlex(self.X)) == 0
        assert is_nilpotent(self.xu, I)
        assert is_nilpotent(self.xu + 1, I)

    def test_two_points(self):
        I = IdealPresentation(R, (x**2 - x, y**3))
        assert is_nilpotent(y, I)
        assert is_nilpotent(x**2 - x + y, I)
        assert not is_nilpotent(x, I)

    def test_positive_dimensional_rejected(self):
        with pytest.raises(NonIsolatedError):
            is_nilpotent(x, IdealPresentation(R, (x**2,)))


class TestDistinctPoints:
    def test_two_points_on_line(self):
        I = IdealPresentation(R, (x - y**2, x - 1))
        assert distinct_point_count(I) == 2

    def test_fat_point_counts_once(self):
        I = IdealPresentation(R, (x**2, y**3))
        assert distinct_point_count(I) == 1

    def test_critical_points_of_deformed_cusp(self):
        # d/dx, d/dy of y^2 - x^3 - t x^2 at t = 1: roots x in {0, -2/3}
        I = IdealPresentation(R, (-3 * x**2 - 2 * x, 2 * y))
        assert distinct_point_count(I) == 2

    def test_positive_dimension_rejected(self):
        I = IdealPresentation(R, (x,))
        with pytest.raises(NonIsolatedError):
            distinct_point_count(I)

    def test_unit_ideal_has_no_points(self):
        I = IdealPresentation(R, (x - 1, x))
        assert I.colength(grevlex(R)) == 0
        assert distinct_point_count(I) == 0


class TestRadical:
    def test_repeated_roots_count_once(self):
        # x-eliminant x^2 (x - 1)^3 has the radical x^2 - x
        I = IdealPresentation(R, (x**2 * (x - 1) ** 3, y**2))
        assert I.radical().basis(grevlex(R)).generators == (y, x**2 - x)

    def test_single_point_is_maximal(self):
        I = IdealPresentation(R, ((2 * x - 1) ** 2, (y + 3) ** 3))
        assert set(I.radical().basis(grevlex(R)).generators) == {x - Fraction(1, 2), y + 3}
        assert lone_point(I) == {"x": Fraction(1, 2), "y": -3}

    def test_positive_dimension_rejected(self):
        with pytest.raises(NonIsolatedError):
            IdealPresentation(R, (x,)).radical()

    def test_unit_ideal_is_its_own_radical(self):
        I = IdealPresentation(R, (x - 1, x))
        assert I.radical() is I

    @pytest.mark.parametrize("f, count", [(x, 1), (x - 1, 1), (y, 2), (x + 1, 0)],
                             ids=["one-point", "fat-point", "every-point", "no-point"])
    def test_radical_plus_cuts_the_points(self, f, count, monkeypatch):
        # V(I) is {0, 1} x {0} with a fat point at x = 1: the cut by f is
        # the points where f vanishes, and is its own radical with no
        # eliminant of its own
        I = IdealPresentation(R, (x**2 * (x - 1) ** 3, y**2))
        I.radical()
        calls = []
        monkeypatch.setattr(ideals, "univariate_eliminant",
                            lambda I, v: calls.append(v) or univariate_eliminant(I, v))
        cut = I.radical_plus([f])
        assert cut.radical() is cut
        assert distinct_point_count(cut) == count
        assert calls == []
        # the radical of I + <f> from its own eliminants counts the same
        assert distinct_point_count(I.plus([f])) == count

    def test_built_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ideals, "univariate_eliminant",
                            lambda I, v: calls.append(v) or univariate_eliminant(I, v))
        I = IdealPresentation(R, (x**2 - x, y**3))
        assert distinct_point_count(I) == 2
        assert is_nilpotent(y, I) and not is_nilpotent(x, I)
        assert calls == list(R)


class TestUnivariateEliminant:
    """The minimal polynomial of multiplication by a variable, read off
    the cached grevlex basis."""

    def test_positive_dimension_rejected(self):
        with pytest.raises(NonIsolatedError):
            univariate_eliminant(IdealPresentation(R, (x,)), "y")

    def test_unit_ideal_gives_one(self):
        I = IdealPresentation(R, (x - 1, x))
        assert univariate_eliminant(I, "x") == Polynomial.constant(("x",), 1)
        assert univariate_eliminant(I, "y") == Polynomial.constant(("y",), 1)

    def test_repeated_and_irrational_roots(self):
        xx = Polynomial.variable(("x",), "x")
        yy = Polynomial.variable(("y",), "y")
        I = IdealPresentation(R, ((x**2 - 2) ** 2, y - x))
        assert univariate_eliminant(I, "x") == (xx**2 - 2) ** 2
        assert univariate_eliminant(I, "y") == (yy**2 - 2) ** 2

    @pytest.mark.parametrize("gens, var, expected", [
        # x lies in the ideal: the normal form of x is zero
        (["x", "y^2"], "x", "x"),
        # the normal form of y^3 has content 2 and reduces with scale 3
        (["6*x^2 - 5*x + 1", "y^2 - 4*x*y"], "y", "y^3 - 10/3*y^2 + 8/3*y"),
    ], ids=["zero-normal-form", "content-and-scale"])
    def test_integer_normal_forms(self, gens, var, expected):
        I = IdealPresentation(R, tuple(parse_expression(g, R) for g in gens))
        assert univariate_eliminant(I, var) == parse_expression(expected, (var,))

    def test_charges_the_active_budget(self):
        I = IdealPresentation(R, ((x**2 - 2) ** 2, y - x))
        I.basis(grevlex(R))
        with step_budget() as budget:
            univariate_eliminant(I, "y")
        assert budget.spent > 0
        with pytest.raises(BudgetExhaustedError), step_budget(budget.spent - 1):
            univariate_eliminant(I, "y")

    def test_reads_the_cached_grevlex_basis(self, kinds):
        I = IdealPresentation(R, (x**2 - y, y**2 - x))
        I.basis(grevlex(R))
        kinds.clear()
        xx = Polynomial.variable(("x",), "x")
        assert univariate_eliminant(I, "x") == xx**4 - xx
        assert kinds == []


@pytest.fixture
def kinds(monkeypatch):
    """The order kind of every basis completion and elimination."""
    out = []
    for name in ("complete_basis", "eliminate"):
        def counting(generators, order, original=getattr(basis, name)):
            out.append(order.kind)
            return original(generators, order)

        monkeypatch.setattr(basis, name, counting)
    return out


# ideals with repeated roots, irrational points and a lone fat point, in
# two and three variables
POINT_IDEALS = [
    ("x^2*(x - 1)^3", "y^2"),
    ("(x^2 - 2)^2", "y^3 - x*y", "x*y^2"),
    ("(2*x - 1)^2", "(y + 3)^3"),
    ("x^2 + y^2 - 1", "x*y - z", "z^2 - x*z"),
    ("(x - y)^2", "y^2 - 3", "(z - x)^2*z"),
    ("(x + y + z)^2", "(y - 1)^2", "z^3"),
]


def _ideal(texts):
    ring = ("x", "y", "z") if any("z" in t for t in texts) else R
    return IdealPresentation(ring, [parse_expression(t, ring) for t in texts])


class TestPointAccountingWithoutBlockOrders:
    @pytest.mark.parametrize("texts", POINT_IDEALS)
    def test_no_block_completion(self, texts, kinds):
        I = _ideal(texts)
        distinct_point_count(I)
        for v in I.ring:
            is_nilpotent(Polynomial.variable(I.ring, v), I)
        if distinct_point_count(I) == 1:
            lone_point(I)
        assert "grevlex" in kinds
        assert "block" not in kinds

    @pytest.mark.parametrize("texts", POINT_IDEALS)
    def test_radical_basis_is_a_fresh_completion(self, texts):
        # the squarefree parts are taken of the block-order eliminants
        I = _ideal(texts)
        adjoined = []
        for v in I.ring:
            (e,) = elimination_ideal(I, [v]).generators
            r = squarefree_part(e)
            if r.total_degree() < e.total_degree():
                adjoined.append(r.in_ring(I.ring))
        assert adjoined
        fresh = complete_basis(list(I.generators) + adjoined, grevlex(I.ring))
        assert I.radical().basis(grevlex(I.ring)).generators == fresh.generators


def _points(n):
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.lists(st.tuples(*[coord] * n), min_size=1, max_size=3, unique=True)


def _random_poly(ring, draw):
    exps = st.tuples(*[st.integers(0, 2)] * len(ring))
    terms = draw(st.dictionaries(exps, st.integers(-2, 2).filter(bool), max_size=4))
    return Polynomial(ring, terms)


class TestRadicalOfKnownPoints:
    """I is a product of powers of the maximal ideals of known rational
    points, so V(I) is known without a standard basis."""

    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(st.just(n), _points(n))),
           st.data())
    @settings(max_examples=25, deadline=None)
    def test_points_of_a_product_of_maximal_powers(self, n_points, data):
        n, points = n_points
        ring = ("x", "y", "z")[:n]
        v = [Polynomial.variable(ring, name) for name in ring]
        # the first point may be fat; the product's generator count grows
        # with every exponent, and the Groebner basis with it
        exponents = [data.draw(st.integers(1, 2))] + [1] * (len(points) - 1)
        I = [Polynomial.constant(ring, 1)]
        for p, e in zip(points, exponents):
            # m_p^e is generated by the products of e of the v_i - p_i
            power = [prod(c) for c in combinations_with_replacement(
                [vi - pi for vi, pi in zip(v, p)], e)]
            I = [f * g for f in I for g in power]
        I = IdealPresentation(ring, I)
        assert distinct_point_count(I) == len(points)
        for _ in range(3):
            f = _random_poly(ring, data.draw)
            if data.draw(st.booleans()):
                # a factor v_j - p_j through each point puts f in the
                # radical, though not in I when a point is fat
                for p in points:
                    j = data.draw(st.integers(0, n - 1))
                    f = f * (v[j] - p[j])
            expected = all(f.eval(dict(zip(ring, p))) == 0 for p in points)
            assert is_nilpotent(f, I) == expected
        if len(points) == 1:
            assert lone_point(I) == dict(zip(ring, points[0]))

    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(st.just(n), _points(n))))
    @settings(max_examples=15, deadline=None)
    def test_product_of_distinct_maximal_ideals_is_its_own_radical(self, n_points):
        # every eliminant of a radical ideal is squarefree, so nothing is
        # adjoined and the basis I already has is reused
        n, points = n_points
        ring = ("x", "y", "z")[:n]
        v = [Polynomial.variable(ring, name) for name in ring]
        I = [Polynomial.constant(ring, 1)]
        for p in points:
            I = [f * (vi - pi) for f in I for vi, pi in zip(v, p)]
        I = IdealPresentation(ring, I)
        assert I.radical() is I
        assert distinct_point_count(I) == len(points)


class TestIdealPresentation:
    def test_basis_is_cached(self):
        I = IdealPresentation(R, (x**2 - y, y**2 - x))
        b1 = I.basis(grevlex(R))
        b2 = I.basis(grevlex(R))
        assert b1 is b2

    def test_plus(self):
        I = IdealPresentation(R, (x,))
        J = I.plus((y,))
        assert J.generators == (x, y)
        assert J.colength(grevlex(R)) == 1
