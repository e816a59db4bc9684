from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod
import random

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
from icis.poly import Polynomial, gcd, squarefree_part
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


class TestTagVariables:
    """radical_membership, gcd and Lazard's method each adjoin a tag
    variable, _z, _w and _h; a ring that already holds the three gets
    fresh names, so its answers are those of the same inputs over
    renamed variables."""

    @staticmethod
    def _answers(ring):
        a, b, c = (Polynomial.variable(ring, v) for v in ring)
        curve = IdealPresentation(ring, [a**2 - b, c**2])
        with step_budget() as budget:
            return ([radical_membership(f, curve) for f in (c, a, b - a**2)],
                    gcd((a + b * c)**2 * (c - a), (a + b * c) * (b - c**2)).terms,
                    basis._lazard_colength([3 * a**2 + b * c, 4 * b**3 + a * c, 5 * c**4 + a * b],
                                           ring, budget),
                    budget.spent)

    def test_a_ring_holding_the_tags_gives_the_same_answers(self):
        answers = self._answers(("_z", "_w", "_h"))
        assert answers == self._answers(("a", "b", "c"))
        assert answers[:3] == ([True, False, True], {(1, 0, 0): 1, (0, 1, 1): 1}, 11)


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
        # V(I) is {0, 1} x {0} with a fat point at x = 1: the cut I + <f>,
        # built once, holds the points where f vanishes, which are those of
        # rad(I) + <f>, and it is counted from its bounds with no radical
        I = IdealPresentation(R, (x**2 * (x - 1) ** 3, y**2))
        expected = I.radical().plus([f]).radical().colength(grevlex(R))
        monkeypatch.setattr(IdealPresentation, "radical", _refuse)
        cut = I.cut(f)
        assert I.cut(f) is cut
        assert distinct_point_count(cut) == count == expected
        assert distinct_point_count(I) == 2
        assert is_nilpotent(f, I) == (count == 2)

    def test_built_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ideals, "univariate_eliminant",
                            lambda I, v: calls.append(v) or univariate_eliminant(I, v))
        I = IdealPresentation(R, (x**2 - x, y**3))
        assert distinct_point_count(I) == 2
        assert is_nilpotent(y, I) and not is_nilpotent(x, I)
        assert calls == list(R)


def _refuse(I, *args):
    raise AssertionError("a radical or an eliminant was computed")


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


def _power(gens, e):
    """Generators of <gens>^e: the products of e of them."""
    return [prod(c) for c in combinations_with_replacement(gens, e)]


def _known_point_ideal(seed):
    """A seeded zero-dimensional ideal and its known points.

    V(I) is up to four rational points drawn from a small grid, so that
    coordinates repeat, often with the origin among them, plus, for some
    seeds, the conjugate pair x = +-sqrt(d), y = a*x + b (z = 0).  Each
    component may be fat: I is the product of powers of the points'
    ideals, which are pairwise coprime.  Returns (I, number of points,
    rational points, pair or None); the pair is (d, a, b)."""
    rng = random.Random(seed)
    ring = ("x", "y", "z")[:rng.choice((2, 2, 3))]
    v = [Polynomial.variable(ring, name) for name in ring]
    grid = [0, 1, -1, Fraction(1, 2)]
    points = [tuple(rng.choice(grid) for _ in ring) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.4:
        points.insert(0, (0,) * len(ring))
    points = list(dict.fromkeys(points))
    pair = None
    if rng.random() < 0.5 or not points:
        pair = (rng.choice((2, 3, 5, -1)), rng.choice(grid), rng.choice(grid))
    gens = [Polynomial.constant(ring, 1)]
    components = [[vi - pi for vi, pi in zip(v, p)] for p in points]
    if pair:
        d, a, b = pair
        components.append([v[0] ** 2 - d, v[1] - a * v[0] - b] + v[2:])
    for k, component in enumerate(components):
        e = 2 if k == 0 and rng.random() < 0.6 else 1
        gens = [f * g for f in gens for g in _power(component, e)]
    return IdealPresentation(ring, gens), len(points) + 2 * bool(pair), points, pair


def _vanishes(f, points, pair):
    """f is zero at every known point: exactly at the rational ones, and
    at the conjugate pair when f(s, a*s + b, 0) is zero modulo s^2 - d."""
    ring = f.ring
    if any(f.eval(dict(zip(ring, p))) for p in points):
        return False
    if pair is None:
        return True
    d, a, b = pair
    s = Polynomial.variable(("s",), "s")
    image = f.subs({"x": s, "y": a * s + b, **{v: 0 for v in ring[2:]}}, target_ring=("s",))
    parts = [Fraction(0), Fraction(0)]  # image = parts[0] + parts[1]*sqrt(d)
    for (k,), c in image.terms.items():
        parts[k % 2] += c * Fraction(d) ** (k // 2)
    return parts == [0, 0]


def _test_functions(I, points, pair, rng):
    """Functions to test for nilpotency: the coordinates, the conjugate
    pair's equations, and random polynomials, half of them times a factor
    through every known point."""
    ring = I.ring
    v = [Polynomial.variable(ring, name) for name in ring]
    out = list(v) + [vi - 1 for vi in v]
    if pair:
        d, a, b = pair
        out += [v[0] ** 2 - d, v[1] - a * v[0] - b]
    for _ in range(4):
        terms = {tuple(rng.randint(0, 2) for _ in ring): rng.choice((-2, -1, 1, 3))
                 for _ in range(3)}
        f = Polynomial(ring, terms)
        if rng.random() < 0.5:
            for p in points:
                j = rng.randrange(len(ring))
                f = f * (v[j] - p[j])
            if pair:
                f = f * (v[0] ** 2 - pair[0])
        out.append(f)
    return out


class TestPointsFromBounds:
    """distinct_point_count, is_nilpotent and lone_point read colengths
    and eliminants, and complete a radical only when the bounds on the
    point count never meet.  Each answer is checked against the known
    points and against the radical path: the radical's colength, normal
    forms modulo its basis and its reduced basis {v - c_v}."""

    @pytest.mark.parametrize("known_mu0", [False, True], ids=["mu0-unknown", "mu0-known"])
    @pytest.mark.parametrize("seed", range(40))
    def test_known_points(self, seed, known_mu0):
        I, count, points, pair = _known_point_ideal(seed)
        if known_mu0 and (0,) * len(I.ring) in points:
            I.local_colength()  # as a sample report computes it
        rad = IdealPresentation(I.ring, I.generators).radical()
        rad_basis = rad.basis(grevlex(I.ring))
        assert distinct_point_count(I) == count == rad.colength(grevlex(I.ring))
        for f in _test_functions(I, points, pair, random.Random(seed)):
            expected = _vanishes(f, points, pair)
            assert is_nilpotent(f, I) == expected == normal_form(f, rad_basis).is_zero(), f
        if count == 1:
            (point,) = points
            assert lone_point(I) == dict(zip(I.ring, point))
            assert lone_point(I) == {v: -g.constant_term() for g in rad_basis.generators
                                     for v in g.variables_used()}

    @pytest.mark.parametrize("texts, count", [
        # (1, 1), fat, (2, 0) and (2, 1): L_x = L_y = 2 and c = 4, so
        # 2 <= N <= 4
        (("(x - 1)^2*(x - 2)", "y*(y - 1)", "(x - 2)*(y - 1)"), 3),
        # (0, 0), (1, 0) and (0, 1): 2 <= N <= c = 3, and c - mu0 + 1 = 3
        (("x*(x - 1)", "y*(y - 1)", "x*y"), 3),
    ], ids=["fat-off-origin", "three-corners"])
    def test_bounds_that_never_meet_complete_the_radical(self, texts, count, monkeypatch):
        I = _ideal(texts)
        calls = []
        radical = IdealPresentation.radical
        monkeypatch.setattr(IdealPresentation, "radical",
                            lambda J: calls.append(J) or radical(J))
        assert distinct_point_count(I) == count
        assert calls == [I]

    @pytest.mark.parametrize("texts, count", [
        # a fat point at the origin: c = mu0 = 4
        (("x^2", "x*y", "y^3"), 1),
        # the origin, of mu0 = 2, and (1, 0): c - mu0 = 1 point off the origin
        (("x^2*(x - 1)", "y"), 2),
    ], ids=["fat-origin", "origin-and-one"])
    def test_known_origin_colength_needs_no_eliminant(self, texts, count, monkeypatch):
        I = _ideal(texts)
        I.local_colength()  # as a sample report computes it
        monkeypatch.setattr(ideals, "univariate_eliminant", _refuse)
        monkeypatch.setattr(IdealPresentation, "radical", _refuse)
        assert distinct_point_count(I) == count
        if count == 1:
            assert lone_point(I) == {"x": 0, "y": 0}

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_bounds_hold(self, seed):
        # max_v L_v <= N <= c, prod_v L_v, and c - mu0 + 1 when the origin
        # is a point
        I, count, _, _ = _known_point_ideal(seed)
        c = I.colength(grevlex(I.ring))
        L = [squarefree_part(univariate_eliminant(I, v)).total_degree() for v in I.ring]
        assert max(L) <= count <= min(c, prod(L))
        if all(not g.constant_term() for g in I.generators):
            assert count <= c - I.local_colength() + 1
        assert distinct_point_count(I) == count


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
