from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from icis import basis, poly
from icis.basis import step_budget
from icis.errors import RingMismatchError, UnknownVariableError, ZeroInputError
from icis.orders import grevlex
from icis.poly import (
    Polynomial,
    divexact,
    format_poly,
    gcd,
    lowest_degree_form,
    order_of_vanishing,
    squarefree_part,
)
from icis.problem import parse_expression

R = ("x", "y")
x = Polynomial.variable(R, "x")
y = Polynomial.variable(R, "y")


def coeffs():
    return st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, ring=R, max_exp=3, max_terms=4):
    n = len(ring)
    terms = draw(
        st.dictionaries(
            st.tuples(*([st.integers(0, max_exp)] * n)),
            coeffs(),
            max_size=max_terms,
        )
    )
    return Polynomial(ring, terms)


@st.composite
def nonzero_polys(draw, **kw):
    p = draw(polys(**kw))
    if p.is_zero():
        e = (1,) + (0,) * (len(p.ring) - 1)
        p = p + Polynomial.monomial(p.ring, e, 1)
    return p


class TestConstruct:
    def test_int_coefficient_is_stored_as_fraction(self):
        f = Polynomial(R, {(1, 0): 3, (0, 1): 0})
        assert f.terms == {(1, 0): Fraction(3)}
        assert type(f.terms[(1, 0)]) is Fraction

    def test_bad_exponent_vector_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(R, {(1, -1): 1})
        with pytest.raises(ValueError):
            Polynomial(R, {(1,): 1})


class TestArith:
    def test_cancellation(self):
        assert (x + y) + (x - y) == 2 * x

    def test_identity(self):
        f = x**2 - 3 * y
        assert f * Polynomial.constant(R, 1) == f

    def test_difference_of_squares(self):
        assert (x + y) * (x - y) == x**2 - y**2

    def test_ring_mismatch_rejected(self):
        z = Polynomial.variable(("z",), "z")
        with pytest.raises(RingMismatchError):
            x + z

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)

    @given(nonzero_polys(), nonzero_polys())
    @settings(max_examples=60, deadline=None)
    def test_leading_term_multiplicative(self, f, g):
        order = grevlex(R)
        lm_f, lc_f = f.leading(order)
        lm_g, lc_g = g.leading(order)
        lm_fg, lc_fg = (f * g).leading(order)
        assert lm_fg == tuple(a + b for a, b in zip(lm_f, lm_g))
        assert lc_fg == lc_f * lc_g


class TestDerivative:
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4)])
    def test_power_rule_on_curve_equation(self, p, q):
        f = x**p - y**q
        assert f.diff("x") == p * x ** (p - 1)
        assert f.diff("y") == -q * y ** (q - 1)

    def test_constant(self):
        assert Polynomial.constant(R, 7).diff("x").is_zero()

    def test_mixed(self):
        assert (x**2 * y**3).diff("y") == 3 * x**2 * y**2

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            x.diff("z")


class TestSubstitute:
    def test_line_parametrization(self):
        ab = ("a", "b", "s")
        a = Polynomial.variable(ab, "a")
        b = Polynomial.variable(ab, "b")
        s = Polynomial.variable(ab, "s")
        f = y**2 - x**3
        assert f.subs({"x": a * s, "y": b * s}) == b**2 * s**2 - a**3 * s**3

    def test_identity(self):
        f = x**2 + y
        assert f.subs({"x": x, "y": y}) == f

    def test_parameter_specialization(self):
        Rt = ("t", "x", "y")
        F = Polynomial.variable(Rt, "x") + Polynomial.variable(Rt, "t") * Polynomial.variable(Rt, "y")
        got = F.subs({"t": Fraction(1, 2)}, target_ring=R)
        assert got == x + Fraction(1, 2) * y

    @given(
        polys(ring=("t", "x", "y"), max_terms=6),
        st.dictionaries(st.sampled_from(["t", "x", "y"]), coeffs() | st.integers(-3, 3),
                        min_size=1),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalars_act_as_constant_polynomials(self, f, scalars, drop_bound):
        # scalars scale coefficients; as constant images they are
        # multiplied out like any polynomial image
        target = tuple(v for v in f.ring if not (drop_bound and v in scalars))
        constants = {v: Polynomial.constant(target, c) for v, c in scalars.items()}
        got = f.subs(scalars, target_ring=target)
        assert got == f.subs(constants, target_ring=target)
        assert got.ring == target

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_homomorphism(self, f, g):
        bindings = {"x": x + y, "y": x * y - 1}
        lhs = (f * g).subs(bindings)
        rhs = f.subs(bindings) * g.subs(bindings)
        assert lhs == rhs


class TestOrderOfVanishing:
    def test_generic_line_order(self):
        s_ring = ("s",)
        s = Polynomial.variable(s_ring, "s")
        assert order_of_vanishing(4 * s**2 - s**3) == 2

    def test_zero(self):
        assert order_of_vanishing(Polynomial.zero(("s",))) == inf

    def test_least_exponent(self):
        s = Polynomial.variable(("s",), "s")
        assert order_of_vanishing(s**5 + 3 * s**7) == 5

    def test_multivariate_rejected(self):
        with pytest.raises(UnknownVariableError):
            order_of_vanishing(x + y)

    @given(nonzero_polys(ring=("s",)), nonzero_polys(ring=("s",)))
    @settings(max_examples=40, deadline=None)
    def test_additive_on_products(self, f, g):
        assert order_of_vanishing(f * g) == order_of_vanishing(f) + order_of_vanishing(g)


class TestLowestDegreeForm:
    def test_discriminant_cone(self):
        u, v = (Polynomial.variable(("u", "v"), n) for n in ("u", "v"))
        assert lowest_degree_form(4 * u**3 + 27 * v**2) == 27 * v**2

    def test_homogeneous_fixed(self):
        f = x**2 + x * y
        assert lowest_degree_form(f) == f

    def test_minimal_part(self):
        assert lowest_degree_form(x**2 + x**3 + y**5) == x**2

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            lowest_degree_form(Polynomial.zero(R))

    @given(nonzero_polys())
    @settings(max_examples=40, deadline=None)
    def test_degree_is_minimal(self, f):
        form = lowest_degree_form(f)
        d = form.total_degree()
        assert all(sum(e) >= d for e in f.terms)


def up_to_scalar(f, g):
    if f.is_zero() or g.is_zero():
        return f == g
    order = grevlex(f.ring)
    _, cf = f.leading(order)
    _, cg = g.leading(order)
    return f * (1 / cf) == g * (1 / cg)


class TestSquarefree:
    def test_square_removed(self):
        assert up_to_scalar(squarefree_part((y**2 - x**3) ** 2), y**2 - x**3)

    def test_squarefree_fixed(self):
        f = x**2 - y**3
        assert up_to_scalar(squarefree_part(f), f)

    def test_monomial(self):
        assert up_to_scalar(squarefree_part(x**2 * y**3), x * y)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            squarefree_part(Polynomial.zero(R))

    @pytest.mark.parametrize(
        "f,g",
        [(x + y, x - y), (x**2 + y, x), (y**2 - x**3, x + 1)],
    )
    def test_multiplicity_insensitive(self, f, g):
        assert up_to_scalar(squarefree_part(f**2 * g), squarefree_part(f * g))


class TestSquarefreeCertificate:
    """A squarefree input is certified by a univariate specialization,
    outside the step budget; only a failed certificate takes one gcd."""

    @pytest.fixture
    def no_basis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a basis was completed")

        monkeypatch.setattr(basis, "complete_basis", refuse)
        monkeypatch.setattr(basis, "eliminate", refuse)

    @pytest.mark.parametrize(
        "ring,text",
        [
            (("u", "v"), "4*u^3 + 27*v^2"),
            # coefficients in x: y, z, y^3 + z^2
            (("x", "y", "z"), "x^2*y + x*z + y^3 + z^2"),
        ],
    )
    def test_squarefree_input_spends_no_steps(self, no_basis, ring, text):
        f = parse_expression(text, ring)
        with step_budget() as b:
            assert up_to_scalar(squarefree_part(f), f)
        assert b.spent == 0

    def test_non_squarefree_primitive_input_takes_one_gcd(self, monkeypatch):
        calls = []

        def counting_gcd(f, g):
            calls.append((f, g))
            return gcd(f, g)

        monkeypatch.setattr(poly, "gcd", counting_gcd)
        f = (x**2 - y**3) ** 2 * (x + y)
        assert up_to_scalar(squarefree_part(f), (x**2 - y**3) * (x + y))
        assert len(calls) == 1

    def test_pure_power_beside_mixed_terms_is_not_a_constant_coefficient(self, monkeypatch):
        # x and y^2 are terms of f, but the coefficient of x is (y + 1)^2
        # and that of y^2 is x + 1: no coefficient is constant, so the
        # gcds are taken with df/dx and df/dy, and with nothing else
        calls = []

        def counting_gcd(f, g):
            calls.append(g)
            return gcd(f, g)

        monkeypatch.setattr(poly, "gcd", counting_gcd)
        f = (y + 1) ** 2 * (x + 1)
        assert up_to_scalar(squarefree_part(f), (y + 1) * (x + 1))
        assert calls == [f.diff("x"), f.diff("y")]


class TestMonomialGcd:
    """A monomial's gcd with any polynomial is the monomial of least
    exponents: no standard basis is completed."""

    @pytest.fixture
    def basis_calls(self, monkeypatch):
        calls = []
        for name in ("complete_basis", "eliminate"):
            def counting(*args, original=getattr(basis, name)):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(basis, name, counting)
        return calls

    def test_gcd_with_a_monomial_completes_no_basis(self, basis_calls):
        R3 = ("x", "y", "z")
        assert gcd(parse_expression("y", R3), parse_expression("x*z^2 + y^3*z", R3)) == 1
        assert basis_calls == []

    def test_content_of_monomial_coefficients_completes_no_basis(self, basis_calls):
        # the coefficients of f in x are y, z^2 and y^3*z
        f = parse_expression("x^2*y + y^3*z + x*z^2", ("x", "y", "z"))
        assert squarefree_part(f) == f
        assert basis_calls == []


class TestDivision:
    def test_exact(self):
        f = (x + y) * (x**2 - y)
        assert divexact(f, x + y) == x**2 - y

    def test_inexact_rejected(self):
        with pytest.raises(ValueError):
            divexact(x**2 + 1, x + y)

    def test_gcd_univariate(self):
        s = Polynomial.variable(("s",), "s")
        g = gcd(s**3 - s, s**2 - 1)
        assert up_to_scalar(g, s**2 - 1)

    def test_gcd_multivariate(self):
        f = (x + y) ** 2 * (x - y)
        g = (x + y) * (x**2 + 1)
        assert up_to_scalar(gcd(f, g), x + y)

    def test_gcd_is_one_elimination(self, monkeypatch):
        # the lcm is the elimination ideal's one generator; no full block
        # basis is completed
        kinds = []

        def counting(generators, order, original=basis.eliminate):
            kinds.append(order.kind)
            return original(generators, order)

        def refuse(*args):
            raise AssertionError("complete_basis called")

        monkeypatch.setattr(basis, "eliminate", counting)
        monkeypatch.setattr(basis, "complete_basis", refuse)
        assert up_to_scalar(gcd((x + y) * (x - y**2), (x + y) * (x**2 + 1)), x + y)
        assert kinds == ["block"]


class TestFormat:
    def test_roundtrip_via_parser(self):
        from icis.problem import parse_expression

        f = x**2 - Fraction(3, 2) * x * y + y**3
        assert parse_expression(format_poly(f), R) == f

    def test_zero(self):
        assert format_poly(Polynomial.zero(R)) == "0"
