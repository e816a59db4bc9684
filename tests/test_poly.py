from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from icis import basis, poly
from icis.basis import step_budget
from icis.errors import (
    BudgetExhaustedError,
    RingMismatchError,
    UnknownVariableError,
    ZeroInputError,
)
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


def exact_coefficients(f):
    """Every coefficient of f is an int, or a Fraction that is not one."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in f.terms.values())


class TestConstruct:
    def test_integral_coefficient_is_stored_as_int(self):
        f = Polynomial(R, {(1, 0): 3, (0, 1): 0, (0, 2): Fraction(6, 3), (2, 0): Fraction(1, 3)})
        assert f.terms == {(1, 0): 3, (0, 2): 2, (2, 0): Fraction(1, 3)}
        assert [type(f.terms[e]) for e in [(1, 0), (0, 2), (2, 0)]] == [int, int, Fraction]

    def test_int_and_integral_fraction_are_one_polynomial(self):
        # the memo keys of the library hash polynomials: the stored type
        # changes neither equality nor the hash
        f = Polynomial(R, {(1, 0): 3, (0, 0): -1})
        g = Polynomial(R, {(1, 0): Fraction(3), (0, 0): Fraction(-2, 2)})
        assert f == g and hash(f) == hash(g)
        assert hash(f) == hash((R, frozenset({((1, 0), Fraction(3)), ((0, 0), Fraction(-1))})))

    def test_integral_arithmetic_stays_on_ints(self):
        f = (3 * x - 2 * y) ** 3 + 5 * x * y
        for g in [f, f.diff("x"), f * f, f.subs({"y": 7}), f.subs({"y": Fraction(7, 7)}),
                  f * Fraction(4, 2) - 1, f.subs({"x": x + 2 * y})]:
            assert all(type(c) is int for c in g.terms.values()), g

    @pytest.mark.parametrize("build", [
        lambda: Polynomial(R, {(1, 0): 0.5}),
        lambda: Polynomial.constant(R, 0.1),
        lambda: Polynomial.monomial(R, (1, 1), 2.0),
        lambda: x * 0.1, lambda: 0.1 * x,
        lambda: x + 0.1, lambda: 0.1 + x,
        lambda: x - 0.1, lambda: 0.1 - x,
        lambda: x.subs({"y": 0.5}),
    ])
    def test_float_is_refused(self, build):
        # 0.1 would be stored as 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            build()

    def test_equality_with_a_number(self):
        assert Polynomial.zero(R) == 0 and x != 0
        assert Polynomial.constant(R, 3) == 3 and Polynomial.constant(R, 3) != 3 * x
        assert Polynomial.constant(R, Fraction(1, 3)) == Fraction(1, 3)
        assert Polynomial.constant(R, 1) == 1.0 and Polynomial.constant(R, 1) != 0.5

    @pytest.mark.parametrize("other", [None, "x", (1,), object()])
    def test_equality_with_a_non_number_is_not_implemented(self, other):
        assert x.__eq__(other) is NotImplemented
        assert x != other and not x == other

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
    return f * Fraction(1, cf) == g * Fraction(1, cg)


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


# inputs whose monomial factor is not squarefree, with their radicals
RADICALS = {"x^2*y*(x + y^2 + 1)": "x*y*(x + y^2 + 1)"}


class TestSquarefreeCertificate:
    """A squarefree input, or the cofactor of an input's monomial factor,
    is certified by a univariate specialization, outside the step budget;
    only a failed certificate takes one gcd."""

    @pytest.fixture
    def no_gcd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a gcd was taken or a basis completed")

        monkeypatch.setattr(poly, "gcd", refuse)
        monkeypatch.setattr(basis, "complete_basis", refuse)
        monkeypatch.setattr(basis, "eliminate", refuse)

    @pytest.mark.parametrize(
        "ring,text",
        [
            (("u", "v"), "4*u^3 + 27*v^2"),
            # coefficients in x: y, z, y^3 + z^2
            (("x", "y", "z"), "x^2*y + x*z + y^3 + z^2"),
            # no constant coefficient, but its cofactor x + y^2 + 1 has one
            (("x", "y"), "x^2*y*(x + y^2 + 1)"),
        ],
    )
    def test_squarefree_input_spends_no_steps(self, no_gcd, ring, text):
        f = parse_expression(text, ring)
        with step_budget() as b:
            rad = squarefree_part(f)
        assert up_to_scalar(rad, parse_expression(RADICALS.get(text, text), ring))
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

    def test_gcd_univariate_is_charged_to_the_budget(self):
        # (s^4 - 1) mod (s^3 - s) cancels s^4 and leaves s^2 - 1; then
        # (s^3 - s) mod (s^2 - 1) cancels s^3: one step per leading term
        s = Polynomial.variable(("s",), "s")
        with step_budget() as b:
            assert gcd(s**4 - 1, s**3 - s) == s**2 - 1
        assert b.spent == 2
        with pytest.raises(BudgetExhaustedError), step_budget(1):
            gcd(s**4 - 1, s**3 - s)

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


class TestExactDivision:
    """The divisions of coefficients on integral inputs whose answers have
    denominators 3 and 7, which a float cannot hold exactly."""

    def test_divmod(self):
        q, r = poly._divmod(x**2 + 1, 3 * x + 1)
        assert q == Fraction(1, 3) * x - Fraction(1, 9) and r == Fraction(10, 9)
        assert exact_coefficients(q) and exact_coefficients(r)

    def test_divexact(self):
        for f, g, q in [(x**2 - 1, 3 * x - 3, Fraction(1, 3) * x + Fraction(1, 3)),
                        (x**2 * y - y, 7 * x + 7, Fraction(1, 7) * x * y - Fraction(1, 7) * y),
                        (21 * x**2 - 21, 7 * x - 7, 3 * x + 3)]:
            assert divexact(f, g) == q and exact_coefficients(divexact(f, g))

    def test_gcd_univariate(self):
        g = gcd((3 * x + 1) * (x - 1), (3 * x + 1) * (x + 2))
        assert g == x + Fraction(1, 3) and exact_coefficients(g)
        g = poly._gcd_univariate(7 * x**2 - 7, 14 * x + 14)
        assert g == x + 1 and exact_coefficients(g)

    def test_gcd_multivariate(self):
        g = gcd((3 * x + y) * (x + 1), (3 * x + y) * (y - 1))
        assert g == x + Fraction(1, 3) * y and exact_coefficients(g)

    def test_squarefree_part_of_non_monic_input(self):
        # a square factor takes the gcd path; a squarefree one is made monic
        f = squarefree_part((3 * x + y) ** 2 * (y + 1))
        assert f == x * y + x + Fraction(1, 3) * y**2 + Fraction(1, 3) * y
        assert exact_coefficients(f)
        f = squarefree_part(7 * x**2 + 3 * y)
        assert f == x**2 + Fraction(3, 7) * y and exact_coefficients(f)

    def test_normal_form(self):
        sb = basis.complete_basis([3 * x - 1, 7 * y - 2], grevlex(R))
        assert all(exact_coefficients(g) for g in sb.generators)
        assert sb.generators == (y - Fraction(2, 7), x - Fraction(1, 3))
        nf = basis.normal_form(x * y + x, sb)
        assert nf == Fraction(3, 7) and exact_coefficients(nf)
        nf = basis.normal_form(21 * x * y + x, sb)
        assert nf == Fraction(7, 3) and exact_coefficients(nf)
        nf = basis.normal_form(21 * x * y, sb)
        assert nf == 2 and exact_coefficients(nf)

    def test_minimal_polynomial(self):
        sb = basis.complete_basis([3 * x**2 - 1, 7 * y - 2 * x], grevlex(R))
        m = basis.minimal_polynomial(sb, "y")
        assert m == Polynomial(("y",), {(2,): 1, (0,): Fraction(-4, 147)})
        assert exact_coefficients(m)


class TestFormat:
    def test_roundtrip_via_parser(self):
        from icis.problem import parse_expression

        f = x**2 - Fraction(3, 2) * x * y + y**3
        assert parse_expression(format_poly(f), R) == f

    def test_zero(self):
        assert format_poly(Polynomial.zero(R)) == "0"
