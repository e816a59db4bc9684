from fractions import Fraction

import pytest

from icis import germs
from icis.basis import local_colength, step_budget
from icis.errors import (
    GenericityError,
    InvalidInputError,
    NonIsolatedError,
    UnsupportedInputError,
)
from icis.germs import (
    GermFunction,
    function_on_icis_milnor,
    IcisPresentation,
    LineDirection,
    discriminant,
    fiber_milnor_total,
    hypersurface_milnor,
    icis_milnor,
    is_generic_line,
    line_intersection_number,
    milnor_at_point,
    multiplicity,
    translate,
)
from icis.orders import grevlex
from icis.poly import Polynomial

R = ("x", "y")
x = Polynomial.variable(R, "x")
y = Polynomial.variable(R, "y")

R3 = ("x", "y", "z")
x3, y3, z3 = (Polynomial.variable(R3, n) for n in R3)


class TestHypersurfaceMilnor:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_a_k_series(self, k):
        # mu(x^{k+1} + y^2) = k
        assert hypersurface_milnor(x ** (k + 1) + y**2) == k

    def test_brieskorn(self):
        # mu(x^a + y^b) = (a-1)(b-1)
        assert hypersurface_milnor(x**3 + y**5) == 8
        assert hypersurface_milnor(x**7 + y**2) == 6

    def test_three_variables(self):
        assert hypersurface_milnor(x3**2 + y3**2 + z3**2) == 1
        assert hypersurface_milnor(x3**3 + y3**3 + z3**3) == 8

    def test_smooth_point(self):
        assert hypersurface_milnor(x + y**2) == 0

    def test_nonisolated_rejected(self):
        with pytest.raises(NonIsolatedError):
            hypersurface_milnor(x**2)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            hypersurface_milnor(x**2 + 1)

    def test_perturbed_brieskorn(self):
        # not semi-quasihomogeneous; Mora's tangent-cone loop never
        # finished on it
        f = x3**3 + y3**4 + z3**5 - 9 * x3 * y3 * z3**2 + 3 * x3**2 * y3**2 * z3**2
        assert hypersurface_milnor(f) == 23

    def test_truncation_past_the_column_cap(self):
        # the truncation would need more than MONOMIAL_CAP columns, so
        # Lazard's method decides
        assert hypersurface_milnor(x**200 + y**2) == 199

    def test_dense_nonisolated_is_decided_cheaply(self):
        # a double curve: no truncation stabilizes, and Lazard's method
        # settles it on a loan of steps long before the column cap
        f = (x**2 - y**3) ** 2 * (x + y**2 + 3 * x * y)
        with step_budget(10**4), pytest.raises(NonIsolatedError):
            hypersurface_milnor(f)


class TestFunctionOnIcisMilnor:
    @pytest.mark.parametrize("p,q,expected", [(2, 3, 4), (3, 4, 9), (2, 5, 8)])
    def test_coordinate_on_plane_curve(self, p, q, expected):
        # mu(x restricted to x^p = y^q) = pq - p
        X = IcisPresentation(R, (x**p - y**q,))
        f = GermFunction(x, X)
        assert function_on_icis_milnor(f) == expected

    def test_other_coordinate(self):
        # mu(y restricted to x^2 = y^3) = pq - q = 3
        X = IcisPresentation(R, (x**2 - y**3,))
        assert function_on_icis_milnor(GermFunction(y, X)) == 3

    def test_function_on_space_curve(self):
        X = IcisPresentation(R3, (x3**2 + y3**2 + z3**2, x3 * y3))
        assert function_on_icis_milnor(GermFunction(z3, X)) == 8

    def test_smooth_base_reduces_to_hypersurface(self):
        # V(z) in 3-space is a smooth plane; x^3 + y^5 on it
        X = IcisPresentation(R3, (z3,))
        f = GermFunction(x3**3 + y3**5, X)
        assert function_on_icis_milnor(f) == 8


class TestIcisMilnor:
    @pytest.mark.parametrize(
        "gens,expected",
        [
            ((x**2 - y**3,), 2),
            ((x**3 - y**2,), 2),
            ((x,), 0),
            ((x**2, y**2), 3),
            ((x**3, y**2), 5),
            ((x**2, y**3), 5),
            ((x**2 + y**2, x * y), 3),
        ],
    )
    def test_plane_values(self, gens, expected):
        assert icis_milnor(IcisPresentation(R, gens)) == expected

    def test_space_curve(self):
        X = IcisPresentation(R3, (x3**2 + y3**2 + z3**2, x3 * y3))
        assert icis_milnor(X) == 5

    def test_seed_invariance(self):
        X = IcisPresentation(R, (x**2, y**2))
        values = {icis_milnor(X, seed=s) for s in range(6)}
        assert values == {3}

    def test_nonisolated_rejected(self):
        with pytest.raises(NonIsolatedError):
            IcisPresentation(R3, (x3 * y3,))

    def test_four_variables(self):
        # Mora's tangent-cone loop ran past 30 s on the chain of this ICIS
        R4 = ("w", "x", "y", "z")
        w4, x4, y4, z4 = (Polynomial.variable(R4, n) for n in R4)
        X = IcisPresentation(R4, (w4**2 + x4**3 + y4 * z4 + x4 * y4 * z4,
                                  x4 * y4 + z4**3 + w4**3 + w4 * x4 * z4))
        assert icis_milnor(X) == 14

    def test_nonzero_at_origin_rejected(self):
        with pytest.raises(ValueError):
            IcisPresentation(R, (x + 1,))

    def test_one_equation_is_not_recombined(self, monkeypatch):
        # V(x^2) is a double line: its chain stage has infinite colength,
        # and a single equation has no other recombination to retry
        calls = []
        monkeypatch.setattr(
            germs, "local_colength",
            lambda gens, ring: calls.append(gens) or local_colength(gens, ring),
        )
        with pytest.raises(GenericityError):
            icis_milnor(IcisPresentation(R, (x**2,), check=False))
        assert len(calls) == 1


class TestFiberMilnorTotal:
    def test_point_with_tjurina_below_milnor(self):
        # V(phi) is the curve g = 0 in the plane z = 0 together with the
        # cusp x^2 = y^3 in the plane z = 1.  g = x^4 + y^5 + x^2*y^3 is
        # not quasihomogeneous (mu 12, tau 11), so g is not in its own
        # Jacobian ideal and the powers of phi must be raised until the
        # colength stabilizes
        g = x3**4 + y3**5 + x3**2 * y3**3
        phi = [z3**2 - z3, g + z3 * (x3**2 - y3**3 - g)]
        oracle = sum(icis_milnor(IcisPresentation(R3, translate(phi, {"z": c})))
                     for c in (0, 1))
        assert fiber_milnor_total(phi, R3) == oracle == 14


class TestMilnorAtPoint:
    def test_morse_point_off_origin(self):
        # fiber of x on x^2 = y^3 + y^2 type geometry: use the deformed cusp
        # phi = x^2 - y^3, f = x + t y at t = 1 has a morse point
        phi = x**2 - y**3
        f = x + y
        pt = {"x": Fraction(-8, 27), "y": Fraction(4, 9)}
        X = IcisPresentation(R, (phi,), check=False)
        assert milnor_at_point(GermFunction(f, X), pt) == 1

    def test_origin(self):
        X = IcisPresentation(R, (x**2 - y**3,))
        f = GermFunction(x + y, X)
        assert milnor_at_point(f, {"x": Fraction(0), "y": Fraction(0)}) == 3

    def test_point_off_variety_rejected(self):
        X = IcisPresentation(R, (x**2 - y**3,))
        with pytest.raises(ValueError):
            milnor_at_point(GermFunction(x, X), {"x": Fraction(1), "y": Fraction(2)})


class TestDiscriminant:
    def test_cusp_projection(self):
        # (x, y) -> (x, y^3 + x y): discriminant is the cuspidal cubic
        delta = discriminant([x, y**3 + x * y])
        uv = delta.ring
        u = Polynomial.variable(uv, uv[0])
        v = Polynomial.variable(uv, uv[1])
        target = 4 * u**3 + 27 * v**2
        _, lc = delta.leading(grevlex(uv))
        _, tc = target.leading(grevlex(uv))
        assert delta * (1 / lc) == target * (1 / tc)

    def test_fold(self):
        delta = discriminant([x**2, y])
        u = Polynomial.variable(delta.ring, delta.ring[0])
        assert delta == u

    def test_submersion_rejected(self):
        with pytest.raises(UnsupportedInputError):
            discriminant([x, y])

    @pytest.mark.parametrize("maps", [
        lambda a, b: [a**2 + b**3],
        lambda a, b: [a, b**3 + a * b],
    ], ids=["hypersurface", "cusp-projection"])
    def test_source_named_like_the_targets(self, maps):
        # the targets are named u, v; a source ring (u, v) must not
        # collide with them and gives the discriminant of its (x, y) twin
        Ruv = ("u", "v")
        u, v = (Polynomial.variable(Ruv, n) for n in Ruv)
        assert discriminant(maps(u, v)) == discriminant(maps(x, y))


class TestGenericLines:
    @pytest.fixture()
    def cusp_discriminant(self):
        return discriminant([x, y**3 + x * y])

    def test_multiplicity(self, cusp_discriminant):
        assert multiplicity(cusp_discriminant) == 2

    def test_generic_direction(self, cusp_discriminant):
        v = LineDirection((Fraction(0), Fraction(1)))
        assert is_generic_line(cusp_discriminant, v)
        assert line_intersection_number(cusp_discriminant, v) == 2

    def test_non_generic_direction(self, cusp_discriminant):
        v = LineDirection((Fraction(1), Fraction(0)))
        assert not is_generic_line(cusp_discriminant, v)
        assert line_intersection_number(cusp_discriminant, v) == 3

    def test_genericity_matches_intersection_number(self, cusp_discriminant):
        # a line is generic exactly when its intersection number equals
        # the multiplicity of the discriminant
        for a, b in [(1, 1), (2, -1), (-1, 3), (0, 1), (1, 0)]:
            v = LineDirection((Fraction(a), Fraction(b)))
            expected = line_intersection_number(cusp_discriminant, v) == multiplicity(
                cusp_discriminant
            )
            assert is_generic_line(cusp_discriminant, v) == expected

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            LineDirection((Fraction(0), Fraction(0)))

    @pytest.mark.parametrize("test", [is_generic_line, line_intersection_number])
    def test_direction_of_wrong_dimension_rejected(self, test):
        with pytest.raises(InvalidInputError):
            test(x**2 - y**3, LineDirection((1,)))

    @pytest.mark.parametrize("test", [is_generic_line, line_intersection_number])
    def test_hypersurface_off_the_origin_rejected(self, test):
        with pytest.raises(InvalidInputError):
            test(1 + x, LineDirection((1, 0)))


class TestTranslation:
    def test_translated_presentation(self):
        X = IcisPresentation(R, (x**2 - y**3,), check=False)
        Y = X.translated({"x": Fraction(-8, 27), "y": Fraction(4, 9)})
        origin = {"x": Fraction(0), "y": Fraction(0)}
        for g in Y.phi:
            assert g.eval(origin) == 0
