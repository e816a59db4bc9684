import random
from fractions import Fraction
from math import inf

import pytest
import sympy

from icis import basis, germs
from icis.basis import local_colength, step_budget
from icis.cli import run_problem
from icis.errors import (
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
from icis.ideals import (
    IdealPresentation,
    distinct_point_count,
    elimination_ideal,
    singular_ideal,
    univariate_eliminant,
)
from icis.orders import grevlex
from icis.poly import Polynomial, lowest_degree_form
from icis.problem import parse_expression, parse_problem

R = ("x", "y")
x = Polynomial.variable(R, "x")
y = Polynomial.variable(R, "y")

R3 = ("x", "y", "z")
x3, y3, z3 = (Polynomial.variable(R3, n) for n in R3)

R4 = ("w", "x", "y", "z")
w4, x4, y4, z4 = (Polynomial.variable(R4, n) for n in R4)


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
        # not semi-quasihomogeneous: mu is 23, not the 24 of its Brieskorn
        # part x^3 + y^4 + z^5
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


class TestHardCases:
    """The hard cases of the local colength engine, each held to the
    steps it spends, so a step regression fails here.  The ICIS is held
    to the steps of its Milnor chain alone, which also certifies its
    isolation."""

    def test_non_reduced_germ_is_non_isolated(self):
        # no truncation stabilizes; Lazard's method decides it on a loan
        f = (x3**2 - y3**3 + z3**5) ** 2 * (x3 + y3**2 + z3**3)
        with step_budget(37_316), pytest.raises(NonIsolatedError):
            hypersurface_milnor(f)

    def test_four_variable_icis(self):
        # the isolation check computes the chain that icis_milnor reads,
        # so X is built inside the block; stage 1, the Jacobian of the
        # first equation, answers under Arnold's weights in no step
        with step_budget(6_183):
            X = IcisPresentation(R4, (w4**3 + x4**4 + y4 * z4 + x4 * y4 * z4,
                                      x4 * y4 + z4**4 + w4**4 + w4 * x4 * z4 - y4**3))
            assert icis_milnor(X) == 33

    def test_perturbed_four_variable_brieskorn(self):
        f = w4**4 + x4**5 + y4**6 + z4**7 - 3 * w4 * x4 * y4 * z4 + 2 * x4**2 * y4**2 * z4**2
        with step_budget(1_682):
            assert hypersurface_milnor(f) == 158


def _family_analyze(body):
    return lambda: run_problem(parse_problem(
        f"ring t, x, y;\nparam t;\n{body}samples 1;\nkind family-analyze;\n"))


# every refusal of an infinite colength, with its whole message
@pytest.mark.parametrize("refuse, message", [
    (lambda: hypersurface_milnor(x**2), "non-isolated singularity: x^2"),
    (lambda: function_on_icis_milnor(GermFunction(x3**2, IcisPresentation(R3, [y3]))),
     "function has non-isolated singularity on the ICIS"),
    (lambda: fiber_milnor_total([x**2], R), "fiber has non-isolated singular points"),
    (lambda: univariate_eliminant(IdealPresentation(R, [x]), "x"),
     "the minimal polynomial needs a zero-dimensional ideal"),
    (lambda: distinct_point_count(IdealPresentation(R, [x])),
     "point accounting needs a zero-dimensional ideal"),
    # the fiber y^2 = 0 at t = 1 is singular along the x-axis
    (_family_analyze("phi = x^2 + y^2 - t*x^2;\n"),
     "fiber at t=1 has non-isolated singularities"),
    # the member at t = 1 is F = 0, whose critical ideal on phi = y is <y>
    (_family_analyze("phi = y;\nF = (1 - t)*x^2;\n"),
     "critical ideal at t=1 is not zero-dimensional"),
])
def test_non_isolation_refusal_keeps_its_message(refuse, message):
    with pytest.raises(NonIsolatedError) as info:
        refuse()
    assert (type(info.value), info.value.code, str(info.value)) == (
        NonIsolatedError, "non-isolated", message)


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
        # a chain of 4-variable stage ideals, each the maximal minors of a
        # Jacobian: not a regular sequence
        X = IcisPresentation(R4, (w4**2 + x4**3 + y4 * z4 + x4 * y4 * z4,
                                  x4 * y4 + z4**3 + w4**3 + w4 * x4 * z4))
        assert icis_milnor(X) == 14

    def test_nonzero_at_origin_rejected(self):
        with pytest.raises(ValueError):
            IcisPresentation(R, (x + 1,))

    def test_one_equation_is_not_recombined(self, monkeypatch):
        # V(x^2) is a double line: its one chain stage, the last, has
        # infinite colength, which rejects X with no recombination and no
        # singular ideal
        calls = _counting_local_colength(monkeypatch)
        with pytest.raises(NonIsolatedError):
            IcisPresentation(R, (x**2,))
        assert len(calls) == 1


def _random_germ(rng, ring):
    """Some quadratic monomials and up to three cubic ones, with small
    coefficients; now and then times the square of a variable, which
    makes V(g) singular along a hypersurface."""
    n = len(ring)
    quadratic = [tuple((i == a) + (i == b) for i in range(n))
                 for a in range(n) for b in range(a, n)]
    terms = {e: rng.choice([-2, -1, 1, 1, 2, 3])
             for e in rng.sample(quadratic, rng.randint(1, len(quadratic)))}
    for _ in range(rng.randint(0, 3)):
        e = tuple(rng.randint(0, 3) for _ in ring)
        if sum(e) == 3:
            terms[e] = rng.choice([-2, -1, 1, 1, 2, 3])
    g = Polynomial(ring, terms)
    if rng.random() < 0.25:
        v = Polynomial.variable(ring, rng.choice(ring))
        g = g * v * v
    return g


def _random_icis(seed):
    """p = 1 or 2 equations in 2 to 4 variables."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    ring = R4[4 - n:]
    return ring, tuple(_random_germ(rng, ring) for _ in range(rng.randint(1, 2)))


def _counting_local_colength(monkeypatch):
    """The generator tuples localized from now on, in order."""
    calls = []
    monkeypatch.setattr(
        basis, "local_colength",
        lambda gens, ring: calls.append(tuple(gens)) or local_colength(gens, ring),
    )
    return calls


class TestIsolationCertificate:
    """``IcisPresentation`` rejects X exactly when the local colength of
    its singular ideal is infinite, though it computes that colength only
    when an infinite stage of X's own Milnor chain comes before its last."""

    # the first infinite stage is the last: X is singular along a curve
    LAST_STAGE_CASES = [
        (R, (x**2,)),
        (R3, (x3 * y3,)),
        (R3, (x3, y3**2)),  # stage 1 is the unit ideal; X is a double line
        (R3, (x3**2 + y3**2 + z3**2, (x3 * y3)**2)),  # stage 1 is finite
        (R4, (w4, x4 * y4)),
    ]
    CASES = [_random_icis(seed) for seed in range(40)] + [
        (R, (x**2, y**2)),  # stage 1, <2x>, is infinite; X is a point
    ] + LAST_STAGE_CASES

    def test_cases_hold_both_outcomes(self):
        # each of p = 1, 2 in each of 2, 3, 4 variables, isolated or not
        outcomes = {(len(ring), len(phi),
                     local_colength(singular_ideal(phi, ring).generators, ring) == inf)
                    for ring, phi in self.CASES}
        assert len(outcomes) == 12

    @pytest.mark.parametrize("ring, phi", CASES)
    def test_rejected_iff_singular_colength_is_infinite(self, ring, phi):
        oracle = local_colength(singular_ideal(phi, ring).generators, ring)
        if oracle == inf:
            with pytest.raises(NonIsolatedError,
                               match="^singular locus is not isolated at the origin$"):
                IcisPresentation(ring, phi)
        else:
            IcisPresentation(ring, phi)

    @pytest.mark.parametrize("ring, phi", LAST_STAGE_CASES)
    def test_infinite_last_stage_never_localizes_the_singular_ideal(
            self, ring, phi, monkeypatch):
        calls = _counting_local_colength(monkeypatch)
        with pytest.raises(NonIsolatedError):
            IcisPresentation(ring, phi)
        # one colength per stage, the last of them infinite
        assert len(calls) == len(phi)
        assert local_colength(calls[-1], ring) == inf
        assert singular_ideal(phi, ring).generators not in calls

    def test_isolated_input_never_localizes_its_singular_ideal(self, monkeypatch):
        calls = _counting_local_colength(monkeypatch)
        phi = (x3**2 + y3**2 + z3**2, x3 * y3)
        X = IcisPresentation(R3, phi)
        assert singular_ideal(phi, R3).generators not in calls
        # the two stages of the chain, which icis_milnor reads again
        assert len(calls) == 2
        assert icis_milnor(X) == 5
        assert len(calls) == 2

    def test_infinite_stage_falls_back_to_the_singular_ideal(self, monkeypatch):
        calls = _counting_local_colength(monkeypatch)
        X = IcisPresentation(R, (x**2, y**2))
        assert calls == [(2 * x,), singular_ideal(X.phi, R).generators]
        # attempt 0 is read from the memo; the recombined retries are new
        assert icis_milnor(X) == 3
        assert calls.count((2 * x,)) == 1


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
        X = IcisPresentation(R, (phi,))
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
        assert delta * Fraction(1, lc) == target * Fraction(1, tc)

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


class TestRationalDiscriminant:
    """Map C of the rational tier: its graph rows fix x and y, which the
    linear substitution takes away, so it is an unfolding.  Held to the
    steps it spends."""

    TEXTS = ["x + 1/2*z^2", "y - 2/3*z^3 + x*z", "z^4 + 5/7*x*z + y*z^2 + 3*x*y"]

    @staticmethod
    def _block_eliminations(monkeypatch):
        calls = []

        def counted(I, keep):
            calls.append(keep)
            return elimination_ideal(I, keep)

        monkeypatch.setattr(germs, "elimination_ideal", counted)
        return calls

    def test_map_c_takes_the_characteristic_polynomial(self, monkeypatch):
        calls = self._block_eliminations(monkeypatch)
        with step_budget() as budget:
            discriminant([parse_expression(t, R3) for t in self.TEXTS])
        assert calls == []
        assert budget.spent == 11

    def test_a_map_with_no_linear_component_takes_the_block_path(self, monkeypatch):
        # no component is linear in a source variable, so the graph keeps
        # both rows and its discriminant is one block elimination
        calls = self._block_eliminations(monkeypatch)
        with step_budget() as budget:
            discriminant([parse_expression(t, R) for t in ["x^2 - y^2", "x*y + y^3"]])
        assert len(calls) == 1
        assert budget.spent == 446

    def test_map_c_is_the_discriminant_of_its_unfolding(self):
        R3 = ("x", "y", "z")
        texts = self.TEXTS
        with step_budget(11):
            delta = discriminant([parse_expression(t, R3) for t in texts])
        assert delta.ring == ("u", "v", "w")
        # x = u - z^2/2 and y = v + 2/3*z^3 - x*z put the map in the form
        # (u, v, g(u, v, z)): delta is the discriminant of g - w in z
        u, v, w, z = sympy.symbols("u v w z")
        xs = u - z**2 / 2
        ys = v + sympy.Rational(2, 3) * z**3 - xs * z
        g = sympy.expand(z**4 + sympy.Rational(5, 7) * xs * z + ys * z**2 + 3 * xs * ys)
        expected = sympy.sqf_part(sympy.resultant(g - w, sympy.diff(g, z), z))
        ours = sum(sympy.Rational(c.numerator, c.denominator) * u**i * v**j * w**k
                   for (i, j, k), c in delta.terms.items())
        assert sympy.Poly(ours, u, v, w).monic() == sympy.Poly(expected, u, v, w).monic()


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
        # the multiplicity of the discriminant, that is when the
        # lowest-degree form does not vanish on the direction
        form = lowest_degree_form(cusp_discriminant)
        for a, b in [(1, 1), (2, -1), (-1, 3), (0, 1), (1, 0)]:
            v = LineDirection((Fraction(a), Fraction(b)))
            expected = line_intersection_number(cusp_discriminant, v) == multiplicity(
                cusp_discriminant
            )
            assert is_generic_line(cusp_discriminant, v) == expected
            assert (form.eval(dict(zip(cusp_discriminant.ring, v.v))) != 0) == expected

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
        # a smooth point of the cusp, moved to the origin
        Y = IcisPresentation(R, translate([x**2 - y**3],
                                          {"x": Fraction(-8, 27), "y": Fraction(4, 9)}))
        origin = {"x": Fraction(0), "y": Fraction(0)}
        for g in Y.phi:
            assert g.eval(origin) == 0
