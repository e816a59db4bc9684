from fractions import Fraction

import pytest

from icis.errors import (
    ExpansionTooLargeError,
    MissingParameterError,
    ProblemSyntaxError,
    UnboundNameError,
)
from icis.poly import Polynomial, format_poly
from icis.problem import parse_expression, parse_problem

R = ("x", "y")
x = Polynomial.variable(R, "x")
y = Polynomial.variable(R, "y")


class TestExpressions:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^2 - y^3", lambda: x**2 - y**3),
            ("3/2*x*y", lambda: Fraction(3, 2) * x * y),
            ("-x^2", lambda: -1 * x**2),
            ("(x + y)^2", lambda: (x + y) ** 2),
            ("2x", lambda: 2 * x),  # implicit multiplication
            ("x y", lambda: x * y),
            ("x^2*y^3", lambda: x**2 * y**3),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_expression(text, R) == expected()

    def test_parameter_ring(self):
        Rt = ("t", "x", "y")
        t = Polynomial.variable(Rt, "t")
        xt = Polynomial.variable(Rt, "x")
        yt = Polynomial.variable(Rt, "y")
        assert parse_expression("x + t*y", Rt) == xt + t * yt

    def test_rational_coefficients(self):
        assert parse_expression("-3/2*x + 1/3", R) == Fraction(-3, 2) * x + Fraction(1, 3)

    def test_unbound_variable(self):
        with pytest.raises(UnboundNameError):
            parse_expression("x + z", R)

    def test_truncated_input(self):
        with pytest.raises(ProblemSyntaxError):
            parse_expression("x +", R)

    def test_error_carries_position(self):
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_expression("x + ^2", R)
        assert exc.value.line == 1
        assert exc.value.column == 5

    def test_format_roundtrip(self):
        for f in (x**2 - y**3, Fraction(3, 4) * x * y + 1, -1 * y**5):
            assert parse_expression(format_poly(f), R) == f


class TestProblemFiles:
    def test_minimal_milnor(self):
        p = parse_problem("ring x, y;\nf = x^2 + y^2;\nkind milnor;\n")
        assert p.kind == "milnor"
        assert p.ring == ("x", "y")
        assert p.bindings["f"] == [x**2 + y**2]
        assert p.samples == (Fraction(1), Fraction(1, 2))
        assert p.seed == 0

    def test_family_with_probe(self):
        text = (
            "ring t, x, y;\n"
            "param t;\n"
            "phi = x^2 - y^3;\n"
            "F = x + t*y;\n"
            "kind family-analyze;\n"
            "samples 2, 1/3;\n"
            "seed 7;\n"
            "budget 5000;\n"
            "probe t = -3/2*s, x = s^3, y = s^2;\n"
        )
        p = parse_problem(text)
        assert p.param == "t"
        assert p.samples == (Fraction(2), Fraction(1, 3))
        assert p.seed == 7
        assert p.budget == 5000
        assert len(p.probes) == 1
        s = Polynomial.variable(("s",), "s")
        assert p.probes[0]["t"] == Fraction(-3, 2) * s

    def test_multiple_generators(self):
        p = parse_problem("ring x, y;\nphi = x^2, y^2;\nkind icis-milnor;\n")
        assert p.bindings["phi"] == [x**2, y**2]

    def test_comments_ignored(self):
        p = parse_problem("# a comment\nring x, y;  # inline\nf = x;\nkind milnor;\n")
        assert p.bindings["f"] == [x]

    def test_missing_kind(self):
        with pytest.raises(ProblemSyntaxError):
            parse_problem("ring x, y;\nf = x;\n")

    def test_missing_required_binding(self):
        with pytest.raises(UnboundNameError):
            parse_problem("ring x, y;\nkind milnor;\n")

    def test_missing_param_for_family(self):
        with pytest.raises(MissingParameterError):
            parse_problem("ring t, x, y;\nphi = x^2 - y^3;\nF = x;\nkind greuel-check;\n")

    def test_direction_required_for_generic_line(self):
        with pytest.raises(UnboundNameError):
            parse_problem("ring u, v;\ndelta = u;\nkind generic-line;\n")

    def test_syntax_error_position(self):
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem("ring x, y;\nf = x + ;\nkind milnor;\n")
        assert exc.value.line == 2

    def test_repeated_ring_variable(self):
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem("ring x, y,\n  x;\nf = x^3;\nkind milnor;\n")
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_non_ascii_digit_position(self):
        # str.isdigit accepts "\u00b2", which int() then rejects
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem("ring x, y;\nf = x^\u00b2 + y^2;\nkind milnor;\n")
        assert (exc.value.line, exc.value.column) == (2, 7)

    @pytest.mark.parametrize(
        "text,position",
        [
            ("ring x, y;\nf = x^2 + y^2;\nf = x^3;\nkind milnor;\n", (3, 1)),
            ("ring x, y;\nf = x^3;\nkind milnor;\nkind icis-milnor;\n", (4, 1)),
            ("ring x, y;\nf = x^2 + y^3;\nkind milnor; ring y, x;\n", (3, 14)),
            ("ring t, x;\nparam t;\nparam x;\nphi = x^2;\nkind family-analyze;\n", (3, 1)),
            ("ring x, y;\nf = x^3;\nseed 1;\nseed 2;\nkind milnor;\n", (4, 1)),
        ],
        ids=["binding", "kind", "ring", "param", "seed"],
    )
    def test_repeated_statement(self, text, position):
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem(text)
        assert (exc.value.line, exc.value.column) == position

    def test_probe_may_repeat(self):
        p = parse_problem(
            "ring t, x, y;\nparam t;\nphi = x^2 - y^3;\nF = x + t*y;\nkind greuel-check;\n"
            "probe t = s, x = s^3, y = s^2;\nprobe t = s^2, x = s^3, y = s^2;\n"
        )
        assert len(p.probes) == 2

    def test_repeated_probe_component(self):
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem(
                "ring t, x, y;\nparam t;\nphi = x^2 - y^3;\nF = x + t*y;\nkind greuel-check;\n"
                "probe t = s, x = s^3, x = s^5, y = s^2;\n"
            )
        assert (exc.value.line, exc.value.column) == (6, 23)

    def test_invalid_utf8_position(self):
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem(b"ring x, y;\nf = x^2 \xff+ y^2;\nkind milnor;\n")
        assert (exc.value.line, exc.value.column) == (2, 9)

    @pytest.mark.parametrize(
        "text,position",
        [
            ("ring x, y, z;\nf = (x + y + z)^120;\nkind milnor;\n", (2, 16)),
            ("ring x, y;\nf = (x + y)^400 * (x - y)^400;\nkind milnor;\n", (2, 17)),
            ("ring x, y;\nf = (x + y + 1)^30 (x - y + 1)^30;\nkind milnor;\n", (2, 20)),
        ],
        ids=["power", "product", "implicit-product"],
    )
    def test_expansion_bound_position(self, text, position):
        # expanding is not charged to the step budget: refused, not slow
        with pytest.raises(ExpansionTooLargeError) as exc:
            parse_problem(text)
        assert (exc.value.line, exc.value.column) == position

    def test_expansion_below_bound(self):
        p = parse_problem("ring x, y;\nf = (x + y)^40;\nkind milnor;\n")
        assert len(p.bindings["f"][0].terms) == 41

    def test_too_long_integer_position(self):
        # int() refuses more than 4,300 digits; the parser reports where
        digits = "3" * 5000
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem(f"ring x, y;\nf = x^2 + {digits}*y^2;\nkind milnor;\n")
        assert (exc.value.line, exc.value.column) == (2, 11)
        assert digits not in str(exc.value)

    def test_bytes_input(self):
        p = parse_problem(b"ring x, y;\nf = x;\nkind milnor;\n")
        assert p.kind == "milnor"
