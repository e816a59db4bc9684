import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given, settings

from icis.errors import (
    ExpansionTooLargeError,
    IcisError,
    MissingParameterError,
    ProblemSyntaxError,
    UnboundNameError,
)
from icis.poly import Polynomial, format_poly
from icis.problem import (
    KINDS,
    MAX_PRODUCT_TERMS,
    parse_expression,
    parse_problem,
    parse_samples,
    tokenize,
)

R = ("x", "y")
x = Polynomial.variable(R, "x")
y = Polynomial.variable(R, "y")


def _scan_by_character(text):
    """The tokenizer as a per-character loop, kept as the reference for
    the regular-expression scanner of ``icis.problem.tokenize``."""
    symbols = set(";,=+-*^()/")
    digits = set("0123456789")
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch in digits:
            j = i
            while j < len(text) and text[j] in digits:
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in symbols:
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ProblemSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def _outcome(scan, text):
    try:
        return scan(text)
    except ProblemSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


# the grammar's characters, and others that are letters, digits or blanks
# to str methods but not to ASCII: superscript and Arabic-Indic digits, a
# vulgar fraction, an accented letter, a CJK numeral, no-break, line and
# next-line separators
_TRICKY = list("xyz_t09 \t\n\r\x0b\x0c#;,=+-*^()/.$\\\u00b2\u0663\u00bd\u00e9\u4e00\u00a0\u2028\x85")


class TestTokenizer:
    @given(st.text(st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_same_tokens_and_errors_as_the_character_loop(self, text):
        assert _outcome(tokenize, text) == _outcome(_scan_by_character, text)

    def test_character_classes_match_the_str_methods(self):
        # on every code point, the scanner's \w and \s are the loop's tests
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(re.findall(r"\w", every)) == "".join(
            ch for ch in every if ch.isalnum() or ch == "_")
        assert "".join(re.findall(r"\s", every)) == "".join(filter(str.isspace, every))

    def test_positions(self):
        tokens = tokenize("ring x;  # note\n  f = x2^3;")
        assert tokens == [
            ("IDENT", "ring", 1, 1), ("IDENT", "x", 1, 6), (";", ";", 1, 7),
            ("IDENT", "f", 2, 3), ("=", "=", 2, 5), ("IDENT", "x2", 2, 7),
            ("^", "^", 2, 9), ("INT", "3", 2, 10), (";", ";", 2, 11), ("EOF", "", 2, 12)]


# Random expression trees, rendered to text by the grammar's rules and
# expanded independently by sympy: ("var", name), ("int", n),
# ("frac", a, b), ("add", [(sign, tree), ...]) with a sign on every term
# (a leading one is unary), ("mul", [(implicit, tree), ...]) where the
# flag of every factor after the first picks juxtaposition over '*', and
# ("pow", tree, k).
_VARIABLES = ("x", "y", "z")
_LEAVES = st.one_of(
    st.sampled_from(_VARIABLES).map(lambda v: ("var", v)),
    st.integers(0, 12).map(lambda n: ("int", n)),
    st.tuples(st.integers(0, 12), st.integers(1, 12)).map(lambda ab: ("frac", *ab)),
)
_TREES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(st.tuples(st.sampled_from("+-"), children), min_size=1, max_size=3).map(
        lambda terms: ("add", terms)),
    st.lists(st.tuples(st.booleans(), children), min_size=2, max_size=3).map(
        lambda factors: ("mul", factors)),
    st.tuples(children, st.integers(0, 3)).map(lambda bk: ("pow", *bk)),
), max_leaves=8)


def _as_expr(t):
    if t[0] == "add":
        return " ".join(f"{sign} {_as_product(u)}" for sign, u in t[1])
    return _as_product(t)


def _as_product(t):
    if t[0] != "mul":
        return _as_atom(t)
    (_, first), *rest = t[1]
    return _as_atom(first) + "".join(
        f" {_as_factor(u)}" if implicit else f" * {_as_atom(u)}" for implicit, u in rest)


def _as_atom(t):
    if t[0] == "int":
        return str(t[1])
    if t[0] == "frac":
        return f"{t[1]}/{t[2]}"
    return _as_factor(t)


def _as_factor(t):
    if t[0] == "var":
        return t[1]
    if t[0] == "pow":
        base = t[1]
        return (base[1] if base[0] == "var" else f"({_as_expr(base)})") + f"^{t[2]}"
    return f"({_as_expr(t)})"


def _sympy_value(t):
    if t[0] == "var":
        return sympy.Symbol(t[1])
    if t[0] == "int":
        return sympy.Integer(t[1])
    if t[0] == "frac":
        return sympy.Rational(t[1], t[2])
    if t[0] == "add":
        return sympy.Add(*((-1 if sign == "-" else 1) * _sympy_value(u) for sign, u in t[1]))
    if t[0] == "mul":
        return sympy.Mul(*(_sympy_value(u) for _, u in t[1]))
    return _sympy_value(t[1]) ** t[2]


class TestExpansionOracle:
    @given(_TREES)
    @settings(max_examples=300, deadline=None)
    def test_equals_sympy_expand(self, tree):
        text = _as_expr(tree)
        expanded = sympy.Poly(sympy.expand(_sympy_value(tree)), *map(sympy.Symbol, _VARIABLES))
        expected = {e: Fraction(int(c.p), int(c.q)) for e, c in expanded.terms() if c}
        assert parse_expression(text, _VARIABLES).terms == expected, text


class TestRationalBoundary:
    """Expansion runs on ints.  Each coefficient the parser hands out is
    an int when it is integral and a Fraction otherwise, while the values
    of ``samples`` and ``direction`` are Fractions."""

    @staticmethod
    def _all_fractions(values):
        return all(type(v) is Fraction for v in values)

    @pytest.mark.parametrize("text", ["x^2 - 3*y^3 + 7", "(x + 2*y)^3 - x*y", "1/2*x + 1/2*x",
                                      "2*x*(1/2*y)", "-4", "(2*x)^3", "6/3*x", "1/3*x + 1/3*x"])
    def test_expression_coefficients(self, text):
        assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
                   for c in parse_expression(text, R).terms.values())

    def test_problem_file_values(self):
        p = parse_problem("ring t, x, y;\nparam t;\nphi = x^2 - y^3, 2*x*y;\nF = x + 3*t*y;\n"
                          "kind greuel-check;\nsamples 1, -2, 3/2;\nprobe t = -3*s, x = s^3, y = 2*s^2;\n")
        polys = [*p.bindings["phi"], *p.bindings["F"], *p.probes[0].values()]
        assert all(type(c) is int for f in polys for c in f.terms.values())
        assert self._all_fractions(p.samples)
        p = parse_problem("ring x, y;\ndelta = x^2 - y^3;\ndirection 1, -2;\nkind generic-line;\n")
        assert self._all_fractions(p.direction)
        assert self._all_fractions(parse_samples("1, 2"))


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

    @given(
        num=st.integers(-50, 50).filter(bool),
        den=st.integers(1, 50),
        a=st.integers(0, 6),
        b=st.integers(0, 6),
        k=st.integers(0, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_term_power(self, num, den, a, b, k):
        # written down directly, equal to the square-and-multiply power
        base = Polynomial.monomial(R, (a, b), Fraction(num, den))
        text = f"({num}/{den}*x^{a}*y^{b})^{k}"
        assert parse_expression(text, R) == base**k

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

    @pytest.mark.parametrize("kind", ["foo", "foo-milnor"])
    def test_unknown_kind_points_at_its_first_word(self, kind):
        # a hyphenated kind is read word by word; the error names it whole
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem(f"ring x, y;\nkind {kind};\n")
        assert (exc.value.line, exc.value.column) == (2, 6)
        assert str(exc.value) == (f"line 2, column 6: unknown kind '{kind}'; valid kinds: "
                                  f"{', '.join(KINDS)}")

    @pytest.mark.parametrize(
        "text,position",
        [
            ("ring x, y;\nf = x^2 + y^2, x^3;\nkind milnor;\n", (2, 1)),
            ("ring t, x, y;\nparam t;\nphi = x^2 - y^3;\nF = x + t*y, y;\n"
             "kind family-analyze;\n", (4, 1)),
            ("ring t, x, y;\nparam t;\nphi = x^2 - y^3;\nf = x + t*y;\n"
             "kind family-analyze;\n", (4, 1)),
            ("ring x, y;\nphi = x^2 - y^3;\nf = x;\nkind milnor;\n", (2, 1)),
            ("ring u, v;\ndelta = u^2 - v^3, u;\ndirection 0, 1;\nkind generic-line;\n",
             (2, 1)),
            ("ring t, x;\nparam t;\nf = x^2;\nkind milnor;\n", (2, 1)),
            ("ring x, y;\nf = x^2 + y^2;\nkind milnor;\nsamples 1, 1/2;\n", (4, 1)),
            ("ring x, y;\nphi = x, y^3 + x*y;\ndirection 1, 0;\nkind discriminant;\n",
             (3, 1)),
            ("ring u, v;\ndelta = u^2 - v^3;\ndirection 0, 1;\nsamples 2;\n"
             "kind generic-line;\n", (4, 1)),
            ("ring t, x, y;\nparam t;\nphi = x^2 - y^3;\nF = x + t*y;\n"
             "direction 1, 0;\nkind greuel-check;\n", (5, 1)),
            ("ring t, x, y;\nparam t;\nphi = y^2 - x^3 + t*x;\nkind family-analyze;\n"
             "probe t = s, x = s^2, y = s^3;\n", (5, 1)),
            ("ring x, y;\nphi = x^2 - y^3;\nf = x;\nkind function-milnor;\n"
             "probe x = s^3, y = s^2;\n", (5, 1)),
        ],
        ids=["f-two-polynomials", "F-two-polynomials", "f-for-F", "unread-phi",
             "delta-two-polynomials", "param-on-milnor", "samples-on-milnor",
             "direction-on-discriminant", "samples-on-generic-line",
             "direction-on-greuel-check", "probe-on-space-family", "probe-on-function-milnor"],
    )
    def test_ignored_binding_position(self, text, position):
        # a binding or statement the kind does not read, or a second
        # polynomial it would drop, is refused at the binding or the
        # statement's word
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem(text)
        assert (exc.value.line, exc.value.column) == position

    @pytest.mark.parametrize(
        "text",
        [
            "ring x, y;\nf = x^2 + y^2;\nkind milnor;\nseed 3;\nbudget 100;\n",
            "ring x, y;\nphi = x^2, y^2;\nkind icis-milnor;\nseed 3;\n",
            "ring t, x, y;\nparam t;\nphi = x^2 - y^3;\nF = x + t*y;\nkind greuel-check;\n"
            "samples 2;\nprobe t = s, x = s^3, y = s^2;\n",
            "ring t, x, y;\nparam t;\nphi = y^2 - x^3 + t*x;\nkind family-analyze;\n"
            "samples 2;\n",
        ],
        ids=["seed-and-budget-anywhere", "icis-milnor-seed", "greuel-check", "space-family"],
    )
    def test_read_statements_are_accepted(self, text):
        parse_problem(text)

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

    def test_two_term_power_past_the_bound(self):
        # square-and-multiply ends with (x + y)^488 * (x + y)^512, 489 * 513
        # term products; a two-term base does not take the one-term rule
        assert 489 * 513 > MAX_PRODUCT_TERMS
        with pytest.raises(ExpansionTooLargeError) as exc:
            parse_problem("ring x, y;\nf = x^2 + (x + y)^1000;\nkind milnor;\n")
        assert (exc.value.line, exc.value.column) == (2, 18)

    @pytest.mark.parametrize(
        "text,position",
        [
            # 2^20000 has 6,021 digits: refused at the ^ before it is computed
            ("f = (2*x)^20000 + y^2;", (2, 10)),
            ("f = (3*x)^1000000000000 + y^2;", (2, 10)),
            ("f = (1/7*x)^10000 + y^2;", (2, 12)),
            # the exponent (10^4,000 - 1)^2 of x
            (f"f = (x^{'9' * 4000})^{'9' * 4000} + y^2;", (2, 4009)),
            # a two-term power is refused as a whole binding
            (f"f = (x + {'9' * 4000})^2*x^2 + y^2;", (2, 5)),
            (f"f = x^2 + y^2, {'9' * 3000}*x*{'9' * 3000};", (2, 16)),
        ],
        ids=["coefficient", "huge-power", "denominator", "exponent", "binding",
             "second-binding"],
    )
    def test_number_too_long_to_print(self, text, position):
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem(f"ring x, y;\n{text}\nkind milnor;\n")
        assert (exc.value.line, exc.value.column) == position
        assert f"more than {sys.get_int_max_str_digits()} digits" in str(exc.value)

    def test_number_at_the_digit_limit(self):
        # 2^14284 has 4,300 digits, 2^14285 one more
        p = parse_problem("ring x, y;\nf = (2*x)^14284 + y^2;\nkind milnor;\n")
        assert p.bindings["f"][0].terms[(14284, 0)] == 2**14284
        with pytest.raises(ProblemSyntaxError):
            parse_problem("ring x, y;\nf = (2*x)^14285 + y^2;\nkind milnor;\n")

    @pytest.mark.parametrize("tail", ["*x", " x", "*2", "*(x + y)"])
    def test_product_with_a_group_past_the_bound(self, tail):
        # (A)*(B) + z*(A) has 316^2 + 316 terms, more than the bound, so a
        # product with it is refused at its operator even when the other
        # factor has one term; alone it is expanded
        a, b = (" + ".join(f"{v}^{i}" for i in range(316)) for v in "xy")
        group = f"(({a})*({b}) + z*({a}))"
        assert len(parse_expression(group, ("x", "y", "z")).terms) == 316**2 + 316
        with pytest.raises(ExpansionTooLargeError) as exc:
            parse_problem(f"ring x, y, z;\nf = {group}{tail};\nkind milnor;\n")
        assert (exc.value.line, exc.value.column) == (2, 5 + len(group) + (tail[0] == " "))

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


# Parse outcomes of seeded single-edit mutations (an insertion, deletion
# or replacement of one character) of every fixture and of one text of
# each germ template of perfbench/corpus.py, as recorded by
# ``record_mutations``: they pin every error's class, code, message, line
# and column, and every clean parse's values.
MUTATIONS = Path(__file__).parent / "parse_mutations.json"
FIXTURES = Path(__file__).parent / "fixtures"
_EDIT_CHARACTERS = "xyzwts0129 \n\t#;,=+-*^()/_\u00e9\u00b2"


def _parse_outcome(text):
    """What ``parse_problem`` makes of ``text``: its error's class, code,
    message, line and column, or the parsed values, each written as
    text; any other exception propagates."""
    try:
        p = parse_problem(text)
    except IcisError as exc:
        return ["error", type(exc).__name__, exc.code, str(exc), exc.line, exc.column]
    return ["ok", list(p.ring), p.param, p.kind,
            {k: [format_poly(f) for f in fs] for k, fs in p.bindings.items()},
            [str(s) for s in p.samples], p.direction and [str(d) for d in p.direction],
            p.seed, p.budget, [{v: format_poly(g) for v, g in pr.items()} for pr in p.probes]]


def _mutated(text, op, pos, ch):
    return text[:pos] + ch + text[pos + (op != "i"):]


def record_mutations(bases, counts=None):
    """Write the outcomes of seeded mutations of the texts ``bases``
    ({name: text}) to MUTATIONS: ``counts[name]`` edits of each (40 of a
    fixture and 25 of a germ text by default)."""
    rows = []
    for name, text in bases.items():
        rng = random.Random(name)
        for _ in range((counts or {}).get(name, 40 if name.startswith("fixture:") else 25)):
            op = rng.choice("idr")
            pos = rng.randrange(len(text) + (op == "i"))
            ch = "" if op == "d" else rng.choice(_EDIT_CHARACTERS)
            rows.append([name, op, pos, ch, _parse_outcome(_mutated(text, op, pos, ch))])
    head = json.dumps({k: [t, _parse_outcome(t)] for k, t in bases.items()}, ensure_ascii=False)
    body = ",\n".join("  " + json.dumps(r, ensure_ascii=False) for r in rows)
    MUTATIONS.write_text(f'{{"bases": {head},\n "mutations": [\n{body}\n ]}}\n', encoding="utf-8")


class TestMutations:
    data = json.loads(MUTATIONS.read_text(encoding="utf-8"))

    def test_every_fixture_is_a_base(self):
        fixtures = {f"fixture:{p.stem}": p.read_text() for p in FIXTURES.glob("*.icis")}
        assert {k: t for k, (t, _) in self.data["bases"].items() if k in fixtures} == fixtures

    @pytest.mark.parametrize("name", sorted(json.loads(MUTATIONS.read_text(encoding="utf-8"))["bases"]))
    def test_outcomes_do_not_change(self, name):
        text, outcome = self.data["bases"][name]
        assert _parse_outcome(text) == outcome
        edits = [m for m in self.data["mutations"] if m[0] == name]
        assert edits
        for _, op, pos, ch, outcome in edits:
            assert _parse_outcome(_mutated(text, op, pos, ch)) == outcome, (op, pos, ch)
