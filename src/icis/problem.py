"""Problem-file parser: a line-oriented declaration language with a
recursive-descent polynomial grammar.

Statements end with ``;``::

    ring t, x, y;
    param t;
    phi = x^2 - y^3;
    F = x + t*y;
    kind family-analyze;
    samples 1, 1/2;
    probe t = -3/2*s, x = s^3, y = s^2;

Every syntax or binding error carries the line/column of the offending
token and a machine-readable code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .basis import DEFAULT_BUDGET
from .errors import MissingParameterError, ProblemSyntaxError, UnboundNameError
from .poly import Polynomial

KINDS = (
    "milnor",
    "icis-milnor",
    "function-milnor",
    "discriminant",
    "generic-line",
    "family-analyze",
    "greuel-check",
)

_PARAM_KINDS = ("family-analyze", "greuel-check")


@dataclass
class Token:
    type: str
    value: str
    line: int
    column: int


_SYMBOLS = set(";,=+-*^()/")


def tokenize(text):
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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ProblemSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _ExprParser:
    """expr := ['+'|'-'] product { ('+'|'-') product }
    product := atom { '*' atom | atom-juxtaposed }
    atom := INT ['/' INT] | IDENT ['^' INT] | '(' expr ')'
    """

    def __init__(self, tokens, pos, ring, allowed):
        self.tokens = tokens
        self.pos = pos
        self.ring = ring
        self.allowed = allowed

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        shown = tok.value or "end of input"
        raise ProblemSyntaxError(f"{message} (got {shown!r})", tok.line, tok.column)

    def parse_expr(self):
        sign = 1
        if self.peek().type in ("+", "-"):
            if self.take().type == "-":
                sign = -1
        result = self.parse_product() * sign
        while self.peek().type in ("+", "-"):
            op = self.take().type
            rhs = self.parse_product()
            result = result + rhs if op == "+" else result - rhs
        return result

    def parse_product(self):
        result = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.type == "*":
                self.take()
                result = result * self.parse_atom()
            elif tok.type in ("IDENT", "("):
                # implicit multiplication: 3x, 2(x+y)
                result = result * self.parse_atom()
            else:
                return result

    def parse_atom(self):
        tok = self.peek()
        if tok.type == "INT":
            self.take()
            num = int(tok.value)
            if self.peek().type == "/":
                self.take()
                den_tok = self.peek()
                if den_tok.type != "INT":
                    self.fail("expected integer denominator")
                if int(den_tok.value) == 0:
                    self.fail("zero denominator")
                self.take()
                return Polynomial.constant(self.ring, Fraction(num, int(den_tok.value)))
            return Polynomial.constant(self.ring, num)
        if tok.type == "IDENT":
            self.take()
            if tok.value not in self.allowed:
                raise UnboundNameError(
                    f"unbound name {tok.value!r}; ring variables are "
                    f"{', '.join(self.ring)}",
                    tok.line,
                    tok.column,
                )
            base = Polynomial.variable(self.ring, tok.value)
            if self.peek().type == "^":
                self.take()
                exp_tok = self.peek()
                if exp_tok.type != "INT":
                    self.fail("expected integer exponent")
                self.take()
                return base ** int(exp_tok.value)
            return base
        if tok.type == "(":
            self.take()
            inner = self.parse_expr()
            if self.peek().type != ")":
                self.fail("expected ')'")
            self.take()
            if self.peek().type == "^":
                self.take()
                exp_tok = self.peek()
                if exp_tok.type != "INT":
                    self.fail("expected integer exponent")
                self.take()
                return inner ** int(exp_tok.value)
            return inner
        self.fail("expected a polynomial term")


def parse_expression(text, ring):
    """Parse a standalone polynomial expression over the given ring."""
    tokens = tokenize(text)
    parser = _ExprParser(tokens, 0, tuple(ring), set(ring))
    poly = parser.parse_expr()
    if parser.peek().type != "EOF":
        parser.fail("trailing input after expression")
    return poly


@dataclass
class ProblemFile:
    ring: tuple = ()
    param: str = None
    kind: str = None
    bindings: dict = field(default_factory=dict)
    samples: tuple = (Fraction(1), Fraction(1, 2))
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    direction: tuple = None
    probes: list = field(default_factory=list)


class _FileParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.problem = ProblemFile()

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        shown = tok.value or "end of input"
        raise ProblemSyntaxError(f"{message} (got {shown!r})", tok.line, tok.column)

    def expect(self, type_):
        tok = self.peek()
        if tok.type != type_:
            self.fail(f"expected {type_!r}")
        return self.take()

    def parse(self):
        while self.peek().type != "EOF":
            self.statement()
        self.validate()
        return self.problem

    def statement(self):
        tok = self.expect("IDENT")
        word = tok.value
        if word == "ring":
            self.ring_statement()
        elif word == "param":
            self.param_statement(tok)
        elif word == "kind":
            self.kind_statement()
        elif word == "samples":
            self.problem.samples = self.samples()
        elif word == "seed":
            self.problem.seed = int(self.expect("INT").value)
        elif word == "budget":
            self.problem.budget = int(self.expect("INT").value)
        elif word == "direction":
            self.problem.direction = tuple(self.rational_list())
        elif word == "probe":
            self.probe_statement(tok)
        else:
            self.binding_statement(tok)
        self.expect(";")

    def ring_statement(self):
        names = []
        while True:
            tok = self.expect("IDENT")
            if tok.value in names:
                self.fail("repeated ring variable", tok)
            names.append(tok.value)
            if self.peek().type != ",":
                break
            self.take()
        self.problem.ring = tuple(names)

    def param_statement(self, tok):
        name_tok = self.expect("IDENT")
        if name_tok.value not in self.problem.ring:
            raise UnboundNameError(
                f"parameter {name_tok.value!r} is not a ring variable",
                name_tok.line,
                name_tok.column,
            )
        self.problem.param = name_tok.value

    def kind_statement(self):
        parts = [self.expect("IDENT").value]
        while self.peek().type == "-":
            self.take()
            parts.append(self.expect("IDENT").value)
        kind = "-".join(parts)
        if kind not in KINDS:
            tok = self.tokens[self.pos - 1]
            self.fail(f"unknown kind {kind!r}; valid kinds: {', '.join(KINDS)}", tok)
        self.problem.kind = kind

    def rational_list(self):
        out = [self.rational()]
        while self.peek().type == ",":
            self.take()
            out.append(self.rational())
        return out

    def samples(self):
        """Nonzero rationals: t = 0 is the base member itself."""
        tok = self.peek()
        samples = tuple(self.rational_list())
        if 0 in samples:
            raise ProblemSyntaxError(
                "samples must be nonzero: t = 0 is the base member itself",
                tok.line,
                tok.column,
            )
        return samples

    def rational(self):
        sign = 1
        if self.peek().type == "-":
            self.take()
            sign = -1
        num = int(self.expect("INT").value)
        if self.peek().type == "/":
            self.take()
            den_tok = self.expect("INT")
            if int(den_tok.value) == 0:
                self.fail("zero denominator", den_tok)
            return Fraction(sign * num, int(den_tok.value))
        return Fraction(sign * num)

    def probe_statement(self, tok):
        if not self.problem.ring:
            self.fail("probe before ring declaration", tok)
        probe_ring = ("s",)
        components = {}
        while True:
            name_tok = self.expect("IDENT")
            if name_tok.value not in self.problem.ring:
                raise UnboundNameError(
                    f"probe component {name_tok.value!r} is not a ring variable",
                    name_tok.line,
                    name_tok.column,
                )
            self.expect("=")
            parser = _ExprParser(self.tokens, self.pos, probe_ring, {"s"})
            components[name_tok.value] = parser.parse_expr()
            self.pos = parser.pos
            if self.peek().type == ",":
                self.take()
                continue
            break
        self.problem.probes.append(components)

    def binding_statement(self, tok):
        name = tok.value
        if not self.problem.ring:
            self.fail("binding before ring declaration", tok)
        self.expect("=")
        polys = []
        while True:
            parser = _ExprParser(self.tokens, self.pos, self.problem.ring,
                                  set(self.problem.ring))
            polys.append(parser.parse_expr())
            self.pos = parser.pos
            if self.peek().type == ",":
                self.take()
                continue
            break
        self.problem.bindings[name] = polys

    def validate(self):
        p = self.problem
        if p.kind is None:
            raise ProblemSyntaxError("missing 'kind' declaration")
        if not p.ring:
            raise ProblemSyntaxError("missing 'ring' declaration")
        if p.kind in _PARAM_KINDS and p.param is None:
            raise MissingParameterError(
                f"kind {p.kind!r} requires a 'param' declaration"
            )
        required = {
            "milnor": ["f"],
            "icis-milnor": ["phi"],
            "function-milnor": ["phi", "f"],
            "discriminant": ["phi"],
            "generic-line": ["delta"],
            "family-analyze": ["phi"],
            "greuel-check": ["phi", "F"],
        }[p.kind]
        for name in required:
            if name not in p.bindings:
                raise UnboundNameError(f"kind {p.kind!r} requires a binding for {name!r}")
        if p.kind == "family-analyze" and "F" not in p.bindings:
            # space deformation: phi itself carries the parameter
            pass
        if p.kind == "generic-line" and p.direction is None:
            raise UnboundNameError("kind 'generic-line' requires a 'direction'")


def parse_problem(text):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return _FileParser(tokenize(text)).parse()


def parse_samples(text):
    """A sample list in the problem-file grammar (``1, 1/2``), as given
    to ``icis run --samples``."""
    parser = _FileParser(tokenize(text))
    samples = parser.samples()
    parser.expect("EOF")
    return samples
