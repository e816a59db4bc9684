"""Problem-file parser: one recursive-descent parser over one token list,
for problem files, standalone expressions and sample lists.

Grammar (``#`` starts a comment that runs to the end of the line)::

    file      := { statement ';' }
    statement := 'ring' IDENT { ',' IDENT }
               | 'param' IDENT
               | 'kind' IDENT { '-' IDENT }
               | 'samples' rational { ',' rational }
               | 'direction' rational { ',' rational }
               | 'seed' INT
               | 'budget' INT
               | 'probe' IDENT '=' expr { ',' IDENT '=' expr }
               | IDENT '=' expr { ',' expr }
    rational  := ['-'] INT ['/' INT]
    expr      := ['+' | '-'] product { ('+' | '-') product }
    product   := atom { '*' atom | factor }
    atom      := INT ['/' INT] | factor
    factor    := (IDENT | '(' expr ')') ['^' INT]
    INT       := ASCII digits 0-9

``IDENT '=' expr`` binds a name (``f``, ``phi``, ``F``, ``delta``) to
polynomials over the ring.  Every statement except ``probe`` appears at
most once.  Ring variables are distinct, and so are the components of
one probe, which are ring variables given as polynomials in ``s``.
Denominators and samples are nonzero.  Example::

    ring t, x, y;
    param t;
    phi = x^2 - y^3;
    F = x + t*y;
    kind family-analyze;
    samples 1, 1/2;
    probe t = -3/2*s, x = s^3, y = s^2;

Every syntax or binding error carries the line/column of the offending
token and a machine-readable code.  Expressions are expanded as they are
parsed; a product or power that would take more than
``MAX_PRODUCT_TERMS`` term products is refused at its operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .basis import DEFAULT_BUDGET
from .errors import (
    ExpansionTooLargeError,
    MissingParameterError,
    ProblemSyntaxError,
    UnboundNameError,
)
from .families import DEFAULT_SAMPLES
from .poly import Polynomial

# Term products allowed in one product or power step of a parsed
# expression; (x + y + z)^64 would need 314,721 in its last squaring.
MAX_PRODUCT_TERMS = 100_000

# each kind and the statements it requires, in the order they are checked
KINDS = {
    "milnor": ("f",),
    "icis-milnor": ("phi",),
    "function-milnor": ("phi", "f"),
    "discriminant": ("phi",),
    "generic-line": ("delta", "direction"),
    # without an F binding, phi itself carries the parameter
    "family-analyze": ("param", "phi"),
    "greuel-check": ("param", "phi", "F"),
}


@dataclass
class Token:
    type: str
    value: str
    line: int
    column: int


_SYMBOLS = set(";,=+-*^()/")
_DIGITS = set("0123456789")


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
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
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


@dataclass
class ProblemFile:
    ring: tuple = ()
    param: str = None
    kind: str = None
    bindings: dict = field(default_factory=dict)
    samples: tuple = DEFAULT_SAMPLES
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    direction: tuple = None
    probes: list = field(default_factory=list)


class _Parser:
    """One cursor over the tokens of ``text``; one method per grammar rule."""

    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.problem = ProblemFile()
        self.seen = set()  # statement words, for repeats and requirements

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, type_):
        """Take the next token if it has this type."""
        return self.take() if self.peek().type == type_ else None

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        shown = tok.value or "end of input"
        raise ProblemSyntaxError(f"{message} (got {shown!r})", tok.line, tok.column)

    def expect(self, type_, what=None):
        if self.peek().type != type_:
            self.fail(f"expected {what or repr(type_)}")
        return self.take()

    def integer(self, what=None):
        """The value of an INT token; one longer than the interpreter
        converts (``sys.get_int_max_str_digits``) is a syntax error."""
        tok = self.expect("INT", what)
        try:
            return int(tok.value)
        except ValueError:
            raise ProblemSyntaxError(f"integer of {len(tok.value)} digits is too long",
                                     tok.line, tok.column) from None

    def comma_list(self, item):
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    # -- statements ------------------------------------------------------

    def parse(self):
        while self.peek().type != "EOF":
            self.statement()
        self.validate()
        return self.problem

    def statement(self):
        tok = self.expect("IDENT")
        word = tok.value
        if word in self.seen and word != "probe":
            self.fail("repeated statement", tok)
        self.seen.add(word)
        p = self.problem
        if word == "ring":
            names = []
            self.comma_list(
                lambda: names.append(self.distinct_name(names, "ring variable").value))
            p.ring = tuple(names)
        elif word == "param":
            p.param = self.ring_variable("parameter")
        elif word == "kind":
            p.kind = self.kind()
        elif word == "samples":
            p.samples = self.samples()
        elif word == "direction":
            p.direction = tuple(self.comma_list(self.rational))
        elif word in ("seed", "budget"):
            setattr(p, word, self.integer())
        elif not p.ring:
            self.fail("binding or probe before ring declaration", tok)
        elif word == "probe":
            p.probes.append(self.probe())
        else:
            self.expect("=")
            p.bindings[word] = self.comma_list(lambda: self.expr(p.ring))
        self.expect(";")

    def distinct_name(self, taken, what):
        """An IDENT token whose name is not in ``taken``."""
        tok = self.expect("IDENT")
        if tok.value in taken:
            self.fail(f"repeated {what}", tok)
        return tok

    def ring_variable(self, what, taken=()):
        tok = self.distinct_name(taken, what)
        if tok.value not in self.problem.ring:
            raise UnboundNameError(f"{what} {tok.value!r} is not a ring variable",
                                   tok.line, tok.column)
        return tok.value

    def kind(self):
        parts = [self.expect("IDENT").value]
        while self.accept("-"):
            parts.append(self.expect("IDENT").value)
        kind = "-".join(parts)
        if kind not in KINDS:
            tok = self.tokens[self.pos - 1]
            self.fail(f"unknown kind {kind!r}; valid kinds: {', '.join(KINDS)}", tok)
        return kind

    def samples(self):
        """Nonzero rationals: t = 0 is the base member itself."""
        tok = self.peek()
        samples = tuple(self.comma_list(self.rational))
        if 0 in samples:
            raise ProblemSyntaxError(
                "samples must be nonzero: t = 0 is the base member itself",
                tok.line,
                tok.column,
            )
        return samples

    def probe(self):
        components = {}

        def component():
            name = self.ring_variable("probe component", components)
            self.expect("=")
            components[name] = self.expr(("s",))

        self.comma_list(component)
        return components

    def validate(self):
        p = self.problem
        for word in ("kind", "ring"):
            if word not in self.seen:
                raise ProblemSyntaxError(f"missing {word!r} declaration")
        for word in KINDS[p.kind]:
            if word not in self.seen:
                error = MissingParameterError if word == "param" else UnboundNameError
                raise error(f"kind {p.kind!r} requires {word!r}")

    # -- numbers and polynomials -------------------------------------------

    def rational(self):
        sign = -1 if self.accept("-") else 1
        num = self.integer()
        if not self.accept("/"):
            return Fraction(sign * num)
        tok = self.peek()
        den = self.integer("integer denominator")
        if den == 0:
            self.fail("zero denominator", tok)
        return Fraction(sign * num, den)

    def expr(self, ring):
        sign = -1 if self.peek().type == "-" else 1
        if self.peek().type in ("+", "-"):
            self.take()
        result = self.product(ring) * sign
        while self.peek().type in ("+", "-"):
            op = self.take().type
            rhs = self.product(ring)
            result = result + rhs if op == "+" else result - rhs
        return result

    def product(self, ring):
        result = self.atom(ring)
        while True:
            tok = self.peek()
            if self.accept("*"):
                result = self.multiply(result, self.atom(ring), tok)
            elif tok.type in ("IDENT", "("):
                # implicit multiplication: 3x, 2(x+y)
                result = self.multiply(result, self.factor(ring), tok)
            else:
                return result

    def multiply(self, a, b, tok):
        """a * b, refused at ``tok`` when it would take more than
        MAX_PRODUCT_TERMS term products: expanding is not budgeted."""
        if len(a.terms) * len(b.terms) > MAX_PRODUCT_TERMS:
            raise ExpansionTooLargeError(
                f"expansion needs more than {MAX_PRODUCT_TERMS} term products",
                tok.line,
                tok.column,
            )
        return a * b

    def atom(self, ring):
        if self.peek().type == "INT":
            return Polynomial.constant(ring, self.rational())
        return self.factor(ring)

    def factor(self, ring):
        tok = self.peek()
        if self.accept("IDENT"):
            if tok.value not in ring:
                raise UnboundNameError(
                    f"unbound name {tok.value!r}; ring variables are {', '.join(ring)}",
                    tok.line,
                    tok.column,
                )
            base = Polynomial.variable(ring, tok.value)
        elif self.accept("("):
            base = self.expr(ring)
            self.expect(")")
        else:
            self.fail("expected a polynomial term")
        tok = self.peek()
        if not self.accept("^"):
            return base
        k = self.integer("integer exponent")
        # square-and-multiply, each product checked
        result = Polynomial.constant(ring, 1)
        while k:
            if k & 1:
                result = self.multiply(result, base, tok)
            k >>= 1
            if k:
                base = self.multiply(base, base, tok)
        return result


def parse_problem(text):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            lines = text[:exc.start].decode("utf-8").split("\n")
            raise ProblemSyntaxError(
                "invalid UTF-8 byte", len(lines), len(lines[-1]) + 1) from None
    return _Parser(text).parse()


def parse_expression(text, ring):
    """Parse a standalone polynomial expression over the given ring."""
    parser = _Parser(text)
    poly = parser.expr(tuple(ring))
    parser.expect("EOF", "end of expression")
    return poly


def parse_samples(text):
    """A sample list in the problem-file grammar (``1, 1/2``), as given
    to ``icis run --samples``."""
    parser = _Parser(text)
    samples = parser.samples()
    parser.expect("EOF", "end of input")
    return samples
