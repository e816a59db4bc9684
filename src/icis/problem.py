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
polynomials over the ring; ``f``, ``F`` and ``delta`` take one each.
A kind takes only the bindings and statements it reads (``KINDS``,
``OPTIONAL``), apart from ``ring``, ``kind``, ``seed`` and ``budget``:
``param`` and ``samples`` belong to the family kinds, ``direction`` to
``generic-line``, and ``probe`` to a function family.
Every statement except ``probe`` appears at most once.  Ring variables
are distinct, and so are the components of one probe, which are ring
variables given as polynomials in ``s``.  Denominators and samples are
nonzero.  Example::

    ring t, x, y;
    param t;
    phi = x^2 - y^3;
    F = x + t*y;
    kind family-analyze;
    samples 1, 1/2;
    probe t = -3/2*s, x = s^3, y = s^2;

Every syntax or binding error carries the line/column of the offending
token and a machine-readable code.  Expressions are expanded as they are
parsed, into term dicts on ``int`` coefficients with the kernels of
``poly`` (``_add_shifted`` for sums, ``_add_product`` for products); a
``Fraction`` enters only at a literal with a denominator.  Rationals
appear at the boundary: each expression becomes one ``Polynomial``, with
``Fraction`` coefficients, at its end, and the values of ``samples`` and
``direction`` are ``Fraction`` objects.  A product or power that would
take more than ``MAX_PRODUCT_TERMS`` term products is refused at its
operator.  A power of one term is written down directly, without
products.  A number that no report could print,
one with more digits than the interpreter converts to text, is refused:
in a one-term power at its ``^``, before the power is computed, and in a
binding or probe at its first token.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .basis import DEFAULT_BUDGET
from .errors import (
    ExpansionTooLargeError,
    MissingParameterError,
    ProblemSyntaxError,
    UnboundNameError,
)
from .families import DEFAULT_SAMPLES
from .poly import Polynomial, _add_product, _add_shifted

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
# statements a kind reads without requiring them; a family-analyze run
# reads a probe only with an F binding
OPTIONAL = {
    "family-analyze": ("F", "samples", "probe"),
    "greuel-check": ("samples", "probe"),
}
# statements every kind accepts
UNIVERSAL = ("ring", "kind", "seed", "budget")
# bindings that hold one polynomial
SINGLE = ("f", "F", "delta")


def reads(kind, word):
    """Whether a problem of ``kind`` reads the binding or statement
    ``word``; ``icis run --samples`` asks it too."""
    return word in KINDS[kind] or word in OPTIONAL.get(kind, ()) or word in UNIVERSAL


def _digit_bound():
    """10^d for the interpreter's limit of d digits on an int converted
    to text (``sys.get_int_max_str_digits``), or 0 when there is none."""
    return _power_of_ten(getattr(sys, "get_int_max_str_digits", lambda: 0)())


@lru_cache(maxsize=4)
def _power_of_ten(d):
    return 10**d if d else 0


@lru_cache(maxsize=16)
def _units(ring):
    """Each variable of ``ring`` and its exponent vector; shared, read only."""
    return {v: tuple(int(v == w) for w in ring) for v in ring}


@dataclass(slots=True)
class Token:
    type: str
    value: str
    line: int
    column: int


# One token and the blanks before it.  In a str pattern \w is exactly
# str.isalnum() or "_", and \s is str.isspace(); an IDENT must also start
# with a letter (str.isalpha()) or "_", which tokenize checks.  Every
# character is matched: by the last alternative when no token starts with
# it, and $ takes the blanks at the end.  Digits are ASCII.
_TOKEN = re.compile(r"([^\S\n]*)(?:([;,=+\-*^()/])|([0-9]+)|(\w+)|(\n)|(#[^\n]*)|(.)|$)",
                    re.DOTALL)


def tokenize(text):
    """The tokens of ``text``, each with the line and column (counted in
    characters, from 1) of its first character, ending with EOF."""
    tokens = []
    line, col = 1, 1
    for blank, symbol, integer, word, newline, _comment, other in _TOKEN.findall(text):
        col += len(blank)  # and a comment leaves the column where it starts
        if symbol:
            tokens.append(Token(symbol, symbol, line, col))
            col += 1
        elif word:
            if not (word[0].isalpha() or word[0] == "_"):
                raise ProblemSyntaxError(f"unexpected character {word[0]!r}", line, col)
            tokens.append(Token("IDENT", word, line, col))
            col += len(word)
        elif integer:
            tokens.append(Token("INT", integer, line, col))
            col += len(integer)
        elif newline:
            line, col = line + 1, 1
        elif other:
            raise ProblemSyntaxError(f"unexpected character {other!r}", line, col)
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
        self.seen = {}  # statement word or binding name -> its first token
        self.bound = _digit_bound()

    def peek(self):
        return self.tokens[self.pos]

    def accept(self, type_):
        """Take the next token if it has this type."""
        tok = self.tokens[self.pos]
        if tok.type == type_:
            self.pos += 1
            return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        shown = tok.value or "end of input"
        raise ProblemSyntaxError(f"{message} (got {shown!r})", tok.line, tok.column)

    def expect(self, type_, what=None):
        tok = self.tokens[self.pos]
        if tok.type != type_:
            self.fail(f"expected {what or repr(type_)}")
        self.pos += 1
        return tok

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
        self.seen.setdefault(word, tok)
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
            p.direction = tuple(map(Fraction, self.comma_list(self.rational)))
        elif word in ("seed", "budget"):
            setattr(p, word, self.integer())
        elif not p.ring:
            self.fail("binding or probe before ring declaration", tok)
        elif word == "probe":
            p.probes.append(self.probe())
        else:
            self.expect("=")
            p.bindings[word] = self.comma_list(lambda: self.polynomial(p.ring))
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
        first = self.expect("IDENT")
        parts = [first.value]
        while self.accept("-"):
            parts.append(self.expect("IDENT").value)
        kind = "-".join(parts)
        if kind not in KINDS:
            raise ProblemSyntaxError(f"unknown kind {kind!r}; valid kinds: {', '.join(KINDS)}",
                                     first.line, first.column)
        return kind

    def samples(self):
        """Nonzero rationals: t = 0 is the base member itself."""
        tok = self.peek()
        samples = tuple(map(Fraction, self.comma_list(self.rational)))
        if 0 in samples:
            raise ProblemSyntaxError("samples must be nonzero: t = 0 is the base member itself",
                                     tok.line, tok.column)
        return samples

    def probe(self):
        components = {}

        def component():
            name = self.ring_variable("probe component", components)
            self.expect("=")
            components[name] = self.polynomial(("s",))

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
        for word, tok in self.seen.items():
            if not reads(p.kind, word):
                self.fail(f"kind {p.kind!r} reads no {word!r}", tok)
            if word == "probe" and p.kind == "family-analyze" and "F" not in p.bindings:
                self.fail("a space family (no 'F') reads no 'probe'", tok)
        for name, polys in p.bindings.items():
            if name in SINGLE and len(polys) > 1:
                self.fail("binding takes one polynomial", self.seen[name])

    # -- numbers and polynomials -------------------------------------------

    def rational(self):
        """``['-'] INT ['/' INT]``: a Fraction only with a denominator."""
        num = -self.integer() if self.accept("-") else self.integer()
        if not self.accept("/"):
            return num
        tok = self.peek()
        den = self.integer("integer denominator")
        if den == 0:
            self.fail("zero denominator", tok)
        return Fraction(num, den)

    def polynomial(self, ring):
        """An expr as a Polynomial, refused at its first token when it
        has a number that cannot be printed (``printable``)."""
        tok = self.peek()
        return Polynomial(ring, self.printable(self.expr(_units(ring)), tok))

    def printable(self, terms, tok):
        """The term dict ``terms``, refused at ``tok`` when the numerator
        or denominator of a coefficient, or an exponent, has more digits
        than the interpreter converts to text
        (``sys.get_int_max_str_digits``): no report could print it."""
        bound = self.bound
        if bound and any(abs(c.numerator) >= bound or c.denominator >= bound
                         or max(e, default=0) >= bound for e, c in terms.items()):
            self.too_long(tok)
        return terms

    def too_long(self, tok):
        raise ProblemSyntaxError(
            f"expansion has a number of more than {sys.get_int_max_str_digits()} digits",
            tok.line, tok.column)

    # expr, product, atom and factor expand into term dicts {exponents:
    # int or Fraction} with no zero coefficient, over a ring's ``units``

    def expr(self, units):
        negate = not self.accept("+") and self.accept("-")
        result = self.product(units)
        if negate:
            result = {e: -c for e, c in result.items()}
        zero = (0,) * len(units)
        while tok := self.accept("+") or self.accept("-"):
            _add_shifted(result, self.product(units).items(), zero, 1 if tok.type == "+" else -1)
        return result

    def product(self, units):
        result = self.atom(units)
        while True:
            tok = self.peek()
            if self.accept("*"):
                result = self.multiply(result, self.atom(units), tok)
            elif tok.type in ("IDENT", "("):
                # implicit multiplication: 3x, 2(x+y)
                result = self.multiply(result, self.factor(units), tok)
            else:
                return result

    def multiply(self, a, b, tok):
        """a * b, refused at ``tok`` when it would take more than
        MAX_PRODUCT_TERMS term products: expanding is not budgeted."""
        if len(a) * len(b) > MAX_PRODUCT_TERMS:
            raise ExpansionTooLargeError(
                f"expansion needs more than {MAX_PRODUCT_TERMS} term products", tok.line, tok.column)
        product = {}
        _add_product(product, a, b)
        return product

    def atom(self, units):
        if self.peek().type == "INT":
            c = self.rational()
            return {(0,) * len(units): c} if c else {}
        return self.factor(units)

    def factor(self, units):
        tok = self.peek()
        if self.accept("IDENT"):
            unit = units.get(tok.value)
            if unit is None:
                raise UnboundNameError(
                    f"unbound name {tok.value!r}; ring variables are {', '.join(units)}",
                    tok.line, tok.column)
            base = {unit: 1}
        elif self.accept("("):
            base = self.expr(units)
            self.expect(")")
        else:
            self.fail("expected a polynomial term")
        tok = self.peek()
        if not self.accept("^"):
            return base
        k = self.integer("integer exponent")
        if len(base) == 1:
            # one term: (c*x^e)^k = c^k*x^(k*e), no products
            ((e, c),) = base.items()
            n = max(abs(c.numerator), c.denominator)
            if self.bound and k * (n.bit_length() - 1) >= self.bound.bit_length():
                # n^k >= 2^(k*(bits - 1)) > bound: refused before it is computed
                self.too_long(tok)
            return self.printable({tuple([k * x for x in e]): c**k}, tok)
        # square-and-multiply, each product checked
        result = {(0,) * len(units): 1}
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
    poly = parser.polynomial(tuple(ring))
    parser.expect("EOF", "end of expression")
    return poly


def parse_samples(text):
    """A sample list in the problem-file grammar (``1, 1/2``), as given
    to ``icis run --samples``."""
    parser = _Parser(text)
    samples = parser.samples()
    parser.expect("EOF", "end of input")
    return samples
