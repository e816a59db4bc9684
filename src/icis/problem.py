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

A token is a plain tuple (type, value, line, column), and every syntax
or binding error carries the line and column of the offending token and
a machine-readable code.  Expressions are expanded as they are parsed,
into term dicts on ``int`` coefficients (a ``Fraction`` enters only at a
literal with a denominator).  A product folds its one-term factors, a
one-term power written down directly, into one coefficient and exponent
list; only its factors of several terms are multiplied, and the folded
monomial shifts it once, as it is added to its sum.  A product or power
of more than ``MAX_PRODUCT_TERMS`` term products is refused at its
operator.  Each expression becomes one ``Polynomial``, and ``samples``
and ``direction`` are ``Fraction`` objects.  A number with more digits
than the interpreter converts to text, which no report could print, is
refused: in a one-term power at its ``^``, before the power is computed,
and in a binding or probe at its first token.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add

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


@lru_cache(maxsize=4)
def _digit_bound(d):
    """10^d for the interpreter's limit of d digits on an int converted
    to text (``sys.get_int_max_str_digits``), or 0 when there is none."""
    return 10**d if d else 0


# One token and the blanks before it.  In a str pattern \w is exactly
# str.isalnum() or "_", and \s is str.isspace(); an IDENT must also start
# with a letter (str.isalpha()) or "_", which tokenize checks.  Every
# character is matched: by the last alternative when no token starts with
# it, and $ takes the blanks at the end.  Digits are ASCII.
_TOKEN = re.compile(r"([^\S\n]*)(?:([;,=+\-*^()/])|([0-9]+|\w+)|(\n)|#[^\n]*|(.)|$)", re.DOTALL)


def tokenize(text):
    """The tokens of ``text``, each a tuple (type, value, line, column)
    with the line and column (counted in characters, from 1) of its first
    character, ending with EOF.  A symbol is its own type."""
    tokens = []
    line, col = 1, 1
    for blank, symbol, word, newline, other in _TOKEN.findall(text):
        col += len(blank)  # and a comment leaves the column where it starts
        if symbol:
            tokens.append((symbol, symbol, line, col))
            col += 1
        # of the word characters, only the ASCII digits sort below "9"
        elif word and (word[0] <= "9" or word[0].isalpha() or word[0] == "_"):
            tokens.append(("INT" if word[0] <= "9" else "IDENT", word, line, col))
            col += len(word)
        elif newline:
            line, col = line + 1, 1
        elif word or other:
            raise ProblemSyntaxError(f"unexpected character {(word or other)[0]!r}", line, col)
    tokens.append(("EOF", "", line, col))
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
    """One cursor over the tokens of ``text``; one method per statement,
    and ``expr``, ``product`` and ``group`` for expressions."""

    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.problem = ProblemFile()
        self.seen = {}  # statement word or binding name -> its first token
        self.bound = _digit_bound(getattr(sys, "get_int_max_str_digits", lambda: 0)())

    def accept(self, type_):
        """Take the next token if it has this type."""
        tok = self.tokens[self.pos]
        if tok[0] == type_:
            self.pos += 1
            return tok

    def fail(self, message, tok=None):
        _, value, line, column = tok or self.tokens[self.pos]
        raise ProblemSyntaxError(f"{message} (got {value or 'end of input'!r})", line, column)

    def expect(self, type_, what=None):
        tok = self.tokens[self.pos]
        if tok[0] != type_:
            self.fail(f"expected {what or repr(type_)}")
        self.pos += 1
        return tok

    def integer(self, what=None):
        """The value of an INT token; one longer than the interpreter
        converts (``sys.get_int_max_str_digits``) is a syntax error."""
        _, value, line, column = self.expect("INT", what)
        try:
            return int(value)
        except ValueError:
            raise ProblemSyntaxError(f"integer of {len(value)} digits is too long",
                                     line, column) from None

    def comma_list(self, item):
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    # -- statements ------------------------------------------------------

    def parse(self):
        while self.tokens[self.pos][0] != "EOF":
            self.statement()
        self.validate()
        return self.problem

    def statement(self):
        tok = self.expect("IDENT")
        word = tok[1]
        if word in self.seen and word != "probe":
            self.fail("repeated statement", tok)
        self.seen.setdefault(word, tok)
        p = self.problem
        if word == "ring":
            names = []
            self.comma_list(
                lambda: names.append(self.distinct_name(names, "ring variable")[1]))
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
        if tok[1] in taken:
            self.fail(f"repeated {what}", tok)
        return tok

    def ring_variable(self, what, taken=()):
        _, name, line, column = self.distinct_name(taken, what)
        if name not in self.problem.ring:
            raise UnboundNameError(f"{what} {name!r} is not a ring variable", line, column)
        return name

    def kind(self):
        _, kind, line, column = self.expect("IDENT")
        while self.accept("-"):
            kind += "-" + self.expect("IDENT")[1]
        if kind not in KINDS:
            raise ProblemSyntaxError(f"unknown kind {kind!r}; valid kinds: {', '.join(KINDS)}",
                                     line, column)
        return kind

    def samples(self):
        """Nonzero rationals: t = 0 is the base member itself."""
        tok = self.tokens[self.pos]
        samples = tuple(map(Fraction, self.comma_list(self.rational)))
        if 0 in samples:
            raise ProblemSyntaxError("samples must be nonzero: t = 0 is the base member itself",
                                     tok[2], tok[3])
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
        if not (den := self.integer("integer denominator")):
            self.fail("zero denominator", self.tokens[self.pos - 1])
        return Fraction(num, den)

    def polynomial(self, ring):
        """An expr as a Polynomial, refused at its first token when it
        has a number that cannot be printed (``printable``)."""
        tok = self.tokens[self.pos]
        units = {v: i for i, v in enumerate(ring)}
        return Polynomial._of(ring, self.printable(self.expr(units), tok))

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
            tok[2], tok[3])

    # expr, product and group expand into term dicts {exponents: int or
    # Fraction} with no zero coefficient, over ``units``, each variable's
    # index in the ring

    def expr(self, units):
        result, sign = {}, self.tokens[self.pos][0]
        self.pos += sign in ("+", "-")  # a leading sign
        while True:
            self.product(units, -1 if sign == "-" else 1, result)
            if (sign := self.tokens[self.pos][0]) not in ("+", "-"):
                return result
            self.pos += 1

    def product(self, units, coeff, out):
        """Add ``coeff`` times the next product to the term dict ``out``,
        one-term factors folded into ``coeff`` and ``shift``.  A factor
        after the first is refused at its operator (``*``, or its first
        token in 3x or 2(x + y)) when the product so far, of ``size``
        terms, times it takes more than MAX_PRODUCT_TERMS term products."""
        tokens = self.tokens
        shift, terms, size, op = [0] * len(units), None, 1, None
        while True:
            type_, value, line, column = tokens[self.pos]
            if type_ == "INT":
                coeff *= (c := self.rational())
                count = 1 if c else 0
            elif type_ == "IDENT":
                i = units.get(value)
                if i is None:
                    raise UnboundNameError(
                        f"unbound name {value!r}; ring variables are {', '.join(units)}",
                        line, column)
                self.pos += 1
                k, hat = self.exponent()
                if self.bound and k >= self.bound:
                    self.too_long(hat)  # the one number of x^k
                shift[i] += k
                count = 1
            else:
                group = self.group(units)
                count = len(group)
                if count == 1:
                    ((e, c),) = group.items()
                    coeff *= c
                    shift = list(map(add, shift, e))
                elif not count:
                    coeff = 0
            if op and size * count > MAX_PRODUCT_TERMS:
                self.too_many(op)
            if count > 1 and coeff:
                terms = group if terms is None else self.multiply(terms, group, op)
            size = (len(terms) if terms else 1) if coeff else 0
            op = tokens[self.pos]
            if op[0] == "*":
                self.pos += 1
            elif op[0] not in ("IDENT", "("):  # implicit multiplication: 3x, 2(x + y)
                break
        if not coeff:
            return
        if terms is not None:
            _add_shifted(out, terms.items(), shift, coeff)
        elif c := out.get(e := tuple(shift), 0) + coeff:
            out[e] = c
        else:
            del out[e]

    def multiply(self, a, b, tok):
        """a * b, refused at ``tok`` when it would take more than
        MAX_PRODUCT_TERMS term products: expanding is not budgeted."""
        if len(a) * len(b) > MAX_PRODUCT_TERMS:
            self.too_many(tok)
        product = {}
        _add_product(product, a, b)
        return product

    def too_many(self, tok):
        raise ExpansionTooLargeError(
            f"expansion needs more than {MAX_PRODUCT_TERMS} term products", tok[2], tok[3])

    def exponent(self):
        """``['^' INT]``: the exponent and its '^' token, or (1, None)."""
        hat = self.tokens[self.pos]
        if hat[0] != "^":
            return 1, None
        self.pos += 1
        return self.integer("integer exponent"), hat

    def group(self, units):
        """``'(' expr ')' ['^' INT]`` as a term dict."""
        self.expect("(", "a polynomial term")
        base = self.expr(units)
        self.expect(")")
        k, hat = self.exponent()
        if hat is None:
            return base
        if len(base) == 1:
            # one term: (c*x^e)^k = c^k*x^(k*e), no products
            ((e, c),) = base.items()
            n = max(abs(c.numerator), c.denominator)
            if self.bound and k * (n.bit_length() - 1) >= self.bound.bit_length():
                # n^k >= 2^(k*(bits - 1)) > bound: refused before it is computed
                self.too_long(hat)
            return self.printable({tuple([k * x for x in e]): c**k}, hat)
        # square-and-multiply, each product checked
        result = {(0,) * len(units): 1}
        while k:
            if k & 1:
                result = self.multiply(result, base, hat)
            k >>= 1
            if k:
                base = self.multiply(base, base, hat)
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
