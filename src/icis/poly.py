"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a map from exponent tuples to nonzero coefficients over
a fixed ordered variable list (the ring).  A coefficient is an ``int``
exactly when it is integral, and a ``Fraction`` otherwise, so integral
inputs, their derivatives, products and substitutions stay on integer
arithmetic; an integral ``Fraction`` is stored as its numerator, which
changes no hash or equality.  All arithmetic is exact: every division of
coefficients goes through ``_div``, and a float is refused as a
coefficient, since its binary value is rarely the number meant.

Term dicts are multiplied in place by two kernels: ``_add_shifted``
adds a multiple of one term times a term dict, for substitution and the
standard-basis engine in ``basis`` (whose term dicts hold integers, which
it works on unchanged), and ``_add_product`` adds the product of two
term dicts, for ``Polynomial.__mul__``, the problem parser and the
characteristic polynomials of ``germs``; exact division and the
univariate Euclidean remainder share one single-divisor division,
``_divmod``.

``squarefree_part`` takes one path for every f (Yun 1976): it splits
off the monomial factor of least exponents, certifies the cofactor h
squarefree modulo the prime 2^31 - 1 (``_certified``), and else divides
h by gcd(h, dh/dx for x in A).  The certificate runs outside the step
budget; ``gcd``, by lcm-by-elimination (``basis.eliminate`` under a
block order) or, for one variable, by Euclid, is charged to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, prod
from numbers import Number
from operator import add, sub

from .errors import RingMismatchError, UnknownVariableError, ZeroInputError
from .orders import GrevLex, grevlex


class Polynomial:
    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms=None):
        self.ring = tuple(ring)
        clean = {}
        if terms:
            n = len(self.ring)
            for exps, coeff in terms.items():
                if type(coeff) is not int:
                    coeff = _coefficient(coeff)
                if not coeff:
                    continue
                exps = tuple(exps)
                if len(exps) != n or min(exps, default=0) < 0:
                    raise ValueError(f"bad exponent vector {exps} for ring {self.ring}")
                clean[exps] = coeff
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def constant(cls, ring, c):
        ring = tuple(ring)
        return cls(ring, {(0,) * len(ring): c})

    @classmethod
    def variable(cls, ring, name):
        ring = tuple(ring)
        if name not in ring:
            raise UnknownVariableError(f"{name!r} not in ring {ring}")
        exps = tuple(1 if v == name else 0 for v in ring)
        return cls(ring, {exps: 1})

    @classmethod
    def monomial(cls, ring, exps, coeff=1):
        return cls(ring, {tuple(exps): coeff})

    # -- predicates / accessors ---------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self):
        zero = (0,) * len(self.ring)
        return self.terms.get(zero, 0)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(self.ring[i])
        return used

    def leading(self, order):
        """(exponent tuple, coefficient) of the largest term under order."""
        if not self.terms:
            raise ZeroInputError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    # -- equality ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, Number):
                return NotImplemented
            zero = (0,) * len(self.ring)
            return self.terms.keys() <= {zero} and self.terms.get(zero, 0) == other
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ring, other)
        self._check_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e)
            terms[e] = c if v is None else v + c
        return Polynomial(self.ring, terms)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ring, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _coefficient(other)
            return Polynomial(self.ring, {e: k * c for e, k in self.terms.items()})
        self._check_ring(other)
        terms = {}
        _add_product(terms, self.terms, other.terms)
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and substitution --------------------------------------

    def diff(self, var):
        if var not in self.ring:
            raise UnknownVariableError(f"{var!r} not in ring {self.ring}")
        i = self.ring.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new = list(e)
            new[i] -= 1
            terms[tuple(new)] = c * e[i]
        return Polynomial(self.ring, terms)

    def subs(self, bindings, target_ring=None):
        """Substitute polynomials (or scalars) for variables.

        Unbound variables must exist in the target ring and map to
        themselves.  The result lives in ``target_ring`` (defaults to the
        ring of the first polynomial image, else this ring).  A scalar
        scales each term's coefficient; only polynomial images are
        multiplied out.
        """
        for name in bindings:
            if name not in self.ring:
                raise UnknownVariableError(f"{name!r} not in ring {self.ring}")
        if target_ring is None:
            target_ring = next((v.ring for v in bindings.values() if isinstance(v, Polynomial)),
                               self.ring)
        target_ring = tuple(target_ring)
        # per variable: its position in the target ring when unbound, else
        # None and its image, a Polynomial or a scalar coefficient
        places, images = [], []
        for name in self.ring:
            val = bindings.get(name)
            if isinstance(val, Polynomial):
                if val.ring != target_ring:
                    raise RingMismatchError(
                        f"image of {name!r} lives in {val.ring}, expected {target_ring}"
                    )
            elif name in bindings:
                val = _coefficient(val)
            elif name in target_ring:
                places.append(target_ring.index(name))
                images.append(None)
                continue
            else:
                raise UnknownVariableError(f"unbound variable {name!r} missing from target ring")
            places.append(None)
            images.append(val)
        one = (((0,) * len(target_ring), 1),)
        result = {}
        for e, c in self.terms.items():
            place = [0] * len(target_ring)
            image = None
            for pos, val, k in zip(places, images, e):
                if not k:
                    continue
                if pos is not None:
                    place[pos] = k
                elif isinstance(val, Polynomial):
                    image = val**k if image is None else image * val**k
                else:
                    c *= val**k
            if c:  # a zero scalar drops the term
                _add_shifted(result, one if image is None else image.terms.items(), place, c)
        return Polynomial(target_ring, result)

    def eval(self, point):
        """Evaluate at a rational point given as {var: scalar}."""
        val = self.subs({v: point.get(v, 0) for v in self.ring}, target_ring=self.ring)
        return val.constant_term()

    def in_ring(self, new_ring):
        """Re-express over another ring containing all used variables."""
        new_ring = tuple(new_ring)
        for v in self.variables_used():
            if v not in new_ring:
                raise UnknownVariableError(f"{v!r} not in target ring {new_ring}")
        index = {v: i for i, v in enumerate(new_ring)}
        terms = {}
        for e, c in self.terms.items():
            new = [0] * len(new_ring)
            for i, k in enumerate(e):
                if k:
                    new[index[self.ring[i]]] = k
            terms[tuple(new)] = c
        return Polynomial(new_ring, terms)

    # -- printing --------------------------------------------------------

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r}, ring={self.ring})"

    def __str__(self):
        return format_poly(self)


def _coefficient(c):
    """The scalar c as a coefficient: an int when it is integral, else a
    Fraction.  A float is refused with ``TypeError``."""
    if isinstance(c, float):
        raise TypeError(f"a float is not an exact coefficient: {c!r}")
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """The exact quotient a/b of two coefficients: an int when b divides
    a, else a Fraction (``/`` would give a float on two ints)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _add_shifted(h, tail, shift, q):
    """h += q * x^shift * tail, in place on the term dict h; ``tail`` is
    an iterable of (exponents, coefficient) pairs."""
    for e, c in tail:
        e = tuple(map(add, e, shift))
        v = h.get(e)
        v = q * c if v is None else v + q * c
        if v:
            h[e] = v
        else:
            del h[e]


def _add_product(out, a, b):
    """out += a*b, in place, for term dicts a and b."""
    for e, c in a.items():
        _add_shifted(out, b.items(), e, c)


def _divmod(f, g, budget=None):
    """(q, r) with f = q*g + r: divide under grevlex for as long as
    lm(g) divides lm(r), in place on r's term dict; each leading term
    cancelled costs a step of ``budget`` when one is given."""
    if g.is_zero():
        raise ZeroInputError("division by zero polynomial")
    key = grevlex(f.ring).key
    lm_g = max(g.terms, key=key)
    lc_g = g.terms[lm_g]
    tail = [(e, c) for e, c in g.terms.items() if e != lm_g]
    q, r = {}, dict(f.terms)
    while r:
        lm_r = max(r, key=key)
        shift = tuple(a - b for a, b in zip(lm_r, lm_g))
        if min(shift, default=0) < 0:
            break
        if budget is not None:
            budget.step()
        # lm(r) falls at each step, so every shift is new to q
        c = q[shift] = _div(r.pop(lm_r), lc_g)
        _add_shifted(r, tail, shift, -c)
    return Polynomial(f.ring, q), Polynomial(f.ring, r)


def format_poly(f):
    """Deterministic text form, terms in descending grevlex order."""
    if f.is_zero():
        return "0"
    order = grevlex(f.ring)
    parts = []
    for e in sorted(f.terms, key=order.key, reverse=True):
        c = f.terms[e]
        factors = []
        for name, k in zip(f.ring, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mono = "*".join(factors)
        # |c| written off its numerator and denominator: no Fraction is built
        num, den = c.numerator, c.denominator
        magnitude = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mono:
            body = magnitude
        elif magnitude == "1":
            body = mono
        else:
            body = f"{magnitude}*{mono}"
        sign = "-" if num < 0 else "+"
        parts.append((sign, body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# -- univariate / graded helpers ------------------------------------------


def order_of_vanishing(f):
    """Least exponent with nonzero coefficient of a univariate polynomial;
    +inf for the zero polynomial."""
    used = f.variables_used()
    if len(used) > 1:
        raise UnknownVariableError(f"polynomial is not univariate: uses {sorted(used)}")
    if f.is_zero():
        return inf
    return min(sum(e) for e in f.terms)


def lowest_degree_form(f):
    """Homogeneous part of minimal total degree; its degree is the
    multiplicity of the hypersurface at the origin."""
    if f.is_zero():
        raise ZeroInputError("lowest_degree_form of 0")
    d = min(sum(e) for e in f.terms)
    return Polynomial(f.ring, {e: c for e, c in f.terms.items() if sum(e) == d})


def divexact(f, g):
    """Exact division f/g; raises if g does not divide f."""
    q, r = _divmod(f, g)
    if not r.is_zero():
        raise ValueError("inexact division")
    return q


def _gcd_univariate(a, b):
    """Euclid over Q, one step of the active budget per term cancelled."""
    from .basis import _current_budget

    budget = _current_budget()
    while not b.is_zero():
        a, b = b, _divmod(a, b, budget)[1]
    return _monic(a)


def gcd(f, g):
    """Multivariate gcd over the rationals.

    A monomial argument gives the monomial of least exponents, and
    univariate inputs use the Euclidean algorithm; the general case goes
    through lcm-by-elimination (an ideal intersection with one tag
    variable), then exact division of f*g by the lcm.
    """
    if f.ring != g.ring:
        raise RingMismatchError(f"{f.ring} vs {g.ring}")
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    if f.is_constant() or g.is_constant():
        return Polynomial.constant(f.ring, 1)
    if len(f.terms) == 1 or len(g.terms) == 1:
        # a monomial's divisors are monomials: the least exponents
        exps = [min(col) for col in zip(*f.terms, *g.terms)]
        return Polynomial.monomial(f.ring, exps)
    if len(f.variables_used() | g.variables_used()) == 1:
        return _gcd_univariate(f, g)

    from . import basis as _basis
    from .orders import elimination_order

    tag = fresh_variable(f.ring, "_w")
    big = (tag,) + f.ring
    w = Polynomial.variable(big, tag)
    one = Polynomial.constant(big, 1)
    gens = [w * f.in_ring(big), (one - w) * g.in_ring(big)]
    order = elimination_order(big, [tag])
    # <f> ∩ <g> = <lcm> is principal, so its reduced basis is the lcm
    (lcm,) = _basis.eliminate(gens, order)
    return _monic(divexact(f * g, lcm))


def fresh_variable(ring, stem):
    """``stem``, with underscores appended until it is not in ``ring``."""
    while stem in ring:
        stem += "_"
    return stem


def _monic(f):
    """f scaled to leading coefficient 1 under grevlex; 0 stays 0."""
    if f.is_zero():
        return f
    lc = f.terms[max(f.terms, key=GrevLex.key)]
    return f if lc == 1 else f * _div(1, lc)


# The word-size prime of the modular squarefree test (``_squarefree_mod``).
_PRIME = 2**31 - 1

# Values c of the certificate points (c, c^2, ..., c^k) for the k
# variables other than x; fixed, so every run tries the same points.
_CERTIFICATE_VALUES = (1, -1, 2, -2, 3, -3)


def squarefree_part(f):
    """Generator of the radical of <f>, leading coefficient normalized to
    1 under grevlex, in characteristic zero.  Write f = x^a*h with x^a
    the monomial of least exponents; rad(f) is the product of the x_i
    with a_i > 0 times rad(h).  h is its own radical when every x in A
    certifies it (``_certified``), A from ``_axes``; else rad(h) =
    h / gcd(h, dh/dx for x in A).  Every factor of h uses a variable of
    A, so one of multiplicity m divides that gcd m - 1 times."""
    if f.is_zero():
        raise ZeroInputError("squarefree_part of 0")
    cols = list(zip(*f.terms))
    low = [min(col) for col in cols]
    h = f.terms
    if any(low):
        h = {tuple(map(sub, e, low)): c for e, c in h.items()}
    used = [i for i, col in enumerate(cols) if max(col) > low[i]]
    axes = _axes(h, used)
    if not all(_certified(h, i, used) for i in axes):
        g = h = Polynomial(f.ring, h)
        for i in axes:
            g = gcd(g, h.diff(f.ring[i]))
        h = divexact(h, g).terms
    if any(low):
        shift = [int(k > 0) for k in low]
        h = {tuple(map(add, e, shift)): c for e, c in h.items()}
    return _monic(f if h is f.terms else Polynomial(f.ring, h))


def _axes(h, used):
    """A: the first used variable x with a constant coefficient in the
    term dict h, which every factor of h uses; else all of them.  The
    coefficient of x^k is constant when x^k is h's only term of degree k
    in x."""
    for i in used:
        only = {}  # degree k in x -> whether x^k is the one term of degree k
        for e in h:
            k = e[i]
            only[k] = k not in only and sum(e) == k
        if any(only.values()):
            return [i]
    return used


def _certified(h, i, used):
    """True when the term dict h(x, a) is certified squarefree modulo
    ``_PRIME`` (``_squarefree_mod``) at the first of the fixed points a of
    the other variables where lc_x(h)(a) != 0; then no square factor q^2
    of h uses its i-th variable x, since it would leave q(x, a)^2 with
    deg q(x, a) >= 1.  A one-variable h is tested as it stands.  Every
    other answer is False, and the caller's gcd decides."""
    deg = max(e[i] for e in h)
    others = [k for k in used if k != i]
    if not others:
        return _squarefree_mod(h, i, deg)
    for a in _CERTIFICATE_VALUES:
        point = [(k, a**n) for n, k in enumerate(others, 1)]
        q = {}  # h(x, a), a term dict in x alone
        for e, c in h.items():
            c *= prod([v ** e[k] for k, v in point])
            d = (e[i],)
            q[d] = q[d] + c if d in q else c
        if q.get((deg,)):
            return _squarefree_mod(q, 0, deg)
    return False


def _squarefree_mod(q, i, deg):
    """Whether the univariate term dict q, of degree deg in its i-th
    variable x, is certified squarefree over Q by its image modulo the
    prime P = ``_PRIME``.  False when P is not valid for q or the image
    has a repeated factor; neither proves a square factor.

    P is valid when it divides no denominator of q and not the numerator
    of lc_x(q).  Write q = c*q0, q0 primitive in Z[x]; P then divides
    neither c's numerator nor its denominator.  A square factor r^2 of q
    over Q, deg r >= 1, gives q0 = r0^2*s0 with r0, s0 in Z[x] (Gauss's
    lemma), and as P does not divide lc(q0) = lc(r0)^2*lc(s0), r0 keeps
    its degree modulo P and divides both q mod P and its derivative.  So
    gcd(q mod P, q' mod P) = 1 in F_P[x] proves q squarefree.  The
    converse fails only for the finitely many P that divide q's
    discriminant."""
    dense = [0] * (deg + 1)  # q mod P, highest degree first
    for e, c in q.items():
        den = c.denominator % _PRIME
        if not den:
            return False
        dense[deg - e[i]] = c.numerator * pow(den, -1, _PRIME) % _PRIME
    if not dense[0]:
        return False
    derivative = [c * (deg - k) % _PRIME for k, c in enumerate(dense[:-1])]
    return _coprime_mod(dense, derivative, _PRIME)


def _coprime_mod(a, b, p):
    """True when gcd(a, b) = 1 in F_p[x], for coefficient lists highest
    degree first, a's leading coefficient nonzero and deg a >= deg b."""
    while True:
        while b and not b[0]:
            b = b[1:]
        if not b:
            return len(a) == 1
        if len(b) == 1:
            return True
        inv = pow(b[0], -1, p)
        a = list(a)
        for k in range(len(a) - len(b) + 1):
            c = a[k] * inv % p
            if c:
                for n in range(1, len(b)):
                    a[k + n] = (a[k + n] - c * b[n]) % p
        a, b = b, a[len(a) - len(b) + 1:]
