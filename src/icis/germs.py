"""Invariants of a single singularity germ: Milnor numbers of
hypersurfaces, of complete intersections (telescoped colength chain),
and of functions on them; discriminants, multiplicity and the
generic-line test.  The Le-Greuel chain is localized at the origin
(``icis_milnor``: local colengths) or on the fiber V(phi), summing its
singular points (``fiber_milnor_total``: global colengths with rising
powers of the equations adjoined).  An ICIS keeps its chain stages, each
an ``IdealPresentation`` caching its local colength: its isolation check
fills them and ``icis_milnor`` reads them."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf

from .basis import local_colength
from .errors import (
    GenericityError,
    InvalidInputError,
    NonIsolatedError,
    UnsupportedInputError,
    ZeroInputError,
)
from .ideals import (
    IdealPresentation,
    critical_ideal,
    elimination_ideal,
    jacobian_matrix,
    maximal_minors,
    singular_ideal,
)
from .orders import grevlex
from .poly import (
    Polynomial,
    lowest_degree_form,
    order_of_vanishing,
    squarefree_part,
)

MAX_RECOMBINATION_RETRIES = 12


@dataclass
class IcisPresentation:
    """Germ (X, 0) in (C^n, 0) cut out by p equations, singular only at
    the origin.

    Isolation is certified at construction by the Le-Greuel chain of phi
    itself.  Stage k is the critical ideal of phi_k on X_(k-1) =
    V(phi_1..phi_(k-1)): <phi_1..phi_(k-1)> + (k x k minors).  Stage p
    lies in the singular ideal S = <phi> + (p x p minors), so when every
    stage has finite local colength, so has S.

    When stages 1..p-1 are finite and stage p is infinite, X is not
    isolated, and S is not localized.  Proof: by curve selection (Milnor
    1968, section 3) some curve through 0 lies in V(stage p).  Stage p-1
    is finite, so the (p-1) x (p-1) minors of phi_1..phi_(p-1) vanish on
    X_(p-1) only at 0 (for p = 1, X_0 is C^n): away from 0 the curve lies
    in the smooth part of X_(p-1).  There the p x p minors vanish, so
    each point of the curve is a critical point of phi_p on X_(p-1), and
    phi_p is constant, hence 0, along it.  So the curve lies in X, and X
    is singular along it.  Only when the first infinite stage comes
    before the last is S's own colength computed, and X is rejected when
    it is infinite.  The stages keep their colengths (``stage``), so
    ``icis_milnor`` reads the chain of phi at no further cost."""

    ring: tuple
    phi: tuple
    _stages: dict = field(default_factory=dict, repr=False, compare=False)

    def __init__(self, ring, phi):
        self.ring = tuple(ring)
        self.phi = tuple(p.in_ring(self.ring) for p in phi)
        self._stages = {}
        n, p = len(self.ring), len(self.phi)
        if not 1 <= p <= n:
            raise InvalidInputError(f"need 1 <= p <= n, got p={p}, n={n}")
        for f in self.phi:
            if f.constant_term() != 0:
                raise InvalidInputError(f"{f} does not vanish at the origin")
        k = next((k for k in range(1, p + 1)
                  if self.stage(self.phi[:k]).local_colength() == inf), None)
        if k is not None and (
                k == p or singular_ideal(self.phi, self.ring).local_colength() == inf):
            raise NonIsolatedError("singular locus is not isolated at the origin")

    def stage(self, eqs):
        """The Le-Greuel chain stage of ``eqs``, the critical ideal of its
        last equation on the rest, built once per tuple of equations."""
        eqs = tuple(eqs)
        hit = self._stages.get(eqs)
        if hit is None:
            hit = self._stages[eqs] = critical_ideal(eqs[:-1], eqs[-1], self.ring)
        return hit

    def contains(self, point):
        return all(p.eval(point) == 0 for p in self.phi)

    def translated(self, point):
        """Presentation of the same variety with ``point`` moved to 0."""
        return IcisPresentation(self.ring, translate(self.phi, point))


def translate(polys, point):
    """The polynomials p(x + point), which move ``point`` to the origin;
    coordinates missing from ``point`` are 0."""
    ring = polys[0].ring
    shift = {v: Polynomial.variable(ring, v) + Fraction(point.get(v, 0)) for v in ring}
    return [p.subs(shift, target_ring=ring) for p in polys]


@dataclass
class GermFunction:
    """Function germ f: (X, 0) -> (C, 0) on an ICIS."""

    f: Polynomial
    base: IcisPresentation

    def __post_init__(self):
        self.f = self.f.in_ring(self.base.ring)
        if self.f.constant_term() != 0:
            raise InvalidInputError("function germ must vanish at the origin")

    def critical_ideal(self):
        """<phi> plus the maximal minors of the Jacobian of (phi, f)."""
        return critical_ideal(self.base.phi, self.f, self.base.ring)


@dataclass(frozen=True)
class LineDirection:
    v: tuple

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(Fraction(c) for c in self.v))
        if all(c == 0 for c in self.v):
            raise InvalidInputError("direction vector must be nonzero")


def hypersurface_milnor(f):
    """Local colength of the ideal of all partials of f."""
    if f.constant_term() != 0:
        raise InvalidInputError("germ must vanish at the origin")
    mu = local_colength([f.diff(v) for v in f.ring], f.ring)
    if mu == inf:
        raise NonIsolatedError(f"non-isolated singularity: {f}")
    return mu


def function_on_icis_milnor(g):
    """dim of O_n / (<phi> + J(f, phi)) in the local ring at 0."""
    mu = g.critical_ideal().local_colength()
    if mu == inf:
        raise NonIsolatedError("function has non-isolated singularity on the ICIS")
    return mu


def milnor_at_point(g, point):
    """Milnor number of g.f on V(phi) at a rational point of the variety."""
    point = {v: Fraction(c) for v, c in point.items()}
    if not g.base.contains(point):
        raise InvalidInputError(f"point {point} is not on the variety")
    base = g.base.translated(point)
    (f_moved,) = translate([g.f], point)
    return function_on_icis_milnor(GermFunction(f_moved - f_moved.constant_term(), base))


def _recombine(phi, rng):
    """Seeded invertible upper-triangular recombination over Z."""
    p = len(phi)
    out = []
    for i in range(p):
        g = phi[i]
        for j in range(i + 1, p):
            c = rng.randint(-9, 9)
            if c:
                g = g + c * phi[j]
        out.append(g)
    return out


def icis_milnor(X, seed=0):
    """Milnor number of an ICIS: the chain localized at the origin.  The
    stages of phi itself, with their colengths, are the ones X's isolation
    check computed (``IcisPresentation``), so only a recombined retry
    localizes new ideals."""
    return _chain_milnor(list(X.phi), lambda I, _: I.local_colength(), X.stage, seed)


def fiber_milnor_total(phi, ring):
    """Sum of the Milnor numbers of V(phi) at its singular points, which
    must be isolated, over the closure: the chain localized on V(phi)."""
    return _chain_milnor(list(phi), _fiber_colength,
                         lambda eqs: critical_ideal(eqs[:-1], eqs[-1], ring))


def _chain_milnor(phi, colength, stage, seed=0):
    """Le-Greuel chain: mu(X_{k-1}) + mu(X_k) is the colength of the
    stage ideal ``stage(phi_1..phi_k)``, localized by
    ``colength(I, [phi_k..phi_p])``, from mu(C^n) = 0.
    A stage of infinite colength is retried with seeded random
    recombinations of the equations (the chain holds for a generic choice);
    one equation has no recombination but itself, so it is not retried."""
    rng = random.Random(seed)
    last_failure = None
    retries = MAX_RECOMBINATION_RETRIES if len(phi) > 1 else 0
    for attempt in range(retries + 1):
        eqs = phi if attempt == 0 else _recombine(phi, rng)
        try:
            mu = 0
            for k in range(1, len(eqs) + 1):
                c = colength(stage(eqs[:k]), eqs[k - 1:])
                if c == inf:
                    raise GenericityError(f"infinite colength at chain stage {k}")
                mu = c - mu
            return mu
        except GenericityError as exc:
            last_failure = exc
    raise GenericityError(f"no recombination gave finite chain colengths: {last_failure}")


def _fiber_colength(I, rest):
    """Grevlex colength of I + <r^N for r in rest> at the first N <= 64
    where it equals its value at N + 1.  Points off V(rest) drop out, and
    by Nakayama the equal values put each r^N in I at every point of
    V(rest): the value sums the local colengths of I there."""
    order = grevlex(I.ring)
    powers, prev = list(rest), None
    for _ in range(64):
        c = I.plus(powers).colength(order)
        if c == inf:
            raise NonIsolatedError("fiber has non-isolated singular points")
        if c == prev:
            return c
        prev = c
        powers = [q * r for q, r in zip(powers, rest)]
    raise GenericityError("fiber colength did not stabilize")


def _target_ring(p):
    if p <= 3:
        return ("u", "v", "w")[:p]
    return tuple(f"u{i+1}" for i in range(p))


def discriminant(phis):
    """Reduced equation of the discriminant: image of the critical set
    of the map phi, computed by eliminating the source variables from
    the graph-plus-critical ideal.  The source variables are renamed
    x0, x1, ... (exponents are positional), so none shares a target's
    name."""
    ring = tuple(f"x{i}" for i in range(len(phis[0].ring)))
    phis = [Polynomial(ring, f.terms) for f in phis]
    targets = _target_ring(len(phis))
    big = ring + targets
    minors = maximal_minors(jacobian_matrix(phis, list(ring)))
    # a minor that is a unit at 0 makes the critical-set germ empty
    if any(m.constant_term() != 0 for m in minors):
        raise UnsupportedInputError("critical set is empty: no discriminant hypersurface")
    gens = [
        Polynomial.variable(big, u) - f.in_ring(big) for u, f in zip(targets, phis)
    ] + [m.in_ring(big) for m in minors]
    I = IdealPresentation(big, gens)
    # E.generators is the reduced grevlex basis of the elimination ideal
    E = elimination_ideal(I, targets)
    if not E.generators:
        raise UnsupportedInputError("discriminant eliminant is zero: not a hypersurface")
    if len(E.generators) != 1:
        raise UnsupportedInputError("discriminant eliminant is not principal")
    return squarefree_part(E.generators[0])


def multiplicity(delta):
    """Degree of the lowest-degree homogeneous form of the discriminant
    equation at the origin."""
    if delta.is_zero():
        raise ZeroInputError("multiplicity of 0")
    if delta.constant_term() != 0:
        raise InvalidInputError("unit input: hypersurface must pass through the origin")
    return lowest_degree_form(delta).total_degree()


def _check_line(delta, L):
    """A line test needs a hypersurface through the origin and a
    direction in its ambient space."""
    if delta.constant_term() != 0:
        raise InvalidInputError("hypersurface must pass through the origin")
    if len(L.v) != len(delta.ring):
        raise InvalidInputError("direction dimension does not match the target ring")


def line_intersection_number(delta, L):
    """Order of vanishing of delta along the parametrized line s -> s*v;
    +inf when the line lies inside the hypersurface."""
    _check_line(delta, L)
    s_ring = ("s",)
    s = Polynomial.variable(s_ring, "s")
    comp = delta.subs({u: c * s for u, c in zip(delta.ring, L.v)}, target_ring=s_ring)
    return order_of_vanishing(comp)


def is_generic_line(delta, L):
    """A line is generic iff it meets the hypersurface with intersection
    number equal to the multiplicity, i.e. the lowest-degree form does
    not vanish on the direction vector."""
    _check_line(delta, L)
    form = lowest_degree_form(delta)
    return form.eval(dict(zip(delta.ring, L.v))) != 0
