"""Invariants of a single singularity germ: Milnor numbers of
hypersurfaces, of complete intersections (telescoped colength chain),
and of functions on them; discriminants, multiplicity and the
generic-line test.  The Le-Greuel chain is localized at the origin
(``icis_milnor``: local colengths) or on the fiber V(phi), summing its
singular points (``fiber_milnor_total``: global colengths with rising
powers of the equations adjoined); a stage either leaves infinite fails
the attempt, which is retried on a recombination.  An ICIS keeps its
chain stages, each an ``IdealPresentation`` caching its colengths: its
isolation check fills them, and both localizations read them.  The
critical ideal of a function germ f on X is the chain's next stage, of
(phi, f), kept in the same memo, so members with equal equations share
one ideal.  A hypersurface's Jacobian ideal is localized through an
``IdealPresentation`` as well, the one path to ``basis.local_colength``.

A map is an unfolding when ``basis._substitute_linear`` leaves its graph
one equation a*u_j = G(u, z), z^d the only term of G of z-degree d.  Its
discriminant is the squarefree part of the characteristic polynomial of
G/a on Q[u][z]/(dG/dz), from traces and Newton's identities on integers,
with no Groebner basis; every other map's is a block elimination of the
graph plus the critical minors."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm

from .basis import _current_budget, _substitute_linear
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
from .poly import (
    Polynomial,
    _add_product,
    _div,
    lowest_degree_form,
    order_of_vanishing,
    squarefree_part,
)

MAX_RECOMBINATION_RETRIES = 12


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

    def __init__(self, ring, phi):
        self.ring = tuple(ring)
        self.phi = tuple(p.in_ring(self.ring) for p in phi)
        self._stages = {}
        n, p = len(self.ring), len(self.phi)
        if not 1 <= p <= n:
            raise InvalidInputError(f"need 1 <= p <= n, got p={p}, n={n}")
        for f in self.phi:
            if f.is_zero():
                raise InvalidInputError("zero equation: V(phi) is not cut out by p equations")
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


def translate(polys, point):
    """The polynomials p(x + point), which move ``point`` to the origin;
    coordinates missing from ``point`` are 0."""
    ring = polys[0].ring
    shift = {v: Polynomial.variable(ring, v) + point.get(v, 0) for v in ring}
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
        """<phi> plus the maximal minors of the Jacobian of (phi, f): the
        next stage of the base's chain, kept in the base's memo."""
        return self.base.stage(self.base.phi + (self.f,))


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
    mu = IdealPresentation(f.ring, [f.diff(v) for v in f.ring]).local_colength()
    return NonIsolatedError.unless_finite(mu, "non-isolated singularity: {}", f)


def function_on_icis_milnor(g):
    """dim of O_n / (<phi> + J(f, phi)) in the local ring at 0."""
    return NonIsolatedError.unless_finite(g.critical_ideal().local_colength(),
                                          "function has non-isolated singularity on the ICIS")


def milnor_at_point(g, point):
    """Milnor number of g.f on V(phi) at a rational point of the variety;
    a point off it is refused, as phi moved there does not vanish at 0."""
    base = IcisPresentation(g.base.ring, translate(g.base.phi, point))
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


def icis_milnor(X, seed=0, eqs=None):
    """Milnor number of an ICIS: the chain localized at the origin.  The
    stages of phi itself, with their colengths, are the ones X's isolation
    check computed (``IcisPresentation``), so only a recombined retry
    localizes new ideals.

    ``eqs``, an ICIS over X's ring isolated at the origin, is read in
    place of phi, its stages kept in X's memo.  The fiber of a function
    germ f on X is eqs = phi + (f,): its chain is X's, then the critical
    ideal of f on X (``GermFunction.critical_ideal``, the same stage).
    So the chain reads the Le-Greuel formula mu(X cut by f) + mu(X) =
    mu(f on X) off colengths already localized, as a family's base total
    and a lone point at the origin do after ``mu0`` and the sample
    reports."""
    eqs = X.phi if eqs is None else eqs
    return _chain_milnor(list(eqs), lambda I, _: I.local_colength(), X.stage, seed)


def fiber_milnor_total(X, eqs):
    """Sum of the Milnor numbers of V(eqs) at its singular points, which
    must be isolated, over the closure: the chain localized on V(eqs), its
    stages kept in X's memo as ``icis_milnor`` keeps them; the last stage's
    first rising power is the singular-point ideal X.stage(eqs).plus(eqs[-1:])."""
    return _chain_milnor(list(eqs), _fiber_colength, X.stage)


def _chain_milnor(phi, colength, stage, seed=0):
    """Le-Greuel chain: mu(X_{k-1}) + mu(X_k) is the colength of the
    stage ideal ``stage(phi_1..phi_k)``, localized by
    ``colength(I, [phi_k..phi_p])``, from mu(C^n) = 0.
    A stage of infinite colength is retried with seeded random
    recombinations of the equations (the chain holds for a generic choice);
    one equation has no recombination but itself, so it is not retried."""
    rng = random.Random(seed)
    retries = MAX_RECOMBINATION_RETRIES if len(phi) > 1 else 0
    for attempt in range(retries + 1):
        eqs = phi if attempt == 0 else _recombine(phi, rng)
        mu = 0
        for k in range(1, len(eqs) + 1):
            c = colength(stage(eqs[:k]), eqs[k - 1:])
            if c == inf:
                break
            mu = c - mu
        else:
            return mu
    raise GenericityError("no recombination gave finite chain colengths: "
                          f"infinite colength at chain stage {k}")


def _fiber_colength(I, rest):
    """Grevlex colength of I + <r^N for r in rest> at the first N <= 64
    where it equals its value at N + 1, else inf.  Points off V(rest) drop
    out, and by Nakayama the equal values put each r^N in I at every point
    of V(rest): the value sums the local colengths of I there."""
    powers, prev = list(rest), None
    for _ in range(64):
        c = NonIsolatedError.unless_finite(I.plus(powers).colength(),
                                           "fiber has non-isolated singular points")
        if c == prev:
            return c
        prev = c
        powers = [q * r for q, r in zip(powers, rest)]
    return inf


def _target_ring(p):
    if p <= 3:
        return ("u", "v", "w")[:p]
    return tuple(f"u{i+1}" for i in range(p))


def discriminant(phis):
    """Reduced equation of the discriminant: the image of the critical
    set of the map phi.  The source variables are renamed x0, x1, ...
    (exponents are positional), so none shares a target's name.

    The graph rows D*(u_i - phi_i), primitive over Z, lose their linear
    source variables (``basis._substitute_linear``).  Each substitution
    x_k = (u_r - h_r)/c_r comes from a graph row, h_r free of x_k, so
    together they are a triangular automorphism of the source, which
    keeps the image of the critical set.  An unfolding (``_unfolding``)
    needs no Groebner basis (``_characteristic_polynomial``); every other
    map eliminates the source variables from the graph rows plus the
    critical minors under a block order (``elimination_ideal``)."""
    ring = tuple(f"x{i}" for i in range(len(phis[0].ring)))
    phis = [Polynomial(ring, f.terms) for f in phis]
    targets = _target_ring(len(phis))
    minors = maximal_minors(jacobian_matrix(phis, list(ring)))
    # a minor that is a unit at 0 makes the critical-set germ empty
    if any(m.constant_term() != 0 for m in minors):
        raise UnsupportedInputError("critical set is empty: no discriminant hypersurface")
    big, n, p = ring + targets, len(ring), len(targets)
    graph = []
    for i, f in enumerate(phis):
        D = lcm(*(c.denominator for c in f.terms.values()))
        row = {e + (0,) * p: -c.numerator * (D // c.denominator) for e, c in f.terms.items()}
        graph.append({**row, (0,) * (n + i) + (1,) + (0,) * (p - i - 1): D})
    unfolding = _unfolding(_substitute_linear(graph, range(n), n + p), n)
    if unfolding is not None:
        return squarefree_part(_characteristic_polynomial(targets, *unfolding))
    gens = [Polynomial(big, r) for r in graph] + [m.in_ring(big) for m in minors]
    # E.generators is the reduced grevlex basis of the elimination ideal
    E = elimination_ideal(IdealPresentation(big, gens), targets)
    if not E.generators:
        raise UnsupportedInputError("discriminant eliminant is zero: not a hypersurface")
    if len(E.generators) != 1:
        raise UnsupportedInputError("discriminant eliminant is not principal")
    return squarefree_part(E.generators[0])


def _unfolding(rows, n):
    """(G, a, j, z) when the graph rows left by the linear substitution,
    integer term dicts over the n source variables and then the
    targets, make the map an unfolding: they are one row a*u_j - G,
    a > 0, in which G holds one source variable, the z-th, u_j is in no
    term of G (the first such j: any gives the same image), and z^d,
    d = deg_z G, is G's only term of z-degree d; else None."""
    used = {k for row in rows for e in row for k in range(n) if e[k]}
    if len(rows) != 1 or len(used) != 1:
        return None
    (row,), (z,) = rows, used
    width = len(next(iter(row)))
    for j in range(width - n):
        unit = (0,) * (n + j) + (1,) + (0,) * (width - n - j - 1)
        if unit in row and not any(e[n + j] for e in row if e != unit):
            break
    else:
        return None
    a = row[unit]
    G = {e: -c if a > 0 else c for e, c in row.items() if e != unit}
    d = max(e[z] for e in G)
    if [e for e in G if e[z] == d] != [(0,) * z + (d,) + (0,) * (width - z - 1)]:
        return None
    return G, abs(a), j, z


def _characteristic_polynomial(targets, G, a, j, z):
    """chi(w) = det(w - M_g), M_g multiplication by g = G/a on A =
    Q[u][z]/(h), over the target ring with w its j-th variable;
    ``_unfolding`` describes the arguments.  h, dg/dz scaled to be monic
    in z, makes A free of rank m = d - 1 over Q[u].

    The work is on integers.  The row a*u_j - G is primitive, so a is
    the least D with D*g in Z[u][z]; let l be the z^d coefficient of G
    and L = d*l.  The substitution z = Z/L turns L^(m-1)*dG/dz into H,
    monic in Z[u][Z], and lambda*g, lambda = L^d*a, into G~ in Z[u][Z].
    The roots of H are integral over Z[u], so chi~(W) = prod (W -
    G~(root)) lies in Z[u][W], and chi(w) = lambda^-m * chi~(lambda*w):
    the coefficient of w^(m-k) is that of chi~ over lambda^k, the one
    place rationals are built.

    Tr(G~^k), k = 1..m, is read off G~^k mod H, whose Z^i coefficient is
    weighted by the power sum s_i of the roots of H; Newton's identities
    give the s_i from H and chi~'s coefficients from the traces, dividing
    exactly by integers only.  Each leading coefficient cancelled by H
    costs a step of the active budget.  The scaling multiplies each
    coefficient of every remainder by a nonzero constant, so the steps
    are those of the same reduction over Q.

    chi is prod (w - g(u, zeta)) over the roots zeta of h, the resultant
    Res_z(g - w, dg/dz) up to a constant (Teissier 1977; Looijenga,
    *Isolated Singular Points on Complete Intersections*, ch. 4).  The
    elimination ideal of graph + minors is the kernel of Q[u][w] -> A,
    w -> g: A is free and h monic, so it is generated by the minimal
    polynomial mu of M_g, and mu | chi | mu^m.  So chi has the
    eliminant's radical, and the same squarefree part."""
    p = len(targets)
    zero = (0,) * p
    d = max(e[z] for e in G)
    m = d - 1
    Gz = [{} for _ in range(d + 1)]  # G's coefficients in z, term dicts over the targets
    for e, c in G.items():
        Gz[e[z]][e[-p:]] = c
    L = d * Gz[d][zero]
    # Z^m = sum rule[i]*Z^i modulo H, and G~'s coefficients in Z
    rule = [{t: (-i - 1) * c * L ** (m - 1 - i) for t, c in Gz[i + 1].items()}
            for i in range(m)]
    G = [{t: c * L ** (d - k) for t, c in Gk.items()} for k, Gk in enumerate(Gz)]
    budget = _current_budget()
    R1 = _mod_monic(G, rule, budget)
    R = [R1]
    for _ in range(m - 1):
        R.append(_mod_monic(_z_product(R[-1], R1), rule, budget))
    s = [{zero: m}]
    for i in range(1, m):
        si = {t: i * c for t, c in rule[m - i].items()}
        for k in range(1, i):
            _add_product(si, rule[m - k], s[i - k])
        s.append(si)
    traces = []
    for Rk in R:
        tr = {}
        for ri, si in zip(Rk, s):
            _add_product(tr, ri, si)
        traces.append(tr)
    chi = [{zero: 1}]
    for k in range(1, m + 1):
        ck = dict(traces[k - 1])
        for i in range(1, k):
            _add_product(ck, chi[i], traces[k - i - 1])
        chi.append({t: c // -k for t, c in ck.items()})
    lam = L**d * a
    terms = {}
    for k, ck in enumerate(chi):
        den = lam**k
        for t, c in ck.items():
            terms[t[:j] + (m - k,) + t[j + 1:]] = _div(c, den)
    return Polynomial(targets, terms)


def _z_product(a, b):
    """The product of two polynomials in z, lists of term dicts by z-degree."""
    out = [{} for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for k, bk in enumerate(b):
            _add_product(out[i + k], ai, bk)
    return out


def _mod_monic(f, rule, budget):
    """f mod h, in place, for f a list of term dicts by z-degree and h
    monic of degree m = len(rule), z^m = sum rule[i]*z^i modulo h: one
    step per nonzero leading coefficient replaced."""
    m = len(rule)
    while len(f) > m:
        lc = f.pop()
        if lc:
            budget.step()
            shift = len(f) - m
            for i, ri in enumerate(rule):
                _add_product(f[shift + i], lc, ri)
    return f


def multiplicity(delta):
    """Degree of the lowest-degree homogeneous form of the discriminant
    equation at the origin."""
    if delta.is_zero():
        raise ZeroInputError("multiplicity of 0")
    if delta.constant_term() != 0:
        raise InvalidInputError("unit input: hypersurface must pass through the origin")
    return lowest_degree_form(delta).total_degree()


def line_intersection_number(delta, L):
    """Order of vanishing of delta along the parametrized line s -> s*v;
    +inf when the line lies inside the hypersurface.  delta must vanish
    at the origin, and v lie in delta's ambient space."""
    if delta.constant_term() != 0:
        raise InvalidInputError("hypersurface must pass through the origin")
    if len(L.v) != len(delta.ring):
        raise InvalidInputError("direction dimension does not match the target ring")
    s_ring = ("s",)
    s = Polynomial.variable(s_ring, "s")
    comp = delta.subs({u: c * s for u, c in zip(delta.ring, L.v)}, target_ring=s_ring)
    return order_of_vanishing(comp)


def is_generic_line(delta, L):
    """A line is generic iff it meets the hypersurface with intersection
    number equal to the multiplicity.  delta(s*v) = s^m * (form(v) + O(s))
    for the lowest-degree form of degree m, so the number is at least m,
    with equality exactly when the form does not vanish on v."""
    return line_intersection_number(delta, L) == multiplicity(delta)
