"""Ideal-level constructions: Jacobian matrices and minors, elimination
and radical membership.

An ``IdealPresentation`` is the one memo of its ideal: its basis per
order, its local colength at the origin and its radical, each computed
once.  A Milnor chain stage is such an ideal.

Critical and singular ideals have one builder, ``critical_ideal``; a
singular ideal is the critical ideal of its last equation, plus it, and
the relative Jacobian ideal J(F, phi) of a family is read off the
critical ideal over the (t, x)-ring in the x-variables.

A zero-dimensional ideal I has one radical, built once and cached
(``IdealPresentation.radical``): I plus the squarefree part of each
eliminant with a repeated factor (Seidenberg's lemma), or I itself when
there is none.  The eliminant in v is the minimal polynomial of
multiplication by v on Q[x]/I, read off I's cached reduced grevlex basis
by single-variable FGLM (``univariate_eliminant``), so point accounting
completes grevlex bases only.  ``elimination_ideal`` is
``basis.eliminate`` under a block order: the linear variables are
substituted away first and only the elimination ideal's rows are
finished, so no full block basis is built or cached.  The questions on the
finite set V(I) all read the radical: the number of its points is its
colength (``distinct_point_count``), f vanishes on it when f reduces to
zero modulo the radical (``is_nilpotent``), and a lone point is read off
the radical's reduced basis {v - c_v} (``lone_point``).  The radical of
I + <f> is rad(I) + <f> (``radical_plus``), so a cut of I's points
needs no eliminant of its own; it is completed from the radical's reduced
grevlex basis plus f."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import inf

from . import basis as _basis
from .errors import NonIsolatedError, UnknownVariableError, ZeroInputError
from .orders import elimination_order, grevlex
from .poly import Polynomial, fresh_variable, squarefree_part


@dataclass
class IdealPresentation:
    ring: tuple
    generators: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __init__(self, ring, generators):
        self.ring = tuple(ring)
        gens = []
        for g in generators:
            if g.ring != self.ring:
                g = g.in_ring(self.ring)
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._cache = {}

    def basis(self, order):
        hit = self._cache.get(order)
        if hit is None:
            hit = _basis.complete_basis(self.generators, order)
            self._cache[order] = hit
        return hit

    def colength(self, order):
        return _basis.colength(self.basis(order))

    def local_colength(self):
        """dim O/I in the local ring O at the origin (``basis.local_colength``),
        computed once."""
        hit = self._cache.get("local")
        if hit is None:
            hit = self._cache["local"] = _basis.local_colength(self.generators, self.ring)
        return hit

    def radical(self):
        """The radical of a zero-dimensional I: I plus the squarefree part
        of its eliminant in each variable, over a perfect field
        (Cox-Little-O'Shea, *Using Algebraic Geometry*, ch. 2 sec. 2).
        Only parts of lower degree than their eliminant are adjoined; with
        none, I is its own radical, as is the unit ideal.  The parts are
        adjoined to I's reduced grevlex basis rather than to I's
        generators: the same ideal, so the same reduced basis."""
        hit = self._cache.get("radical")
        if hit is None:
            c = self.colength(grevlex(self.ring))
            if c == inf:
                raise NonIsolatedError("the radical needs a zero-dimensional ideal")
            hit = self
            if c:
                shrunk = []
                for v in self.ring:
                    e = univariate_eliminant(self, v)
                    r = squarefree_part(e)
                    if r.total_degree() < e.total_degree():
                        shrunk.append(r.in_ring(self.ring))
                if shrunk:
                    reduced = self.basis(grevlex(self.ring)).generators
                    hit = IdealPresentation(self.ring, reduced + tuple(shrunk))
            self._cache["radical"] = hit
        return hit

    def radical_plus(self, extra):
        """The radical of I + <extra> for a zero-dimensional I: rad(I) +
        <extra>, with no eliminant.  Q[x]/rad(I) is a product of fields,
        so each of its quotients is reduced and the sum is its own
        radical; it is cached as such.  It is presented by the radical's
        reduced grevlex basis plus ``extra``, so its completion starts
        from a basis and does not redo the radical's."""
        reduced = self.radical().basis(grevlex(self.ring)).generators
        hit = IdealPresentation(self.ring, reduced + tuple(extra))
        hit._cache["radical"] = hit
        return hit

    def plus(self, extra):
        return IdealPresentation(self.ring, list(self.generators) + list(extra))


def jacobian_matrix(maps, variables):
    """Rows indexed by maps, columns by variables; entry = d(map)/d(var)."""
    maps = list(maps)
    variables = list(variables)
    if not maps or not variables:
        raise ZeroInputError("empty maps or variables")
    ring = maps[0].ring
    for v in variables:
        if v not in ring:
            raise UnknownVariableError(f"{v!r} not in ring {ring}")
    return [[f.diff(v) for v in variables] for f in maps]


def determinant(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = None
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = entry * determinant(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return Polynomial.zero(matrix[0][0].ring)
    return total


def maximal_minors(matrix):
    """All determinants of maximal square submatrices (size = min(r, c))."""
    rows, cols = len(matrix), len(matrix[0])
    if rows > cols:
        matrix = [[matrix[i][j] for i in range(rows)] for j in range(cols)]
        rows, cols = cols, rows
    out = []
    for col_idx in combinations(range(cols), rows):
        sub = [[row[j] for j in col_idx] for row in matrix]
        out.append(determinant(sub))
    return out


def critical_ideal(phi, f, variables):
    """<phi> plus the maximal minors of the Jacobian of (phi, f) in
    ``variables``, over f's ring: the critical points of f on V(phi)."""
    phi = list(phi)
    return IdealPresentation(f.ring, phi + maximal_minors(jacobian_matrix(phi + [f], variables)))


def singular_ideal(eqs, variables):
    """<eqs> plus the maximal minors of their Jacobian in ``variables``:
    the singular points of V(eqs)."""
    *phi, f = eqs
    return critical_ideal(phi, f, variables).plus([f])


def elimination_ideal(I, keep):
    """The intersection of I with the subring in the kept variables,
    presented over the kept-variable ring by its reduced basis under
    grevlex (``basis.eliminate``)."""
    keep = [v for v in I.ring if v in set(keep)]
    eliminate = [v for v in I.ring if v not in set(keep)]
    if not eliminate:
        return IdealPresentation(keep, list(I.generators))
    order = elimination_order(I.ring, eliminate)
    return IdealPresentation(tuple(keep), _basis.eliminate(I.generators, order))


def radical_membership(f, I):
    """f in the radical of I, i.e. f vanishes on V(I) over the closure.

    Decided by adjoining a fresh variable z and testing whether
    1 lies in I + <1 - z*f> under a global order."""
    if f.is_zero():
        return True
    tag = fresh_variable(I.ring, "_z")
    big = I.ring + (tag,)
    z = Polynomial.variable(big, tag)
    one = Polynomial.constant(big, 1)
    gens = [g.in_ring(big) for g in I.generators]
    gens.append(one - z * f.in_ring(big))
    sb = _basis.complete_basis(gens, grevlex(big))
    return any(g.is_constant() and not g.is_zero() for g in sb.generators)


def is_nilpotent(f, I):
    """f is nilpotent in Q[x]/I for a zero-dimensional I, i.e. f vanishes
    on the finite set V(I): f reduces to zero modulo I's radical."""
    return _basis.normal_form(f, I.radical().basis(grevlex(I.ring))).is_zero()


def univariate_eliminant(I, var):
    """Monic generator of I meeting Q[var], over the ring (var,), for a
    zero-dimensional I; 1 for the unit ideal.  It is the minimal
    polynomial of multiplication by ``var`` on Q[x]/I, read off I's cached
    reduced grevlex basis by single-variable FGLM
    (``basis.minimal_polynomial``): no elimination order is completed.
    A positive-dimensional I raises ``NonIsolatedError``."""
    return _basis.minimal_polynomial(I.basis(grevlex(I.ring)), var)


def distinct_point_count(I):
    """Number of distinct points of V(I) over the algebraic closure, for
    a zero-dimensional I: the colength of its radical."""
    return I.radical().colength(grevlex(I.ring))


def lone_point(I):
    """The point of V(I) when it is the only one over the closure.  It is
    rational, since its conjugates are points too, so the radical is the
    maximal ideal whose reduced basis is {v - c_v}."""
    sb = I.radical().basis(grevlex(I.ring))
    return {v: -g.constant_term() for g in sb.generators for v in g.variables_used()}
