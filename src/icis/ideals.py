"""Ideal-level constructions: Jacobian matrices and minors, elimination
and radical membership.

An ``IdealPresentation`` is the one memo of its ideal: its reduced
grevlex basis, its local colength at the origin, its eliminants, its
point count, its radical and its sums I + <extra> (``plus``, the one way
to extend it), each computed once.  A Milnor chain stage is such an ideal.

Critical and singular ideals have one builder, ``critical_ideal``; a
singular ideal is the critical ideal of its last equation, plus it, and
the relative Jacobian ideal J(F, phi) of a family is read off the
critical ideal over the (t, x)-ring in the x-variables.

The eliminant in v of a zero-dimensional ideal I is the minimal
polynomial of multiplication by v on Q[x]/I, read off I's cached
reduced grevlex basis by single-variable FGLM (``univariate_eliminant``),
so point accounting completes grevlex bases only.  ``elimination_ideal``
is ``basis.eliminate`` under a block order: the linear variables are
substituted away first and only the elimination ideal's rows are
finished, so no full block basis is built or cached.

The questions on the finite set V(I) read colengths and eliminants.  The
number of points (``distinct_point_count``) lies between the largest
number of distinct roots of an eliminant and the smallest of the
colength, the product of those numbers and, when the origin is a point
whose local colength is known, the colength less the origin's share plus
one; the eliminants are taken until the bounds meet.  f vanishes on V(I)
when cutting by f keeps every point (``is_nilpotent``, on the cached
cut I + <f>), and a lone point is the origin or the roots of the linear
squarefree eliminants (``lone_point``).  Only bounds that never meet
complete the radical (``IdealPresentation.radical``): I plus the
squarefree part of each eliminant with a repeated factor (Seidenberg's
lemma)."""

from __future__ import annotations

from itertools import combinations

from . import basis as _basis
from .errors import NonIsolatedError, UnknownVariableError, ZeroInputError
from .orders import elimination_order, grevlex
from .poly import Polynomial, fresh_variable, squarefree_part


class IdealPresentation:
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

    def basis(self):
        """I's reduced grevlex basis, completed once.  A block order
        completes through ``basis.eliminate`` (``elimination_ideal``)."""
        hit = self._cache.get("grevlex")
        if hit is None:
            hit = self._cache["grevlex"] = _basis.complete_basis(self.generators,
                                                                 grevlex(self.ring))
        return hit

    def colength(self):
        return _basis.colength(self.basis())

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
        adjoined by ``plus`` to I's reduced grevlex basis, which the
        eliminants completed."""
        hit = self._cache.get("radical")
        if hit is None:
            hit = self
            if _points_colength(self):
                shrunk = []
                for v in self.ring:
                    e, r = _squarefree_eliminant(self, v)
                    if r.total_degree() < e.total_degree():
                        shrunk.append(r.in_ring(self.ring))
                if shrunk:
                    hit = self.plus(shrunk)
            self._cache["radical"] = hit
        return hit

    def plus(self, extra):
        """I + <extra>, built once per tuple of polynomials: from I's reduced
        grevlex basis when I has completed one, so its completion does not
        redo I's, and from I's generators otherwise."""
        key = ("plus", tuple(extra))
        hit = self._cache.get(key)
        if hit is None:
            done = self._cache.get("grevlex", self)
            hit = self._cache[key] = IdealPresentation(self.ring, done.generators + key[1])
        return hit


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
    return critical_ideal(phi, f, variables).plus((f,))


def elimination_ideal(I, keep):
    """The intersection of I with the subring in the kept variables,
    presented over the kept-variable ring by its reduced basis under
    grevlex (``basis.eliminate``)."""
    keep = [v for v in I.ring if v in set(keep)]
    eliminate = [v for v in I.ring if v not in set(keep)]
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
    on the finite set V(I): the cut by f keeps every point, #V(I + <f>) =
    #V(I).  No cut is counted when f is 0, when f(0) != 0 and the origin
    is a point, or when f is c*v^k: v vanishes on V(I) exactly when its
    eliminant's only root is 0, i.e. the eliminant is a power of v."""
    _points_colength(I)
    if f.is_zero():
        return True
    if f.constant_term() and _has_origin(I):
        return False
    used = f.variables_used()
    if len(f.terms) == 1 and len(used) == 1:
        return len(_squarefree_eliminant(I, used.pop())[0].terms) == 1
    return distinct_point_count(I.plus((f,))) == distinct_point_count(I)


def univariate_eliminant(I, var):
    """Monic generator of I meeting Q[var], over the ring (var,), for a
    zero-dimensional I; 1 for the unit ideal.  It is the minimal
    polynomial of multiplication by ``var`` on Q[x]/I, read off I's cached
    reduced grevlex basis by single-variable FGLM
    (``basis.minimal_polynomial``): no elimination order is completed.
    A positive-dimensional I raises ``NonIsolatedError``."""
    return _basis.minimal_polynomial(I.basis(), var)


def distinct_point_count(I):
    """Number N of distinct points of V(I) over the algebraic closure, for
    a zero-dimensional I; counted once per ideal.

    N is pinned between two certified bounds.  Let c be I's grevlex
    colength and L_v the degree of the squarefree part of I's eliminant in
    v, the number of distinct v-coordinates.  Then max_v L_v <= N <=
    min(c, prod_v L_v).  When the origin is a point and I's local
    colength mu0 there is already known (``IdealPresentation.local_colength``,
    which a sample report computes), the other points share c - mu0, so
    N <= c - mu0 + 1, and N >= 2 when c > mu0; mu0 is not computed for
    this, as one eliminant usually settles a cut for fewer steps.  The
    eliminants are taken one variable at a time until the bounds meet;
    when they never do, N is the colength of I's radical
    (``IdealPresentation.radical``), built from the same eliminants."""
    hit = I._cache.get("points")
    if hit is None:
        c = _points_colength(I)
        low, high = min(c, 1), c
        mu0 = I._cache.get("local")
        if c and mu0 is not None and _has_origin(I):
            low, high = 1 + (c > mu0), c - mu0 + 1
        product = 1
        for n, v in enumerate(I.ring, 1):
            if low == high:
                break
            L = _squarefree_eliminant(I, v)[1].total_degree()
            low, product = max(low, L), product * L
            if n == len(I.ring):
                high = min(high, product)
        if low != high:
            low = I.radical().colength()
        hit = I._cache["points"] = low
    return hit


def lone_point(I):
    """The point of V(I) when it is the only one over the closure: the
    origin when it lies on V(I), else the root c_v of the squarefree part
    v - c_v of each eliminant.  It is rational, since its conjugates are
    points too."""
    if _has_origin(I):
        return {v: 0 for v in I.ring}
    return {v: -_squarefree_eliminant(I, v)[1].constant_term() for v in I.ring}


def _points_colength(I):
    """I's grevlex colength; a positive-dimensional I raises
    ``NonIsolatedError``."""
    return NonIsolatedError.unless_finite(
        I.colength(), "point accounting needs a zero-dimensional ideal")


def _has_origin(I):
    """The origin lies on V(I): every generator vanishes there."""
    return not any(g.constant_term() for g in I.generators)


def _squarefree_eliminant(I, v):
    """I's eliminant in v and its squarefree part, computed once per
    ideal and variable."""
    key = ("eliminant", v)
    hit = I._cache.get(key)
    if hit is None:
        e = univariate_eliminant(I, v)
        hit = I._cache[key] = e, squarefree_part(e)
    return hit
