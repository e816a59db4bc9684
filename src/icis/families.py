"""Deformation analysis: specialization, critical-locus accounting,
conservation of number, splitting detection, and the Greuel-type
condition checks with their implications.

A ``DeformationFamily`` owns its samples and its fiber equations; every
check reads the samples, fibers, sample reports, cond1, cond5, cond6 and
the convergence certificate off the family; ``greuel_conditions`` adds
the curve-probe evidence.  The relative Jacobian minors are the
parametric critical ideal's generators after phi, and a lone singular
point's Milnor number is its fiber total.

Affine colengths stand in for Milnor-ball totals only when the
convergence certificate holds (every critical point collapses to the
origin as the parameter goes to zero); otherwise ball-dependent
verdicts come back inconclusive rather than wrong.  The splitting
check sums each fiber's Milnor numbers with the Le-Greuel chain of
``germs``, localized at a lone singular point or on the whole fiber.
A function family's fibers, X cut by F_t with X = V(phi), read what
the family holds.  Their singular points are critical points of f_t on
X, so the family certificate covers them.  The Le-Greuel formula
mu(X cut by F_t) + mu(X) = mu(f_t on X) gives the base total from mu0,
and the total of a lone point at the origin from its sample report.

Finite point sets are counted from colengths and eliminants
(``ideals.distinct_point_count``), with no radical: a sample report
counts its member's critical points, its local colength at the origin
bounding the count, and the splitting check counts a fiber's singular
points.  A function family's fiber points are the report's critical
ideal cut by F_t (``IdealPresentation.cut``), one cut per report that
the zero-fiber hypothesis reads too; a space family's come from the
fiber's singular ideal.

The radical questions on <phi> + J (cond5, cond6 and the zero-fiber
hypothesis) go through ``DeformationFamily.in_critical_radical``: the
points of each sample report's critical ideal are the fiber of
V(<phi> + J) over the sample, and a function that is not nilpotent
modulo that ideal (``ideals.is_nilpotent``: its cut loses a point) is
refuted at once.  Rabinowitsch (``ideals.radical_membership``) decides
what no sample refutes, so an answer never depends on the samples.
cond6 is refuted before any of these by a sample report with an
off-origin budget: its ideal has a point off the origin, which lies on
V(<phi> + J) over the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import inf

from .errors import InvalidInputError, NonIsolatedError
from .germs import (
    GermFunction,
    IcisPresentation,
    fiber_milnor_total,
    function_on_icis_milnor,
    icis_milnor,
    translate,
)
from .ideals import (
    IdealPresentation,
    critical_ideal,
    distinct_point_count,
    elimination_ideal,
    is_nilpotent,
    lone_point,
    radical_membership,
    singular_ideal,
)
from .orders import grevlex
from .poly import Polynomial, order_of_vanishing

FUNCTION = "function-deformation"
SPACE = "space-deformation"

VERIFIED = "VERIFIED"
VIOLATION = "VIOLATION"
VACUOUS = "VACUOUS"
INCONCLUSIVE = "INCONCLUSIVE"
CONSISTENT = "CONSISTENT-WITH-THEOREM"

DEFAULT_SAMPLES = (Fraction(1), Fraction(1, 2))


@dataclass
class DeformationFamily:
    """F(t, x) deforming a function germ on a fixed ICIS, or Phi(t, x)
    deforming the ICIS itself; specializing at t = 0 reproduces the base.

    The family owns its sample parameters and its fiber equations
    (``fiber_equations``, ``fiber``), so every check reads the same
    samples and the same fibers.  The quantities the checks share are
    computed once, on first use, under the step budget active then: the
    fiber at t = 0 as an ICIS (``base_fiber``), the parametric critical
    ideal and its minors, the convergence certificate (only when read),
    mu at t = 0, cond1, cond5, cond6, and the critical-locus report of
    each sample (``reports``).  The radical questions are refuted on the
    sample fibers and decided by Rabinowitsch otherwise
    (``in_critical_radical``)."""

    ring: tuple
    param: str
    kind: str
    base: IcisPresentation = None
    F: Polynomial = None
    Phi: tuple = None
    samples: tuple = DEFAULT_SAMPLES
    _fibers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ring = tuple(self.ring)
        if self.param not in self.ring:
            raise InvalidInputError(f"parameter {self.param!r} not in ring {self.ring}")
        self.samples = tuple(map(Fraction, self.samples))

    @property
    def x_ring(self):
        return tuple(v for v in self.ring if v != self.param)

    @classmethod
    def function_deformation(cls, ring, param, phi, F, samples=DEFAULT_SAMPLES):
        fam = cls(ring, param, FUNCTION, samples=samples)
        fam.base = IcisPresentation(fam.x_ring, phi)
        fam.F = F.in_ring(fam.ring)
        # the base member at t = 0 must be a genuine germ
        fam.specialize(0)
        return fam

    @classmethod
    def space_deformation(cls, ring, param, Phi, samples=DEFAULT_SAMPLES):
        fam = cls(ring, param, SPACE, samples=samples)
        fam.Phi = tuple(p.in_ring(fam.ring) for p in Phi)
        fam.base = fam.base_fiber
        return fam

    @cached_property
    def fiber_equations(self):
        """Equations of the fibers over the (t, x)-ring: phi with F for a
        function deformation, Phi for a space deformation."""
        if self.kind == FUNCTION:
            return tuple(p.in_ring(self.ring) for p in self.base.phi) + (self.F,)
        return self.Phi

    def fiber(self, t0):
        """Equations of the fiber at t0, over the x-ring: a tuple, built
        once per t0."""
        t0 = Fraction(t0)
        hit = self._fibers.get(t0)
        if hit is None:
            at = {self.param: t0}
            hit = self._fibers[t0] = tuple(p.subs(at, target_ring=self.x_ring)
                                           for p in self.fiber_equations)
        return hit

    @cached_property
    def base_fiber(self):
        """The fiber at t = 0 as an ICIS; its isolation check runs here
        once.  It is ``base`` for a space deformation."""
        return IcisPresentation(self.x_ring, self.fiber(0))

    def specialize(self, t0):
        """Exact substitution t -> t0: the member germ of a function
        deformation, a list of the fiber equations of a space deformation."""
        eqs = self.fiber(t0)
        return GermFunction(eqs[-1], self.base) if self.kind == FUNCTION else list(eqs)

    # -- quantities shared by the checks ------------------------------------

    @cached_property
    def parametric_critical_ideal(self):
        """<phi> + J(f_t, phi) in the (t, x)-ring; its zero set is
        {(t, x) : x is a critical point of f_t}."""
        if self.kind != FUNCTION:
            raise ValueError("critical ideal is defined for function deformations")
        *phi, F = self.fiber_equations
        return critical_ideal(phi, F, self.x_ring)

    @property
    def minors(self):
        """The nonzero minors of J(F, phi): the critical ideal after phi."""
        return self.parametric_critical_ideal.generators[len(self.base.phi):]

    @cached_property
    def certificate(self):
        """Convergence certificate of the parametric critical ideal; it
        does not depend on the sample."""
        return converges_to_origin(self.parametric_critical_ideal, self.param, self.x_ring)

    @cached_property
    def mu0(self):
        """Milnor number of the base member f_0 on the base ICIS."""
        return function_on_icis_milnor(self.specialize(0))

    @cached_property
    def reports(self):
        """``critical_locus_report`` at each sample, one per distinct t0."""
        once = {t0: critical_locus_report(self, t0) for t0 in dict.fromkeys(self.samples)}
        return tuple(once[t0] for t0 in self.samples)

    def in_critical_radical(self, f):
        """f lies in the radical of <phi> + J.  The critical ideal of the
        member at t0 is <phi> + J with t = t0 substituted (x-derivatives
        commute with the substitution), so its points are the fiber of
        V(<phi> + J) over t0: f(t0, x) not nilpotent there puts a point
        with f != 0 on V(<phi> + J).  Every sample report is tried so, on
        the point count it already holds; Rabinowitsch decides what none
        refutes."""
        for r in self.reports:
            if not is_nilpotent(f.subs({self.param: r.t0}, target_ring=self.x_ring), r.ideal):
                return False
        return radical_membership(f, self.parametric_critical_ideal)

    @cached_property
    def cond1(self):
        """mu at the origin is mu0 at every sample."""
        return all(r.local_mu_origin == self.mu0 for r in self.reports)

    @cached_property
    def cond5(self):
        """dF/dt lies in the radical of <phi> + J."""
        return self.in_critical_radical(self.F.diff(self.param))

    @cached_property
    def cond6(self):
        """The zero set of <phi> + J is the parameter axis.  A sample
        report with an off-origin budget has a point p != 0 in its ideal,
        and (t0, p) lies on V(<phi> + J) (``in_critical_radical``), so
        that refutes it with no radical question."""
        if any(r.off_origin_budget > 0 for r in self.reports):
            return False
        return all(
            self.in_critical_radical(Polynomial.variable(self.ring, xv))
            for xv in self.x_ring
        ) and all(
            g.subs({xv: 0 for xv in self.x_ring}, target_ring=self.ring).is_zero()
            for g in self.parametric_critical_ideal.generators
        )


@dataclass
class CriticalLocusReport:
    t0: Fraction
    total_colength: int
    local_mu_origin: int
    distinct_points: int
    ideal: IdealPresentation = field(repr=False, compare=False)

    @property
    def off_origin_budget(self):
        return self.total_colength - self.local_mu_origin


@dataclass
class CurveProbe:
    """Polynomial curve s -> (t(s), x(s)) through the origin, used as a
    necessary-condition witness for the valuation inequalities."""

    components: dict

    def __post_init__(self):
        for name, comp in self.components.items():
            if comp.ring != ("s",):
                raise InvalidInputError(
                    f"probe component for {name!r} must be univariate in s"
                )
            if comp.constant_term() != 0:
                raise InvalidInputError("probe must pass through the origin at s = 0")

    def pullback(self, f):
        s_ring = ("s",)
        bindings = {
            v: self.components.get(v, Polynomial.zero(s_ring)) for v in f.ring
        }
        return f.subs(bindings, target_ring=s_ring)


@dataclass
class ProbeResult:
    probe: CurveProbe
    numerator_order: object
    denominator_order: object
    strict: bool
    weak: bool
    on_variety: bool


@dataclass
class SplittingSample:
    t0: Fraction
    singular_count: int
    total_fiber_mu: object
    point: dict

    @property
    def point_mu(self):
        """The fiber total when one singular point carries it, else None."""
        return self.total_fiber_mu if self.singular_count == 1 else None


@dataclass
class SplittingReport:
    base_fiber_mu: int
    converges_to_origin: bool
    samples: list
    verdict: str
    reason: str


def converges_to_origin(parametric_ideal, param, x_vars):
    """Certificate that every point of the parametric locus collapses to
    the origin as the parameter goes to 0: for each coordinate x_i, some
    generator g of the eliminant in (t, x_i) specializes at t = 0 to a
    nonzero pure power of x_i of the full x_i-degree of g, so the roots
    of g(t, x_i) stay bounded and no branch escapes to infinity."""
    for xv in x_vars:
        E = elimination_ideal(parametric_ideal, [param, xv])
        i = E.ring.index(xv)
        for g in E.generators:
            g0 = g.subs({param: 0}, target_ring=(xv,))
            if len(g0.terms) == 1 and g0.total_degree() == max(e[i] for e in g.terms):
                break
        else:
            return False
    return True


def critical_locus_report(fam, t0):
    """Exact accounting of the critical locus of the member at t0;
    ``fam.reports`` keeps one per sample."""
    t0 = Fraction(t0)
    I = fam.specialize(t0).critical_ideal()
    total = I.colength(grevlex(fam.x_ring))
    if total == inf:
        raise NonIsolatedError(f"critical ideal at t={t0} is not zero-dimensional")
    local = I.local_colength()
    distinct = distinct_point_count(I)
    return CriticalLocusReport(t0, total, local, distinct, I)


def conservation_check(fam):
    """Total colength at each sampled parameter equals the Milnor number
    of the base member.  Without the convergence certificate affine
    totals do not represent Milnor-ball totals: INCONCLUSIVE."""
    mu0, reports = fam.mu0, fam.reports
    if not fam.certificate:
        return INCONCLUSIVE
    return all(r.total_colength == mu0 for r in reports)


def splitting_check(fam):
    """No-coalescence check: when the total fiber Milnor number stays
    equal to the base value, there must be exactly one singular point
    and it must carry the full Milnor number.  A lone singular point is
    rational (``lone_point``): it is moved to the origin for
    ``icis_milnor``.  Two or more are summed over the closure by
    ``fiber_milnor_total``.

    A function family's fiber singular ideal is its sample's critical
    ideal plus <F_t>, so the family certificate covers its points; only
    a false one sends the check to the singular ideal's own.  By
    Le-Greuel, mu(X cut by F_t) = mu(f_t on X) - mu(X) at the origin:
    the base total is ``mu0`` - mu(X), and a lone point at the origin
    carries its report's ``local_mu_origin`` - mu(X).  The points are
    those of the report's critical ideal cut by F_t
    (``IdealPresentation.cut``)."""
    x_ring = fam.x_ring

    def singular_certificate():
        return converges_to_origin(singular_ideal(fam.fiber_equations, x_ring), fam.param, x_ring)

    if fam.kind == FUNCTION:
        if len(fam.fiber_equations) > len(x_ring):
            raise InvalidInputError("F cuts a zero-dimensional base: its fibers are "
                                    "not complete intersections")
        mu_X = icis_milnor(fam.base)
        base_mu = fam.mu0 - mu_X
        conv = fam.certificate or singular_certificate()
        results = [
            _splitting_sample(fam, r.t0, r.ideal.cut(fam.fiber(r.t0)[-1]),
                              r.local_mu_origin - mu_X)
            for r in fam.reports
        ]
    else:
        base_mu = icis_milnor(fam.base_fiber)
        conv = singular_certificate()
        results = []
        for t0 in fam.samples:
            sing = singular_ideal(fam.fiber(t0), x_ring)
            if sing.colength(grevlex(x_ring)) == inf:
                raise NonIsolatedError(f"fiber at t={t0} has non-isolated singularities")
            results.append(_splitting_sample(fam, t0, sing))

    if not conv:
        verdict, reason = INCONCLUSIVE, (
            "no convergence certificate: some singular point may escape the "
            "Milnor ball as t goes to 0")
    elif any(r.total_fiber_mu != base_mu for r in results):
        verdict, reason = VACUOUS, (
            "total fiber Milnor number is not constant; the theorem's "
            "hypothesis fails")
    elif base_mu == 0:
        verdict, reason = VACUOUS, "base fiber is smooth; the theorem concerns singular germs"
    elif all(r.singular_count == 1 for r in results):
        # every total is base_mu here, so a lone point carries all of it
        verdict, reason = CONSISTENT, (
            "constant total Milnor number with a unique singular point "
            "carrying the full Milnor number")
    else:
        verdict, reason = VIOLATION, (
            "constant total Milnor number with splitting: this contradicts the "
            "no-coalescence theorem and indicates a computation bug")
    return SplittingReport(base_mu, conv, results, verdict, reason)


def _splitting_sample(fam, t0, sing, origin_total=None):
    """The singular points of the fiber at t0, which are V(sing), and
    their Milnor total; ``origin_total`` is the total of a lone point at
    the origin when the caller already has it."""
    x_ring, eqs = fam.x_ring, fam.fiber(t0)
    count = distinct_point_count(sing)
    point = None
    if count == 0:
        total = 0
    elif count == 1:
        point = lone_point(sing)
        if origin_total is not None and not any(point.values()):
            total = origin_total
        else:
            # sing is zero-dimensional, so the moved point is isolated
            total = icis_milnor(IcisPresentation(x_ring, translate(eqs, point)))
    else:
        total = fiber_milnor_total(eqs, x_ring)
    return SplittingSample(t0, count, total, point)


def greuel_conditions(fam, probes=()):
    """Curve-probe evidence for the valuation inequalities, one
    ``ProbeResult`` per probe; the conditions themselves are
    ``fam.cond1``, ``fam.cond5`` and ``fam.cond6``."""
    if fam.kind != FUNCTION:
        raise ValueError("Greuel conditions apply to function deformations")
    dFdt = fam.F.diff(fam.param)
    results = []
    for probe in probes:
        on_variety = all(
            probe.pullback(p.in_ring(fam.ring)).is_zero() for p in fam.base.phi
        )
        num = order_of_vanishing(probe.pullback(dFdt))
        den = min(order_of_vanishing(probe.pullback(g)) for g in fam.minors)
        results.append(ProbeResult(probe, num, den, num > den, num >= den, on_variety))
    return results


def radical_implies_axis_check(fam):
    """If dF/dt is in the radical of <phi> + J then the zero set of J is
    the parameter axis; checked instance-wise."""
    if not fam.cond5:
        return VERIFIED, {"cond5": False, "cond6": None}
    details = {"cond5": True, "cond6": fam.cond6}
    if fam.cond6:
        return VERIFIED, details
    return _refutation(fam, details)


def zero_fiber_forces_origin_check(fam):
    """If every critical point of every member lies on its zero fiber
    (F vanishes on the critical locus), then each member's only critical
    point is the origin.  The sample reports can refute the hypothesis."""
    hypothesis = fam.in_critical_radical(fam.F)
    details = {"hypothesis": hypothesis, "samples": {}}
    if not hypothesis:
        return VACUOUS, details
    for r in fam.reports:
        # the affine total equals the local colength at 0 exactly when
        # every critical point is the origin
        at_origin = r.off_origin_budget == 0
        details["samples"][r.t0] = {"count": r.distinct_points, "at_origin": at_origin}
    if all(s["at_origin"] for s in details["samples"].values()):
        return VERIFIED, details
    return _refutation(fam, details)


def _refutation(fam, details):
    """A counterexample found on the affine locus refutes the germ
    statement only under the convergence certificate; without it, it
    may be an affine artifact."""
    if not fam.certificate:
        details["certificate"] = False
        return INCONCLUSIVE, details
    return VIOLATION, details
