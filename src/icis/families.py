"""Deformation analysis: critical-locus accounting, conservation of
number, splitting detection, and the Greuel-type condition checks with
their implications.

A ``DeformationFamily`` is built from its equations and owns its
samples and its fiber equations ``Phi``; every check reads the samples,
fibers, sample reports, cond1, cond5, cond6 and the convergence
certificate off the family; ``greuel_conditions`` adds the curve-probe
evidence.  The relative Jacobian minors are the parametric critical
ideal's generators after phi, and a lone singular point's Milnor number
is its fiber total.

Each check returns its entry of the report record, and
``critical_locus_report`` a sample's: plain dicts, lists and values
that ``cli`` stores as returned.

Affine colengths stand in for Milnor-ball totals only when the
convergence certificate holds (every critical point collapses to the
origin as the parameter goes to zero); otherwise ball-dependent
verdicts come back inconclusive rather than wrong.  The splitting
check sums each fiber's Milnor numbers with the Le-Greuel chain of
``germs``, localized at a lone singular point or on the whole fiber.
A function family's fibers are X cut by F_t, X = V(phi): their singular
points are critical points of f_t on X, so the family certificate
covers them, and their chains run through X's stage memo
(``icis_milnor``), which holds each member's critical ideal.

Finite point sets are counted from colengths and eliminants
(``ideals.distinct_point_count``), with no radical: a sample report
counts its member's critical points, its local colength at the origin
bounding the count, and the splitting check counts a fiber's singular
points.  A function family's fiber points are the member's critical
ideal cut by F_t (``IdealPresentation.cut``), one cut per sample that
the zero-fiber hypothesis reads too; a space family's come from the
fiber's singular ideal.

The radical questions on <phi> + J (cond5, cond6 and the zero-fiber
hypothesis) go through ``DeformationFamily.in_critical_radical``: the
points of each sample member's critical ideal are the fiber of
V(<phi> + J) over the sample, and a function that is not nilpotent
modulo that ideal (``ideals.is_nilpotent``: its cut loses a point) is
refuted at once.  Rabinowitsch (``ideals.radical_membership``) decides
what no sample refutes, so an answer never depends on the samples.
cond6 is refuted before any of these by a sample report with an
off-origin budget: its ideal has a point off the origin, which lies on
V(<phi> + J) over the sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    critical_ideal,
    distinct_point_count,
    elimination_ideal,
    is_nilpotent,
    lone_point,
    radical_membership,
    singular_ideal,
)
from .poly import Polynomial, order_of_vanishing

FUNCTION = "function-deformation"
SPACE = "space-deformation"

VERIFIED = "VERIFIED"
VIOLATION = "VIOLATION"
VACUOUS = "VACUOUS"
INCONCLUSIVE = "INCONCLUSIVE"
CONSISTENT = "CONSISTENT-WITH-THEOREM"

DEFAULT_SAMPLES = (Fraction(1), Fraction(1, 2))


class DeformationFamily:
    """F(t, x) deforming a function germ on a fixed ICIS X = V(phi), of
    kind FUNCTION, or with no F, phi(t, x) deforming the ICIS itself, of
    kind SPACE.  The family owns its sample parameters and its fiber
    equations over the (t, x)-ring, ``Phi``: phi with F for a function
    deformation.  So every check reads the same samples and the same
    fibers (``fiber``).  ``base`` is X of a function deformation, whose
    phi must not hold t, and the fiber at t = 0 of a space deformation,
    its isolation check run once.  The function-family quantities the
    checks share are computed once, on first use, under the step budget
    active then: the parametric critical ideal and its minors, the
    convergence certificate (only when read), mu at t = 0, cond1, cond5,
    cond6, and the critical-locus report of each sample (``reports``).
    The radical questions are refuted on the sample fibers and decided
    by Rabinowitsch otherwise (``in_critical_radical``)."""

    def __init__(self, ring, param, phi, F=None, samples=DEFAULT_SAMPLES):
        self.ring, self.param = tuple(ring), param
        if param not in self.ring:
            raise InvalidInputError(f"parameter {param!r} not in ring {self.ring}")
        self.x_ring = tuple(v for v in self.ring if v != param)
        self.samples = tuple(map(Fraction, samples))
        self.F, self._fibers = None, {}
        if F is None:
            self.Phi = tuple(p.in_ring(self.ring) for p in phi)
            self.base = IcisPresentation(self.x_ring, self.fiber(0))
            return
        if any(param in p.variables_used() for p in phi):
            raise InvalidInputError(f"phi holds the parameter {param!r}: a function "
                                    "family deforms F on a fixed ICIS X = V(phi)")
        self.base = IcisPresentation(self.x_ring, phi)
        self.F = F.in_ring(self.ring)
        self.Phi = tuple(p.in_ring(self.ring) for p in self.base.phi) + (self.F,)
        # the base member at t = 0 must be a genuine germ
        GermFunction(self.fiber(0)[-1], self.base)
        # X cut by F_t is an ICIS only where X has positive dimension
        if len(self.Phi) > len(self.x_ring):
            raise InvalidInputError("F cuts a zero-dimensional base: its fibers are "
                                    "not complete intersections")

    @property
    def kind(self):
        return SPACE if self.F is None else FUNCTION

    def fiber(self, t0):
        """Equations of the fiber at t0, over the x-ring: a tuple, built
        once per t0."""
        t0 = Fraction(t0)
        hit = self._fibers.get(t0)
        if hit is None:
            at = {self.param: t0}
            hit = self._fibers[t0] = tuple(p.subs(at, target_ring=self.x_ring)
                                           for p in self.Phi)
        return hit

    def _function_only(self, what):
        """Refuse ``what`` on a space deformation, which has no F."""
        if self.F is None:
            raise InvalidInputError(f"{what} is defined for function deformations only")

    # -- quantities shared by the checks ------------------------------------

    @cached_property
    def parametric_critical_ideal(self):
        """<phi> + J(f_t, phi) in the (t, x)-ring; its zero set is
        {(t, x) : x is a critical point of f_t}."""
        self._function_only("the parametric critical ideal")
        *phi, F = self.Phi
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
        self._function_only("mu at t = 0")
        return function_on_icis_milnor(GermFunction(self.fiber(0)[-1], self.base))

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
        self._function_only("the radical of <phi> + J")
        for r in self.reports:
            I = self.base.stage(self.fiber(r["t0"]))
            if not is_nilpotent(f.subs({self.param: r["t0"]}, target_ring=self.x_ring), I):
                return False
        return radical_membership(f, self.parametric_critical_ideal)

    @cached_property
    def cond1(self):
        """mu at the origin is mu0 at every sample."""
        return all(r["mu_origin"] == self.mu0 for r in self.reports)

    @cached_property
    def cond5(self):
        """dF/dt lies in the radical of <phi> + J."""
        self._function_only("cond5")
        return self.in_critical_radical(self.F.diff(self.param))

    @cached_property
    def cond6(self):
        """The zero set of <phi> + J is the parameter axis.  A sample
        report with an off-origin budget has a point p != 0 in its ideal,
        and (t0, p) lies on V(<phi> + J) (``in_critical_radical``), so
        that refutes it with no radical question."""
        if any(r["off_origin_budget"] > 0 for r in self.reports):
            return False
        return all(
            self.in_critical_radical(Polynomial.variable(self.ring, xv))
            for xv in self.x_ring
        ) and all(
            g.subs({xv: 0 for xv in self.x_ring}, target_ring=self.ring).is_zero()
            for g in self.parametric_critical_ideal.generators
        )


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
    """Exact accounting of the critical locus of the member at t0, the
    fiber's stage in X's memo (no germ: f_t0 need not vanish at 0), which
    keeps the ideal; ``fam.reports`` keeps one entry per sample."""
    fam._function_only("a critical-locus report")
    t0 = Fraction(t0)
    I = fam.base.stage(fam.fiber(t0))
    total = NonIsolatedError.unless_finite(
        I.colength(), "critical ideal at t={} is not zero-dimensional", t0)
    local = I.local_colength()
    return {"t0": t0, "mu_origin": local, "total_colength": total,
            "off_origin_budget": total - local, "distinct_points": distinct_point_count(I)}


def conservation_check(fam):
    """Total colength at each sampled parameter equals the Milnor number
    of the base member.  Without the convergence certificate affine
    totals do not represent Milnor-ball totals: None (inconclusive)."""
    mu0, reports = fam.mu0, fam.reports
    if not fam.certificate:
        return None
    return all(r["total_colength"] == mu0 for r in reports)


def splitting_check(fam):
    """No-coalescence check: when the total fiber Milnor number stays
    equal to the base value, there must be exactly one singular point
    and it must carry the full Milnor number.  A lone singular point is
    rational (``lone_point``): the fiber is moved there, unless it is the
    origin, and its total is ``icis_milnor`` of ``fam.base`` on the
    fiber's equations.  Two or more are summed over the closure by
    ``fiber_milnor_total``.  A sample's ``point_mu`` is its total when
    one point carries it.

    The kind decides the singular points and the certificate.  A
    function family's fiber singular ideal is its member's critical
    ideal plus <F_t> (``IdealPresentation.cut``), so the family
    certificate covers its points; only a false one sends the check to
    the fiber singular ideal's own, which a space family always reads.
    The chain of a function family's fiber runs through X's stages and
    ends in the member's critical ideal, which ``mu0`` and the sample
    reports already localized."""
    x_ring = fam.x_ring
    if fam.kind == FUNCTION:
        # f_0 is isolated on X, so the base fiber is an ICIS
        fam.mu0
    base_mu = icis_milnor(fam.base, eqs=fam.fiber(0))
    conv = (fam.kind == FUNCTION and fam.certificate) or converges_to_origin(
        singular_ideal(fam.Phi, x_ring), fam.param, x_ring)
    samples = []
    for t0 in fam.samples:
        eqs = fam.fiber(t0)
        if fam.kind == FUNCTION:
            sing = fam.base.stage(eqs).cut(eqs[-1])
        else:
            sing = singular_ideal(eqs, x_ring)
            NonIsolatedError.unless_finite(
                sing.colength(), "fiber at t={} has non-isolated singularities", t0)
        count, total = distinct_point_count(sing), 0
        if count == 1:
            point = lone_point(sing)
            moved = translate(eqs, point) if any(point.values()) else eqs
            # sing is zero-dimensional, so the point is isolated
            total = icis_milnor(fam.base, eqs=moved)
        elif count > 1:
            total = fiber_milnor_total(eqs, x_ring)
        samples.append({"t0": t0, "count": count, "total_fiber_mu": total,
                        "point_mu": total if count == 1 else None})

    if not conv:
        verdict, reason = INCONCLUSIVE, (
            "no convergence certificate: some singular point may escape the "
            "Milnor ball as t goes to 0")
    elif any(s["total_fiber_mu"] != base_mu for s in samples):
        verdict, reason = VACUOUS, (
            "total fiber Milnor number is not constant; the theorem's "
            "hypothesis fails")
    elif base_mu == 0:
        verdict, reason = VACUOUS, "base fiber is smooth; the theorem concerns singular germs"
    elif all(s["count"] == 1 for s in samples):
        # every total is base_mu here, so a lone point carries all of it
        verdict, reason = CONSISTENT, (
            "constant total Milnor number with a unique singular point "
            "carrying the full Milnor number")
    else:
        verdict, reason = VIOLATION, (
            "constant total Milnor number with splitting: this contradicts the "
            "no-coalescence theorem and indicates a computation bug")
    return {"verdict": verdict, "base_fiber_mu": base_mu, "converges_to_origin": conv,
            "samples": samples, "reason": reason}


def greuel_conditions(fam, probes=()):
    """Curve-probe evidence for the valuation inequalities, one entry per
    probe; the conditions themselves are ``fam.cond1``, ``fam.cond5``
    and ``fam.cond6``."""
    fam._function_only("the Greuel conditions")
    dFdt = fam.F.diff(fam.param)
    entries = []
    for probe in probes:
        on_variety = all(probe.pullback(p).is_zero() for p in fam.Phi[:-1])
        num = order_of_vanishing(probe.pullback(dFdt))
        den = min(order_of_vanishing(probe.pullback(g)) for g in fam.minors)
        entries.append({"nu_numerator": num, "nu_denominator": den, "strict": num > den,
                        "weak": num >= den, "on_variety": on_variety})
    return entries


def radical_implies_axis_check(fam):
    """If dF/dt is in the radical of <phi> + J then the zero set of J is
    the parameter axis; checked instance-wise, next to cond5 and cond6."""
    if not fam.cond5:
        return {"verdict": VERIFIED, "cond5": False, "cond6": None}
    entry = {"cond5": True, "cond6": fam.cond6}
    entry["verdict"] = VERIFIED if fam.cond6 else _refutation(fam, entry)
    return entry


def zero_fiber_forces_origin_check(fam):
    """If every critical point of every member lies on its zero fiber
    (F vanishes on the critical locus), then each member's only critical
    point is the origin.  The sample reports can refute the hypothesis."""
    hypothesis = fam.in_critical_radical(fam.F)
    details = {"hypothesis": hypothesis, "samples": {}}
    if not hypothesis:
        return {"verdict": VACUOUS, "details": details}
    for r in fam.reports:
        # the affine total equals the local colength at 0 exactly when
        # every critical point is the origin
        at_origin = r["off_origin_budget"] == 0
        details["samples"][r["t0"]] = {"count": r["distinct_points"], "at_origin": at_origin}
    verdict = (VERIFIED if all(s["at_origin"] for s in details["samples"].values())
               else _refutation(fam, details))
    return {"verdict": verdict, "details": details}


def _refutation(fam, details):
    """A counterexample found on the affine locus refutes the germ
    statement only under the convergence certificate; without it, it
    may be an affine artifact, and ``details`` says so."""
    if not fam.certificate:
        details["certificate"] = False
        return INCONCLUSIVE
    return VIOLATION
