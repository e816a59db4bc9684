import hashlib
import json
import sys
from fractions import Fraction
from math import inf
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from icis import basis, families
from icis.cli import CHECKS, _family, _jsonable, main, run_problem
from icis.errors import BudgetExhaustedError, InvalidInputError, NonIsolatedError
from icis.families import (
    CONSISTENT,
    DEFAULT_SAMPLES,
    INCONCLUSIVE,
    VACUOUS,
    VERIFIED,
    VIOLATION,
    CurveProbe,
    DeformationFamily,
    conservation_check,
    converges_to_origin,
    zero_fiber_forces_origin_check,
    critical_locus_report,
    greuel_conditions,
    splitting_check,
    radical_implies_axis_check,
)
from icis.germs import GermFunction, IcisPresentation, fiber_milnor_total, icis_milnor, translate
from icis.ideals import (
    IdealPresentation,
    distinct_point_count,
    is_nilpotent,
    jacobian_matrix,
    lone_point,
    maximal_minors,
    radical_membership,
    singular_ideal,
)
from icis.poly import Polynomial, format_poly
from icis.problem import parse_problem

from family_suite import FUNCTION_CASES, RING, SPACE_CASES, t, x, y

S = ("s",)
s = Polynomial.variable(S, "s")


def _case_id(case):
    return case.name


@pytest.fixture(scope="module")
def suite_families():
    return {case.name: case.family() for case in FUNCTION_CASES}


class TestGreuelConditions:
    @pytest.mark.parametrize("case", FUNCTION_CASES, ids=_case_id)
    def test_condition_flags(self, case, suite_families):
        fam = suite_families[case.name]
        assert fam.cond1 == case.cond1
        assert fam.cond5 == case.cond5
        assert fam.cond6 == case.cond6
        assert fam.mu0 == case.mu_origin_base
        assert all(r["total_colength"] == case.totals for r in fam.reports)

    @pytest.mark.parametrize("case", FUNCTION_CASES, ids=_case_id)
    def test_radical_implies_variety_condition(self, case, suite_families):
        # the implication cond5 => cond6 must never be refuted
        fam = suite_families[case.name]
        assert radical_implies_axis_check(fam)["verdict"] == VERIFIED
        assert not (fam.cond5 and not fam.cond6)

    @pytest.mark.parametrize(
        "case",
        [c for c in FUNCTION_CASES if c.affine_clean],
        ids=_case_id,
    )
    def test_mu_constant_iff_variety_condition_when_affine_clean(
        self, case, suite_families
    ):
        fam = suite_families[case.name]
        assert fam.cond1 == fam.cond6

    @pytest.mark.parametrize("case", FUNCTION_CASES, ids=_case_id)
    def test_theorem_verdicts(self, case):
        fam = case.family()
        assert radical_implies_axis_check(fam)["verdict"] == case.radical_axis
        assert zero_fiber_forces_origin_check(fam)["verdict"] == case.zero_fiber

    @pytest.mark.parametrize("case", FUNCTION_CASES, ids=_case_id)
    def test_conservation(self, case):
        assert conservation_check(case.family()) == case.conservation


class TestCriticalLocus:
    def test_jump_family_accounting(self):
        case = next(c for c in FUNCTION_CASES if c.name == "jump-2-3")
        fam = case.family()
        rep = critical_locus_report(fam, 1)
        assert rep["total_colength"] == 4
        assert rep["mu_origin"] == 3
        assert rep["off_origin_budget"] == 1
        assert rep["distinct_points"] == 2
        assert fam.certificate

    def test_sum_of_local_milnor_numbers(self):
        # 1 Morse point at (-8/27, 4/9) plus mu = 3 at the origin
        from icis.germs import milnor_at_point

        case = next(c for c in FUNCTION_CASES if c.name == "jump-2-3")
        fam = case.family()
        germ = GermFunction(fam.fiber(1)[-1], fam.base)
        pt = {"x": Fraction(-8, 27), "y": Fraction(4, 9)}
        origin = {"x": Fraction(0), "y": Fraction(0)}
        assert milnor_at_point(germ, pt) + milnor_at_point(germ, origin) == 4

    def test_totals_constant_across_samples(self):
        case = next(c for c in FUNCTION_CASES if c.name == "jump-3-5")
        fam = case.family()
        totals = {critical_locus_report(fam, t0)["total_colength"]
                  for t0 in (1, Fraction(1, 2), 3)}
        assert totals == {12}


class TestCriticalRadical:
    """``in_critical_radical`` refutes on the held sample fibers and
    leaves the rest to ``radical_membership``."""

    @staticmethod
    def _questions(fam):
        # cond5, cond6 and the zero-fiber hypothesis
        return ([fam.F.diff("t")] + [Polynomial.variable(fam.ring, v) for v in fam.x_ring]
                + [fam.F])

    @pytest.mark.parametrize("case", FUNCTION_CASES, ids=_case_id)
    def test_agrees_with_rabinowitsch(self, case):
        fam = case.family()
        I = fam.parametric_critical_ideal
        for f in self._questions(fam):
            assert fam.in_critical_radical(f) == radical_membership(f, I), f

    def test_moving_critical_point(self):
        # the critical points x = 0, t/2, t on y = 0 move with t: a member
        # of the radical that depends on t is nilpotent on the fiber over
        # its own sample only
        fam = DeformationFamily(RING, "t", [y], x**2 * (x - t) ** 2)
        I = fam.parametric_critical_ideal
        for f, member in ((x * (x - t) * (2 * x - t), True), (fam.F.diff("t"), False),
                          (fam.F, False), (x, False)):
            assert fam.in_critical_radical(f) == radical_membership(f, I) == member, f

    def test_special_samples_fall_back_to_rabinowitsch(self, monkeypatch, tmp_path, capsys):
        # c(t) = t(t - 1)(2t - 1) vanishes at both default samples, where
        # the critical locus x(3x + 2c) = 0 shrinks to the origin; for
        # every other t it holds x = -2c/3 as well, so x is not in the
        # radical, and only Rabinowitsch can say so
        fam = DeformationFamily(
            RING, "t", [y], x**3 + t * (t - 1) * (2 * t - 1) * x**2 + y)
        for r in fam.reports:
            assert (r["distinct_points"], r["off_origin_budget"]) == (1, 0)
            assert is_nilpotent(Polynomial.variable(fam.x_ring, "x"),
                                fam.base.stage(fam.fiber(r["t0"])))

        calls = []
        monkeypatch.setattr(
            families, "radical_membership",
            lambda f, I: calls.append(f) or radical_membership(f, I),
        )
        path = tmp_path / "special.icis"
        path.write_text("ring t, x, y;\nparam t;\nphi = y;\n"
                        "F = x^3 + t*(t - 1)*(2*t - 1)*x^2 + y;\nkind greuel-check;\n")
        main(["run", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("cond6_variety: False") for line in lines)
        assert Polynomial.variable(RING, "x") in calls


class TestConvergenceCertificate:
    def test_certified(self):
        I = IdealPresentation(RING, (x**2 - y**3, t * y**2 - y**2 + x * t))
        # at t = 0: <x^2 - y^3, -y^2> cuts out only the origin
        assert converges_to_origin(I, "t", ("x", "y"))

    def test_escaping_branch_refused(self):
        # x = 1 branch lives at every t, including t = 0
        I = IdealPresentation(RING, (x - 1, y))
        assert not converges_to_origin(I, "t", ("x", "y"))

    def test_branch_escaping_to_infinity_refused(self):
        # the critical point x = -2/(3t) leaves every ball as t -> 0, yet
        # the (t, x) eliminant x(2 + 3tx) still specializes to a pure power
        fam = DeformationFamily(RING, "t", [y], x**2 + t * x**3)
        assert not converges_to_origin(fam.parametric_critical_ideal, "t", ("x", "y"))
        assert conservation_check(fam) is None

    def test_conservation_requires_certificate(self):
        # critical points sit at x = +/- 1 for every t: totals are affine
        # only, so the conservation question is refused, not answered
        fam = DeformationFamily(RING, "t", [y], x**3 - x**2)
        assert conservation_check(fam) is None


class TestCurveProbes:
    def test_witness_curve_refutes_radical_condition(self):
        # gamma(s) = (-3/2 s, s^3, s^2) lies inside the critical variety,
        # so dF/dt has finite order while the minors vanish identically
        case = next(c for c in FUNCTION_CASES if c.name == "jump-2-3")
        probe = CurveProbe(
            {"t": Fraction(-3, 2) * s, "x": s**3, "y": s**2}
        )
        (res,) = greuel_conditions(case.family(), probes=(probe,))
        assert res["on_variety"]
        assert res["nu_numerator"] == 2
        assert res["nu_denominator"] == inf
        assert not res["strict"]
        assert not res["weak"]

    def test_probe_must_pass_through_origin(self):
        with pytest.raises(ValueError):
            CurveProbe({"t": s, "x": s + 1, "y": s})

    def test_probe_components_univariate(self):
        with pytest.raises(ValueError):
            CurveProbe({"t": s, "x": x, "y": s})


class TestSplitting:
    @pytest.mark.parametrize("case", SPACE_CASES, ids=_case_id)
    def test_verdicts(self, case):
        rep = splitting_check(case.family())
        assert rep["verdict"] == case.splitting
        assert rep["base_fiber_mu"] == case.base_fiber_mu
        assert tuple(sm["count"] for sm in rep["samples"]) == case.sample_counts
        assert tuple(sm["total_fiber_mu"] for sm in rep["samples"]) == case.sample_totals

    def test_constant_total_forces_no_splitting(self):
        # whenever the total fiber Milnor number matches the base, the
        # fiber must have a single singular point
        for case in SPACE_CASES:
            rep = splitting_check(case.family())
            for sample in rep["samples"]:
                if sample["total_fiber_mu"] == rep["base_fiber_mu"]:
                    assert sample["count"] == 1

    # the cusp of y^2 = (x - t)^3 sits at (t, 0), away from the origin
    # (SPACE_CASES keep their singular points at the origin); with z the
    # fiber is an ICIS of two equations, whose total is point_mu.  On the
    # line y = 0, F = x*(x - t)^2 has a double root at x = t, a function
    # family's lone fiber point off the origin, of Milnor number 1 where
    # the base fiber x^3 = 0 has 2.  The steps are those of the whole
    # family-analyze run
    @pytest.mark.parametrize("phi, F, verdict, total, steps", [
        ("y^2 - (x - t)^3", None, CONSISTENT, 2, 19),
        ("y^2 - (x - t)^3, z", None, CONSISTENT, 2, 23),
        ("y", "x*(x - t)^2", VACUOUS, 1, 17),
        ("y, z", "x*(x - t)^2", VACUOUS, 1, 19),
    ], ids=["plane-curve", "space-curve", "function-on-a-line", "function-on-a-space-line"])
    def test_singular_point_moving_with_t(self, phi, F, verdict, total, steps):
        extra = ("z",) if "z" in phi else ()
        text = f"ring {', '.join(RING + extra)};\nparam t;\nphi = {phi};\n"
        problem = parse_problem(text + (f"F = {F};\n" if F else "") + "kind family-analyze;\n")
        fam = DeformationFamily(problem.ring, "t", problem.bindings["phi"],
                                *problem.bindings.get("F", []))
        rep = splitting_check(fam)
        assert (rep["verdict"], rep["base_fiber_mu"]) == (verdict, 2)
        for sm in rep["samples"]:
            assert (sm["count"], sm["total_fiber_mu"], sm["point_mu"]) == (1, total, total)
            assert _lone_point(fam, sm["t0"]) == {"x": sm["t0"], "y": 0,
                                                  **dict.fromkeys(extra, 0)}
        with basis.step_budget() as budget:
            run_problem(problem)
        assert budget.spent == steps

    def test_multi_point_totals_match_per_point_oracle(self):
        # the nodes of the C^3 tacnode sit at (+-t0, 0, 0); the sum of
        # the local chains there is independent of the fiber chain
        (case,) = [c for c in SPACE_CASES if c.name == "tacnode-in-space-1"]
        fam = case.family()
        rep = splitting_check(fam)
        for sm in rep["samples"]:
            eqs = fam.fiber(sm["t0"])
            points = [{"x": sm["t0"]}, {"x": -sm["t0"]}]
            assert all(f.eval(pt) == 0 for f in eqs for pt in points)
            oracle = sum(icis_milnor(IcisPresentation(fam.x_ring, translate(eqs, pt)))
                         for pt in points)
            assert sm["total_fiber_mu"] == oracle == 2

    def test_irrational_points_count_over_the_closure(self):
        # the nodes at x = +-sqrt(2)*t0 have no rational coordinates; the
        # C^3 form must give the totals of the plane-curve form
        (case,) = [c for c in SPACE_CASES if c.name == "tacnode-in-space-2"]
        plane = DeformationFamily(RING, "t", [y**2 - (x**2 - 2 * t**2) ** 2])
        space_totals = [sm["total_fiber_mu"] for sm in splitting_check(case.family())["samples"]]
        plane_totals = [sm["total_fiber_mu"] for sm in splitting_check(plane)["samples"]]
        assert space_totals == plane_totals == [2, 2]

    def test_function_family_with_two_singular_fiber_points(self):
        # the fiber of x^2*(x - t)^2 on the line y = 0 is a double point
        # at x = 0 and at x = t, each of Milnor number 1; at t = 0 they
        # meet in x^4 = 0, of Milnor number 3
        fam = DeformationFamily(RING, "t", [y], x**2 * (x - t) ** 2)
        rep = splitting_check(fam)
        assert rep["verdict"] == VACUOUS
        assert rep["base_fiber_mu"] == 3
        assert [(sm["count"], sm["total_fiber_mu"]) for sm in rep["samples"]] == [(2, 2), (2, 2)]

    def test_smooth_base_fiber_is_vacuous(self):
        # y = x^2 - t*x is smooth at every t: no fiber has a singular
        # point, so the totals are constant at 0 and the theorem, which
        # concerns singular germs, says nothing
        problem = parse_problem("ring t, x, y;\nparam t;\nphi = y - x^2 + t*x;\n"
                                "kind family-analyze;\n")
        with basis.step_budget() as budget:
            lines, record, code = run_problem(problem)
        split = record["splitting"]
        assert (split["verdict"], split["base_fiber_mu"]) == (VACUOUS, 0)
        assert split["reason"] == "base fiber is smooth; the theorem concerns singular germs"
        assert [(s["t0"], s["count"], s["total_fiber_mu"]) for s in split["samples"]] == [
            (Fraction(1), 0, 0), (Fraction(1, 2), 0, 0)]
        assert lines[-1] == ("splitting: VACUOUS  [base fiber mu 0; t=1: count=0 total=0; "
                             "t=1/2: count=0 total=0] base fiber is smooth; the theorem "
                             "concerns singular germs")
        assert (code, budget.spent) == (0, 6)

    def test_non_isolated_fiber_names_its_sample(self):
        # the fiber x^2 = 0 at t = 1 is singular along the y-axis
        fam = DeformationFamily(RING, "t", [x**2 + y**3 - t * y**3])
        with pytest.raises(NonIsolatedError, match="fiber at t=1 "):
            splitting_check(fam)

    def test_non_isolated_base_member_is_refused(self):
        # f_0 = y vanishes on X = {y = 0}: the base fiber is X itself, not
        # an ICIS of two equations, whose chain would retry recombinations
        fam = DeformationFamily(RING, "t", [y], y + t * x)
        with pytest.raises(NonIsolatedError, match="function has non-isolated"):
            splitting_check(fam)

    @pytest.mark.parametrize("case", FUNCTION_CASES + SPACE_CASES, ids=_case_id)
    def test_point_mu_is_the_total_of_a_lone_point(self, case):
        fam = case.family()
        for sm in splitting_check(fam)["samples"]:
            lone = sm["count"] == 1
            assert (sm["point_mu"] == sm["total_fiber_mu"]) == lone
            assert (sm["point_mu"] is not None) == lone
            if lone:
                point = _lone_point(fam, sm["t0"])
                assert all(f.eval(point) == 0 for f in fam.fiber(sm["t0"]))


def _lone_point(fam, t0):
    """The lone singular point of the fiber at the sample t0, read off its
    singular-point ideal: the member's critical ideal, the fiber's stage
    in X's memo, cut by F_t for a function family, the fiber's singular
    ideal for a space family."""
    eqs = fam.fiber(t0)
    if fam.kind == families.FUNCTION:
        return lone_point(fam.base.stage(eqs).cut(eqs[-1]))
    return lone_point(singular_ideal(eqs, fam.x_ring))


def _old_path_splitting(fam):
    """The function-family splitting check computed without the family's
    values: the fiber-singular ideal's own certificate, each fiber's
    singular ideal and its radical from its eliminants, and the Milnor
    chain of the base fiber and of each translated lone point.  Returns
    (verdict, base total, certificate, [(t0, count, total, point)])."""
    x_ring = fam.x_ring
    base_mu = icis_milnor(IcisPresentation(x_ring, fam.fiber(0)))
    conv = converges_to_origin(singular_ideal(fam.Phi, x_ring), fam.param, x_ring)
    samples = []
    for t0 in fam.samples:
        eqs = fam.fiber(t0)
        sing = singular_ideal(eqs, x_ring)
        count = distinct_point_count(sing)
        point = lone_point(sing) if count == 1 else None
        if count == 0:
            total = 0
        elif count == 1:
            total = icis_milnor(IcisPresentation(x_ring, translate(eqs, point)))
        else:
            total = fiber_milnor_total(eqs, x_ring)
        samples.append((t0, count, total, point))
    if not conv:
        verdict = INCONCLUSIVE
    elif base_mu == 0 or any(total != base_mu for _, _, total, _ in samples):
        verdict = VACUOUS
    else:
        verdict = CONSISTENT if all(count == 1 for _, count, _, _ in samples) else VIOLATION
    return verdict, base_mu, conv, samples


def _new_path_splitting(fam):
    rep = splitting_check(fam)
    samples = [(sm["t0"], sm["count"], sm["total_fiber_mu"],
                _lone_point(fam, sm["t0"]) if sm["count"] == 1 else None)
               for sm in rep["samples"]]
    return rep["verdict"], rep["base_fiber_mu"], rep["converges_to_origin"], samples


class TestSplittingOldPathOracle:
    """A function family's splitting check reads the family certificate,
    mu0 and the sample reports; computed from the fibers alone, the
    report is the same."""

    def _agree(self, make):
        assert _new_path_splitting(make()) == _old_path_splitting(make())

    @pytest.mark.parametrize("case", FUNCTION_CASES, ids=_case_id)
    def test_family_suite(self, case):
        self._agree(case.family)

    @pytest.mark.parametrize("F", [x**2 * (x - t) ** 2, x * (x - t) ** 2],
                             ids=["two-points", "lone-point-at-t"])
    def test_points_off_the_origin(self, F):
        self._agree(lambda: DeformationFamily(RING, "t", [y], F))

    def test_false_family_certificate_falls_back(self):
        # the critical point x = 2/3 of x^3 - x^2 stays put as t goes to 0,
        # while the fiber's one singular point is the origin
        text = (Path(__file__).parent / "fixtures" / "inconclusive.icis").read_text()
        problem = parse_problem(text)

        def make():
            return DeformationFamily(problem.ring, problem.param, problem.bindings["phi"],
                                     problem.bindings["F"][0])

        assert make().certificate is False
        verdict, _, conv, _ = _new_path_splitting(make())
        assert (verdict, conv) == (CONSISTENT, True)
        self._agree(make)

    # with q > p, no line x = -c*t0*y lies on x^p = y^q, so every fiber
    # is a fat point
    @given(st.integers(2, 4), st.integers(1, 3), st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]),
           st.lists(st.sampled_from([1, 2, -1, Fraction(1, 3), Fraction(-3, 2)]),
                    min_size=1, max_size=2))
    @settings(max_examples=12, deadline=None)
    def test_seeded_jump_families(self, p, d, c, samples):
        self._agree(lambda: DeformationFamily(
            RING, "t", [x**p - y**(p + d)], x + c * t * y, samples=samples))


class TestFamilyOwnsItsSamples:
    SAMPLES = (Fraction(2), Fraction(1, 3))

    def test_default_samples(self):
        assert FUNCTION_CASES[0].family().samples == DEFAULT_SAMPLES
        assert SPACE_CASES[0].family().samples == DEFAULT_SAMPLES

    def test_every_check_reads_the_family_samples(self):
        case = next(c for c in FUNCTION_CASES if c.name == "trivial-x-on-cusp")
        fam = DeformationFamily(case.ring, "t", list(case.phi), case.F,
                                samples=(2, Fraction(1, 3)))
        assert fam.samples == self.SAMPLES
        assert tuple(r["t0"] for r in fam.reports) == self.SAMPLES
        assert tuple(sm["t0"] for sm in splitting_check(fam)["samples"]) == self.SAMPLES
        # cond1 compares mu at the origin over these reports
        assert fam.cond1 == case.cond1
        entry = zero_fiber_forces_origin_check(fam)
        assert entry["verdict"] == case.zero_fiber
        assert tuple(entry["details"]["samples"]) == self.SAMPLES

    def test_space_family_samples(self):
        case = SPACE_CASES[0]
        fam = DeformationFamily(case.ring, "t", list(case.Phi), samples=self.SAMPLES)
        assert tuple(sm["t0"] for sm in splitting_check(fam)["samples"]) == self.SAMPLES

    @pytest.mark.parametrize("case", FUNCTION_CASES, ids=_case_id)
    def test_theorem_verdicts_do_not_depend_on_call_order(self, case):
        # the radical questions refute on every sample report, whether or
        # not an earlier check has asked for the reports
        fresh = case.family()
        first = (radical_implies_axis_check(fresh), zero_fiber_forces_origin_check(fresh))
        fam = case.family()
        assert fam.cond1 == case.cond1
        assert (radical_implies_axis_check(fam), zero_fiber_forces_origin_check(fam)) == first


class TestFamilyInputs:
    """Only the base member of a function family must vanish at the
    origin, and F must cut X in a positive-dimensional fiber."""

    MOVING_CONSTANT = "ring t, x, y;\nparam t;\nphi = y;\nF = x^2 + {c};\nkind family-analyze;\n"

    def test_sampled_member_need_not_vanish_at_the_origin(self):
        # x^2 + t0 has its one critical point at the origin on the line
        # y = 0, where it does not vanish: the sample fibers x^2 = -t0 are
        # smooth, while the base fiber x^2 = 0 has Milnor number 1
        problem = parse_problem(self.MOVING_CONSTANT.format(c="t"))
        with basis.step_budget() as budget:
            lines, record, code = run_problem(problem)
        assert (code, budget.spent) == (0, 4)
        start = lines.index("mu_f_at_0: 1  [local colength of <phi> + J(f, phi)]")
        assert lines[start + 1:start + 4] == [
            "sample t=1: mu_origin=1 total=1 off_origin=0 distinct_points=1 "
            "converges_to_origin=True",
            "sample t=1/2: mu_origin=1 total=1 off_origin=0 distinct_points=1 "
            "converges_to_origin=True",
            "conservation: True  [total at each sample vs mu at t=0]",
        ]
        assert "zero_fiber_forces_origin: VACUOUS" in lines
        assert lines[-1].startswith("splitting: VACUOUS  [base fiber mu 1; t=1: count=0 "
                                    "total=0; t=1/2: count=0 total=0] ")
        with pytest.raises(BudgetExhaustedError), basis.step_budget(3):
            run_problem(problem)

    def test_phi_holding_the_parameter_is_refused(self, tmp_path, capsys):
        # X of a function family is fixed; phi = y - t*x moves with t
        with pytest.raises(InvalidInputError, match="phi holds the parameter 't'"):
            DeformationFamily(RING, "t", [y - t * x], x**2)
        path = tmp_path / "moving_base.icis"
        path.write_text("ring t, x, y;\nparam t;\nphi = y - t*x;\nF = x^2;\n"
                        "kind greuel-check;\n")
        assert main(["run", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[invalid-input]: phi holds the parameter 't'")

    def test_base_member_must_vanish_at_the_origin(self):
        problem = parse_problem(self.MOVING_CONSTANT.format(c="1"))
        with pytest.raises(InvalidInputError, match="function germ must vanish at the origin"):
            run_problem(problem)

    @pytest.mark.parametrize("kind", ["family-analyze", "greuel-check"])
    def test_zero_dimensional_base_is_refused(self, kind, tmp_path, capsys):
        # X = V(x, y) is the origin, so F_t cuts no ICIS out of it
        probe = "probe t = s, x = s, y = s;\n" if kind == "greuel-check" else ""
        path = tmp_path / "point.icis"
        path.write_text(f"ring t, x, y;\nparam t;\nphi = x, y;\nF = t*x + y;\n{probe}"
                        f"kind {kind};\n")
        assert main(["run", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[invalid-input]: F cuts a zero-dimensional base")


class TestSpaceFamilyRefusesFunctionValues:
    """A space family has no F: each value and check defined for function
    families refuses it with InvalidInputError before computing."""

    READS = {
        "parametric_critical_ideal": lambda fam: fam.parametric_critical_ideal,
        "minors": lambda fam: fam.minors,
        "certificate": lambda fam: fam.certificate,
        "mu0": lambda fam: fam.mu0,
        "reports": lambda fam: fam.reports,
        "cond1": lambda fam: fam.cond1,
        "cond5": lambda fam: fam.cond5,
        "cond6": lambda fam: fam.cond6,
        "in_critical_radical": lambda fam: fam.in_critical_radical(x),
        "critical_locus_report": lambda fam: critical_locus_report(fam, 1),
        "conservation_check": conservation_check,
        "greuel_conditions": greuel_conditions,
        "radical_implies_axis_check": radical_implies_axis_check,
        "zero_fiber_forces_origin_check": zero_fiber_forces_origin_check,
    }

    @pytest.mark.parametrize("name", READS)
    def test_refused(self, name):
        # the fibers y^2 = x^3 - t*x have critical points off the origin
        fam = DeformationFamily(RING, "t", [y**2 - x**3 + t * x])
        assert (fam.kind, fam.F) == (families.SPACE, None)
        with pytest.raises(InvalidInputError, match="function deformations only"), \
                basis.step_budget(0):
            self.READS[name](fam)


def _case_text(case):
    """The family-analyze problem text of a suite case."""
    F = getattr(case, "F", None)
    phi = case.Phi if F is None else case.phi
    lines = [f"ring {', '.join(case.ring)};", "param t;",
             f"phi = {', '.join(format_poly(p) for p in phi)};"]
    if F is not None:
        lines.append(f"F = {format_poly(F)};")
    return "\n".join(lines + ["kind family-analyze;", ""])


def _entry_runs():
    """Each suite case and the two fixtures with probes, as a problem text
    and a maker of a fresh family."""
    fixtures = Path(__file__).parent / "fixtures"
    runs = {case.name: (_case_text(case), case.family) for case in FUNCTION_CASES + SPACE_CASES}
    for name in ("ex43_23", "greuel_cusp"):
        text = (fixtures / f"{name}.icis").read_text()
        runs[name] = (text, lambda text=text: _family(parse_problem(text)))
    return runs


ENTRY_RUNS = _entry_runs()


@pytest.mark.parametrize("name", ENTRY_RUNS)
def test_report_prints_the_entries_the_checks_return(name, tmp_path, capsys):
    """Each family check returns the record entry that ``--json`` prints:
    run on a fresh family, its value is the printed one."""
    text, make = ENTRY_RUNS[name]
    path = tmp_path / "family.icis"
    path.write_text(text)
    assert main(["run", str(path), "--json"]) in (0, 2)
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])

    problem, fam = parse_problem(text), make()
    # the kind follows from F alone
    assert fam.kind == (families.FUNCTION if "F" in problem.bindings else families.SPACE)
    returned = {}
    if fam.kind == families.FUNCTION:
        if problem.kind == "family-analyze":
            returned["conservation"] = conservation_check(fam)
        returned["radical_implies_axis"] = radical_implies_axis_check(fam)
        returned["greuel.probes"] = greuel_conditions(
            fam, [CurveProbe(c) for c in problem.probes])
        returned["zero_fiber_forces_origin"] = zero_fiber_forces_origin_check(fam)
    if problem.kind == "family-analyze":
        returned["splitting"] = splitting_check(fam)

    def entry(key):
        value = printed
        for part in key.split("."):
            value = value[part]
        return value

    assert {key: entry(key) for key in returned} == _jsonable(returned)
    # no printed check entry goes unchecked
    assert {key for key in ("conservation",) + CHECKS if key in printed} == {
        key for key in returned if "." not in key}
    assert bool(problem.probes) == bool(returned.get("greuel.probes"))
    # the sample reports are printed as the family holds them, each with
    # the family certificate added
    reported = fam.kind == families.FUNCTION and problem.kind == "family-analyze"
    assert ("samples_report" in printed) == reported
    if reported:
        assert len(printed["samples_report"]) == len(fam.reports)
        for shown, r in zip(printed["samples_report"], fam.reports):
            assert shown == _jsonable({**r, "converges_to_origin": fam.certificate})
    if fam.kind == families.FUNCTION:
        assert printed["greuel"]["mu_origin_samples"] == _jsonable(
            {r["t0"]: r["mu_origin"] for r in fam.reports})
        assert printed["greuel"]["totals"] == _jsonable(
            {r["t0"]: r["total_colength"] for r in fam.reports})


def _inline_fiber(fam, t0):
    """The fiber equations as each check used to build them."""
    if fam.kind == families.FUNCTION:
        return list(fam.base.phi) + [GermFunction(fam.fiber(t0)[-1], fam.base).f]
    return list(fam.fiber(t0))


@pytest.mark.parametrize("case", FUNCTION_CASES + SPACE_CASES, ids=_case_id)
def test_fiber_singular_ideal_matches_inline_construction(case):
    fam = case.family()
    x_ring = fam.x_ring
    for t0 in (0,) + fam.samples:
        eqs = _inline_fiber(fam, t0)
        inline = IdealPresentation(x_ring, eqs + maximal_minors(jacobian_matrix(eqs, x_ring)))
        built = singular_ideal(fam.fiber(t0), x_ring)
        assert set(built.basis().generators) == set(inline.basis().generators), t0
    # the parametric ideal of the splitting check's convergence certificate
    if fam.kind == families.FUNCTION:
        inline = fam.parametric_critical_ideal.plus([fam.F])
    else:
        inline = IdealPresentation(fam.ring, list(fam.Phi)
                                   + maximal_minors(jacobian_matrix(fam.Phi, x_ring)))
    built = singular_ideal(fam.Phi, x_ring)
    assert set(built.basis().generators) == set(inline.basis().generators)


class TestFiberCache:
    """A family substitutes each t0 into its fiber equations once."""

    def test_same_tuple_for_equal_parameters(self):
        fam = SPACE_CASES[0].family()
        eqs = fam.fiber(Fraction(1, 2))
        assert isinstance(eqs, tuple)
        assert fam.fiber(Fraction(2, 4)) is eqs
        assert fam.fiber(0) is fam.fiber(Fraction(0))

    def test_specialized_list_is_a_copy(self):
        fam = SPACE_CASES[0].family()
        eqs = list(fam.fiber(1))
        eqs.append(eqs[0])
        assert len(fam.fiber(1)) == len(fam.Phi)

    @pytest.mark.parametrize("case", FUNCTION_CASES[:3] + SPACE_CASES[:2], ids=_case_id)
    def test_checks_substitute_each_sample_once(self, case, monkeypatch):
        fam = case.family()
        eqs = fam.Phi
        calls = []
        original = Polynomial.subs

        def counting(self, bindings, target_ring=None):
            if any(self is p for p in eqs) and target_ring == fam.x_ring:
                calls.append(bindings[fam.param])
            return original(self, bindings, target_ring)

        monkeypatch.setattr(Polynomial, "subs", counting)
        splitting_check(fam)
        splitting_check(fam)
        if fam.kind == families.FUNCTION:
            conservation_check(fam)
        # the constructor built the fiber at t = 0
        assert sorted(calls) == sorted(len(eqs) * [t0 for t0 in set(fam.samples) if t0 != 0])


class TestBaseFiberOnce:
    """A family holds its fiber at t = 0 as one ICIS, so its isolation
    check runs once.  A member's critical ideal is the next stage of that
    ICIS's chain, in the same memo, so members with equal equations
    share one ideal."""

    def test_space_base_is_the_base_fiber(self):
        fam = SPACE_CASES[0].family()
        assert isinstance(fam.base, IcisPresentation)
        assert fam.base.phi == fam.fiber(0)

    # the base fiber's Milnor chain, one stage per equation, which its
    # isolation check computes and the chain reads; each sample fiber has
    # two singular points, which fiber_milnor_total sums without local
    # colengths.  inconclusive.icis: F does not depend on t, so the members
    # at t = 0, 1 and 1/2 share one critical ideal, after the base's stage
    @pytest.mark.parametrize("name, calls", [
        ("space_tacnode.icis", 1),
        ("icis_tacnode_splitting.icis", 2),
        ("inconclusive.icis", 2),
    ])
    def test_local_colength_calls(self, name, calls, monkeypatch):
        counted = []
        original = basis.local_colength

        def counting(gens, ring):
            counted.append(tuple(gens))
            return original(gens, ring)

        monkeypatch.setattr(basis, "local_colength", counting)
        text = (Path(__file__).parent / "fixtures" / name).read_text()
        run_problem(parse_problem(text))
        assert len(counted) == calls
        # no stage is localized twice
        assert len(set(counted)) == len(counted)

    @pytest.mark.parametrize("case", FUNCTION_CASES, ids=_case_id)
    def test_function_splitting_localizes_nothing_new(self, case, monkeypatch):
        # each fiber's chain runs through X's memo, where mu0 and the
        # sample reports localized the member critical ideals it ends in
        fam = case.family()
        assert (fam.mu0, len(fam.reports)) == (case.mu_origin_base, len(fam.samples))
        counted = []
        original = basis.local_colength

        def counting(gens, ring):
            counted.append(tuple(gens))
            return original(gens, ring)

        monkeypatch.setattr(basis, "local_colength", counting)
        splitting_check(fam)
        assert counted == []

    def test_member_critical_ideal_is_a_base_stage(self, monkeypatch):
        fam = DeformationFamily(RING, "t", [y], x**3 - x**2 + t * x)
        member = GermFunction(fam.fiber(1)[-1], fam.base)
        assert member.critical_ideal() is fam.base.stage(fam.base.phi + (member.f,))
        assert (GermFunction(fam.fiber(1)[-1], fam.base).critical_ideal()
                is member.critical_ideal())
        # a sample report keeps no ideal: its member's stage in X's memo
        # already holds the local colength the report read
        reports = fam.reports

        def refuse(gens, ring):
            raise AssertionError("a stage was localized again")

        monkeypatch.setattr(basis, "local_colength", refuse)
        for r in reports:
            assert fam.base.stage(fam.fiber(r["t0"])).local_colength() == r["mu_origin"]


def _family_runs():
    """Every family text with its recorded exit code and stdout digest:
    the family fixtures, against tests/golden, and the family texts of the
    benchmark's recorded problems, against perfbench/expected.json."""
    tests = Path(__file__).parent
    sys.path.append(str(tests.parent / "perfbench"))
    from corpus import recorded_problems

    def is_family(text):
        return "kind family-analyze;" in text or "kind greuel-check;" in text

    codes = json.loads((tests / "golden" / "exit_codes.json").read_text())
    runs = {}
    for fixture in sorted((tests / "fixtures").glob("*.icis")):
        if is_family(fixture.read_text()):
            out = (tests / "golden" / f"{fixture.stem}.plain.out").read_bytes()
            runs[fixture.stem] = (fixture.read_text(), codes[f"{fixture.stem}.plain"],
                                  hashlib.sha256(out).hexdigest())
    recorded = json.loads((tests.parent / "perfbench" / "expected.json").read_text())
    for problem in recorded_problems():
        if is_family(problem.text):
            expected = recorded[problem.digest]
            runs[f"recorded-{problem.name}"] = (problem.text, expected["exit"],
                                                expected["stdout"])
    return runs


FAMILY_RUNS = _family_runs()


@pytest.mark.parametrize("name", FAMILY_RUNS)
def test_family_traffic_completes_no_radical(name, monkeypatch, tmp_path, capsys):
    """Point counts, nilpotency tests and lone points on every family text
    are read off colengths and eliminants: no radical is completed, and
    the run prints its recorded stdout."""
    def refuse(I):
        raise AssertionError("a radical was completed")

    monkeypatch.setattr(IdealPresentation, "radical", refuse)
    text, code, digest = FAMILY_RUNS[name]
    path = tmp_path / "family.icis"
    path.write_text(text)
    assert main(["run", str(path)]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
