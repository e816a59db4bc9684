"""Acceptance gate: eight end-to-end criteria, every comparison exact.

Each criterion prints a single PASS line to the real terminal after its
assertions succeed; a failure shows up as the test's FAILED line."""

import random
import time
from fractions import Fraction
from math import inf

import pytest

from icis.basis import _lazard_colength, colength, complete_basis, step_budget
from icis.families import (
    CurveProbe,
    DeformationFamily,
    VERIFIED,
    critical_locus_report,
    radical_implies_axis_check,
    splitting_check,
)
from icis.germs import (
    GermFunction,
    IcisPresentation,
    LineDirection,
    function_on_icis_milnor,
    hypersurface_milnor,
    icis_milnor,
    is_generic_line,
    line_intersection_number,
    milnor_at_point,
    multiplicity,
)
from icis.ideals import lone_point, singular_ideal
from icis.orders import grevlex
from icis.poly import Polynomial, lowest_degree_form, order_of_vanishing

from family_suite import FUNCTION_CASES, SPACE_CASES
from staircase_oracle import staircase_colength_bruteforce

GRID = [(2, 3), (2, 5), (3, 4), (3, 5)]
SAMPLES = (Fraction(1), Fraction(1, 2))

R = ("x", "y")
x = Polynomial.variable(R, "x")
y = Polynomial.variable(R, "y")

RT = ("t", "x", "y")
t3, x3, y3 = (Polynomial.variable(RT, n) for n in RT)


def announce(capsys, line):
    with capsys.disabled():
        print(line)


def grid_family(p, q):
    return DeformationFamily(RT, "t", [x3**p - y3**q], x3 + t3 * y3)


def test_criterion_1_milnor_number_drop(capsys):
    start = time.monotonic()
    for p, q in GRID:
        X = IcisPresentation(R, (x**p - y**q,))
        assert function_on_icis_milnor(GermFunction(x, X)) == p * q - p
        fam = grid_family(p, q)
        origin = {"x": Fraction(0), "y": Fraction(0)}
        for t0 in SAMPLES:
            germ = GermFunction(fam.fiber(t0)[-1], fam.base)
            assert milnor_at_point(germ, origin) == p * q - q
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    announce(
        capsys,
        f"criterion 1 (coordinate-function family, 4 curve types): PASS ({elapsed:.2f}s)",
    )


def test_criterion_2_conservation_identity(capsys):
    for p, q in GRID:
        fam = grid_family(p, q)
        for t0 in SAMPLES:
            rep = critical_locus_report(fam, t0)
            assert rep["total_colength"] == p * q - p
            assert rep["off_origin_budget"] == q - p
            assert fam.certificate is True
    announce(capsys, "criterion 2 (conservation of the total colength): PASS")


def test_criterion_3_radical_membership_refuted(capsys):
    fam = grid_family(2, 3)
    s = Polynomial.variable(("s",), "s")
    probe = CurveProbe({"t": Fraction(-3, 2) * s, "x": s**3, "y": s**2})
    assert fam.cond5 is False

    # independent certificate: the witness curve lies inside V(<phi> + J)
    # with y-component not identically zero, while dF/dt survives on it
    I = fam.parametric_critical_ideal
    for g in I.generators:
        assert probe.pullback(g).is_zero()
    assert not probe.components["y"].is_zero()
    dFdt = fam.F.diff("t")
    assert order_of_vanishing(probe.pullback(dFdt)) == 2
    announce(capsys, "criterion 3 (radical condition fails, curve-certified): PASS")


def test_criterion_4_radical_implies_axis_property(capsys):
    assert len(FUNCTION_CASES) + len(SPACE_CASES) >= 8
    for case in FUNCTION_CASES:
        fam = case.family()
        assert not (fam.cond5 and not fam.cond6)
        assert radical_implies_axis_check(fam)["verdict"] == VERIFIED
    announce(
        capsys,
        f"criterion 4 (no radical-without-axis instance, {len(FUNCTION_CASES)} families): PASS",
    )


def test_criterion_5_no_coalescence_property(capsys):
    checked = 0
    for case in SPACE_CASES:
        fam = case.family()
        rep = splitting_check(fam)
        totals = [sm["total_fiber_mu"] for sm in rep["samples"]]
        if all(v == rep["base_fiber_mu"] for v in totals):
            for sm in rep["samples"]:
                assert sm["count"] == 1
                # the lone point of the fiber's singular ideal
                point = lone_point(singular_ideal(fam.fiber(sm["t0"]), fam.x_ring))
                assert all(c == 0 for c in point.values())
                assert sm["point_mu"] == rep["base_fiber_mu"]
                checked += 1
    assert checked > 0
    announce(
        capsys,
        f"criterion 5 (constant total forbids splitting, {checked} samples): PASS",
    )


def test_criterion_6_zero_fiber_critical_locus_property(capsys):
    from icis.families import zero_fiber_forces_origin_check

    checked = 0
    for case in FUNCTION_CASES:
        entry = zero_fiber_forces_origin_check(case.family())
        details = entry["details"]
        if not details["hypothesis"]:
            continue
        assert entry["verdict"] == "VERIFIED"
        for sample in details["samples"].values():
            assert sample["count"] in (0, 1)
            assert sample["at_origin"] is True
            checked += 1
    assert checked > 0
    announce(
        capsys,
        f"criterion 6 (zero-fiber hypothesis forces a single critical point, {checked} samples): PASS",
    )


def test_criterion_7_generic_line_criterion(capsys):
    from icis.germs import discriminant

    delta = discriminant([x, y**3 + x * y])
    uv = delta.ring
    u = Polynomial.variable(uv, uv[0])
    v = Polynomial.variable(uv, uv[1])
    # up to the normalization of the eliminant, delta is 4u^3 + 27v^2
    _, lc = delta.leading(grevlex(uv))
    target = 4 * u**3 + 27 * v**2
    _, tc = target.leading(grevlex(uv))
    assert delta * Fraction(1, lc) == target * Fraction(1, tc)

    assert multiplicity(delta) == 2
    generic_dir = LineDirection((Fraction(0), Fraction(1)))
    assert is_generic_line(delta, generic_dir) is True
    assert line_intersection_number(delta, generic_dir) == 2
    tangent_dir = LineDirection((Fraction(1), Fraction(0)))
    assert is_generic_line(delta, tangent_dir) is False
    assert line_intersection_number(delta, tangent_dir) == 3

    rng = random.Random(20260826)
    tested = 0
    while tested < 50:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if a == 0 and b == 0:
            continue
        d = LineDirection((a, b))
        agree = line_intersection_number(delta, d) == multiplicity(delta)
        assert is_generic_line(delta, d) == agree
        # the lowest-degree form does not vanish on a generic direction
        assert (lowest_degree_form(delta).eval(dict(zip(uv, d.v))) != 0) == agree
        tested += 1
    announce(capsys, "criterion 7 (generic-line criterion, 50 random directions): PASS")


def test_criterion_8_engine_oracles(capsys):
    start = time.monotonic()

    # randomized monomial ideals vs brute-force staircase counts
    rng = random.Random(99)
    for _ in range(30):
        nvars = rng.randint(2, 3)
        ring = ("x", "y", "z")[:nvars]
        lms = {tuple(rng.randint(1, 4) for _ in ring) for _ in range(rng.randint(2, 5))}
        for i in range(nvars):
            e = [0] * nvars
            e[i] = rng.randint(1, 5)
            lms.add(tuple(e))
        gens = [Polynomial.monomial(ring, e, 1) for e in sorted(lms)]
        basis = complete_basis(gens, grevlex(ring))
        assert colength(basis) == staircase_colength_bruteforce(
            basis.leading_monomials, len(ring)
        )

    # hypersurface Milnor numbers against closed forms
    for k in range(1, 7):
        assert hypersurface_milnor(x ** (k + 1) + y**2) == k
    assert hypersurface_milnor(x**3 + y**5) == 8

    # complete intersections of dimension 0: mu = colength - 1; the
    # last has the point (1, 0) off the origin (affine colength 6)
    fixtures = [
        (x**2, y**2),
        (x**3, y**2),
        (x**2, y**3),
        (x**2 + y**2, x * y),
        (x**2 - x**3, y**2),
    ]
    for phi in fixtures:
        X = IcisPresentation(R, phi)
        # Lazard's method alone, without local_colength's truncations
        with step_budget() as budget:
            direct = _lazard_colength(phi, R, budget)
        assert direct != inf
        assert icis_milnor(X) == direct - 1

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(capsys, f"criterion 8 (engine oracles): PASS ({elapsed:.2f}s)")
