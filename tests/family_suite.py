"""Shared catalog of deformation families with frozen expected outcomes.

Each entry records the exact condition flags and verdicts the analysis
must produce.  ``affine_clean`` marks families whose critical locus has
no exceptional-parameter branches away from the parameter axis; only on
those is the biconditional between mu-constancy and the variety
condition a meaningful affine statement.
"""

from dataclasses import dataclass, field

from icis.families import (
    CONSISTENT,
    VACUOUS,
    VERIFIED,
    DeformationFamily,
)
from icis.poly import Polynomial

RING = ("t", "x", "y")
t = Polynomial.variable(RING, "t")
x = Polynomial.variable(RING, "x")
y = Polynomial.variable(RING, "y")


@dataclass
class FunctionCase:
    name: str
    phi: tuple
    F: Polynomial
    cond1: bool
    cond5: bool
    cond6: bool
    mu_origin_base: int
    totals: int  # total colength at every sample
    radical_axis: str
    zero_fiber: str
    conservation: bool
    affine_clean: bool
    ring: tuple = RING

    def family(self):
        return DeformationFamily(self.ring, "t", list(self.phi), self.F)


@dataclass
class SpaceCase:
    name: str
    Phi: tuple
    base_fiber_mu: int
    splitting: str
    sample_counts: tuple = ()
    sample_totals: tuple = ()
    ring: tuple = RING

    def family(self):
        return DeformationFamily(self.ring, "t", list(self.Phi))


def _jump(p, q):
    """Coordinate function deformed linearly on the x^p = y^q curve: the
    Milnor number at the origin drops from pq - p to pq - q and the
    difference escapes to q - p Morse points."""
    return FunctionCase(
        name=f"jump-{p}-{q}",
        phi=(x**p - y**q,),
        F=x + t * y,
        cond1=False,
        cond5=False,
        cond6=False,
        mu_origin_base=p * q - p,
        totals=p * q - p,
        radical_axis=VERIFIED,
        zero_fiber=VACUOUS,
        conservation=True,
        affine_clean=True,
    )


def _quintic_on_hyperplane():
    # quasihomogeneous mu-constant family x^5 + y^5 + t x^3 y^2 living on
    # the smooth hyperplane z = 0; the base is quasihomogeneous, so the
    # Euler relation puts F in the ideal of its own partials
    ring = ("t", "x", "y", "z")
    tq = Polynomial.variable(ring, "t")
    xq = Polynomial.variable(ring, "x")
    yq = Polynomial.variable(ring, "y")
    zq = Polynomial.variable(ring, "z")
    return FunctionCase(
        name="quintic-mu-constant-function",
        phi=(zq,),
        F=xq**5 + yq**5 + tq * xq**3 * yq**2,
        cond1=True,
        cond5=False,
        cond6=False,
        mu_origin_base=16,
        totals=16,
        radical_axis=VERIFIED,
        zero_fiber=VERIFIED,
        conservation=True,
        affine_clean=False,
        ring=ring,
    )


def _tacnode_in_space(a):
    """The tacnode y^2 = (x^2 - a*t^2)^2 lifted to the surface z = -x*y
    in C^3, an ICIS of two equations: each fiber has two nodes, at
    x = +-sqrt(a)*t, irrational unless a is a square."""
    ring = ("t", "x", "y", "z")
    tq, xq, yq, zq = (Polynomial.variable(ring, v) for v in ring)
    return SpaceCase(
        name=f"tacnode-in-space-{a}",
        Phi=(zq + xq * yq, yq**2 - (xq**2 - a * tq**2) ** 2),
        base_fiber_mu=3,
        splitting=VACUOUS,
        sample_counts=(2, 2),
        sample_totals=(2, 2),
        ring=ring,
    )


SPACE_CASES = [
    SpaceCase(
        name="quintic-mu-constant",
        Phi=(x**5 + y**5 + t * x**3 * y**2,),
        base_fiber_mu=16,
        splitting=CONSISTENT,
        sample_counts=(1, 1),
        sample_totals=(16, 16),
    ),
    SpaceCase(
        name="tacnode-splitting",
        Phi=(y**2 - (x**2 - t**2) ** 2,),
        base_fiber_mu=3,
        splitting=VACUOUS,
        sample_counts=(2, 2),
        sample_totals=(2, 2),
    ),
    SpaceCase(
        name="cusp-smoothing",
        Phi=(x**3 - y**2 + t * x,),
        base_fiber_mu=2,
        splitting=VACUOUS,
        sample_counts=(0, 0),
        sample_totals=(0, 0),
    ),
    SpaceCase(
        name="trivial-space-cusp",
        Phi=(x**2 - y**3,),
        base_fiber_mu=2,
        splitting=CONSISTENT,
        sample_counts=(1, 1),
        sample_totals=(2, 2),
    ),
    SpaceCase(
        name="fat-point-fibers",
        Phi=(x**2 - y**3, x + t * y),
        base_fiber_mu=2,
        splitting=VACUOUS,
        sample_counts=(1, 1),
        sample_totals=(1, 1),
    ),
    _tacnode_in_space(1),
    _tacnode_in_space(2),
]


FUNCTION_CASES = [
    _jump(2, 3),
    _jump(2, 5),
    _jump(3, 4),
    _jump(3, 5),
    FunctionCase(
        name="trivial-x-on-cusp",
        phi=(x**2 - y**3,),
        F=x,
        cond1=True,
        cond5=True,
        cond6=True,
        mu_origin_base=4,
        totals=4,
        radical_axis=VERIFIED,
        zero_fiber=VERIFIED,
        conservation=True,
        affine_clean=True,
    ),
    FunctionCase(
        name="trivial-y-on-cusp",
        phi=(x**2 - y**3,),
        F=y,
        cond1=True,
        cond5=True,
        cond6=True,
        mu_origin_base=3,
        totals=3,
        radical_axis=VERIFIED,
        zero_fiber=VERIFIED,
        conservation=True,
        affine_clean=True,
    ),
    FunctionCase(
        # mu-constant rescaling; the affine critical locus picks up an
        # exceptional branch at t = -1, so the affine variety condition
        # fails even though every germ-level member is trivial
        name="rescaled-x-on-cusp",
        phi=(x**2 - y**3,),
        F=x + t * x,
        cond1=True,
        cond5=False,
        cond6=False,
        mu_origin_base=4,
        totals=4,
        radical_axis=VERIFIED,
        zero_fiber=VERIFIED,
        conservation=True,
        affine_clean=False,
    ),
    _quintic_on_hyperplane(),
]
