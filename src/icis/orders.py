"""Monomial orders: lex, grevlex, elimination-block, and the order on
homogenized polynomials that Lazard's method uses.

An order is bound to a ring (an ordered tuple of variable names) and
exposes a ``key`` function on exponent tuples; larger key means larger
monomial.  All keys are built from the total degree and (reversed,
negated) exponents, so every order here is multiplicative (u < v
implies u*w < v*w) and global (1 is the least monomial), as Buchberger,
normal forms and ``basis.minimal_polynomial`` need.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MonomialOrder:
    """Each subclass names its ``kind`` as a class constant, so it cannot
    be set per instance, and makes every monomial other than 1 larger
    than 1."""

    ring: tuple[str, ...]

    def key(self, exps):
        raise NotImplementedError


@dataclass(frozen=True)
class Lex(MonomialOrder):
    kind = "lex"

    def key(self, exps):
        return exps


def _revlex_tail(exps):
    return tuple(-e for e in reversed(exps))


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    kind = "grevlex"

    def key(self, exps):
        return (sum(exps), _revlex_tail(exps))


@dataclass(frozen=True)
class Homogenized(MonomialOrder):
    """Order on (x, h) for Lazard's method: total degree, then the
    h-exponent, then revlex on x.  On a homogeneous polynomial it picks
    the term of lowest x-degree, ties broken by revlex on x: the local
    leading term of the polynomial at h = 1."""

    kind = "homogenized"

    def key(self, exps):
        return (sum(exps), exps[-1], _revlex_tail(exps[:-1]))


@dataclass(frozen=True)
class Block(MonomialOrder):
    """Elimination order: compare the eliminated block first (grevlex),
    then the kept block.  A standard basis under this order intersected
    with the kept subring generates the elimination ideal."""

    eliminate: tuple[int, ...] = ()  # positions in ring
    keep: tuple[int, ...] = ()
    kind = "block"

    def key(self, exps):
        elim = tuple(exps[i] for i in self.eliminate)
        kept = tuple(exps[i] for i in self.keep)
        return ((sum(elim), _revlex_tail(elim)), (sum(kept), _revlex_tail(kept)))


def lex(ring):
    return Lex(tuple(ring))


def grevlex(ring):
    return GrevLex(tuple(ring))


def homogenized(ring):
    """The order for Lazard's method; the last variable of ``ring`` is
    the homogenizing one."""
    return Homogenized(tuple(ring))


def elimination_order(ring, eliminate):
    ring = tuple(ring)
    eliminate = set(eliminate)
    missing = eliminate - set(ring)
    if missing:
        raise ValueError(f"variables not in ring: {sorted(missing)}")
    elim_pos = tuple(i for i, v in enumerate(ring) if v in eliminate)
    keep_pos = tuple(i for i, v in enumerate(ring) if v not in eliminate)
    return Block(ring, eliminate=elim_pos, keep=keep_pos)
