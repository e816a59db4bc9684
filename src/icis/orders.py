"""Monomial orders: global, local, elimination-block, and the global
order on homogenized polynomials that Lazard's method uses.

An order is bound to a ring (an ordered tuple of variable names) and
exposes a ``key`` function on exponent tuples; larger key means larger
monomial.  All keys are built from the total degree and (reversed,
negated) exponents, so every order here is multiplicative:
u < v implies u*w < v*w.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MonomialOrder:
    """Each subclass names its ``kind`` and says whether it ``is_global``
    as class constants, so neither can be set per instance."""

    ring: tuple[str, ...]

    def key(self, exps):
        raise NotImplementedError


@dataclass(frozen=True)
class Lex(MonomialOrder):
    kind = "lex"
    is_global = True

    def key(self, exps):
        return exps


def _revlex_tail(exps):
    return tuple(-e for e in reversed(exps))


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    kind = "grevlex"
    is_global = True

    def key(self, exps):
        return (sum(exps), _revlex_tail(exps))


@dataclass(frozen=True)
class NegDegRevLex(MonomialOrder):
    """The local order: lower total degree is larger, so 1 is the largest
    monomial and leading terms pick out lowest-order behaviour at 0."""

    kind = "negdegrevlex"
    is_global = False

    def key(self, exps):
        return (-sum(exps), _revlex_tail(exps))


@dataclass(frozen=True)
class Homogenized(MonomialOrder):
    """Global order on (x, h) for Lazard's method: total degree, then
    the h-exponent, then revlex on x.  On a homogeneous polynomial it
    picks the term whose x-part leads under the local degree order."""

    kind = "homogenized"
    is_global = True

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
    is_global = True

    def key(self, exps):
        elim = tuple(exps[i] for i in self.eliminate)
        kept = tuple(exps[i] for i in self.keep)
        return ((sum(elim), _revlex_tail(elim)), (sum(kept), _revlex_tail(kept)))


def lex(ring):
    return Lex(tuple(ring))


def grevlex(ring):
    return GrevLex(tuple(ring))


def negdegrevlex(ring):
    return NegDegRevLex(tuple(ring))


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
