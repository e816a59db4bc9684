"""Monomial orders: lex, grevlex and elimination-block.

An order is bound to a ring (an ordered tuple of variable names) and
exposes a ``key`` function on exponent tuples; larger key means larger
monomial.  All keys are built from the total degree and (reversed,
negated) exponents, so every order here is multiplicative (u < v
implies u*w < v*w) and global (1 is the least monomial), as Buchberger,
normal forms and ``basis.minimal_polynomial`` need.  Lazard's method in
``basis`` needs no order of its own: it eliminates the homogenizing
variable, which on homogeneous polynomials ranks the terms of lowest
degree in the other variables first.
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
    return tuple([-e for e in reversed(exps)])


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    kind = "grevlex"

    @staticmethod  # reads no field: ``GrevLex.key`` serves every ring
    def key(exps):
        return (sum(exps), _revlex_tail(exps))


@dataclass(frozen=True)
class Block(MonomialOrder):
    """Elimination order: compare the eliminated block first (grevlex),
    then the kept block.  A standard basis under this order intersected
    with the kept subring generates the elimination ideal."""

    eliminate: tuple[int, ...] = ()  # positions in ring
    keep: tuple[int, ...] = ()
    kind = "block"

    def __post_init__(self):
        # each block's positions last to first, so a key reads its revlex
        # tail in one pass; not a field, so equality and hashing ignore it
        object.__setattr__(self, "_reversed", (self.eliminate[::-1], self.keep[::-1]))

    def key(self, exps):
        elim_rev, keep_rev = self._reversed
        elim = tuple([-exps[i] for i in elim_rev])
        kept = tuple([-exps[i] for i in keep_rev])
        return (-sum(elim), elim, -sum(kept), kept)


def lex(ring):
    return Lex(tuple(ring))


def grevlex(ring):
    return GrevLex(tuple(ring))


def elimination_order(ring, eliminate):
    ring = tuple(ring)
    eliminate = set(eliminate)
    missing = eliminate - set(ring)
    if missing:
        raise ValueError(f"variables not in ring: {sorted(missing)}")
    elim_pos = tuple(i for i, v in enumerate(ring) if v in eliminate)
    keep_pos = tuple(i for i, v in enumerate(ring) if v not in eliminate)
    return Block(ring, eliminate=elim_pos, keep=keep_pos)
