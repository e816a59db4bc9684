import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from icis.orders import (
    Block,
    GrevLex,
    Lex,
    MonomialOrder,
    elimination_order,
    grevlex,
    lex,
)

R = ("x", "y", "z")


def greater(order, a, b):
    return order.key(a) > order.key(b)


class TestGrevLex:
    def test_degree_dominates(self):
        assert greater(grevlex(R), (2, 0, 0), (1, 1, 0))
        assert greater(grevlex(R), (0, 0, 3), (1, 1, 0))

    def test_tie_break(self):
        # equal degree: smaller exponent in the last variable wins
        assert greater(grevlex(R), (1, 1, 0), (1, 0, 1))
        assert greater(grevlex(R), (0, 2, 0), (1, 0, 1))

    def test_global(self):
        order = grevlex(R)
        one = (0, 0, 0)
        for e in itertools.product(range(3), repeat=3):
            if e != one:
                assert greater(order, e, one)


class TestLex:
    def test_first_variable_dominates(self):
        assert greater(lex(R), (1, 0, 0), (0, 5, 5))

    def test_fallthrough(self):
        assert greater(lex(R), (1, 2, 0), (1, 1, 9))


class TestElimination:
    def test_eliminated_block_dominates(self):
        order = elimination_order(R, ("x",))
        assert greater(order, (1, 0, 0), (0, 9, 9))

    def test_within_kept_block(self):
        order = elimination_order(R, ("x",))
        assert greater(order, (0, 2, 0), (0, 1, 0))


def _homogeneous_supports():
    """Sets of exponent vectors in (x, y, z, h) of one total degree."""
    def of_degree(d):
        return st.tuples(st.integers(0, d), st.integers(0, d), st.integers(0, d)).filter(
            lambda e: sum(e) <= d).map(lambda e: e + (d - sum(e),))

    return st.integers(0, 6).flatmap(lambda d: st.sets(of_degree(d), min_size=1, max_size=8))


@given(_homogeneous_supports())
@settings(max_examples=200, deadline=None)
def test_eliminating_h_picks_the_local_leading_monomial(support):
    # Lazard's method completes homogenized generators under the
    # elimination order of h and reads local leading monomials off the
    # result; the oracle ranks by total degree, then the h-exponent, then
    # revlex on x
    def oracle(e):
        return (sum(e), e[-1], tuple(-v for v in reversed(e[:-1])))

    order = elimination_order(R + ("h",), ["h"])
    assert max(support, key=order.key) == max(support, key=oracle)


# one order of each MonomialOrder subclass
ORDERS = {
    Lex: lex(R),
    GrevLex: grevlex(R),
    Block: elimination_order(R, ("x",)),
}


def test_orders_cover_every_subclass():
    assert set(MonomialOrder.__subclasses__()) == set(ORDERS)


@pytest.mark.parametrize("order", ORDERS.values(), ids=lambda o: o.kind)
@given(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)))
@settings(max_examples=100, deadline=None)
def test_every_order_is_global(order, e):
    # normal_form and minimal_polynomial need 1 below every other monomial
    one = (0, 0, 0)
    if e != one:
        assert greater(order, e, one)


@given(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
)
@settings(max_examples=100, deadline=None)
def test_orders_are_multiplicative(a, b, c):
    for order in ORDERS.values():
        if greater(order, a, b):
            shifted_a = tuple(i + j for i, j in zip(a, c))
            shifted_b = tuple(i + j for i, j in zip(b, c))
            assert greater(order, shifted_a, shifted_b)


def test_kind_is_fixed_by_the_class():
    # IdealPresentation caches bases by the order object; dataclass
    # equality includes the class, so orders of two kinds never share an
    # entry, and a kind cannot be set per instance
    with pytest.raises(TypeError):
        GrevLex(R, kind="lex")
    assert grevlex(R).kind == "grevlex"
    assert grevlex(R) != lex(R)
    assert elimination_order(R, ("x",)) == elimination_order(R, ("x",))
