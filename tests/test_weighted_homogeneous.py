"""Oracle from the Milnor fibration of weighted-homogeneous germs.

For f weighted homogeneous of degree 1 with weights w_i:

* Milnor-Orlik 1970: mu = prod(1/w_i - 1), and the Milnor algebra has
  Poincare series prod (1 - T^(1 - w_i)) / (1 - T^(w_i)) in the weighted
  degree.  Any monomial basis of the Milnor algebra that is weighted
  homogeneous, such as the grevlex standard monomials of the Jacobian
  ideal, has exactly these weighted degrees.
* The monodromy acts on the Milnor fiber with eigenvalues
  exp(2 pi i l(m)), l(m) = sum w_i (m_i + 1), over that basis x^m.
  A'Campo 1973: the Lefschetz number 1 + (-1)^(n-1) sum_m exp(2 pi i l(m))
  of the monodromy of a singular germ is 0.  Checked exactly in the
  cyclotomic field Q(zeta_N), by reduction modulo Phi_N.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
import sympy

from icis.basis import complete_basis, staircase
from icis.germs import hypersurface_milnor
from icis.orders import grevlex
from icis.problem import parse_expression

# f, ring, weights (weighted degree 1), mu
GERMS = [
    ("x^3 + y^4 + z^5", ("x", "y", "z"), (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)), 24),
    ("x^2*y + y^4", ("x", "y"), (Fraction(3, 8), Fraction(1, 4)), 5),
    ("x^2*y + y^3 + z^3", ("x", "y", "z"), (Fraction(1, 3),) * 3, 8),
]


def _weighted_degree(exps, weights):
    return sum(w * e for w, e in zip(weights, exps))


def _standard_monomials(f):
    """Grevlex standard monomials of the Jacobian ideal of f."""
    ring = f.ring
    stairs = staircase(complete_basis([f.diff(v) for v in ring], grevlex(ring)))
    box = [min(m[i] for m in stairs if sum(m) == m[i]) for i in range(len(ring))]
    return [e for e in product(*map(range, box))
            if not any(all(a >= b for a, b in zip(e, m)) for m in stairs)]


def _mul(p, q):
    out = Counter()
    for a, c in p.items():
        for b, d in q.items():
            out[a + b] += c * d
    return +out  # drops zero coefficients


def _one_minus(exponent):
    return Counter({0: 1, exponent: -1})


@pytest.fixture(params=GERMS, ids=[g[0] for g in GERMS])
def germ(request):
    text, ring, weights, mu = request.param
    f = parse_expression(text, ring)
    assert all(_weighted_degree(e, weights) == 1 for e in f.terms)
    return f, weights, mu


def test_milnor_orlik_formula(germ):
    f, weights, mu = germ
    expected = 1
    for w in weights:
        expected *= 1 / w - 1
    assert expected == mu
    assert hypersurface_milnor(f) == mu


def test_standard_monomials_have_the_poincare_series(germ):
    # with T = S^N, sum_m T^deg(m) * prod(1 - T^w_i) = prod(1 - T^(1 - w_i))
    f, weights, mu = germ
    N = lcm(*(w.denominator for w in weights))
    basis = _standard_monomials(f)
    assert len(basis) == mu
    lhs = Counter(int(N * _weighted_degree(e, weights)) for e in basis)
    rhs = Counter({0: 1})
    for w in weights:
        lhs = _mul(lhs, _one_minus(int(N * w)))
        rhs = _mul(rhs, _one_minus(int(N * (1 - w))))
    assert lhs == rhs


def test_lefschetz_number_of_the_monodromy_is_zero(germ):
    f, weights, _ = germ
    n = len(weights)
    N = lcm(*(w.denominator for w in weights))
    coeffs = [0] * N
    coeffs[0] = 1
    for e in _standard_monomials(f):
        ell = sum(w * (m + 1) for w, m in zip(weights, e))
        coeffs[int(N * ell) % N] += (-1) ** (n - 1)
    z = sympy.Symbol("z")
    lefschetz = sympy.Poly(list(reversed(coeffs)), z)
    assert lefschetz.rem(sympy.Poly(sympy.cyclotomic_poly(N, z), z)).is_zero
    # the same sum is not zero as an integer polynomial: the reduction
    # modulo Phi_N is what the check rests on
    assert not lefschetz.is_zero
