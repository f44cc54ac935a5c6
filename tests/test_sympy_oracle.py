"""Differential test of the integer root layer against sympy.

sympy is an optional, independent oracle: it is not a dependency of the
package, and this module is skipped where it is not installed.
"""

import random
from fractions import Fraction as F

import pytest

from interlacekit import (
    Polynomial,
    is_real_rooted,
    isolate_roots,
    poly_gcd,
    squarefree_part,
)

sympy = pytest.importorskip("sympy")
x = sympy.Symbol("x")


def random_factored(seed):
    """A product with repeated rational roots, irrational roots and complex pairs."""
    rng = random.Random(seed)
    expr = sympy.Integer(rng.choice([-3, -1, 1, 2, 5]))
    for _ in range(rng.randint(1, 3)):
        root = sympy.Rational(rng.randint(-6, 6), rng.randint(1, 3))
        expr *= (x - root) ** rng.randint(1, 3)
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            b = rng.randint(-3, 3)
            c = rng.randint(b * b // 4 + 1, 9)
            expr *= (x ** 2 + b * x + c) ** rng.randint(1, 2)
        else:
            expr *= x ** 2 - rng.choice([2, 3, 5, 7])
    return sympy.Poly(expr, x)


def to_polynomial(poly):
    return Polynomial([F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


@pytest.mark.parametrize("seed", range(40))
def test_root_layer_agrees_with_sympy(seed):
    poly = random_factored(seed)
    p = to_polynomial(poly)
    real = sympy.real_roots(poly)
    assert is_real_rooted(p) == (len(real) == poly.degree())

    distinct = sorted(set(real), key=lambda r: r.evalf(50))
    roots = isolate_roots(p)
    assert len(roots) == len(distinct)
    assert roots.multiplicities == tuple(real.count(r) for r in distinct)
    for (lo, hi), root in zip(roots.intervals, distinct):
        assert poly.count_roots(sympy.Rational(lo), sympy.Rational(hi)) == 1
        assert sympy.Rational(lo) < root < sympy.Rational(hi)

    sqf = sympy.Poly(sympy.sqf_part(poly), x).monic()
    assert squarefree_part(p) == to_polynomial(sqf)

    # A second polynomial sharing one irreducible factor of p, so the
    # gcd is never trivial.
    factors = [f for f, _ in sympy.factor_list(poly)[1]]
    other = random_factored(seed + 1000) * factors[seed % len(factors)]
    expected = sympy.gcd(poly, other).monic()
    assert expected.degree() >= 1
    assert poly_gcd(p, to_polynomial(other)) == to_polynomial(expected)
