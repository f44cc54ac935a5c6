"""Differential test of the integer root layer against sympy.

sympy is an optional, independent oracle: it is not a dependency of the
package, and this module is skipped where it is not installed.
"""

import random
from fractions import Fraction as F

import pytest

from interlacekit import _intops
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


def int_coeffs(expr):
    """Ascending primitive integer coefficients of an integer polynomial."""
    coeffs = sympy.Poly(expr, x).all_coeffs()
    return _intops.primitive([int(c) for c in reversed(coeffs)])


def random_pair(seed):
    """deg p >= deg q, with shared factors, sparse terms and negative leads."""
    rng = random.Random(seed)

    def factor(degree):
        rest = sum(rng.choice([0, rng.randint(-9, 9)]) * x ** k for k in range(degree))
        return rest + rng.choice([-3, -1, 1, 2, 7]) * x ** degree

    shared = factor(rng.randint(1, 3)) if rng.random() < 0.5 else 1
    dq = rng.randint(0, 6)
    dp = dq + rng.choice([0, 0, 1, 1, 2, 3, 5])
    return int_coeffs(factor(dp) * shared), int_coeffs(factor(dq) * shared)


with_repeats = (x - 2) ** 2 * (x + 1) * (x ** 2 - x + 3)
SUBRESULTANT_CASES = [
    # equal degrees, both leading signs
    (3 * x ** 3 - 2 * x + 5, -2 * x ** 3 + x ** 2 + 1),
    (-x ** 4 + 2 * x - 1, -3 * x ** 4 + x ** 3 + 2),
    # Knuth's example: the degrees drop 8, 6, 4, 2, 1, 0
    (
        x ** 8 + x ** 6 - 3 * x ** 4 - 3 * x ** 3 + 8 * x ** 2 + 2 * x - 5,
        3 * x ** 6 + 5 * x ** 4 - 4 * x ** 2 - 9 * x + 21,
    ),
    # gaps of two and three, negative leads
    (-x ** 7 + 4 * x ** 3 - 2, x ** 4 - 3 * x + 1),
    (x ** 6 - 1, -2 * x ** 3 + x),
    # nonconstant gcds, one of them with a multiple root
    ((x - 1) ** 3 * (x + 2) * (x ** 2 + 1), (x - 1) ** 2 * (3 * x - 4)),
    ((2 * x ** 2 - 3) * (x ** 3 + x + 5), -(2 * x ** 2 - 3) * (x ** 2 - 7 * x + 1)),
    # p and p', the pair a Sturm chain starts from
    (with_repeats, sympy.diff(with_repeats, x)),
]


@pytest.mark.parametrize(
    "p, q",
    [(int_coeffs(p), int_coeffs(q)) for p, q in SUBRESULTANT_CASES]
    + [random_pair(seed) for seed in range(60)],
)
def test_remainder_sequence_is_the_subresultant_prs(p, q):
    # Each entry is sympy's subresultant up to sign, so every division
    # the sequence makes is exact and the entries are no larger.
    expected = sympy.subresultants(
        sympy.Poly(list(reversed(p)), x), sympy.Poly(list(reversed(q)), x)
    )
    seq = _intops.remainder_sequence(p, q)
    assert len(seq) == len(expected)
    for entry, sub in zip(seq, expected):
        coeffs = [int(c) for c in reversed(sympy.Poly(sub, x).all_coeffs())]
        assert entry in (coeffs, [-c for c in coeffs])
