import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlacekit import (
    InputFormatError,
    Polynomial,
    ZeroPolynomialError,
    parse_rational,
    poly_from_strings,
    poly_gcd,
    poly_to_strings,
    squarefree_part,
)
from interlacekit.rationals import _echo

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
polys = st.lists(rationals, min_size=0, max_size=6).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
points = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def poly_rem(f, g):
    """Remainder of f by nonzero g: plain long division over Fractions."""
    rem = list(f.coeffs)
    while len(rem) >= len(g.coeffs):
        factor = rem[-1] / g.coeffs[-1]
        shift = len(rem) - len(g.coeffs)
        for i, c in enumerate(g.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
    return Polynomial(rem)


def test_trim_and_degree():
    assert Polynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert Polynomial([1, 2, 0, 0]).degree == 1
    assert Polynomial().degree == -1
    assert Polynomial([0, 0]).is_zero
    assert not Polynomial([0, 0])
    assert Polynomial([5]).degree == 0


def test_zero_polynomial_has_no_leading_coefficient():
    with pytest.raises(ZeroPolynomialError):
        Polynomial().leading_coefficient()


def test_arithmetic():
    f = Polynomial([1, 2])        # 2x + 1
    g = Polynomial([0, 0, 3])     # 3x^2
    assert f + g == Polynomial([1, 2, 3])
    assert g - f == Polynomial([-1, -2, 3])
    assert f * g == Polynomial([0, 0, 3, 6])
    assert -f == Polynomial([-1, -2])
    assert 2 * f == Polynomial([2, 4])
    assert f + 1 == Polynomial([2, 2])
    assert f * F(1, 2) == Polynomial([F(1, 2), 1])


def test_cancellation_trims():
    f = Polynomial([0, 0, 1])
    g = Polynomial([1, 0, -1])
    assert (f + g).degree == 0
    assert (f + g) == Polynomial([1])


def test_evaluate_and_call():
    p = Polynomial([1, -2, 1])    # (x-1)^2
    assert p.evaluate(1) == 0
    assert p(3) == 4
    assert p(F(1, 2)) == F(1, 4)
    assert p.evaluate(0) == 1


def test_derivative():
    p = Polynomial([5, 3, 0, 2])  # 2x^3 + 3x + 5
    assert p.derivative() == Polynomial([3, 0, 6])
    assert Polynomial([7]).derivative() == Polynomial()
    assert Polynomial().derivative().is_zero


def test_from_roots():
    assert Polynomial.from_roots([1, 2, 3]) == Polynomial([-6, 11, -6, 1])
    assert Polynomial.from_roots([]) == Polynomial([1])
    assert Polynomial.from_roots([F(1, 2)]) == Polynomial([F(-1, 2), 1])
    doubled = Polynomial.from_roots([2, 2])
    assert doubled == Polynomial([4, -4, 1])


def test_pencil_member_example():
    f = Polynomial([0, -2, 1])    # x^2 - 2x
    g = Polynomial([-3, 1])       # x - 3
    out = f + -1 * g
    assert out == Polynomial([3, -3, 1])
    for t in (0, 1, 2, F(7, 3)):
        assert out(t) == f(t) - g(t)


def test_gcd_example():
    p = Polynomial([4, 0, -3, 1])     # (x-2)^2 (x+1)
    q = Polynomial([10, -7, 1])       # (x-2)(x-5)
    assert poly_gcd(p, q) == Polynomial([-2, 1])


def test_gcd_edge_cases():
    p = Polynomial([2, 4])
    assert poly_gcd(p, Polynomial()) == Polynomial([F(1, 2), 1])
    assert poly_gcd(Polynomial(), p) == Polynomial([F(1, 2), 1])
    assert poly_gcd(p, Polynomial([7])) == Polynomial([1])
    with pytest.raises(ZeroPolynomialError):
        poly_gcd(Polynomial(), Polynomial())


def test_squarefree_part():
    p = Polynomial.from_roots([1, 1, 2, 2, 2])
    assert squarefree_part(p) == Polynomial.from_roots([1, 2])
    assert squarefree_part(Polynomial([3, 6])) == Polynomial([F(1, 2), 1])
    assert squarefree_part(Polynomial([9])) == Polynomial([1])
    with pytest.raises(ZeroPolynomialError):
        squarefree_part(Polynomial())


def test_serialization_round_trip():
    p = Polynomial([F(-1, 2), 0, F(3, 7), 1])
    strings = poly_to_strings(p)
    assert strings == ["-1/2", "0", "3/7", "1"]
    assert poly_from_strings(strings) == p


def test_serialization_rejects_bad_input():
    with pytest.raises(InputFormatError):
        poly_from_strings(["1/0"])
    with pytest.raises(InputFormatError):
        poly_from_strings(["1/-2"])
    with pytest.raises(InputFormatError):
        poly_from_strings(["1.5"])
    with pytest.raises(InputFormatError):
        poly_from_strings("nope")


def test_parse_rational_takes_ascii_integers_only():
    assert parse_rational(" -3 ") == -3
    assert parse_rational("+6/4") == F(3, 2)
    assert parse_rational("1 / 2") == F(1, 2)
    # int() alone accepts digit separators and non-ASCII decimal digits
    for text in ["1_000", "\u0663", "1/\u0663", "\uff11", "0x10", "- 1", "1/2/3"]:
        with pytest.raises(InputFormatError):
            parse_rational(text)


_REFERENCE_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def reference_parse_rational(text):
    """The strip-and-partition parser that the one-match parser replaced.

    One change: each part is stripped before int().  The regex \\s takes
    the separators \\x1c-\\x1f as str.strip does, but int() rejects
    them, so "1\\x1c/2" used to fail with a false digit-limit message.
    """
    num_part, sep, den_part = text.strip().partition("/")
    parts = (num_part, den_part) if sep else (num_part,)
    if not all(_REFERENCE_INTEGER.fullmatch(part) for part in parts):
        raise InputFormatError(f"invalid rational {_echo(text)}")
    try:
        values = [int(part.strip()) for part in parts]
    except ValueError:
        raise InputFormatError(
            f"invalid rational {_echo(text)}: an integer exceeds the"
            f" interpreter's limit of {sys.get_int_max_str_digits()} digits"
        ) from None
    if not sep:
        return F(values[0])
    if values[1] <= 0:
        raise InputFormatError(
            f"invalid rational {_echo(text)}: denominator must be positive"
        )
    return F(*values)


# ASCII and Unicode whitespace (str.strip and the regex \s must agree on
# all of it), signs, slashes, digit separators, decimal points, non-ASCII
# digits and letters that int() would take in other bases.
_SPACES = " \t\n\r\x0b\x0c\x1c\x85\xa0\u1680\u2003\u2028\u3000"
_JUNK = "_.\u0663\uff11\u00b2xe"
_spaces = st.text(_SPACES, max_size=3)
_signs = st.sampled_from(["", "+", "-", "--", "+-"])
_digits = st.one_of(
    st.text("0123456789", max_size=4),
    st.integers(0, 10**60).map(str),
    st.text("0123456789" + _JUNK, min_size=1, max_size=4),
)
_parts = st.tuples(_spaces, _signs, _spaces, _digits, _spaces).map("".join)
rational_texts = st.one_of(
    _parts,
    st.tuples(_parts, st.sampled_from(["/", "//", " / "]), _parts).map("".join),
    st.text("0123456789+-/ " + _SPACES + _JUNK, max_size=12),
)


@settings(max_examples=600)
@given(rational_texts)
@example(" +03 ")
@example("4/2")
@example("-6 / 4")
@example("0/5")
@example("-0/-1")
@example("1/0")
@example("7/-2")
@example("/3")
@example("3/")
@example("1_000")
@example("\u00a012\u3000/\u20033\x85")
@example("1\x1c")
@example("1e3")
@example("1.0")
@example("\u0663/1")
@example("x" * 50 + "/0")
def test_parse_rational_matches_the_reference(text):
    try:
        expected = reference_parse_rational(text)
    except InputFormatError as exc:
        with pytest.raises(InputFormatError) as caught:
            parse_rational(text)
        assert str(caught.value) == str(exc)
    else:
        value = parse_rational(text)
        assert value == expected and type(value) is F


def test_parse_rational_skips_separator_whitespace_around_the_slash():
    # str.isspace holds for \x1c-\x1f and str.strip already dropped them
    # at the ends of the text; int() does not take them.
    assert parse_rational("\x1c1\x1d/\x1e2\x1f") == F(1, 2)
    with pytest.raises(InputFormatError, match="denominator must be positive$"):
        parse_rational("0/\x1c0")


def test_rejects_float_coefficients():
    with pytest.raises(InputFormatError):
        Polynomial([0.5])


@given(polys, polys, points)
def test_addition_agrees_with_evaluation(f, g, t):
    assert (f + g)(t) == f(t) + g(t)


@given(polys, polys, points)
def test_multiplication_agrees_with_evaluation(f, g, t):
    assert (f * g)(t) == f(t) * g(t)


@given(polys, polys, rationals, points)
def test_pencil_member_pointwise(f, g, alpha, t):
    assert (f + alpha * g)(t) == f(t) + alpha * g(t)


@settings(max_examples=40)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both_and_is_monic(f, g):
    h = poly_gcd(f, g)
    assert h.leading_coefficient() == 1
    assert poly_rem(f, h).is_zero
    assert poly_rem(g, h).is_zero


@settings(max_examples=40)
@given(nonzero_polys)
def test_squarefree_has_constant_gcd_with_derivative(p):
    s = squarefree_part(p)
    if s.degree >= 1:
        assert poly_gcd(s, s.derivative()).degree == 0
    assert poly_rem(p, s).is_zero


@given(polys, polys, points)
def test_product_rule(f, g, t):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs
