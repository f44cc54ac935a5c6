"""Dense univariate polynomials over the rationals.

Coefficients are stored ascending, so ``coeffs[k]`` multiplies x**k.
Instances are immutable and hashable.  The zero polynomial has an empty
coefficient tuple and degree -1; every nonzero polynomial keeps a
nonzero leading coefficient, so ``degree`` is always honest.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

from . import _intops
from .errors import InputFormatError, ZeroPolynomialError
from .rationals import as_rational, format_rational, parse_rational


class Polynomial:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        cs = [as_rational(c, "coefficient") for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    @classmethod
    def from_roots(cls, roots: Iterable[int | Fraction]) -> "Polynomial":
        """Monic polynomial with the given roots, repeats giving multiplicity."""
        coeffs = [Fraction(1)]
        for root in roots:
            r = as_rational(root, "root")
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        return cls(coeffs)

    @classmethod
    def constant(cls, value: int | Fraction) -> "Polynomial":
        return cls([as_rational(value, "constant")])

    def evaluate(self, point: int | Fraction) -> Fraction:
        """Value at a rational point, by Horner's rule."""
        t = as_rational(point, "point")
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    __call__ = evaluate

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self._coeffs)][1:])

    def monic(self) -> "Polynomial":
        lead = self.leading_coefficient()
        if lead == 1:
            return self
        return Polynomial([c / lead for c in self._coeffs])

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        pairs = zip_longest(self._coeffs, other._coeffs, fillvalue=Fraction(0))
        return Polynomial([a + b for a, b in pairs])

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        pairs = zip_longest(self._coeffs, other._coeffs, fillvalue=Fraction(0))
        return Polynomial([a - b for a, b in pairs])

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([as_rational(other, "factor") * c for c in self._coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return Polynomial()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inside = ", ".join(format_rational(c) for c in self._coeffs)
        return f"Polynomial([{inside}])"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            mag = format_rational(abs(c))
            if k == 0:
                body = mag
            elif k == 1:
                body = "x" if abs(c) == 1 else f"{mag}*x"
            else:
                body = f"x^{k}" if abs(c) == 1 else f"{mag}*x^{k}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


def lin_comb(f: Polynomial, g: Polynomial, alpha: int | Fraction) -> Polynomial:
    """f + alpha*g."""
    return f + as_rational(alpha, "alpha") * g


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd over the rationals.

    Internally runs the subresultant remainder sequence on integer
    copies, which avoids rational blowup, and strips the content of its
    last entry; the result is normalized to a monic rational polynomial.
    gcd(p, 0) = monic p; gcd(0, 0) is undefined and raises.
    """
    if p.is_zero and q.is_zero:
        raise ZeroPolynomialError("gcd of two zero polynomials is undefined")
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    g = _intops.poly_gcd(
        _intops.from_fraction_coeffs(p.coeffs),
        _intops.from_fraction_coeffs(q.coeffs),
    )
    return Polynomial(g).monic()


def squarefree_part(p: Polynomial) -> Polynomial:
    """Monic polynomial with the same real and complex roots, all simple."""
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of zero is undefined")
    ints = _intops.from_fraction_coeffs(p.coeffs)
    gcd = _intops.poly_gcd(ints, _intops.derivative(ints))
    return Polynomial(_intops.exact_quotient(ints, gcd)).monic()


def poly_to_strings(p: Polynomial) -> list[str]:
    """Ascending coefficient strings, the on-disk polynomial form."""
    return [format_rational(c) for c in p.coeffs]


def poly_from_strings(items: Sequence[str]) -> Polynomial:
    if not isinstance(items, (list, tuple)):
        raise InputFormatError("polynomial must be an array of coefficient strings")
    return Polynomial([parse_rational(item) for item in items])
