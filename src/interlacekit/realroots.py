"""Certified real root counting, isolation, and refinement.

Counting and isolation rest on Sturm's theorem: for a squarefree p and
points lo < hi with p(lo), p(hi) nonzero, the number of roots in
(lo, hi] equals V(lo) - V(hi), where V counts sign variations down the
Sturm chain.  An isolating interval holds one simple root of the
carrier, so multiplicities and refinement need only the signs of one
polynomial at its ends.  All queries run on integer polynomials, so
the answers are exact, never estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Sequence

from . import _intops
from .errors import (
    EndpointRootError,
    InputFormatError,
    InternalInconsistencyError,
    ZeroPolynomialError,
)
from .polynomials import Polynomial
from .rationals import Rational, as_int, as_rational, format_rational

DEFAULT_WIDTH = Fraction(1, 2 ** 20)


class SturmChain:
    """Sturm chain of the squarefree part of a polynomial.

    The chain is p's signed subresultant sequence on integers, which
    ends at gcd(p, p'); the primitive part of that gcd is kept for the
    multiplicity tower, and the chain is rebuilt from p divided by it
    only when it is not constant.  Its first entry is the primitive
    squarefree part with a positive leading coefficient, the carrier
    that isolated roots keep; later entries are not made primitive.
    Each entry is a positive multiple of the matching entry of the
    textbook rational chain, so sign variations agree exactly.

    Sturm counts serve only where a bracket may hold several roots:
    isolation and ``count_roots_in``.  Once roots are isolated, every
    question about them (multiplicities, refinement, ties) is a sign
    test of one polynomial at a bracket's ends.
    """

    __slots__ = ("_int_chain", "_gcd")

    def __init__(self, p: Polynomial):
        if p.is_zero:
            raise ZeroPolynomialError("Sturm chain of zero is undefined")
        chain, gcd = _intops.squarefree_sturm(_intops.from_fraction_coeffs(p.coeffs))
        object.__setattr__(self, "_int_chain", chain)
        object.__setattr__(self, "_gcd", gcd)

    def __setattr__(self, name, value):
        raise AttributeError("SturmChain is immutable")

    @property
    def degree(self) -> int:
        return len(self._int_chain[0]) - 1


def build_sturm(p: Polynomial) -> SturmChain:
    return SturmChain(p)


def count_roots_in(chain: SturmChain, lo: Rational, hi: Rational) -> int:
    """Number of distinct real roots in (lo, hi].

    Raises EndpointRootError if either endpoint is a root, because the
    variation difference is unreliable there.  Callers that pick their
    own endpoints should nudge and retry.  Each endpoint's chain is
    evaluated once, and only past its first entry when that is no root.
    """
    lo = as_rational(lo, "lo")
    hi = as_rational(hi, "hi")
    if lo >= hi:
        raise ValueError(f"empty interval: need lo < hi, got [{lo}, {hi}]")
    if chain.degree == 0:
        return 0
    variations = []
    for end, name in ((lo, "lower"), (hi, "upper")):
        v = _intops.variations_at(chain._int_chain, end.numerator, end.denominator)
        if v is None:
            raise EndpointRootError(f"{name} endpoint {end} is a root")
        variations.append(v)
    return variations[0] - variations[1]


def is_real_rooted(p: Polynomial | Sequence[int]) -> bool:
    """True iff every complex root of p is real.

    p is a ``Polynomial`` or a sequence of Python ints, the ascending
    coefficients of an integer polynomial; trailing zeros are ignored,
    and any other entry, a bool included, raises InputFormatError.  Both
    routes hand ``_intops.is_real_rooted`` the primitive integer multiple
    of p with a positive leading coefficient, so they agree on every
    input.

    Multiplicities do not matter: p is real rooted exactly when its
    squarefree part of degree s has s distinct real roots.  The test runs
    on p's integer subresultant sequence with p' and stops at the first
    entry that rules that out; it builds no Sturm chain and strips no
    content past p and p'.  Constants are real rooted; the zero
    polynomial is rejected.
    """
    if isinstance(p, Polynomial):
        ints = _intops.from_fraction_coeffs(p.coeffs)
    else:
        ints = list(p)
        if not all(type(c) is int for c in ints):  # one sweep for the common case
            for i, c in enumerate(ints):
                as_int(c, f"coefficient {i}")
        ints = _intops.primitive(_intops.trim(ints))
    if not ints:
        raise ZeroPolynomialError("is_real_rooted is undefined for zero")
    return _intops.is_real_rooted(ints if ints[-1] > 0 else [-c for c in ints])


@dataclass(frozen=True)
class RootIntervals:
    """Isolated real roots: disjoint rational intervals, one root each.

    ``intervals[k]`` is (lo, hi) with lo <= hi.  An open pair lo < hi
    holds exactly one root with the carrier nonzero at both ends; a
    degenerate pair lo == hi pins the root exactly, either because it
    was known (``from_roots``) or because a ``_refine`` grid point landed
    on it.  ``multiplicities[k]`` is the root's multiplicity in the
    source polynomial, a positive int.  ``carrier`` is the squarefree
    part as ascending integer coefficients, primitive with a positive
    leading coefficient: the first entry of the Sturm chain.  Its sign
    changes certify the open intervals; refinement and root comparison
    evaluate it and nothing else.  Malformed fields, entries of the wrong
    type (a bool included), a count mismatch, a multiplicity below 1 and
    inverted, overlapping or repeated intervals raise InputFormatError
    naming the field or the index.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    multiplicities: tuple[int, ...]
    carrier: tuple[int, ...]

    def __post_init__(self):
        for name in ("intervals", "multiplicities", "carrier"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise InputFormatError(f"{name} must be a tuple or a list")
        if len(self.intervals) != len(self.multiplicities):
            raise InputFormatError("multiplicities must hold one entry per interval")
        for i, m in enumerate(self.multiplicities):
            if as_int(m, f"multiplicity {i}") < 1:
                raise InputFormatError(f"multiplicity {i} must be positive, got {m}")
        for i, c in enumerate(self.carrier):
            as_int(c, f"carrier coefficient {i}")
        prev_lo = prev_hi = None
        for i, interval in enumerate(self.intervals):
            if not isinstance(interval, (tuple, list)) or len(interval) != 2:
                raise InputFormatError(
                    f"interval {i} must be a pair (lo, hi), got {interval!r}"
                )
            for end in interval:
                as_rational(end, f"interval {i} end")
            lo, hi = interval
            if lo > hi:
                raise InputFormatError(f"interval {i} is inverted: [{lo}, {hi}]")
            if prev_hi is not None and lo < prev_hi:
                raise InputFormatError(
                    f"interval {i} overlaps or precedes interval {i - 1}"
                )
            if prev_lo == prev_hi == lo == hi:
                raise InputFormatError(f"interval {i} repeats the point [{lo}, {hi}]")
            prev_lo, prev_hi = lo, hi

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)

    @classmethod
    def from_roots(
        cls,
        roots: Sequence[int | Fraction],
        multiplicities: Sequence[int] | None = None,
    ) -> "RootIntervals":
        """Exactly known rational roots as degenerate point intervals."""
        rs = [as_rational(r, "root") for r in roots]
        if multiplicities is None:
            multiplicities = [1] * len(rs)
        carrier = _intops.from_fraction_coeffs(Polynomial.from_roots(rs).coeffs)
        return cls(
            intervals=tuple((r, r) for r in rs),
            multiplicities=tuple(multiplicities),
            carrier=tuple(carrier),
        )

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "lo": format_rational(lo),
                "hi": format_rational(hi),
                "mult": m,
            }
            for (lo, hi), m in zip(self.intervals, self.multiplicities)
        ]


def _isolate_squarefree(chain: SturmChain) -> list[tuple[int, int, int]]:
    """Disjoint open intervals (a/den, b/den), one distinct real root in each.

    Brackets are integers over a denominator that doubles with each
    halving, as in ``_refine``.  A bracket holding several roots splits
    at a + (b - a) / 2^j for the least j whose point is not a root; the
    carrier's sign found there starts the variation count at the split.
    The search begins at (-B, B) for the strict Cauchy bound B, so no
    root lies outside and neither end can be a root; if one is, the
    bound is wrong, and that raises InternalInconsistencyError.

    B fixes the split tree, and so every bracket.  The Fujiwara bound
    2^e, usually far tighter, only decides which splits need an
    evaluation: a point beyond it is no root, and V there is V(+inf)
    or V(-inf) by its sign.
    """
    ints = chain._int_chain
    p0 = ints[0]
    bound, den = _intops.cauchy_bound(p0)
    if 0 in (_intops.eval_sign(p0, bound, den), _intops.eval_sign(p0, -bound, den)):
        raise InternalInconsistencyError(f"Cauchy bound {bound}/{den} is a root")
    e = _intops.root_bound_exponent(p0)
    # No root lies outside (-B, B), so V(-B) = V(-inf) and V(B) = V(+inf).
    v_lo = _intops.variations_at_infinity(ints, -1)
    v_hi = _intops.variations_at_infinity(ints, 1)
    out: list[tuple[int, int, int]] = []
    stack = [(-bound, bound, den, v_lo, v_hi)]
    while stack:
        a, b, den, va, vb = stack.pop()
        count = va - vb
        if count <= 0:
            continue
        if count == 1:
            out.append((a, b, den))
            continue
        step = b - a
        for _ in range(chain.degree + 2):
            a, b, den = 2 * a, 2 * b, 2 * den
            mid = a + step
            if abs(mid) > den << e:
                v_mid = v_hi if mid > 0 else v_lo
                break
            v_mid = _intops.variations_at(ints, mid, den)
            if v_mid is not None:
                break
        else:
            raise InternalInconsistencyError(
                "could not find a non-root split point"
            )
        stack.append((mid, b, den, v_mid, vb))
        stack.append((a, mid, den, va, v_mid))
    return out


def _multiplicities(
    g: list[int], intervals: Sequence[tuple[int, int, int]]
) -> list[int]:
    """Multiplicity of the root inside each interval, via the gcd tower.

    With g_0 = p and g_{i+1} = gcd(g_i, g_i'), a root of multiplicity m
    in p appears in exactly g_0 .. g_{m-1}; ``g`` is g_1, where p's Sturm
    chain ended.  Layer i divides g_i by g_{i+1}, from ``poly_gcd`` of
    g_i and g_i', and takes the sign of that squarefree part at each
    interval end.  The intervals are fresh isolating intervals of p:
    open, no end a root of p, and one root of p inside, which is simple
    in the squarefree part.  So the part changes sign across an interval
    exactly when that root is one of its roots.
    """
    mults = [1] * len(intervals)
    while len(g) > 1:
        nxt = _intops.poly_gcd(g, _intops.derivative(g))
        part = _intops.exact_quotient(g, nxt)
        for i, (a, b, den) in enumerate(intervals):
            if _intops.eval_sign(part, a, den) != _intops.eval_sign(part, b, den):
                mults[i] += 1
        g = nxt
    return mults


def isolate_roots(p: Polynomial) -> RootIntervals:
    """Isolate every distinct real root of p with its multiplicity.

    Returns intervals sorted ascending.  An empty result means p has no
    real roots.  The sum of multiplicities equals deg p exactly when p
    is real rooted.
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of zero")
    chain = SturmChain(p)
    carrier = tuple(chain._int_chain[0])
    if chain.degree == 0:
        return RootIntervals(intervals=(), multiplicities=(), carrier=carrier)
    brackets = _isolate_squarefree(chain)
    mults = _multiplicities(chain._gcd, brackets)
    return RootIntervals(
        intervals=tuple((Fraction(a, den), Fraction(b, den)) for a, b, den in brackets),
        multiplicities=tuple(mults),
        carrier=carrier,
    )


def _refine(
    p0: Sequence[int], lo: Fraction, hi: Fraction, steps: int
) -> tuple[Fraction, Fraction]:
    """Halve the bracket [lo, hi] ``steps`` times, in secant jumps.

    This is the only routine that narrows a certified bracket.  For an
    open bracket with a strict sign change of p0 at its ends and one
    root r inside, k halvings end in the level-k dyadic cell that holds
    r, or at (r, r) when r is a point of that grid.  At ``steps`` 1 the
    jump index is clamped to the midpoint, so any bracket with a strict
    sign change, whatever it holds, takes one bisection step at three
    evaluations; the walk and the separation steps of ``refine_to``
    halve that way.  A jump of depth m splits the cell into 2^m cells,
    evaluates the grid point nearest the secant root and its neighbour
    on the side of the sign change, and keeps that fine cell if it
    changes sign; m then doubles.  On a miss the cell takes one plain
    halving and m halves.  A zero at any evaluated point is r itself, on
    the grid, and pins it.  Values come from ``_intops.eval_scaled`` over
    the common denominator, so the secant root is exact.  A point comes
    back unchanged if p0 vanishes there; a point that is no root, or an
    open bracket without a strict sign change, raises ``ValueError``
    naming it, even at ``steps <= 0``.
    """
    if lo == hi:
        if _intops.eval_sign(p0, lo.numerator, lo.denominator):
            raise ValueError(f"point bracket [{lo}, {hi}] is not a root of its carrier")
        return lo, hi
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    w = hi.numerator * (den // hi.denominator) - a
    va = _intops.eval_scaled(p0, a, den)
    vb = _intops.eval_scaled(p0, a + w, den)
    if va == 0 or vb == 0 or (va > 0) == (vb > 0):
        raise ValueError(f"no strict sign change across bracket [{lo}, {hi}]")
    if steps <= 0:
        return lo, hi
    d = len(p0) - 1
    m = 1
    while steps:
        m = min(m, steps)
        n = 1 << m
        fine = den << m
        # Index of the grid point nearest a + w * va / (va - vb).
        i = min(max((2 * n * va + va - vb) // (2 * (va - vb)), 1), n - 1)
        x = (a << m) + i * w
        vx = _intops.eval_scaled(p0, x, fine)
        if vx == 0:
            return Fraction(x, fine), Fraction(x, fine)
        side = 1 if (vx > 0) == (va > 0) else -1
        y = x + side * w
        # A bracket end's value, times 2^(m*d) for the finer denominator.
        if i + side == 0:
            vy = va << (m * d)
        elif i + side == n:
            vy = vb << (m * d)
        else:
            vy = _intops.eval_scaled(p0, y, fine)
            if vy == 0:
                return Fraction(y, fine), Fraction(y, fine)
        if (vy > 0) != (vx > 0):
            a, den = min(x, y), fine
            va, vb = (vx, vy) if side > 0 else (vy, vx)
            steps -= m
            m *= 2
            continue
        # A miss: one plain halving of the cell, keeping the sign change.
        # The midpoint is grid index 2^(m-1); if the jump evaluated it,
        # its value drops the factor 2^((m-1)*d) of the finer grid.
        a, den = 2 * a, 2 * den
        half = n >> 1
        if half in (i, i + side):
            vm = (vx if i == half else vy) >> ((m - 1) * d)
        else:
            vm = _intops.eval_scaled(p0, a + w, den)
        if vm == 0:
            return Fraction(a + w, den), Fraction(a + w, den)
        if (vm > 0) == (va > 0):
            a, va, vb = a + w, vm, vb << d
        else:
            va, vb = va << d, vm
        steps -= 1
        m = max(1, m // 2)
    return Fraction(a, den), Fraction(a + w, den)


def refine_to(roots: RootIntervals, width: Rational) -> RootIntervals:
    """Shrink every interval to at most the given width.

    Each interval gets what the fewest halvings that reach the width
    give: the dyadic cell where the carrier changes sign, or a point
    interval, which is final, when a midpoint hits the root exactly.
    ``_refine`` gets there in secant jumps, with far fewer evaluations
    than halvings.  Refinement preserves the root set and the
    multiplicities.  After refinement, consecutive intervals are
    strictly separated (hi of one is below lo of the next); intervals
    that still touch take one-step ``_refine`` halvings, one each per
    round, until they do.
    An open interval without a strict sign change of the carrier at its
    ends raises ``ValueError``, even one already narrow enough, and so
    does a point interval where the carrier does not vanish.
    """
    width = as_rational(width, "width")
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    p0 = roots.carrier
    refined = [
        _refine(p0, lo, hi, (ceil((hi - lo) / width) - 1).bit_length())
        for lo, hi in roots.intervals
    ]
    for i in range(len(refined) - 1):
        while refined[i][1] >= refined[i + 1][0]:
            a, b = refined[i], refined[i + 1]
            if a[0] == a[1] and b[0] == b[1]:
                raise InternalInconsistencyError(
                    "two point intervals coincide; roots were not distinct"
                )
            refined[i], refined[i + 1] = _refine(p0, *a, 1), _refine(p0, *b, 1)
    return RootIntervals(
        intervals=tuple(refined),
        multiplicities=roots.multiplicities,
        carrier=roots.carrier,
    )
