"""Certified real root isolation and refinement.

Isolation and refinement first try the brackets that float roots point
at: a float approximation of each root picks a cell of the same dyadic
grid the exact routes walk, and integer signs at the cell's ends prove
that it is the cell those routes return (Rump, "Verification methods",
2010: floats choose, integers prove).  A cell the signs do not prove
sends the input down the exact route, so no result depends on a float.

The exact isolation route rests on Sturm's theorem: for a squarefree p
and points lo < hi with p(lo), p(hi) nonzero, the number of roots in
(lo, hi] equals V(lo) - V(hi), where V counts sign variations down the
Sturm chain.  An isolating interval holds one simple root of the
carrier, so multiplicities and refinement need only the signs of one
polynomial at its ends.  All queries run on integer polynomials, so
the answers are exact, never estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, isfinite, lcm, ldexp, sqrt
from typing import Sequence

from . import _intops
from .errors import (
    InputFormatError,
    InternalInconsistencyError,
    ZeroPolynomialError,
)
from .polynomials import Polynomial
from .rationals import Rational, as_int, as_list, as_rational, format_rational

DEFAULT_WIDTH = Fraction(1, 2 ** 20)


class SturmChain:
    """Sturm chain of the squarefree part of p, as ``_int_poly`` reads it.

    The chain is p's signed subresultant sequence on integers, which
    ends at gcd(p, p'); the primitive part of that gcd is kept for the
    multiplicity tower, and the chain is rebuilt from p divided by it
    only when it is not constant.  Its first entry is the primitive
    squarefree part with a positive leading coefficient, the carrier
    that isolated roots keep; later entries are not made primitive.
    Each entry is a positive multiple of the matching entry of the
    textbook rational chain, so sign variations agree exactly.

    Sturm counts serve only where a bracket may hold several roots:
    isolation, when the float cells are not proved.  Once roots are
    isolated, every question about them (multiplicities, refinement,
    ties) is a sign test of one polynomial at a bracket's ends.
    """

    __slots__ = ("_int_chain", "_gcd")

    def __init__(self, p: Polynomial | Sequence[int]):
        p = _int_poly(p)
        chain = _intops.remainder_sequence(p, _intops.derivative(p))
        gcd = _intops.primitive(chain[-1])
        if len(gcd) > 1:
            p = _intops.exact_quotient(p, gcd)
            chain = _intops.remainder_sequence(p, _intops.derivative(p))
        object.__setattr__(self, "_int_chain", chain)
        object.__setattr__(self, "_gcd", gcd)

    def __setattr__(self, name, value):
        raise AttributeError("SturmChain is immutable")

    @property
    def degree(self) -> int:
        return len(self._int_chain[0]) - 1


def _int_poly(p: Polynomial | Sequence[int]) -> list[int]:
    """p as a primitive integer polynomial with a positive leading coefficient.

    p is a ``Polynomial`` or a sequence of Python ints, ascending, whose
    trailing zeros are ignored; another entry, a bool included, or a p
    that is not iterable raises InputFormatError, and zero raises
    ZeroPolynomialError.  Both forms of one polynomial give the same ints.
    """
    if isinstance(p, Polynomial):
        ints = _intops.from_fraction_coeffs(p.coeffs)
    else:
        ints = as_list(p, "coefficients")
        for i, c in enumerate(ints):
            if type(c) is not int:
                as_int(c, f"coefficient {i}")
        ints = _intops.primitive(_intops.trim(ints))
    if not ints:
        raise ZeroPolynomialError("the zero polynomial has no roots to examine")
    return ints if ints[-1] > 0 else [-c for c in ints]


def is_real_rooted(p: Polynomial | Sequence[int]) -> bool:
    """True iff every complex root of p, as ``_int_poly`` reads it, is real.

    Multiplicities do not matter: p is real rooted exactly when its
    squarefree part of degree s has s distinct real roots.  The test runs
    on p's integer subresultant sequence with p' and stops at the first
    entry that rules that out; it builds no Sturm chain and strips no
    content past p and p'.  Constants are real rooted.
    """
    return _intops.is_real_rooted(_int_poly(p))


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
    naming the field or the index.  Lists are stored as tuples, so a
    value built from lists equals and hashes as one built from tuples.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    multiplicities: tuple[int, ...]
    carrier: tuple[int, ...]
    # Float roots of the carrier, one per interval, that ``refine_to``
    # tries first; set by ``isolate_roots`` and ``refine_to`` only.
    _guesses: tuple[float, ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        for name in ("intervals", "multiplicities", "carrier"):
            value = getattr(self, name)
            if type(value) is not tuple:
                if not isinstance(value, (tuple, list)):
                    raise InputFormatError(f"{name} must be a tuple or a list")
                object.__setattr__(self, name, tuple(value))
        if len(self.intervals) != len(self.multiplicities):
            raise InputFormatError("multiplicities must hold one entry per interval")
        # An entry of the common type skips the check that names the culprit.
        for i, m in enumerate(self.multiplicities):
            if type(m) is not int:
                as_int(m, f"multiplicity {i}")
            if m < 1:
                raise InputFormatError(f"multiplicity {i} must be positive, got {m}")
        for i, c in enumerate(self.carrier):
            if type(c) is not int:
                as_int(c, f"carrier coefficient {i}")
        listed = False  # a pair given as a list, to be stored as a tuple
        prev_lo = prev_hi = None
        for i, interval in enumerate(self.intervals):
            if not (
                type(interval) is tuple
                and len(interval) == 2
                and type(interval[0]) is Fraction
                and type(interval[1]) is Fraction
            ):
                if not isinstance(interval, (tuple, list)) or len(interval) != 2:
                    raise InputFormatError(
                        f"interval {i} must be a pair (lo, hi), got {interval!r}"
                    )
                for end in interval:
                    as_rational(end, f"interval {i} end")
                listed = listed or type(interval) is not tuple
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
        if listed:
            object.__setattr__(self, "intervals", tuple(map(tuple, self.intervals)))

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
        rs = [as_rational(r, "root") for r in as_list(roots, "roots")]
        if multiplicities is None:
            multiplicities = [1] * len(rs)
        carrier = _intops.from_fraction_coeffs(Polynomial.from_roots(rs).coeffs)
        return cls(
            intervals=tuple((r, r) for r in rs),
            multiplicities=tuple(as_list(multiplicities, "multiplicities")),
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


def _sign_at(p0: Sequence[int], num: int, den: int, signs: dict) -> int:
    """Sign of p0 at num/den, evaluated once per point.

    ``signs`` maps each point, with the power of two that num and den
    share divided out, to p0's sign there.  Every point here is an int
    over |lc| times a power of two, so equal points get equal keys.
    """
    shift = ((num | den) & -(num | den)).bit_length() - 1
    key = (num >> shift, den >> shift)
    sign = signs.get(key)
    if sign is None:
        sign = signs[key] = _intops.eval_sign(p0, num, den)
    return sign


def _isolate_squarefree(
    ints: list[list[int]], signs: dict
) -> list[tuple[int, int, int]]:
    """Disjoint open intervals (a/den, b/den), one distinct real root in each.

    ``ints`` is the Sturm chain of the carrier, and ``signs`` holds the
    carrier's signs found so far (see ``_sign_at``), which are not
    evaluated again.  Brackets are integers over a denominator that
    doubles with each halving, as in ``_refine``.  A bracket holding
    several roots splits at a + (b - a) / 2^j for the least j whose point
    is not a root; the carrier's sign found there starts the variation
    count at the split.  The search begins at (-B, B) for the strict
    Cauchy bound B, so no root lies outside and neither end can be a
    root; if one is, the bound is wrong, and that raises
    InternalInconsistencyError.

    B fixes the split tree, and so every bracket.  The Fujiwara bound
    2^e, usually far tighter, only decides which splits need an
    evaluation: a point beyond it is no root, and V there is V(+inf)
    or V(-inf) by its sign.
    """
    p0 = ints[0]
    bound, den = _intops.cauchy_bound(p0)
    if 0 in (_sign_at(p0, bound, den, signs), _sign_at(p0, -bound, den, signs)):
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
        for _ in range(len(p0) + 1):
            a, b, den = 2 * a, 2 * b, 2 * den
            mid = a + step
            if abs(mid) > den << e:
                v_mid = v_hi if mid > 0 else v_lo
                break
            first = _sign_at(p0, mid, den, signs)
            if first:
                v_mid = _intops.variations(
                    [first, *(_intops.eval_sign(c, mid, den) for c in ints[1:])]
                )
                break
        else:
            raise InternalInconsistencyError(
                "could not find a non-root split point"
            )
        stack.append((mid, b, den, v_mid, vb))
        stack.append((a, mid, den, va, v_mid))
    return out


def _laguerre(a: list[float]) -> float | None:
    """A real root of the float polynomial a (ascending, degree k >= 1), or None.

    Laguerre's step from t = 0, with p, p' and p''/2 from one Horner
    pass.  For a real-rooted polynomial the discriminant
    (k - 1)(k H - G^2), with G = p'/p and H = G^2 - p''/p, is at least 0
    (Cauchy-Schwarz on the sums of 1/(t - r) and 1/(t - r)^2), and the
    iteration converges from any real start, cubically to a simple
    root; a clearly negative one means a non-real root.  It stops after
    a step below 10^-6 of t, or below 10^-14 near 0.
    """
    k = len(a) - 1
    x = 0.0
    for _ in range(60):
        p, dp, hp = a[k], 0.0, 0.0
        for c in a[k - 1::-1]:
            hp = hp * x + dp
            dp = dp * x + p
            p = p * x + c
        if not p:
            return x
        g = dp / p
        gg = g * g
        h = gg - 2 * hp / p
        disc = (k - 1) * (k * h - gg)
        if disc < 0:
            if disc < -1e-9 * (k * k * abs(h) + gg):
                return None
            disc = 0.0
        root = sqrt(disc)
        denom = g + root if g >= 0 else g - root
        if not denom:
            return None
        dx = k / denom
        x -= dx
        if not isfinite(x):
            return None
        if abs(dx) <= 1e-6 * abs(x) or abs(dx) <= 1e-14:
            return x
    return None


def _float_roots(ints: Sequence[int]) -> list[float] | None:
    """Float approximations of the roots of ints, sorted, or None.

    The floats only choose points for exact sign tests; no result trusts
    them.  The solver works on q(t) = p(2^e t) for e from
    ``_intops.root_bound_exponent``, whose roots lie in |t| <= 1.  Each
    coefficient keeps its top 60 bits and is scaled by ``ldexp`` against
    the largest, so none overflows.  ``_laguerre`` finds a root, which is
    deflated out, down to degree 0; then one Newton step on q itself
    polishes each root.  None means a non-real root, an iteration that
    did not settle, a value that is not finite, or roots too large for
    a float.
    """
    d = len(ints) - 1
    if d < 1 or not ints[-1]:
        return None
    e = _intops.root_bound_exponent(ints)
    if e > 1000:
        return None
    top = max(abs(c).bit_length() + e * j for j, c in enumerate(ints))
    q = []
    for j, c in enumerate(ints):
        s = max(abs(c).bit_length() - 60, 0)
        q.append(ldexp(c >> s, s + e * j - top))
    roots = []
    a = q
    for k in range(d, 0, -1):
        x = _laguerre(a)
        if x is None:
            return None
        roots.append(x)
        # a / (t - x) by synthetic division; the remainder is dropped.
        b = a[k]
        a = a[:k]
        for j in range(k - 1, -1, -1):
            a[j], b = b, b * x + a[j]
    out = []
    for x in roots:
        v, dv = q[d], 0.0
        for c in q[d - 1::-1]:
            dv = dv * x + v
            v = v * x + c
        if dv:
            x -= v / dv
        # Every root has |t| <= 1; this also rejects inf and nan.
        if not abs(x) <= 2:
            return None
        out.append(ldexp(x, e))
    out.sort()
    return out


def _float_cells(
    p0: list[int], xs: list[float], bound: int, den: int, signs: dict
) -> list[tuple[int, int, int]] | None:
    """``_isolate_squarefree``'s brackets for p0, found from floats, or None.

    p0 is primitive with lc(p0) = den > 0 and degree d = len(xs), and
    (-B, B) for B = bound/den is the root cell of the split tree.  In
    the tree's plain subdivision of (-B, B) into half-open dyadic cells,
    each sorted float x_i takes the cell at the first level where that
    cell holds neither x_(i-1) nor x_(i+1).  Signs at the cell ends come
    from ``_sign_at`` and stay in ``signs``; an end beyond the Fujiwara
    bound 2^e takes p0's sign at +-inf, as in the tree.  The cells are
    returned, as the tree's (a, b, den) triples, when p0 changes sign
    strictly, with nonzero values, across every one of them; else None.

    Proof that the tree returns exactly these cells.  Dyadic cells nest
    or are disjoint.  If x_i's cell contained x_j's cell for j > i, it
    would contain x_(i+1), which lies between x_i and x_j; so the d cells
    are pairwise disjoint.  A strict sign change puts an odd number of
    roots, counted with multiplicity, inside each cell, so at least one,
    and p0 has exactly d: each cell holds exactly one root, and all d
    roots are real and simple.  So p0 is squarefree, it is the carrier,
    and every multiplicity is 1.  A cell's strict ancestor A contains it
    in one half, and any other cell either lies inside one half of A or
    misses A, since containing A would make it contain this cell; so no
    root lies on A's midpoint, and the tree splits every cell it splits
    at the midpoint.  Unless x_i's cell is (-B, B) itself, its parent
    holds x_(i-1) or x_(i+1), so it contains that neighbour's whole cell
    and two roots: the tree splits it, and every ancestor, and so
    reaches x_i's cell, which holds one root and which it returns.
    """
    d = len(p0) - 1
    e = _intops.root_bound_exponent(p0)
    # Position (x + B) / 2B of each float, as an int over `total`.
    ratios = [x.as_integer_ratio() for x in xs]
    s = max(q for _, q in ratios).bit_length() - 1
    total = bound << (s + 1)
    pos = [(n * den << s) // q + (bound << s) for n, q in ratios]
    if pos[0] < 0 or pos[-1] >= total:
        return None
    # floor(position * 2^m); its top L bits index the level-L cell, and
    # 2^m >= total keeps distinct positions apart.
    m = total.bit_length()
    index = [(u << m) // total for u in pos]
    # Level at which each pair of neighbours lies in different cells.
    parts = [0]
    for lo, hi in zip(index, index[1:]):
        if lo >= hi:
            return None
        parts.append(m + 1 - (lo ^ hi).bit_length())
    parts.append(0)
    odd = -1 if d % 2 else 1
    cells = []
    for i, ix in enumerate(index):
        level = max(parts[i], parts[i + 1])
        a = bound * (2 * (ix >> (m - level)) - (1 << level))
        b = a + 2 * bound
        den_l = den << level
        limit = den_l << e
        sa = (1 if a > 0 else odd) if abs(a) > limit else _sign_at(p0, a, den_l, signs)
        sb = (1 if b > 0 else odd) if abs(b) > limit else _sign_at(p0, b, den_l, signs)
        if sa * sb >= 0:
            return None
        cells.append((a, b, den_l))
    return cells


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


def isolate_roots(p: Polynomial | Sequence[int]) -> RootIntervals:
    """Isolate every distinct real root of p with its multiplicity.

    Returns intervals sorted ascending.  An empty result means p has no
    real roots.  The sum of multiplicities equals deg p exactly when p
    is real rooted.  p is read once by ``_int_poly``.  ``_float_cells``
    tries the brackets its float roots point at; when their signs prove
    them, no Sturm chain is built.  Otherwise ``SturmChain`` is built
    from the same ints and ``_isolate_squarefree`` runs, reusing every
    sign already found when p is its own carrier.  The floats stay on
    the result for ``refine_to`` when they number its brackets.
    """
    ints = _int_poly(p)
    if len(ints) == 1:
        return RootIntervals(intervals=(), multiplicities=(), carrier=(1,))
    bound, den = _intops.cauchy_bound(ints)
    signs: dict = {}
    if 0 in (_sign_at(ints, bound, den, signs), _sign_at(ints, -bound, den, signs)):
        raise InternalInconsistencyError(f"Cauchy bound {bound}/{den} is a root")
    xs = _float_roots(ints)
    cells = None if xs is None else _float_cells(ints, xs, bound, den, signs)
    if cells is not None:
        mults = (1,) * len(cells)
        carrier = tuple(ints)
    else:
        sturm = SturmChain(ints)
        chain, gcd = sturm._int_chain, sturm._gcd
        carrier = tuple(chain[0])
        cells = _isolate_squarefree(chain, signs if len(gcd) == 1 else {})
        mults = tuple(_multiplicities(gcd, cells))
    roots = RootIntervals(
        intervals=tuple((Fraction(a, den), Fraction(b, den)) for a, b, den in cells),
        multiplicities=mults,
        carrier=carrier,
    )
    if xs is not None and len(xs) == len(cells):
        object.__setattr__(roots, "_guesses", tuple(xs))
    return roots


def _refine(
    p0: Sequence[int],
    lo: Fraction,
    hi: Fraction,
    steps: int,
    guess: float | None = None,
) -> tuple[Fraction, Fraction]:
    """Halve the bracket [lo, hi] ``steps`` times, in secant jumps.

    For an open bracket with a strict sign change of p0 at its ends and
    one root r inside, k halvings end in the level-k dyadic cell that
    holds r, or at (r, r) when r is a point of that grid, whatever the
    jumps are.  A jump of depth m splits the cell into 2^m cells,
    evaluates one grid point and its neighbour on the side of the sign
    change, and keeps that fine cell if it changes sign; m then doubles.
    On a miss the cell takes one plain halving and m halves.  A zero at
    any evaluated point is r itself, on the grid, and pins it.  The
    point is the one nearest the secant root, except that a float
    ``guess`` at r, which ``refine_to`` passes when every bracket is
    known to hold one root, picks the first: the one nearest the guess,
    at the deepest level, up to ``steps``, whose cells a float can tell
    apart, so a good guess settles the bracket in two evaluations.
    Every index is clamped to 1 .. 2^m - 1, so at ``steps`` 1 the jump
    is the midpoint, and any bracket with a strict sign change, whatever
    it holds, takes one bisection step at three evaluations; the walk
    and the separation steps of ``refine_to`` halve that way.  Values
    come from ``_intops.eval_scaled`` over the common denominator, so
    the secant root is exact.  A point comes back unchanged if p0
    vanishes there; a point that is no root, or an open bracket without
    a strict sign change, raises ``ValueError`` naming it, even at
    ``steps <= 0``.
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
    if guess is not None:
        gn, gd = guess.as_integer_ratio()
        wg = w * gd
        # The deepest level whose cells are at least 2^-48 |guess| wide:
        # a float tells no finer grid points apart.
        m = max(1, ((wg << 48) // (abs(gn) * den or 1)).bit_length() - 1)
    while steps:
        m = min(m, steps)
        n = 1 << m
        fine = den << m
        if guess is None:
            # Index of the grid point nearest a + w * va / (va - vb).
            i = (2 * n * va + va - vb) // (2 * (va - vb))
        else:
            # The first jump: the grid point nearest the guess.
            i = (((gn * den - a * gd) << (m + 1)) + wg) // (wg << 1)
            guess = None
        i = min(max(i, 1), n - 1)
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
    than halvings.  When the intervals number the carrier's degree, a
    float root picks each first jump: the one kept on ``roots``, or the
    carrier's own when none are kept.  One root per interval is sound
    there: every open interval has a strict sign change of the carrier
    at its ends, checked before any jump, and every point interval is a
    root, so d disjoint intervals each hold at least one of the
    carrier's d roots, and so exactly one.  The guess changes only how
    many points are evaluated, never the result.  Refinement preserves
    the root set and the multiplicities.  After refinement, consecutive
    intervals are strictly separated (hi of one is below lo of the
    next); intervals that still touch take one-step ``_refine``
    halvings, one each per round, until they do.
    A width that is not positive raises InputFormatError.  An open
    interval without a strict sign change of the carrier at its ends
    raises ``ValueError``, even one already narrow enough, and so does a
    point interval where the carrier does not vanish.
    """
    width = as_rational(width, "width")
    if width <= 0:
        raise InputFormatError(f"width must be positive, got {width}")
    p0 = roots.carrier
    guesses = None
    if roots.intervals and len(roots.intervals) == len(p0) - 1:
        guesses = roots._guesses or _float_roots(p0)
    refined = [
        _refine(p0, lo, hi, (ceil((hi - lo) / width) - 1).bit_length(), guess)
        for (lo, hi), guess in zip(
            roots.intervals, guesses or (None,) * len(roots.intervals)
        )
    ]
    for i in range(len(refined) - 1):
        while refined[i][1] >= refined[i + 1][0]:
            a, b = refined[i], refined[i + 1]
            if a[0] == a[1] and b[0] == b[1]:
                raise InternalInconsistencyError(
                    "two point intervals coincide; roots were not distinct"
                )
            refined[i], refined[i + 1] = _refine(p0, *a, 1), _refine(p0, *b, 1)
    out = RootIntervals(
        intervals=tuple(refined),
        multiplicities=roots.multiplicities,
        carrier=roots.carrier,
    )
    if guesses is not None:
        object.__setattr__(out, "_guesses", tuple(guesses))
    return out
