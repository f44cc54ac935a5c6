"""Integer-coefficient kernels behind the exact decision procedures.

Polynomials here are plain lists of Python ints in ascending degree
order with a nonzero last element; ``[]`` is the zero polynomial.
Rational polynomials enter by clearing denominators, which multiplies
them by a positive rational.  Root sets, signs at a point, and sign
variation counts are all invariant under that scaling, and those are
the only properties callers read back out.  A point is a pair of
ints ``(num, den)`` with ``den > 0``, the rational num/den; nothing
here takes a Fraction point.

Two steps do all the division, and both check it.  ``neg_signed_prem``
forms -|lc(g)|**(d + 1) * rem(f, g) without a quotient and divides it
by the subresultant divisor that ``remainder_sequence`` carries
(Collins 1967; Brown and Traub 1971), so every remainder entry is a
positive multiple of its rational counterpart and only the two inputs
of a sequence have their content stripped.  ``exact_quotient`` divides
by a primitive divisor with plain integer long division, which Gauss's
lemma makes exact.  An inexact division in either is an internal error.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InternalInconsistencyError

IntPoly = list[int]


def trim(coeffs: IntPoly) -> IntPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def from_fraction_coeffs(coeffs: Sequence[Fraction]) -> IntPoly:
    """Clear denominators and strip content: a positive multiple of the input."""
    scale = lcm(*[c.denominator for c in coeffs])
    return primitive(trim([c.numerator * (scale // c.denominator) for c in coeffs]))


def content(coeffs: IntPoly) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def primitive(coeffs: IntPoly) -> IntPoly:
    """Divide out the (positive) content. Leading sign is preserved."""
    if not coeffs:
        return coeffs
    g = content(coeffs)
    if g > 1:
        return [c // g for c in coeffs]
    return coeffs


def derivative(coeffs: IntPoly) -> IntPoly:
    return [i * c for i, c in enumerate(coeffs)][1:]


def eval_scaled(coeffs: IntPoly, num: int, den: int) -> int:
    """den**d * p(num/den) for d = deg p and den > 0, via homogenized Horner.

    The factor den**d is positive, so the sign is that of p(num/den), and
    values at points over one common denominator keep their ratios.  For
    a power of two den = 2**k, the running den**i is a shift by k*i bits.
    """
    if not coeffs:
        return 0
    terms = reversed(coeffs)
    acc = next(terms)
    if den & (den - 1) == 0:
        k = den.bit_length() - 1
        shift = 0
        for c in terms:
            shift += k
            acc = acc * num + (c << shift)
        return acc
    dpow = 1
    for c in terms:
        dpow *= den
        acc = acc * num + c * dpow
    return acc


def eval_sign(coeffs: IntPoly, num: int, den: int) -> int:
    """Sign of p(num/den) for den > 0."""
    value = eval_scaled(coeffs, num, den)
    return (value > 0) - (value < 0)


def _exact_div(n: int, d: int) -> int:
    q, rest = divmod(n, d)
    if rest:
        raise InternalInconsistencyError("subresultant division is not exact")
    return q


def neg_signed_prem(f: IntPoly, g: IntPoly, divisor: int = 1) -> IntPoly:
    """-prem(f, g) / divisor: a positive multiple of -rem(f, g) for divisor > 0.

    Requires deg f >= deg g >= 0.  Here prem(f, g) = |lc g|**(d + 1) *
    rem(f, g) for d = deg f - deg g, computed without forming a
    quotient.  In a subresultant sequence the divisor divides every
    coefficient; an inexact division raises.  A one-degree step (d = 1)
    is one pass: with c = lc(g) and u*x + v the pseudo-quotient,
    -prem = (u*x + v) * g - c**2 * f, where u = c * f_n and
    v = c * f_(n-1) - f_n * g_(n-2).  Any other d scales the running
    remainder by |c| and subtracts sign(c) * lead * g * x**shift, d + 1
    times.
    """
    dg = len(g) - 1
    if dg == 0:
        return []
    c = g[-1]
    if len(f) == len(g) + 1:
        u = c * f[-1]
        v = c * f[-2] - f[-1] * g[-2]
        sq = c * c
        r = [v * a + u * b - sq * x for a, b, x in zip(g[:dg], [0] + g, f)]
    else:
        scale = abs(c)
        sign = 1 if c > 0 else -1
        r = list(f)
        for _ in range(len(f) - dg):
            lead = sign * r.pop()
            shift = len(r) - dg
            r = [scale * x for x in r]
            for i in range(dg):
                r[shift + i] -= lead * g[i]
        r = [-x for x in r]
    trim(r)
    if divisor != 1:
        r = [_exact_div(x, divisor) for x in r]
    return r


def exact_quotient(p: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive positive multiple of p / g, for a primitive divisor g of p.

    By Gauss's lemma p / g then has integer coefficients, so plain
    integer long division is exact at every step.  An inexact step or a
    nonzero leftover means g does not divide p, and raises.
    """
    dg = len(g) - 1
    r = list(p)
    q = [0] * (len(p) - dg)
    for shift in range(len(q) - 1, -1, -1):
        lead, rest = divmod(r[shift + dg], g[-1])
        if rest:
            raise InternalInconsistencyError("gcd does not divide its argument")
        q[shift] = lead
        for i in range(dg):
            r[shift + i] -= lead * g[i]
    if any(r[:dg]):
        raise InternalInconsistencyError("gcd does not divide its argument")
    q = primitive(q)
    return q if q[-1] > 0 else [-c for c in q]


def remainder_sequence(p: IntPoly, q: IntPoly) -> list[IntPoly]:
    """Signed subresultant sequence of p and q, ending at gcd(p, q).

    Requires deg p >= deg q.  p and q enter primitive; each later entry
    is -prem(f, g) / beta for its two predecessors f and g (Collins 1967;
    Brown and Traub 1971).  The first step has beta = 1; each later one
    has beta = |lc f| * psi**(deg f - deg g), where psi = |lc f|**e /
    psi'**(e - 1) for e the degree drop into f and psi' the previous psi,
    starting from 1.  Every division is exact and checked.  Each entry is
    a positive multiple of the textbook entry p, q, -rem(p, q), ..., so
    sign variations at any point agree exactly, and no content gcd runs
    past the first two entries.  The last entry is gcd(p, q) up to a
    nonzero factor; callers that need it primitive strip its content.
    """
    f = primitive(list(p))
    seq = [f]
    g = primitive(list(q))
    divisor = psi = 1
    while g:
        seq.append(g)
        if len(g) == 1:
            break
        r = neg_signed_prem(f, g, divisor)
        if r:
            lead = abs(g[-1])
            d = len(f) - len(g)
            if d == 1:
                psi = lead
            elif d:
                psi = _exact_div(lead ** d, psi ** (d - 1))
            divisor = lead * psi ** (len(g) - len(r))
        f, g = g, r
    return seq


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Remainder sequence of p and p', ending at gcd(p, p').

    For a squarefree p it is the Sturm chain, ending at a nonzero
    constant.
    """
    return remainder_sequence(p, derivative(p))


def is_real_rooted(p: IntPoly) -> bool:
    """True iff every complex root of p is real, for lc(p) > 0.

    With s the degree of p / gcd(p, p'), the number of distinct real
    roots V(-inf) - V(+inf) of the remainder sequence of p and p' reaches
    s only when the degrees step down by exactly one from deg p to the
    gcd and every leading coefficient is positive.  So the sequence is
    built one entry at a time, and the first degree gap or negative
    leading coefficient returns False.  Until then every step is a
    one-degree step, so the subresultant divisor of ``remainder_sequence``
    is 1 for the first step and lc(f)**2 after it, f the older of the
    two entries the step reads.
    """
    f, g = p, primitive(derivative(p))
    divisor = 1
    while len(g) > 1:
        f, g, divisor = g, neg_signed_prem(f, g, divisor), g[-1] ** 2
        if g and (len(g) != len(f) - 1 or g[-1] < 0):
            return False
    return True


def interlace_index(f: IntPoly, g: IntPoly) -> tuple[bool, int]:
    """Whether f and g weakly interlace, and deg gcd(f, g); deg f = deg g + 1.

    For coprime f and g the Cauchy index V(-inf) - V(+inf) of their
    remainder sequence has magnitude deg f exactly when f has deg f
    simple real roots and the residues of g/f share one sign, that is,
    when the roots strictly interlace (Hermite-Kakeya-Obreschkoff).
    Otherwise the sequence ends at h = gcd(f, g), and dropping a common
    root leaves the interlacing chain intact, so f and g interlace
    exactly when h is real rooted and f/h, g/h pass the same test.  The
    sequence of f/h and g/h is this one divided by h, since rem(h*a,
    h*b) = h*rem(a, b), and dividing every entry by h keeps the
    variations at +-inf; so one sequence gives the index of both pairs.
    No root is isolated.  The pair interlaces strictly iff it interlaces
    and the gcd degree is 0.
    """
    seq = remainder_sequence(f, g)
    h = primitive(seq[-1])
    index = variations_at_infinity(seq, -1) - variations_at_infinity(seq, 1)
    weak = abs(index) == len(seq[0]) - len(h)
    if weak and len(h) > 1:
        weak = is_real_rooted(h if h[-1] > 0 else [-c for c in h])
    return weak, len(h) - 1


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient; [] only if both zero.

    The last entry of the remainder sequence of f and g, taken in order
    of degree, with its content stripped and its sign fixed.
    """
    if len(f) < len(g):
        f, g = g, f
    a = primitive(remainder_sequence(f, g)[-1])
    return a if not a or a[-1] > 0 else [-c for c in a]


def squarefree_sturm(p: IntPoly) -> tuple[list[IntPoly], IntPoly]:
    """Sturm chain of the squarefree part of p, and gcd(p, p') up to sign.

    The chain starts at the primitive squarefree part with a positive
    leading coefficient.  p's own remainder sequence ends at the gcd and
    is that chain when the gcd is constant; otherwise it is rebuilt once
    from p divided by the gcd's primitive part, which is also the gcd
    returned.
    """
    if p[-1] < 0:
        p = [-c for c in p]
    chain = sturm_chain(p)
    g = primitive(chain[-1])
    if len(g) > 1:
        chain = sturm_chain(exact_quotient(p, g))
    return chain, g


def variations(signs: Sequence[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def variations_at_infinity(chain: Sequence[IntPoly], sign: int) -> int:
    """Sign variations at +infinity (sign 1) or -infinity (sign -1).

    Each entry takes the sign of its leading term there,
    sign(lc) * sign**degree.
    """
    return variations([(1 if c[-1] > 0 else -1) * sign ** (len(c) - 1) for c in chain])


def cauchy_bound(coeffs: IntPoly) -> tuple[int, int]:
    """Strict bound (num, den) on root magnitude: every root r has |r| < num/den.

    The bound is 1 + max |c_i| / |lc|, over the denominator |lc|.
    """
    lead = abs(coeffs[-1])
    worst = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return lead + worst, lead


def root_bound_exponent(coeffs: IntPoly) -> int:
    """An e >= 0 with |z| <= 2**e for every complex root z.

    Fujiwara's bound for degree d is 2 * max_k |c_{d-k} / c_d|**(1/k),
    with c_0 halved in the k = d term; e rounds it up to a power of two
    from bit lengths alone.  Since 2**(bl(c) - 1) <= |c| < 2**bl(c) for
    bl the bit length, each ratio is below 2**t_k with t_k =
    bl(c_{d-k}) - bl(c_d) + 1, one less for k = d, so the bound is at
    most 2 * 2**ceil(t_k / k) over the nonzero c_{d-k}.
    """
    d = len(coeffs) - 1
    lead_bits = abs(coeffs[-1]).bit_length()
    e = -1
    for k in range(1, d + 1):
        c = coeffs[d - k]
        if c:
            t = abs(c).bit_length() - lead_bits + (k < d)
            e = max(e, -(-t // k))
    return e + 1
