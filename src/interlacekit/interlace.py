"""Interlacing decisions, pencil reality scans, and their cross-check.

Two real-rooted polynomials f (degree n) and g (degree n - 1) interlace
when their roots, listed with multiplicity, can be merged into the weak
chain r_1 <= s_1 <= r_2 <= ... <= s_{n-1} <= r_n.  That combinatorial
condition is decided here exactly, never by a tolerance, by two routes.
interlaces_by_roots walks isolated roots, each comparison settled by
interval refinement plus a gcd certificate for ties, and returns the
chain certificate or the first broken inequality.  interlaces_by_index
reads the Cauchy index of g/f off one integer remainder sequence,
isolating nothing and certifying nothing.

The companion check is analytic: if f and g interlace then every member
f + alpha*g of the real pencil is real rooted.  A finite alpha scan can
therefore falsify interlacing but never prove it; hko_crosscheck runs
both routes and reports whether they tell a consistent story.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import _intops
from .errors import DegreeMismatchError, InputFormatError, ZeroPolynomialError
from .polynomials import Polynomial
from .rationals import as_int, as_rational, format_rational
from .realroots import RootIntervals, _refine, is_real_rooted, isolate_roots
from .rng import SplitMix64

DEFAULT_ALPHA_SEED = 0x5EED
DEFAULT_ALPHA_MAX_POWER = 10
DEFAULT_ALPHA_RANDOM_COUNT = 64
DEFAULT_ALPHA_MAGNITUDE = 10 ** 4


class InterlaceVerdict(str, enum.Enum):
    INTERLACES = "Interlaces"
    DOES_NOT_INTERLACE = "DoesNotInterlace"
    DEGREE_MISMATCH = "DegreeMismatch"
    NOT_REAL_ROOTED = "NotRealRooted"


@dataclass(frozen=True)
class ChainEntry:
    """One slot of the merged root chain: whose root, bracketed where."""

    owner: str
    lo: Fraction
    hi: Fraction

    def as_dict(self) -> dict:
        return {
            "owner": self.owner,
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
        }


@dataclass(frozen=True)
class InterlaceReport:
    """Outcome of an interlacing decision.

    ``chain_certificate`` is present exactly for the Interlaces verdict:
    2n - 1 entries alternating owner f, g, f, ..., f in chain order.
    ``failure_witness`` is present exactly for DoesNotInterlace: the
    1-based chain index k plus which side of r_k <= s_k <= r_{k+1}
    broke ("lower" means s_k < r_k held instead, "upper" means
    s_k > r_{k+1}; under strict=True the same labels flag a tie).
    ``not_real_rooted`` names the offending inputs for NotRealRooted.
    """

    verdict: InterlaceVerdict
    strict: bool = False
    chain_certificate: tuple[ChainEntry, ...] | None = None
    failure_witness: tuple[int, str] | None = None
    not_real_rooted: tuple[str, ...] = ()
    degrees: tuple[int, int] | None = None
    lc_sign_f: int | None = None
    lc_sign_g: int | None = None

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "strict": self.strict,
            "chain_certificate": (
                None
                if self.chain_certificate is None
                else [entry.as_dict() for entry in self.chain_certificate]
            ),
            "failure_witness": (
                None
                if self.failure_witness is None
                else {"k": self.failure_witness[0], "side": self.failure_witness[1]}
            ),
            "not_real_rooted": list(self.not_real_rooted),
            "degrees": None if self.degrees is None else list(self.degrees),
            "lc_sign_f": self.lc_sign_f,
            "lc_sign_g": self.lc_sign_g,
        }


@dataclass(frozen=True)
class PencilReport:
    """Finite reality scan over f + alpha*g.

    ``all_real`` summarizes the sampled alphas only; a True value is
    evidence, not proof.  ``witness`` is the first alpha, in input
    order, whose combination fails to be real rooted.
    """

    alphas_tested: tuple[Fraction, ...]
    witness: Fraction | None
    all_real: bool
    lc_sign_f: int
    lc_sign_g: int

    def as_dict(self) -> dict:
        return {
            "alphas_tested": [format_rational(a) for a in self.alphas_tested],
            "witness": None if self.witness is None else format_rational(self.witness),
            "all_real": self.all_real,
            "lc_sign_f": self.lc_sign_f,
            "lc_sign_g": self.lc_sign_g,
        }


@dataclass(frozen=True)
class CrosscheckReport:
    """Agreement between the root-order route and the pencil route.

    Inconsistent means the routes contradict: an Interlaces verdict next
    to a non-real pencil member, which would certify a bug.  A pair that
    fails to interlace while every sampled alpha stays real is reported
    consistent but unfalsified, since the scan is finite.
    """

    consistent: bool
    unfalsified: bool
    interlace: InterlaceReport
    pencil: PencilReport

    @property
    def verdict(self) -> str:
        return "Consistent" if self.consistent else "Inconsistent"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "consistent": self.consistent,
            "unfalsified": self.unfalsified,
            "interlace": self.interlace.as_dict(),
            "pencil": self.pencil.as_dict(),
        }


def interlaces_by_roots(
    roots_f: RootIntervals, roots_g: RootIntervals, strict: bool = False
) -> InterlaceReport:
    """Decide the weak (or strict) interlacing chain from isolated roots.

    Roots are taken with multiplicity; the pair must carry n and n - 1
    of them.  The merged slots r_1, s_1, r_2, ..., s_{n-1}, r_n are
    walked once, each neighbour pair compared exactly, so the verdict
    comes with either a bracket certificate for the full chain or the
    first broken inequality.

    Distinct roots separate after finitely many one-step halvings of
    both brackets.  Equal roots are certified equal by a root of
    h = gcd(f, g) in the closed overlap [lo, hi] of their brackets,
    shown by h(lo) * h(hi) <= 0.  That one sign test decides it: the
    carriers are squarefree, so h is; the overlap lies in one isolating
    bracket, so h has at most one root there, and a simple one; the
    ends of an open bracket are not roots; and lo == hi only when a
    bracket is a point.  Every halving is a one-step ``_refine``, which
    checks the bracket first: a point that is no root of its carrier, or
    an open bracket without a strict sign change of its carrier, raises
    ``ValueError`` naming it.  So every comparison terminates.
    """
    n = roots_f.total_multiplicity
    m = roots_g.total_multiplicity
    if n != m + 1:
        return InterlaceReport(
            verdict=InterlaceVerdict.DEGREE_MISMATCH,
            strict=strict,
            degrees=(n, m),
        )
    # (owner, bracket, carrier) per chain slot; a root's repeats share
    # one mutable bracket, which the comparisons narrow in place.
    slots = [None] * (n + m)
    for start, owner, roots in ((0, "f", roots_f), (1, "g", roots_g)):
        slots[start::2] = [
            (owner, box, roots.carrier)
            for box, mult in zip(map(list, roots.intervals), roots.multiplicities)
            for _ in range(mult)
        ]
    gcd = None

    def compare(a, b) -> int:
        """-1, 0, or +1 as slot a's root is below, equal to, or above b's."""
        nonlocal gcd
        box_a, box_b = a[1], b[1]
        while True:
            (a_lo, a_hi), (b_lo, b_hi) = box_a, box_b
            if a_lo == a_hi and b_lo == b_hi:
                return (a_lo > b_lo) - (a_lo < b_lo)
            if a_hi <= b_lo:
                return -1
            if b_hi <= a_lo:
                return 1
            # A root of gcd(f, g) in the closed overlap is the root both
            # brackets hold.
            if gcd is None:
                gcd = _intops.poly_gcd(roots_f.carrier, roots_g.carrier)
            lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
            if len(gcd) > 1 and (
                _intops.eval_sign(gcd, lo.numerator, lo.denominator)
                * _intops.eval_sign(gcd, hi.numerator, hi.denominator)
                <= 0
            ):
                return 0
            for _, box, carrier in (a, b):
                box[:] = _refine(carrier, *box, 1)

    # Largest comparison result between neighbours that keeps the chain.
    allowed = -1 if strict else 0
    for j in range(n + m - 1):
        if compare(slots[j], slots[j + 1]) > allowed:
            # Slots 2k-2, 2k-1, 2k (0-based) hold r_k, s_k, r_{k+1}.
            return InterlaceReport(
                verdict=InterlaceVerdict.DOES_NOT_INTERLACE,
                strict=strict,
                failure_witness=(j // 2 + 1, "lower" if j % 2 == 0 else "upper"),
                degrees=(n, m),
            )
    return InterlaceReport(
        verdict=InterlaceVerdict.INTERLACES,
        strict=strict,
        chain_certificate=tuple(ChainEntry(owner, *box) for owner, box, _ in slots),
        degrees=(n, m),
    )


def _lc_sign(p: Polynomial) -> int:
    lead = p.leading_coefficient()
    return 1 if lead > 0 else -1


def interlaces_exact(
    f: Polynomial, g: Polynomial, strict: bool = False
) -> InterlaceReport:
    """Decide whether f and g interlace, from the polynomials themselves.

    Preconditions are reported, not assumed: a degree gap other than one
    yields DegreeMismatch, and a non-real-rooted input yields
    NotRealRooted naming the culprit.  Otherwise the roots are isolated
    and the chain condition is decided exactly.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("interlacing needs nonzero polynomials")
    fields = {
        "strict": strict,
        "degrees": (f.degree, g.degree),
        "lc_sign_f": _lc_sign(f),
        "lc_sign_g": _lc_sign(g),
    }
    if f.degree != g.degree + 1:
        return InterlaceReport(verdict=InterlaceVerdict.DEGREE_MISMATCH, **fields)
    bad = tuple(
        name for name, p in (("f", f), ("g", g)) if not is_real_rooted(p)
    )
    if bad:
        return InterlaceReport(
            verdict=InterlaceVerdict.NOT_REAL_ROOTED, not_real_rooted=bad, **fields
        )
    # Real rooted, so the root counts with multiplicity are the degrees.
    report = interlaces_by_roots(isolate_roots(f), isolate_roots(g), strict=strict)
    return replace(report, **fields)


def interlaces_by_index(f: Polynomial, g: Polynomial, strict: bool = False) -> bool:
    """True iff ``interlaces_exact(f, g, strict)`` would say Interlaces.

    Decided from the Cauchy index of g/f on one integer remainder
    sequence, plus a reality test of h = gcd(f, g) when it is not
    constant (``_intops.interlace_index``), so no root is isolated and no
    certificate is built.  A degree gap other than one gives False; a
    zero input raises, as in ``interlaces_exact``.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("interlacing needs nonzero polynomials")
    if f.degree != g.degree + 1:
        return False
    weak, shared = _intops.interlace_index(
        _intops.from_fraction_coeffs(f.coeffs), _intops.from_fraction_coeffs(g.coeffs)
    )
    return weak and not (strict and shared)


def default_alphas(
    random_count: int = DEFAULT_ALPHA_RANDOM_COUNT,
) -> list[Fraction]:
    """The standard scan grid: zero, signed powers of two, seeded randoms.

    Deterministic for a fixed count.  Order matters because the first
    failing entry becomes the reported witness: 0 first, then 2**k and
    -2**k for k from -1 up to DEFAULT_ALPHA_MAX_POWER, then random_count
    rationals with numerator in [-10^4, 10^4] and denominator in
    [1, 10^4] drawn from a splitmix64 stream seeded with
    DEFAULT_ALPHA_SEED.  Duplicates are dropped, keeping first
    occurrence.  A negative count raises InputFormatError.
    """
    if as_int(random_count, "random_count") < 0:
        raise InputFormatError(f"random_count must be >= 0, got {random_count}")
    grid: list[Fraction] = [Fraction(0)]
    for k in range(-1, DEFAULT_ALPHA_MAX_POWER + 1):
        step = Fraction(2) ** k
        grid.append(step)
        grid.append(-step)
    rng = SplitMix64(DEFAULT_ALPHA_SEED)
    for _ in range(random_count):
        grid.append(rng.rational(DEFAULT_ALPHA_MAGNITUDE, DEFAULT_ALPHA_MAGNITUDE))
    return list(dict.fromkeys(grid))


def pencil_scan(
    f: Polynomial,
    g: Polynomial,
    alphas: Sequence[int | Fraction] | None = None,
) -> PencilReport:
    """Test real rootedness of f + alpha*g across a finite alpha grid.

    Scans every alpha (first failure recorded as the witness, scan not
    truncated), so the report always covers the full grid.  Requires
    deg f = deg g + 1, which keeps every combination at degree n.  Each
    member is an integer polynomial with the same roots as f + alpha*g,
    tested by ``is_real_rooted`` on its int coefficients.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("pencil scan needs nonzero polynomials")
    if f.degree != g.degree + 1:
        raise DegreeMismatchError(
            f"need deg f = deg g + 1, got {f.degree} and {g.degree}"
        )
    if alphas is None:
        grid = default_alphas()
    else:
        grid = list(dict.fromkeys(as_rational(a, "alpha") for a in alphas))
    # F = cF*f and G = cG*g with cF, cG > 0, so scale = cF/cG > 0.  For
    # alpha = an/ad, a = an*sn and b = ad*sd with b > 0 (ad, sd > 0) give
    # b*F + a*G = b*cF*(f + alpha*g), a positive multiple with the same
    # roots, formed on ints; is_real_rooted strips the content of (a, b).
    big_f = _intops.from_fraction_coeffs(f.coeffs)
    big_g = _intops.from_fraction_coeffs(g.coeffs)
    scale = (
        big_f[-1] * g.leading_coefficient() / (f.leading_coefficient() * big_g[-1])
    )
    sn, sd = scale.numerator, scale.denominator
    big_g.append(0)  # pad G to the length of F
    witness = None
    for alpha in grid:
        a, b = alpha.numerator * sn, alpha.denominator * sd
        member = [b * x + a * y for x, y in zip(big_f, big_g)]
        if not is_real_rooted(member) and witness is None:
            witness = alpha
    return PencilReport(
        alphas_tested=tuple(grid),
        witness=witness,
        all_real=witness is None,
        lc_sign_f=_lc_sign(f),
        lc_sign_g=_lc_sign(g),
    )


def hko_crosscheck(
    f: Polynomial,
    g: Polynomial,
    alphas: Sequence[int | Fraction] | None = None,
    strict: bool = False,
) -> CrosscheckReport:
    """Run the root-order decision and the pencil scan, then compare.

    The only inconsistent outcome is Interlaces alongside a pencil
    witness; that combination is mathematically impossible, so seeing
    it means the implementation is wrong somewhere.  A non-interlacing
    pair with a fully real scan is flagged unfalsified instead.  A zero
    input or a degree gap raises, as in interlaces_exact and pencil_scan.
    """
    interlace_report = interlaces_exact(f, g, strict=strict)
    pencil_report = pencil_scan(f, g, alphas=alphas)
    contradiction = (
        interlace_report.verdict == InterlaceVerdict.INTERLACES
        and pencil_report.witness is not None
    )
    unfalsified = (
        interlace_report.verdict != InterlaceVerdict.INTERLACES
        and pencil_report.witness is None
    )
    return CrosscheckReport(
        consistent=not contradiction,
        unfalsified=unfalsified,
        interlace=interlace_report,
        pencil=pencil_report,
    )
