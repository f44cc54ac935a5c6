"""Exact Hermitian matrix algebra over the Gaussian rationals.

Entries are complex numbers with rational real and imaginary parts, so
characteristic polynomials come out exact.  The two headline
operations are bordered_identity, which checks a determinant linearity
identity coefficient by coefficient, and cauchy_check, which certifies
that the eigenvalues of a principal submatrix interlace those of the
full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable

from . import _intops
from .errors import InputFormatError, InternalInconsistencyError
from .interlace import InterlaceReport, InterlaceVerdict, interlaces_by_roots
from .polynomials import Polynomial
from .rationals import (
    Rational, as_int, as_list, as_rational, format_rational, parse_rational
)
from .realroots import DEFAULT_WIDTH, RootIntervals, isolate_roots, refine_to
from .rng import SplitMix64


@dataclass(frozen=True)
class GaussianRational:
    """A complex number re + im*i with exact rational parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re: int | Fraction, im: int | Fraction = 0) -> "GaussianRational":
        return cls(as_rational(re, "re"), as_rational(im, "im"))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{format_rational(self.re)} {sign} {format_rational(abs(self.im))}i"


def _coerce(value) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(as_rational(value, "operand"), Fraction(0))
    return None


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))

Grid = tuple[tuple[GaussianRational, ...], ...]
_Parts = list[tuple[int, int]]  # (re, im) of Gaussian integers


def _as_grid(entries) -> Grid:
    if isinstance(entries, HermitianMatrix):
        return entries.entries
    return tuple([
        tuple([
            cell if isinstance(cell, GaussianRational)
            else GaussianRational(as_rational(cell, "matrix entry"), Fraction(0))
            for cell in as_list(row, f"matrix row {i}")
        ])
        for i, row in enumerate(as_list(entries, "matrix"))
    ])


def _check_square(grid: Grid) -> int:
    n = len(grid)
    if n == 0:
        raise InputFormatError("matrix must have at least one row")
    for i, row in enumerate(grid):
        if len(row) != n:
            raise InputFormatError(
                f"row {i} has {len(row)} entries, expected {n}"
            )
    return n


def _hermitian_defect(grid: Grid) -> tuple[int, int] | None:
    """First (i, j) with grid[i][j] != conj(grid[j][i]), or None.

    A Fraction is kept in lowest terms with a positive denominator, so
    two parts are equal iff their numerators and denominators are, and
    -p/q is (-p)/q: the test reads ints and builds no Fraction.
    """
    n = len(grid)
    for i, row in enumerate(grid):
        if row[i].im.numerator:
            return (i, i)
        for j in range(i + 1, n):
            a, b = row[j], grid[j][i]
            are, aim, bre, bim = a.re, a.im, b.re, b.im
            if (
                are.numerator != bre.numerator
                or aim.numerator != -bim.numerator
                or are.denominator != bre.denominator
                or aim.denominator != bim.denominator
            ):
                return (i, j)
    return None


class HermitianMatrix:
    """Immutable Hermitian matrix; the constructor rejects anything else.

    ``_pass_memo``, the Faddeev-LeVerrier pass kept by ``_chars``, serves
    ``char_poly``, ``bordered_identity``, ``eigen_intervals`` and
    ``cauchy_check``; ``_spectrum_memo`` is A's spectrum, kept by
    ``eigen_intervals``; ``_certified_memo`` is the set of deletions that
    A's residue signs certify, kept by ``_certified``.  All three fill on
    first use and are not part of the value.
    """

    __slots__ = ("n", "entries", "_pass_memo", "_spectrum_memo", "_certified_memo")

    def __init__(self, entries):
        grid = _as_grid(entries)
        n = _check_square(grid)
        defect = _hermitian_defect(grid)
        if defect is not None:
            i, j = defect
            if i == j:
                raise InputFormatError(
                    f"matrix is not Hermitian: diagonal entry ({i}, {i})"
                    f" must be real"
                )
            raise InputFormatError(
                f"matrix is not Hermitian: entry ({i}, {j}) does not match"
                f" the conjugate of entry ({j}, {i})"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "_pass_memo", None)
        object.__setattr__(self, "_spectrum_memo", None)
        object.__setattr__(self, "_certified_memo", None)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, HermitianMatrix):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        rows = "; ".join(
            ", ".join(str(c) for c in row) for row in self.entries
        )
        return f"HermitianMatrix({self.n}x{self.n}: {rows})"

    @classmethod
    def diagonal(cls, values: Iterable[int | Fraction]) -> "HermitianMatrix":
        vals = as_list(values, "diagonal values")
        vals = [as_rational(v, "diagonal value") for v in vals]
        n = len(vals)
        return cls(
            [
                [GaussianRational.of(vals[i]) if i == j else GR_ZERO for j in range(n)]
                for i in range(n)
            ]
        )

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                [[format_rational(c.re), format_rational(c.im)] for c in row]
                for row in self.entries
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "HermitianMatrix":
        if not isinstance(obj, dict):
            raise InputFormatError("matrix document must be an object")
        if "n" not in obj or "entries" not in obj:
            raise InputFormatError("matrix document needs keys 'n' and 'entries'")
        n = as_int(obj["n"], "field 'n'")
        if n < 1:
            raise InputFormatError(f"field 'n' must be a positive integer, got {n!r}")
        entries = obj["entries"]
        if not isinstance(entries, list) or len(entries) != n:
            raise InputFormatError(f"field 'entries' must be a list of {n} rows")
        # Each distinct entry string is parsed once: generated matrices
        # repeat a few small values.  A part that is not a string goes to
        # parse_rational, which refuses it.
        parsed: dict[str, Fraction] = {}

        def parse(part):
            if not isinstance(part, str):
                return parse_rational(part)
            value = parsed.get(part)
            if value is None:
                value = parsed[part] = parse_rational(part)
            return value

        grid = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != n:
                raise InputFormatError(f"row {i} must be a list of {n} entries")
            cells = []
            for j, cell in enumerate(row):
                if not isinstance(cell, list) or len(cell) != 2:
                    raise InputFormatError(
                        f"entry ({i}, {j}) must be a pair [re, im]"
                    )
                try:
                    cells.append(GaussianRational(parse(cell[0]), parse(cell[1])))
                except InputFormatError as exc:
                    raise InputFormatError(f"entry ({i}, {j}): {exc}") from None
            grid.append(cells)
        return cls(grid)


def _slot_width(real_form: list[list[int]]) -> int:
    """Bits per slot of a packed row: no entry of any iterate can overflow one.

    With r the largest absolute row sum of the real form (r = 0 taken as
    1), every row of A has sum_j |a_ij| <= r, so the entries of A**m have
    modulus at most r**m and every eigenvalue at most r.  Coefficient c_j
    of det(xI - A) is then at most C(n, j) r**j, and the iterate
    M_k = sum_{j<k} c_j A**(k - 1 - j) has entries of modulus at most
    r**(k - 1) 2**n.  So every slot of A M_k, k <= n, stays below
    r**n 2**n < 2**(n bitlen(r) + n), and a signed slot of w bits holds
    magnitudes below 2**(w - 1): one bit to spare.
    """
    n = len(real_form) // 2
    r = max(sum(map(abs, row)) for row in real_form) or 1
    return n * r.bit_length() + n + 2


def _packed_product(real_form: list[list[int]], rows: list[int]) -> list[int]:
    """The real form times the stacked iterate, each row one packed int."""
    return [sum(map(mul, rf_row, rows)) for rf_row in real_form]


def _char_poly_gaussian_int(real_form: list[list[int]]) -> tuple[_Parts, list[_Parts]]:
    """Faddeev-LeVerrier on A = R + iS, given as its real form [[R, -S], [S, R]].

    The real form acts on the stack [P; Q] of M = P + iQ as A acts on M.
    Row j of the stack is packed into one int holding its n entries as
    signed slots of w = ``_slot_width`` bits, entry c at bit w*c, so a
    step is 4n**2 big-int multiply-adds (Kronecker substitution) and no
    slot can overflow into its neighbour.  Slots are read back by adding
    a bias of 2**(w - 1) to every slot, and c_k I is added as c_k << w*i
    on rows i and n + i.  Returns the (re, im) parts of the coefficients
    of det(xI - A) and of every det(xI - A_i), ascending, A_i being A
    without row and column i: the iterates M_1 = I, ..., M_n are the
    coefficients of adj(xI - A) = sum M_k x**(n - k), whose diagonal
    entry (i, i) is det(xI - A_i) by Cramer's rule.  Each division is
    exact for a Gaussian integer matrix, and is checked; so is
    Cayley-Hamilton, A M_n + c_0 I = 0, which is every packed row zero.
    """
    n = len(real_form) // 2
    w = _slot_width(real_form)
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    bias = half * (((1 << (w * n)) - 1) // mask)  # 2**(w - 1) in every slot
    shifts = range(0, w * n, w)
    rows = [1 << s for s in shifts] + [0] * n  # M_1 = I
    diagonal = [(1, 0)] * n
    coeffs, diagonals = [(1, 0)], []
    for k in range(1, n + 1):
        diagonals.append(diagonal)
        rows = _packed_product(real_form, rows)
        re = [(((x + bias) >> s) & mask) - half for x, s in zip(rows, shifts)]
        im = [(((x + bias) >> s) & mask) - half for x, s in zip(rows[n:], shifts)]
        q_re, r_re = divmod(-sum(re), k)
        q_im, r_im = divmod(-sum(im), k)
        if r_re or r_im:
            raise InternalInconsistencyError(
                "Faddeev-LeVerrier hit an inexact integer division"
            )
        coeffs.append((q_re, q_im))
        for i, s in enumerate(shifts):
            rows[i] += q_re << s
            rows[n + i] += q_im << s
        diagonal = [(a + q_re, b + q_im) for a, b in zip(re, im)]
    if any(rows):
        raise InternalInconsistencyError(
            "Faddeev-LeVerrier broke Cayley-Hamilton: A M_n + c_0 I is not zero"
        )
    return coeffs[::-1], [list(d[::-1]) for d in zip(*diagonals)]


def _real_ints(parts: _Parts, den: int, what: str) -> list[int]:
    """The real parts re_j of the (re, im) coefficients of a char(DA).

    Hermitian matrices have real characteristic coefficients; that is
    asserted on the exact results, so a nonzero imaginary residue can
    never be silently dropped.
    """
    d = len(parts) - 1
    for j, (_, im) in enumerate(parts):
        if im != 0:
            raise InternalInconsistencyError(
                f"{what} {j} has nonzero imaginary part"
                f" {Fraction(im, den ** (d - j))}"
            )
    return [re for re, _ in parts]


def _unscaled(coeffs: list[int], den: int) -> Polynomial:
    """char(A) from char(DA): coefficient j is c_j / den**(d - j), d its degree."""
    d = len(coeffs) - 1
    return Polynomial([Fraction(c, den ** (d - j)) for j, c in enumerate(coeffs)])


def _scaled_pass(grid: Grid) -> tuple[int, _Parts, list[_Parts]]:
    """D and the integer Faddeev-LeVerrier pass on DA, for any square grid A.

    With D the least common denominator of all entry parts, DA is a
    Gaussian integer matrix, and char(A)(x) = D**-n * char(DA)(D*x), so
    coefficient j of char(A) is c_j / D**(n - j) for the coefficients
    c_j of char(DA).  DA_i is the (n - 1)-square submatrix of DA, so
    coefficient j of char(A_i) is divided by D**(n - 1 - j).
    """
    parts = [x for row in grid for c in row for x in (c.re, c.im)]
    den = lcm(*[x.denominator for x in parts])
    r = [[c.re.numerator * (den // c.re.denominator) for c in row] for row in grid]
    s = [[c.im.numerator * (den // c.im.denominator) for c in row] for row in grid]
    real_form = [a + [-x for x in b] for a, b in zip(r, s)]  # [R, -S]
    real_form += [b + a for a, b in zip(r, s)]  # [S, R]
    return den, *_char_poly_gaussian_int(real_form)


def _chars(matrix: HermitianMatrix) -> tuple[int, list[int], list[list[int]]]:
    """D, and the integer coefficients of char(DA) and of every char(DA_i).

    Their roots are those of char(A) and char(A_i) times D > 0, D the
    common denominator of A's entries.  The pass runs once per matrix
    object and is kept on it; an equal matrix built afresh runs it again.
    The char(DA_i), the diagonal of adj(xI - DA), must sum to its trace
    char(DA)' (Jacobi's formula): a check Cayley-Hamilton does not make.
    """
    if matrix._pass_memo is None:
        den, full, subs = _scaled_pass(matrix.entries)
        full = _real_ints(full, den, "characteristic coefficient")
        subs = [
            _real_ints(sub, den, f"submatrix {i} characteristic coefficient")
            for i, sub in enumerate(subs)
        ]
        if [sum(c) for c in zip(*subs)] != _intops.derivative(full):
            raise InternalInconsistencyError(
                "Faddeev-LeVerrier broke Jacobi's formula: sum_i char(A_i) != char(A)'"
            )
        object.__setattr__(matrix, "_pass_memo", (den, full, subs))
    return matrix._pass_memo


def _as_hermitian(matrix) -> HermitianMatrix:
    """The argument itself, or a plain grid through the checking constructor."""
    if isinstance(matrix, HermitianMatrix):
        return matrix
    return HermitianMatrix(matrix)


def char_poly(matrix: HermitianMatrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - A), exactly.

    It comes from the one integer Faddeev-LeVerrier pass, which also
    yields every principal submatrix polynomial and is kept on the
    matrix object.  A plain grid is accepted and checked by the
    HermitianMatrix constructor.
    """
    den, char, _ = _chars(_as_hermitian(matrix))
    return _unscaled(char, den)


def _check_deletion(n: int, k: int) -> None:
    if not 0 <= as_int(k, "deletion index") < n:
        raise InputFormatError(
            f"deletion index {k} out of range for a {n}x{n} matrix"
        )
    if n == 1:
        raise InputFormatError("cannot delete the only row of a 1x1 matrix")


def principal_submatrix(matrix: HermitianMatrix, k: int) -> HermitianMatrix:
    """Delete row k and column k (0-based)."""
    matrix = _as_hermitian(matrix)
    _check_deletion(matrix.n, k)
    rows = [
        tuple(c for j, c in enumerate(row) if j != k)
        for i, row in enumerate(matrix.entries)
        if i != k
    ]
    return HermitianMatrix(rows)


_CONVENTION_NOTE = (
    "monic convention: char(M) = det(xI - M), so adding alpha to the last"
    " diagonal entry gives char(A_alpha) = char(A) - alpha * char(B); with"
    " det(M - xI) conventions both sides pick up the same factor (-1)^n"
)


@dataclass(frozen=True)
class IdentityReport:
    """Coefficient-level comparison of the bordered determinant identity.

    For A with lower-right entry shifted by alpha and B the submatrix
    dropping the last row and column, the claim is
    char(A_alpha) = char(A) - alpha * char(B).  ``exact_match`` compares
    full coefficient tuples; there is no tolerance anywhere.
    """

    n: int
    alpha: Fraction
    lhs: Polynomial
    rhs: Polynomial
    exact_match: bool
    convention: str = _CONVENTION_NOTE

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": format_rational(self.alpha),
            "lhs_coeffs": [format_rational(c) for c in self.lhs.coeffs],
            "rhs_coeffs": [format_rational(c) for c in self.rhs.coeffs],
            "exact_match": self.exact_match,
            "convention": self.convention,
        }


def bordered_identity(matrix: HermitianMatrix, alpha: Rational) -> IdentityReport:
    """Verify char(A_alpha) = char(A) - alpha * char(B) coefficientwise.

    A_alpha is A with alpha added to its last diagonal entry and B is A
    without its last row and column.  Expanding det(xI - A_alpha) along
    the last row splits off exactly the alpha term, so equality must be
    exact; any mismatch is reported, not rounded away.  char(A) and
    char(B) come from the pass kept on A, char(A_alpha) from one pass
    over the shifted matrix.
    """
    matrix = _as_hermitian(matrix)
    alpha = as_rational(alpha, "alpha")
    n = matrix.n
    if n < 2:
        raise InputFormatError("bordered identity needs n >= 2")
    shifted_rows = [list(row) for row in matrix.entries]
    corner = shifted_rows[n - 1][n - 1]
    shifted_rows[n - 1][n - 1] = GaussianRational(corner.re + alpha, corner.im)
    lhs = char_poly(HermitianMatrix(shifted_rows))
    den, char, sub_chars = _chars(matrix)
    rhs = _unscaled(char, den) - alpha * _unscaled(sub_chars[n - 1], den)
    return IdentityReport(
        n=n,
        alpha=alpha,
        lhs=lhs,
        rhs=rhs,
        exact_match=lhs == rhs,
    )


def eigen_intervals(matrix: HermitianMatrix) -> RootIntervals:
    """Isolating intervals for all eigenvalues, refined to ``DEFAULT_WIDTH``.

    A Hermitian matrix has exactly n real eigenvalues with multiplicity;
    that total is asserted on the certified count, so a shortfall raises
    instead of returning a silently wrong spectrum.  ``refine_to`` narrows
    the intervals further.  The spectrum comes from the pass kept on the
    matrix object and is kept there too, so it is isolated once per
    object, however many ``cauchy_check`` calls read it.
    """
    matrix = _as_hermitian(matrix)
    if matrix._spectrum_memo is None:
        den, char, _ = _chars(matrix)
        object.__setattr__(matrix, "_spectrum_memo", _spectrum(char, den, matrix.n))
    return matrix._spectrum_memo


def _spectrum(coeffs: list[int], den: int, n: int) -> RootIntervals:
    """Roots of char(M) for an n-square Hermitian M, given char(DM) and D."""
    spectrum = refine_to(isolate_roots(_unscaled(coeffs, den)), DEFAULT_WIDTH)
    if spectrum.total_multiplicity != n:
        raise InternalInconsistencyError(
            f"found {spectrum.total_multiplicity} eigenvalues for n = {n}",
            report=spectrum,
        )
    return spectrum


# Certificate points lie on the grid of DEFAULT_WIDTH / 4 = 2**-_GRID_BITS.
_GRID_BITS = (DEFAULT_WIDTH / 4).denominator.bit_length() - 1


def _packed_values(
    polys: list[list[int]], points: list[int], s: int
) -> tuple[int, list[int]]:
    """Slot width w and, at each point num / 2**s, every poly's value in one int.

    The polys all have degree d.  Coefficient j of every poly is packed
    into one int, poly k's in the signed slot at bit w*k, and
    ``_intops.eval_scaled`` of the packed poly at each point gives
    sum_j P_j num**j 2**(s (d - j)).  That is linear in the slots, so
    slot k holds ``eval_scaled`` of poly k at the point,
    v = sum_j c_kj num**j 2**(s (d - j)).  Then
    |v| <= (sum_j |c_kj|) * max(|num|, 2**s)**d < 2**(L + d*p), L the bit
    length of the largest sum_j |c_kj| and p that of the largest
    max(|num|, 2**s) over the points.  So with w = L + d*p + 3 every slot
    holds |v| <= 2**(w - 1) - 1, with two bits to spare.
    """
    d = len(polys[0]) - 1
    p = max(max(map(abs, points)), 1 << s).bit_length()
    w = max(sum(map(abs, c)) for c in polys).bit_length() + d * p + 3
    packed = [sum(c[j] << (w * k) for k, c in enumerate(polys)) for j in range(d + 1)]
    return w, [_intops.eval_scaled(packed, num, 1 << s) for num in points]


def _residue_certificate(
    spectrum: RootIntervals, den: int, subs: list[list[int]]
) -> frozenset[int]:
    """The deletions k whose strict interlacing A's residue signs certify.

    For Hermitian A with simple eigenvalues l_1 < ... < l_n, char(A_k) /
    char(A) = sum_i |u_ik|**2 / (x - l_i) has nonnegative residues, so
    char(A_k)(l_i) has the sign (-1)**(n - i) or is 0 (Hwang 2004).  The
    certificate reverses that.  If disjoint brackets [a_i, b_i] hold the
    l_i and char(A_k), of degree n - 1, has the sign (-1)**(n - i) at both
    a_i and b_i for every i, it changes sign in each of the n - 1 gaps
    (b_i, a_(i+1)).  So it has exactly one root in each gap and none in
    any bracket: strict interlacing with a constant gcd, the (True, 0) of
    ``_intops.interlace_index``.

    The brackets are A's refined ones rounded outward to the grid of
    2**-s, s = ``_GRID_BITS``, which keeps the numerators short; scaled
    by D, their ends are the points D*num / 2**s, where char(DA_k) has
    char(A_k)'s sign.  A repeated eigenvalue, or rounded brackets that
    touch, certify nothing.  ``_packed_values`` gives every char(DA_k)
    at each point in one int of w-bit slots, each slot's value v within
    |v| <= 2**(w - 1) - 1.  Adding 2**(w - 1) - 1 to every slot of e*v, e
    the expected sign, leaves each slot in [0, 2**w), so no carry crosses
    a slot, and its top bit is set exactly when e*v >= 1.  One AND over
    the 2n points keeps the top bits of the deletions that match
    everywhere; single slots are read only when some deletion missed.
    """
    n = len(subs)
    if len(spectrum) != n:
        return frozenset()
    s = _GRID_BITS
    ends = []
    for lo, hi in spectrum.intervals:
        ends.append((lo.numerator << s) // lo.denominator)
        ends.append(-((-hi.numerator << s) // hi.denominator))
    if any(b >= a for b, a in zip(ends[1::2], ends[2::2])):
        return frozenset()
    w, values = _packed_values(subs, [den * e for e in ends], s)
    ones = ((1 << (w * n)) - 1) // ((1 << w) - 1)  # 1 in every slot
    bias = ones * ((1 << (w - 1)) - 1)
    top = ones << (w - 1)
    hits = top
    for i, v in enumerate(values):
        hits &= (v if (n - 1 - i // 2) % 2 == 0 else -v) + bias
    if hits == top:
        return frozenset(range(n))
    return frozenset(k for k in range(n) if hits >> (w * k + w - 1) & 1)


def _certified(matrix: HermitianMatrix) -> frozenset[int]:
    """The deletions of ``_residue_certificate``, found once per matrix object."""
    if matrix._certified_memo is None:
        den, _, subs = _chars(matrix)
        object.__setattr__(
            matrix,
            "_certified_memo",
            _residue_certificate(eigen_intervals(matrix), den, subs),
        )
    return matrix._certified_memo


@dataclass(frozen=True)
class CauchyReport:
    """Interlacing of a principal submatrix spectrum with the full one.

    ``verdict`` is decided by the signs of char(A_k) at the ends of A's
    refined eigenvalue brackets (``_residue_certificate``), or, where
    those do not certify k, by the Cauchy index of char(A_k)/char(A)
    (``_intops.interlace_index``); neither isolates a submatrix root.
    ``submatrix_spectrum`` is isolated and refined to ``DEFAULT_WIDTH``,
    and ``interlace`` walks both spectra with ``interlaces_by_roots`` for
    its chain certificate, each on first access and then cached.
    ``as_dict`` reads both.
    """

    n: int
    deleted: int
    matrix_spectrum: RootIntervals
    verdict: InterlaceVerdict
    _matrix: HermitianMatrix = field(repr=False)

    @cached_property
    def submatrix_spectrum(self) -> RootIntervals:
        den, _, sub_chars = _chars(self._matrix)
        return _spectrum(sub_chars[self.deleted], den, self.n - 1)

    @cached_property
    def interlace(self) -> InterlaceReport:
        return interlaces_by_roots(self.matrix_spectrum, self.submatrix_spectrum)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "deleted": self.deleted,
            "matrix_spectrum": self.matrix_spectrum.to_json_obj(),
            "submatrix_spectrum": self.submatrix_spectrum.to_json_obj(),
            "interlace": self.interlace.as_dict(),
        }


def cauchy_check(matrix: HermitianMatrix, k: int) -> CauchyReport:
    """Certify that deleting row and column k interlaces the spectrum.

    Most deletions are certified by Hwang's residue signs: char(A_k) has
    the sign (-1)**(n - i) at both ends of the bracket of A's i-th
    eigenvalue, for every i, which is strict interlacing
    (``_residue_certificate``).  Any other k (a repeated eigenvalue,
    rounded brackets that touch, a sign miss) takes its verdict from one
    remainder sequence of char(DA) and char(DA_k), D the common
    denominator of A's entries, plus a reality test of their gcd when it
    is not constant.  A deletion whose polynomials share a root (a
    repeated eigenvalue, say) also walks both spectra at once, and the
    two routes must agree.  The eigenvalues of the submatrix must always
    interlace those of the full matrix, so a disagreement or any other
    verdict is raised as an internal inconsistency carrying the
    offending report.  The integer submatrix polynomials, A's spectrum
    and the certified set are computed once per matrix object and shared
    by the calls for each k; a submatrix spectrum is isolated only when
    the report's ``submatrix_spectrum`` or ``interlace`` is read.  k is
    checked first, so a bad index raises before any of that work.
    """
    matrix = _as_hermitian(matrix)
    _check_deletion(matrix.n, k)
    spectrum = eigen_intervals(matrix)
    if k in _certified(matrix):
        interlaces, shared = True, 0
    else:
        _, char, sub_chars = _chars(matrix)
        interlaces, shared = _intops.interlace_index(char, sub_chars[k])
    verdict = (
        InterlaceVerdict.INTERLACES if interlaces else InterlaceVerdict.DOES_NOT_INTERLACE
    )
    report = CauchyReport(
        n=matrix.n, deleted=k, matrix_spectrum=spectrum, verdict=verdict, _matrix=matrix
    )
    if shared or not interlaces:
        walked = report.interlace.verdict
        if walked != report.verdict:
            raise InternalInconsistencyError(
                f"Cauchy index and root order disagree (deleted {k}):"
                f" {report.verdict.value} against {walked.value}",
                report=report,
            )
    if not interlaces:
        raise InternalInconsistencyError(
            f"submatrix spectrum failed to interlace (deleted {k}):"
            f" {report.verdict.value}",
            report=report,
        )
    return report


def random_hermitian(rng: SplitMix64, n: int, bound: int) -> HermitianMatrix:
    """Random Hermitian matrix with integer parts in [-bound, bound].

    Draw order is fixed: walk the upper triangle row by row; diagonal
    entries draw one integer, off-diagonal entries draw the real part
    and then the imaginary part.  The lower triangle mirrors by
    conjugation, so the result is Hermitian by construction.
    """
    if as_int(n, "n") < 1:
        raise InputFormatError(f"matrix size must be positive, got {n}")
    if as_int(bound, "bound") < 0:
        raise InputFormatError(f"entry bound must be nonnegative, got {bound}")
    rows = [[GR_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j:
                rows[i][j] = GaussianRational.of(rng.int_between(-bound, bound))
            else:
                re = rng.int_between(-bound, bound)
                im = rng.int_between(-bound, bound)
                rows[i][j] = GaussianRational.of(re, im)
                rows[j][i] = rows[i][j].conjugate()
    return HermitianMatrix(rows)
