"""Exact Hermitian matrix algebra over the Gaussian rationals.

Entries are complex numbers with rational real and imaginary parts, so
determinants and characteristic polynomials come out exact.  The two
headline operations are bordered_identity, which checks a determinant
linearity identity coefficient by coefficient, and cauchy_check, which
certifies that the eigenvalues of a principal submatrix interlace those
of the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable

from .errors import InputFormatError, InternalInconsistencyError
from .interlace import InterlaceReport, InterlaceVerdict, interlaces_by_roots
from .polynomials import Polynomial
from .rationals import Rational, as_rational, format_rational, parse_rational
from .realroots import DEFAULT_WIDTH, RootIntervals, isolate_roots, refine_to
from .rng import SplitMix64


@dataclass(frozen=True)
class GaussianRational:
    """A complex number re + im*i with exact rational parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re: int | Fraction, im: int | Fraction = 0) -> "GaussianRational":
        return cls(as_rational(re), as_rational(im))

    @property
    def is_real(self) -> bool:
        return self.im == 0

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

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{format_rational(self.re)} {sign} {format_rational(abs(self.im))}i"


def _coerce(value) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(as_rational(value), Fraction(0))
    return None


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))

Grid = tuple[tuple[GaussianRational, ...], ...]


def _as_grid(entries) -> Grid:
    if isinstance(entries, HermitianMatrix):
        return entries.entries
    rows = []
    for row in entries:
        cells = []
        for cell in row:
            coerced = _coerce(cell)
            if coerced is None:
                raise InputFormatError(
                    f"matrix entry must be GaussianRational, int, or Fraction,"
                    f" got {type(cell).__name__}"
                )
            cells.append(coerced)
        rows.append(tuple(cells))
    return tuple(rows)


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
    """First (i, j) with grid[i][j] != conj(grid[j][i]), or None."""
    n = len(grid)
    for i in range(n):
        if grid[i][i].im != 0:
            return (i, i)
        for j in range(i + 1, n):
            if grid[i][j] != grid[j][i].conjugate():
                return (i, j)
    return None


def is_hermitian(entries) -> bool:
    """True iff the square matrix equals its own conjugate transpose."""
    grid = _as_grid(entries)
    _check_square(grid)
    return _hermitian_defect(grid) is None


class HermitianMatrix:
    """Immutable Hermitian matrix; the constructor rejects anything else."""

    __slots__ = ("n", "entries")

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
        vals = [as_rational(v) for v in values]
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
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise InputFormatError(f"field 'n' must be a positive integer, got {n!r}")
        entries = obj["entries"]
        if not isinstance(entries, list) or len(entries) != n:
            raise InputFormatError(f"field 'entries' must be a list of {n} rows")
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
                    cells.append(
                        GaussianRational(parse_rational(cell[0]), parse_rational(cell[1]))
                    )
                except InputFormatError as exc:
                    raise InputFormatError(f"entry ({i}, {j}): {exc}") from None
            grid.append(cells)
        return cls(grid)


def det_exact(matrix) -> GaussianRational:
    """Exact determinant by fraction-free elimination (Bareiss).

    Accepts a HermitianMatrix or any square grid of entries; hermitian
    symmetry is not required for the determinant itself.
    """
    grid = _as_grid(matrix)
    n = _check_square(grid)
    m = [list(row) for row in grid]
    sign = 1
    prev = GR_ONE
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next(
                (r for r in range(k + 1, n) if m[r][k]), None
            )
            if pivot_row is None:
                return GR_ZERO
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = GR_ZERO
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return -result if sign < 0 else result


def _int_matmul(a: list[list[int]], bt: list[list[int]]) -> list[list[int]]:
    """Product with the second factor pre-transposed; plain int entries."""
    return [
        [sum(map(mul, row, col)) for col in bt]
        for row in a
    ]


def _char_poly_gaussian_int(
    a_re: list[list[int]], a_im: list[list[int]]
) -> list[tuple[int, int]]:
    """Faddeev-LeVerrier on a Gaussian-integer matrix given as re/im parts.

    Returns the (re, im) parts of every coefficient of det(xI - A),
    ascending.  For Gaussian integer matrices every division in the
    recurrence is exact over the integers, so the whole run stays in
    int arithmetic.  The divisions are checked anyway.
    """
    n = len(a_re)
    m_re = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    m_im = [[0] * n for _ in range(n)]
    out = [(0, 0)] * (n + 1)
    out[n] = (1, 0)
    for k in range(1, n + 1):
        mt_re = [list(col) for col in zip(*m_re)]
        mt_im = [list(col) for col in zip(*m_im)]
        rr = _int_matmul(a_re, mt_re)
        ii = _int_matmul(a_im, mt_im)
        ri = _int_matmul(a_re, mt_im)
        ir = _int_matmul(a_im, mt_re)
        am_re = [
            [rr[i][j] - ii[i][j] for j in range(n)] for i in range(n)
        ]
        am_im = [
            [ri[i][j] + ir[i][j] for j in range(n)] for i in range(n)
        ]
        tr_re = sum(am_re[i][i] for i in range(n))
        tr_im = sum(am_im[i][i] for i in range(n))
        q_re, r_re = divmod(-tr_re, k)
        q_im, r_im = divmod(-tr_im, k)
        if r_re or r_im:
            raise InternalInconsistencyError(
                "Faddeev-LeVerrier hit an inexact integer division"
            )
        out[n - k] = (q_re, q_im)
        for i in range(n):
            am_re[i][i] += q_re
            am_im[i][i] += q_im
        m_re, m_im = am_re, am_im
    return out


def char_poly(matrix: HermitianMatrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - A), exactly.

    One integer route serves every matrix: with D the least common
    denominator of all entry parts, DA is a Gaussian integer matrix, and
    char(A)(x) = D**-n * char(DA)(D*x), so coefficient k of char(A) is
    c_k / D**(n - k) for the coefficients c_k of char(DA).  Hermitian
    matrices have real characteristic coefficients; that is asserted on
    the exact results, so a nonzero imaginary residue can never be
    silently dropped.
    """
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix(matrix)
    n = matrix.n
    parts = [x for row in matrix.entries for c in row for x in (c.re, c.im)]
    den = lcm(*[x.denominator for x in parts])
    a_re = [[c.re.numerator * (den // c.re.denominator) for c in row]
            for row in matrix.entries]
    a_im = [[c.im.numerator * (den // c.im.denominator) for c in row]
            for row in matrix.entries]
    coeffs = []
    for k, (re, im) in enumerate(_char_poly_gaussian_int(a_re, a_im)):
        if im != 0:
            raise InternalInconsistencyError(
                f"characteristic coefficient {k} has nonzero imaginary part"
                f" {Fraction(im, den ** (n - k))}"
            )
        coeffs.append(Fraction(re, den ** (n - k)))
    return Polynomial(coeffs)


def principal_submatrix(matrix: HermitianMatrix, k: int) -> HermitianMatrix:
    """Delete row k and column k (0-based)."""
    if not 0 <= k < matrix.n:
        raise InputFormatError(
            f"deletion index {k} out of range for a {matrix.n}x{matrix.n} matrix"
        )
    if matrix.n == 1:
        raise InputFormatError("cannot delete the only row of a 1x1 matrix")
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
    exact; any mismatch is reported, not rounded away.
    """
    alpha = as_rational(alpha)
    n = matrix.n
    if n < 2:
        raise InputFormatError("bordered identity needs n >= 2")
    shifted_rows = [list(row) for row in matrix.entries]
    corner = shifted_rows[n - 1][n - 1]
    shifted_rows[n - 1][n - 1] = GaussianRational(corner.re + alpha, corner.im)
    shifted = HermitianMatrix(shifted_rows)
    b = principal_submatrix(matrix, n - 1)
    lhs = char_poly(shifted)
    rhs = char_poly(matrix) - alpha * char_poly(b)
    return IdentityReport(
        n=n,
        alpha=alpha,
        lhs=lhs,
        rhs=rhs,
        exact_match=lhs == rhs,
    )


def eigen_intervals(
    matrix: HermitianMatrix, width: Rational = DEFAULT_WIDTH
) -> RootIntervals:
    """Isolating intervals for all eigenvalues, refined to the width.

    A Hermitian matrix has exactly n real eigenvalues with multiplicity;
    that total is asserted on the certified count, so a shortfall raises
    instead of returning a silently wrong spectrum.
    """
    spectrum = refine_to(isolate_roots(char_poly(matrix)), width)
    if spectrum.total_multiplicity != matrix.n:
        raise InternalInconsistencyError(
            f"found {spectrum.total_multiplicity} eigenvalues for n = {matrix.n}",
            report=spectrum,
        )
    return spectrum


@dataclass(frozen=True)
class CauchyReport:
    """Certified interlacing of a principal submatrix spectrum."""

    n: int
    deleted: int
    matrix_spectrum: RootIntervals
    submatrix_spectrum: RootIntervals
    interlace: InterlaceReport

    @property
    def verdict(self) -> InterlaceVerdict:
        return self.interlace.verdict

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "deleted": self.deleted,
            "matrix_spectrum": self.matrix_spectrum.to_json_obj(),
            "submatrix_spectrum": self.submatrix_spectrum.to_json_obj(),
            "interlace": self.interlace.as_dict(),
        }


def cauchy_check(
    matrix: HermitianMatrix, k: int, width: Rational = DEFAULT_WIDTH
) -> CauchyReport:
    """Certify that deleting row and column k interlaces the spectrum.

    The eigenvalues of the submatrix must always interlace those of the
    full matrix, so any other verdict is raised as an internal
    inconsistency carrying the offending report.
    """
    spectrum = eigen_intervals(matrix, width)
    sub = principal_submatrix(matrix, k)
    sub_spectrum = eigen_intervals(sub, width)
    report = CauchyReport(
        n=matrix.n,
        deleted=k,
        matrix_spectrum=spectrum,
        submatrix_spectrum=sub_spectrum,
        interlace=interlaces_by_roots(spectrum, sub_spectrum),
    )
    if report.verdict != InterlaceVerdict.INTERLACES:
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
    if n < 1:
        raise InputFormatError(f"matrix size must be positive, got {n}")
    if bound < 0:
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
