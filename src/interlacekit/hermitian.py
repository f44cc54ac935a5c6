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
        return GaussianRational(as_rational(value), Fraction(0))
    return None


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))

Grid = tuple[tuple[GaussianRational, ...], ...]
_Parts = list[tuple[int, int]]  # (re, im) of Gaussian integers


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


class HermitianMatrix:
    """Immutable Hermitian matrix; the constructor rejects anything else.

    ``_spectra`` is the Cauchy work every deletion shares, filled on
    first use by ``_shared_work``; it is not part of the value.
    """

    __slots__ = ("n", "entries", "_spectra")

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
        object.__setattr__(self, "_spectra", None)

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


def _int_matmul(a: list[list[int]], bt: list[list[int]]) -> list[list[int]]:
    """Product with the second factor pre-transposed; plain int entries."""
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _char_poly_gaussian_int(real_form: list[list[int]]) -> tuple[_Parts, list[_Parts]]:
    """Faddeev-LeVerrier on A = R + iS, given as its real form [[R, -S], [S, R]].

    The real form acts on the stack [P; Q] of M = P + iQ as A acts on M,
    so a step is one integer product.  Returns the (re, im) parts of the
    coefficients of det(xI - A) and of every det(xI - A_i), ascending,
    A_i being A without row and column i: the iterates M_1 = I, ..., M_n
    are the coefficients of adj(xI - A) = sum M_k x**(n - k), whose
    diagonal entry (i, i) is det(xI - A_i) by Cramer's rule.  Each
    division is exact for a Gaussian integer matrix, and is checked; so
    is Cayley-Hamilton, A M_n + c_0 I = 0.
    """
    n = len(real_form) // 2
    m = [[int(i == j) for j in range(n)] for i in range(2 * n)]
    coeffs, diagonals = [(1, 0)], []
    for k in range(1, n + 1):
        diagonals.append([(m[i][i], m[n + i][i]) for i in range(n)])
        m = _int_matmul(real_form, list(zip(*m)))
        q_re, r_re = divmod(-sum(m[i][i] for i in range(n)), k)
        q_im, r_im = divmod(-sum(m[n + i][i] for i in range(n)), k)
        if r_re or r_im:
            raise InternalInconsistencyError(
                "Faddeev-LeVerrier hit an inexact integer division"
            )
        coeffs.append((q_re, q_im))
        for i in range(n):
            m[i][i] += q_re
            m[n + i][i] += q_im
    if any(map(any, m)):
        raise InternalInconsistencyError(
            "Faddeev-LeVerrier broke Cayley-Hamilton: A M_n + c_0 I is not zero"
        )
    return coeffs[::-1], [list(d[::-1]) for d in zip(*diagonals)]


def _real_poly(parts: _Parts, den: int, what: str) -> Polynomial:
    """Polynomial with coefficient j equal to re_j / den**(d - j), d its degree.

    Hermitian matrices have real characteristic coefficients; that is
    asserted on the exact results, so a nonzero imaginary residue can
    never be silently dropped.
    """
    d = len(parts) - 1
    coeffs = []
    for j, (re, im) in enumerate(parts):
        if im != 0:
            raise InternalInconsistencyError(
                f"{what} {j} has nonzero imaginary part"
                f" {Fraction(im, den ** (d - j))}"
            )
        coeffs.append(Fraction(re, den ** (d - j)))
    return Polynomial(coeffs)


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


def _char_polys(
    matrix: HermitianMatrix, deletions: Iterable[int]
) -> tuple[Polynomial, tuple[Polynomial, ...]]:
    """char(A) and char(A_i) for each listed deletion i, from one integer pass.

    Only the listed deletions are turned into Fraction polynomials.
    """
    den, full, subs = _scaled_pass(matrix.entries)
    return _real_poly(full, den, "characteristic coefficient"), tuple(
        _real_poly(subs[i], den, f"submatrix {i} characteristic coefficient")
        for i in deletions
    )


def det_exact(matrix) -> GaussianRational:
    """Exact determinant: (-1)**n times the constant term of det(xI - A).

    The constant term c_0 / D**n comes from the same integer pass as
    every characteristic polynomial.  That pass divides exactly for any
    Gaussian integer matrix, so a HermitianMatrix or any square grid of
    entries is accepted; hermitian symmetry is not required.
    """
    grid = _as_grid(matrix)
    n = _check_square(grid)
    den, full, _ = _scaled_pass(grid)
    re, im = full[0]
    scale = (-den) ** n
    return GaussianRational(Fraction(re, scale), Fraction(im, scale))


def _as_hermitian(matrix) -> HermitianMatrix:
    """The argument itself, or a plain grid through the checking constructor."""
    if isinstance(matrix, HermitianMatrix):
        return matrix
    return HermitianMatrix(matrix)


def char_poly(matrix: HermitianMatrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - A), exactly.

    It comes from the one integer Faddeev-LeVerrier pass, which also
    yields every principal submatrix polynomial.  A plain grid is
    accepted and checked by the HermitianMatrix constructor.
    """
    return _char_polys(_as_hermitian(matrix), ())[0]


def _check_deletion(n: int, k: int) -> None:
    if not 0 <= k < n:
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
    char(B) come from one pass over A.
    """
    matrix = _as_hermitian(matrix)
    alpha = as_rational(alpha)
    n = matrix.n
    if n < 2:
        raise InputFormatError("bordered identity needs n >= 2")
    shifted_rows = [list(row) for row in matrix.entries]
    corner = shifted_rows[n - 1][n - 1]
    shifted_rows[n - 1][n - 1] = GaussianRational(corner.re + alpha, corner.im)
    lhs = char_poly(HermitianMatrix(shifted_rows))
    full, (sub,) = _char_polys(matrix, (n - 1,))
    rhs = full - alpha * sub
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
    the intervals further.
    """
    return _shared_work(_as_hermitian(matrix))[0]


def _spectrum(poly: Polynomial, n: int) -> RootIntervals:
    """Roots of a characteristic polynomial of an n-square Hermitian matrix."""
    spectrum = refine_to(isolate_roots(poly), DEFAULT_WIDTH)
    if spectrum.total_multiplicity != n:
        raise InternalInconsistencyError(
            f"found {spectrum.total_multiplicity} eigenvalues for n = {n}",
            report=spectrum,
        )
    return spectrum


def _shared_work(
    matrix: HermitianMatrix,
) -> tuple[RootIntervals, tuple[Polynomial, ...]]:
    """A's spectrum and every char(A_k): what all deletions of A share.

    Worked out on the first call for a matrix object and kept on it, so
    every later ``eigen_intervals`` or ``cauchy_check`` call on that
    object reuses it.  An equal matrix built afresh (say, parsed again
    from its file) works it out again.
    """
    if matrix._spectra is None:
        full, subs = _char_polys(matrix, range(matrix.n))
        object.__setattr__(matrix, "_spectra", (_spectrum(full, matrix.n), subs))
    return matrix._spectra


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


def cauchy_check(matrix: HermitianMatrix, k: int) -> CauchyReport:
    """Certify that deleting row and column k interlaces the spectrum.

    The eigenvalues of the submatrix must always interlace those of the
    full matrix, so any other verdict is raised as an internal
    inconsistency carrying the offending report.  The full spectrum and
    the submatrix polynomials are computed once per matrix object and
    shared by the calls for each k.  k is checked first, so a bad index
    raises before any of that work.  Spectra are refined to
    ``DEFAULT_WIDTH``.
    """
    matrix = _as_hermitian(matrix)
    _check_deletion(matrix.n, k)
    spectrum, sub_polys = _shared_work(matrix)
    sub_spectrum = _spectrum(sub_polys[k], matrix.n - 1)
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
