import itertools
import json
import re
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interlacekit.hermitian as hermitian
from interlacekit import _intops, cli
from interlacekit import (
    DEFAULT_WIDTH,
    GaussianRational,
    HermitianMatrix,
    InputFormatError,
    InterlaceVerdict,
    InternalInconsistencyError,
    Polynomial,
    SplitMix64,
    bordered_identity,
    cauchy_check,
    char_poly,
    eigen_intervals,
    principal_submatrix,
    random_hermitian,
    refine_to,
    trial_rng,
)

GR = GaussianRational.of


def det_cofactor(grid):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    total = GR(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = grid[0][j] * det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def lagrange_char(matrix):
    """Independent oracle: interpolate det(tI - A) at t = 0 .. n."""
    n = matrix.n
    points = []
    for t in range(n + 1):
        shifted = [
            [
                GR(t) - matrix.entries[i][j] if i == j else -matrix.entries[i][j]
                for j in range(n)
            ]
            for i in range(n)
        ]
        d = det_cofactor(shifted)
        assert d.im == 0
        points.append((F(t), d.re))
    result = Polynomial()
    for i, (xi, yi) in enumerate(points):
        term = Polynomial([yi])
        for j, (xj, _) in enumerate(points):
            if i != j:
                term = term * Polynomial([-xj / (xi - xj), 1 / (xi - xj)])
        result = result + term
    return result


def test_gaussian_rational_arithmetic():
    a = GR(1, 2)
    b = GR(3, -1)
    assert a + b == GR(4, 1)
    assert a - b == GR(-2, 3)
    assert a * b == GR(5, 5)
    assert a.conjugate() == GR(1, -2)
    assert -a == GR(-1, -2)
    assert a + 1 == GR(2, 2)
    assert F(1, 2) * a == GR(F(1, 2), 1)
    assert str(GR(1, -2)) == "1 - 2i"
    assert str(GR(F(1, 3))) == "1/3"


def test_constructor_names_the_defect():
    with pytest.raises(InputFormatError, match=r"\(0, 1\)"):
        HermitianMatrix([[GR(0), GR(1)], [GR(2), GR(0)]])
    with pytest.raises(InputFormatError, match=r"diagonal entry \(1, 1\)"):
        HermitianMatrix([[GR(0), GR(0)], [GR(0), GR(0, 3)]])


def reference_defect(grid):
    """First (i, j) with grid[i][j] != conj(grid[j][i]), by whole entries."""
    n = len(grid)
    for i in range(n):
        if grid[i][i].im != 0:
            return (i, i)
        for j in range(i + 1, n):
            if grid[i][j] != grid[j][i].conjugate():
                return (i, j)
    return None


OFF = "matrix is not Hermitian: entry ({0}, {1}) does not match the conjugate of entry ({1}, {0})"
DIAG = "matrix is not Hermitian: diagonal entry ({0}, {0}) must be real"


@pytest.mark.parametrize(
    "grid, message",
    [
        ([[GR(1), GR(2, 1)], [GR(2, -1), GR(0, -1)]], DIAG.format(1)),
        ([[GR(1), GR(2, 1)], [GR(3, -1), GR(0)]], OFF.format(0, 1)),
        ([[GR(1), GR(2, 1)], [GR(2, 1), GR(0)]], OFF.format(0, 1)),
        (
            [
                [GR(1), GR(2, 1), GR(0, 5)],
                [GR(2, -1), GR(3), GR(F(1, 2), 4)],
                [GR(0, -5), GR(F(1, 2), 4), GR(7)],
            ],
            OFF.format(1, 2),
        ),
    ],
    ids=["imaginary diagonal", "real part", "imaginary sign", "later row"],
)
def test_hermitian_check_names_each_defect_kind(grid, message):
    assert hermitian._hermitian_defect(grid) == reference_defect(grid)
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        HermitianMatrix(grid)


_defect_cells = st.sampled_from([GR(0), GR(1), GR(-1), GR(0, 1), GR(0, -1), GR(1, 1), GR(1, -1)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_defect_cells, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_hermitian_check_matches_the_conjugate_reference(grid):
    assert hermitian._hermitian_defect(grid) == reference_defect(grid)


def det_from_char_poly(matrix):
    """det(A) = (-1)^n char(A)(0), read from the kept Faddeev-LeVerrier pass."""
    char = char_poly(matrix)
    return GR((-1) ** char.degree * char.coeffs[0])


def test_det_examples():
    assert det_from_char_poly([[GR(3)]]) == GR(3)
    m = HermitianMatrix([[GR(1), GR(0, 1)], [GR(0, -1), GR(1)]])
    assert det_from_char_poly(m) == GR(0)
    assert det_from_char_poly(HermitianMatrix.diagonal([2, 3, 4])) == GR(24)
    singular = [[GR(1), GR(2), GR(3)], [GR(2), GR(4), GR(6)], [GR(3), GR(6), GR(9)]]
    assert det_from_char_poly(singular) == GR(0)


def test_det_handles_zero_pivots():
    m = [[GR(0), GR(1)], [GR(1), GR(0)]]
    assert det_from_char_poly(m) == GR(-1)
    m3 = [
        [GR(0), GR(0), GR(1)],
        [GR(0), GR(1), GR(0)],
        [GR(1), GR(0), GR(0)],
    ]
    assert det_from_char_poly(m3) == GR(-1)


def test_det_against_cofactor_oracle():
    for trial in range(100):
        rng = trial_rng(2024, trial)
        n = rng.int_between(1, 4)
        m = random_hermitian(rng, n, 9)
        assert det_from_char_poly(m) == det_cofactor([list(r) for r in m.entries])


# The 73 rationals p/q with q <= 4 and |p/q| <= 6, simplest first.
# Sampling from a list draws far faster than st.fractions.
parts = st.sampled_from(
    sorted({F(p, q) for q in range(1, 5) for p in range(-6 * q, 6 * q + 1)}, key=abs)
)
entries = st.builds(GR, parts, parts)


@st.composite
def square_grids(draw):
    """Square grids of Gaussian rationals, n 1..5, often made singular.

    Nothing ties an entry to its mirror, so the grids are almost never
    Hermitian.  A singular grid overwrites row j with q * row i + r *
    row k; k is i itself when n = 2.
    """
    n = draw(st.integers(1, 5))
    grid = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        i, j, k = order[0], order[1], order[2 % n]
        q, r = draw(parts), draw(parts)
        grid[j] = [q * a + r * b for a, b in zip(grid[i], grid[k])]
    return grid


def pass_value(parts, den, t):
    """Value at t of the polynomial with coefficient j = parts[j] / den**(d - j)."""
    d = len(parts) - 1
    return sum(
        (GR(F(re, den ** (d - j)), F(im, den ** (d - j))) * t**j
         for j, (re, im) in enumerate(parts)),
        GR(0),
    )


@settings(max_examples=100, deadline=None)
@given(square_grids())
def test_pass_matches_cofactor_char_polys_on_any_square_grid(grid):
    """char(A) and every adjugate diagonal char(A_i), against cofactors at t = 0..n.

    The grids are almost never Hermitian, so A and conj(A) give
    different polynomials, and the submatrix polynomials are checked
    against determinants of explicit submatrices of tI - A.
    """
    n = len(grid)
    den, full, subs = hermitian._scaled_pass(grid)
    for t in range(n + 1):
        shifted = [
            [(GR(t) if i == j else GR(0)) - grid[i][j] for j in range(n)]
            for i in range(n)
        ]
        assert pass_value(full, den, t) == det_cofactor(shifted)
        for i in range(n):
            minor = [row[:i] + row[i + 1 :] for k, row in enumerate(shifted) if k != i]
            expected = det_cofactor(minor) if minor else GR(1)
            assert pass_value(subs[i], den, t) == expected


@pytest.mark.parametrize("row, col", [(0, 1), (4, 0)])
def test_cayley_hamilton_check_catches_a_corrupted_product(monkeypatch, row, col):
    """An off-diagonal slip in the last product passes every trace division.

    Row 4 of the stacked product is the imaginary part of row 1.  Each
    row is one packed int, so the slip at column col is one unit of its
    slot, added at bit w * col.
    """
    m = random_hermitian(SplitMix64(5), 3, 10)
    original = hermitian._packed_product
    calls = []

    def corrupted(real_form, rows):
        product = original(real_form, rows)
        calls.append(None)
        if len(calls) == m.n:
            product[row] += 1 << (hermitian._slot_width(real_form) * col)
        return product

    monkeypatch.setattr(hermitian, "_packed_product", corrupted)
    with pytest.raises(InternalInconsistencyError, match="Cayley-Hamilton"):
        char_poly(m)
    assert len(calls) == m.n


@pytest.mark.parametrize("sub, coeff", [(0, 0), (2, 1), (3, 3)])
def test_jacobi_check_catches_a_corrupted_submatrix_polynomial(monkeypatch, sub, coeff):
    """The submatrix polynomials must sum to char(A)'; Cayley-Hamilton misses a slip.

    The slip is one unit on the real part of one coefficient of one
    char(DA_i), after the pass has run its own checks; coefficient 3 is
    the leading one of a 4x4 matrix's submatrices.
    """
    m = random_hermitian(SplitMix64(5), 4, 10)
    original = hermitian._char_poly_gaussian_int

    def corrupted(real_form):
        full, subs = original(real_form)
        re, im = subs[sub][coeff]
        subs[sub][coeff] = (re + 1, im)
        return full, subs

    monkeypatch.setattr(hermitian, "_char_poly_gaussian_int", corrupted)
    with pytest.raises(InternalInconsistencyError, match="Jacobi"):
        char_poly(m)
    with pytest.raises(InternalInconsistencyError, match="Jacobi"):
        cauchy_check(HermitianMatrix(m.entries), sub)


def reference_fl(real_form, peaks=None):
    """Faddeev-LeVerrier on a real form with plain int entries, no packing.

    The reference the packed pass must equal exactly: one scalar integer
    matrix product per step, with the same recurrence and checks.  When
    ``peaks`` is a list, the largest |entry| of each product A M_k is
    appended to it.
    """
    n = len(real_form) // 2
    m = [[int(i == j) for j in range(n)] for i in range(2 * n)]
    coeffs, diagonals = [(1, 0)], []
    for k in range(1, n + 1):
        diagonals.append([(m[i][i], m[n + i][i]) for i in range(n)])
        cols = list(zip(*m))
        m = [[sum(map(mul, row, col)) for col in cols] for row in real_form]
        if peaks is not None:
            peaks.append(max(abs(x) for row in m for x in row))
        q_re, r_re = divmod(-sum(m[i][i] for i in range(n)), k)
        q_im, r_im = divmod(-sum(m[n + i][i] for i in range(n)), k)
        assert r_re == r_im == 0
        coeffs.append((q_re, q_im))
        for i in range(n):
            m[i][i] += q_re
            m[n + i][i] += q_im
    assert not any(map(any, m))
    return coeffs[::-1], [list(d[::-1]) for d in zip(*diagonals)]


def real_form(re, im):
    """[[R, -S], [S, R]] for the Gaussian integer matrix R + iS."""
    return [a + [-x for x in b] for a, b in zip(re, im)] + [
        b + a for a, b in zip(re, im)
    ]


def sparse_parts(n, entries):
    """(R, S) of the n-square matrix with {(i, j): (re, im)} entries, else zero."""
    parts = [[[0] * n for _ in range(n)] for _ in range(2)]
    for (i, j), (re, im) in entries.items():
        parts[0][i][j], parts[1][i][j] = re, im
    return parts


def scalar(n, c_re, c_im=0):
    return sparse_parts(n, {(i, i): (c_re, c_im) for i in range(n)})


def all_equal(n, c_re, c_im=0):
    return sparse_parts(n, {(i, j): (c_re, c_im) for i in range(n) for j in range(n)})


def seeded_parts(n, bound, herm):
    """(R, S) of a seeded Hermitian or general Gaussian integer matrix."""
    rng = trial_rng(bound, 2 * n + herm)
    if herm:
        entries = random_hermitian(rng, n, bound).entries
        return [[int(c.re) for c in row] for row in entries], [
            [int(c.im) for c in row] for row in entries
        ]
    return [
        [[rng.int_between(-bound, bound) for _ in range(n)] for _ in range(n)]
        for _ in range(2)
    ]


HUGE = 10**40
FL_CASES = {
    **{
        f"seeded n={n} bound={bound} {kind}": seeded_parts(n, bound, kind == "hermitian")
        for n in range(1, 21)
        for bound in (10, 10**12)
        for kind in ("hermitian", "general")
    },
    # Iterates C(n-1, k-1) c**(k-1) I: the 2**n factor of the slot bound.
    **{
        f"{c}*I n={n}": scalar(n, c)
        for n in (1, 2, 7, 20)
        for c in (1, -1, 2**40 - 1, -(10**12))
    },
    "(3-4i)*I n=9": scalar(9, 3, -4),
    **{f"{c}*J n={n}": all_equal(n, c) for n in (1, 5, 20) for c in (1, -(10**12))},
    "(1+i)*J n=6": all_equal(6, 1, 1),
    **{
        f"huge off-diagonal n={n}": sparse_parts(n, {(0, n - 1): (HUGE, 0)})
        for n in (2, 9, 20)
    },
    **{
        f"huge mirrored off-diagonal n={n}": sparse_parts(
            n, {(0, n - 1): (HUGE, 0), (n - 1, 0): (HUGE, 0)}
        )
        for n in (2, 9, 20)
    },
    "huge imaginary off-diagonal n=4": sparse_parts(4, {(1, 2): (0, HUGE), (2, 1): (0, -HUGE)}),
    **{f"zero n={n}": scalar(n, 0) for n in (1, 6, 20)},
    **{f"1x1 {c}": scalar(1, *c) for c in ((0, 0), (5, 0), (-(10**12), 3), (0, -HUGE))},
}


@pytest.mark.parametrize("parts", FL_CASES.values(), ids=FL_CASES.keys())
def test_packed_pass_equals_the_reference_loop(parts):
    """The packed pass returns exactly what the plain-int loop returns.

    Every product A M_k of the reference also stays within r**k 2**n,
    the per-step bound the slot width is derived from.
    """
    rf = real_form(*parts)
    n = len(rf) // 2
    peaks = []
    assert hermitian._char_poly_gaussian_int(rf) == reference_fl(rf, peaks)
    r = max(max(sum(map(abs, row)) for row in rf), 1)
    assert all(p <= r**k * 2**n for k, p in enumerate(peaks, 1))
    assert max(peaks) < 2 ** (hermitian._slot_width(rf) - 1)


def test_char_poly_examples():
    m = HermitianMatrix([[GR(1), GR(0, 1)], [GR(0, -1), GR(1)]])
    assert char_poly(m) == Polynomial([0, -2, 1])
    assert char_poly(HermitianMatrix.diagonal([1, 2])) == Polynomial([2, -3, 1])
    tri = HermitianMatrix(
        [[GR(2), GR(1), GR(0)], [GR(1), GR(2), GR(1)], [GR(0), GR(1), GR(2)]]
    )
    assert char_poly(tri) == Polynomial([-4, 10, -6, 1])


def test_char_poly_monic_and_degree():
    rng = SplitMix64(5)
    m = random_hermitian(rng, 6, 10)
    p = char_poly(m)
    assert p.degree == 6
    assert p.leading_coefficient() == 1


def test_char_poly_against_interpolation_oracle():
    for trial in range(30):
        rng = trial_rng(777, trial)
        n = rng.int_between(1, 4)
        m = random_hermitian(rng, n, 8)
        assert char_poly(m) == lagrange_char(m)


def test_char_poly_fraction_entries_take_generic_path():
    half = F(1, 2)
    m = HermitianMatrix(
        [
            [GR(half), GR(1, half)],
            [GR(1, -half), GR(2)]
        ]
    )
    p = char_poly(m)
    # det(xI - A) = (x - 1/2)(x - 2) - (1 + i/2)(1 - i/2)
    assert p == Polynomial([1 - F(5, 4), -half - 2, 1])
    assert p == lagrange_char(m)


def test_principal_submatrix():
    tri = HermitianMatrix(
        [[GR(2), GR(1), GR(0)], [GR(1), GR(2), GR(1)], [GR(0), GR(1), GR(2)]]
    )
    middle = principal_submatrix(tri, 1)
    assert middle == HermitianMatrix.diagonal([2, 2])
    last = principal_submatrix(tri, 2)
    assert last == HermitianMatrix([[GR(2), GR(1)], [GR(1), GR(2)]])
    with pytest.raises(InputFormatError):
        principal_submatrix(tri, 3)
    with pytest.raises(InputFormatError):
        principal_submatrix(HermitianMatrix.diagonal([1]), 0)


def test_bordered_identity_examples():
    m = HermitianMatrix([[GR(0), GR(1)], [GR(1), GR(0)]])
    report = bordered_identity(m, 1)
    assert report.exact_match
    assert report.lhs == Polynomial([-1, -1, 1])
    assert report.rhs == report.lhs

    diag = HermitianMatrix.diagonal([1, 2])
    report2 = bordered_identity(diag, 3)
    assert report2.exact_match
    assert report2.lhs == Polynomial([5, -6, 1])


def test_bordered_identity_random_and_rational_alpha():
    for trial in range(25):
        rng = trial_rng(31337, trial)
        n = rng.int_between(2, 6)
        m = random_hermitian(rng, n, 10)
        alpha = rng.rational(100, 100)
        report = bordered_identity(m, alpha)
        assert report.exact_match
        assert report.lhs.degree == n


def test_bordered_identity_rejects_tiny_matrices():
    with pytest.raises(InputFormatError):
        bordered_identity(HermitianMatrix.diagonal([4]), 1)


def test_identity_report_serialization():
    report = bordered_identity(HermitianMatrix.diagonal([1, 2]), F(1, 3))
    d = report.as_dict()
    assert d["exact_match"] is True
    assert d["alpha"] == "1/3"
    assert d["lhs_coeffs"] == d["rhs_coeffs"]
    assert "convention" in d


def test_eigen_intervals_counts_with_multiplicity():
    spectrum = eigen_intervals(HermitianMatrix.diagonal([2, 2, 5]))
    assert spectrum.total_multiplicity == 3
    assert spectrum.multiplicities == (2, 1)
    for (lo, hi), root in zip(spectrum.intervals, [2, 5]):
        assert lo <= root <= hi
        assert hi - lo <= DEFAULT_WIDTH


def test_eigen_intervals_against_numpy():
    numpy = pytest.importorskip("numpy")
    for trial in range(20):
        rng = trial_rng(606, trial)
        n = rng.int_between(2, 6)
        m = random_hermitian(rng, n, 10)
        a = numpy.array(
            [
                [complex(c.re, c.im) for c in row]
                for row in m.entries
            ]
        )
        expected = sorted(numpy.linalg.eigvalsh(a))
        spectrum = refine_to(eigen_intervals(m), F(1, 2 ** 24))
        got = [
            (lo + hi) / 2
            for (lo, hi), mult in zip(spectrum.intervals, spectrum.multiplicities)
            for _ in range(mult)
        ]
        assert len(got) == n
        for ours, theirs in zip(got, expected):
            assert abs(float(ours) - theirs) < 1e-6


def test_cauchy_check_known_matrix():
    tri = HermitianMatrix(
        [[GR(2), GR(1), GR(0)], [GR(1), GR(2), GR(1)], [GR(0), GR(1), GR(2)]]
    )
    for k in range(3):
        report = cauchy_check(tri, k)
        assert report.verdict == InterlaceVerdict.INTERLACES
        assert report.n == 3
        assert report.deleted == k
        assert report.matrix_spectrum.total_multiplicity == 3
        assert report.submatrix_spectrum.total_multiplicity == 2


def test_cauchy_check_repeated_eigenvalues():
    m = HermitianMatrix.diagonal([3, 3, 3])
    report = cauchy_check(m, 1)
    assert report.verdict == InterlaceVerdict.INTERLACES
    assert report.matrix_spectrum.multiplicities == (3,)
    assert report.submatrix_spectrum.multiplicities == (2,)


def test_cauchy_report_serialization():
    report = cauchy_check(HermitianMatrix.diagonal([1, 4]), 0)
    d = report.as_dict()
    assert d["n"] == 2
    assert d["deleted"] == 0
    assert d["interlace"]["verdict"] == "Interlaces"
    assert len(d["matrix_spectrum"]) == 2
    assert len(d["submatrix_spectrum"]) == 1


def test_random_hermitian_is_deterministic_and_bounded():
    a = random_hermitian(SplitMix64(12), 5, 7)
    b = random_hermitian(SplitMix64(12), 5, 7)
    assert a == b
    assert HermitianMatrix(a) == a
    for row in a.entries:
        for c in row:
            assert abs(c.re) <= 7 and abs(c.im) <= 7
            assert c.re.denominator == 1 and c.im.denominator == 1


def test_random_hermitian_draw_order_is_pinned():
    rng = SplitMix64(0)
    m = random_hermitian(rng, 2, 10)
    probe = SplitMix64(0)
    d0 = probe.int_between(-10, 10)
    re01 = probe.int_between(-10, 10)
    im01 = probe.int_between(-10, 10)
    d1 = probe.int_between(-10, 10)
    assert m.entries[0][0] == GR(d0)
    assert m.entries[0][1] == GR(re01, im01)
    assert m.entries[1][0] == GR(re01, -im01)
    assert m.entries[1][1] == GR(d1)


def test_matrix_json_rejects_bool_size():
    with pytest.raises(InputFormatError, match="'n'"):
        HermitianMatrix.from_json_obj({"n": True, "entries": [[["1", "0"]]]})


def test_matrix_json_round_trip():
    m = random_hermitian(SplitMix64(9), 4, 10)
    obj = m.to_json_obj()
    assert obj["n"] == 4
    assert HermitianMatrix.from_json_obj(obj) == m


def test_matrix_json_diagnostics():
    with pytest.raises(InputFormatError, match="'n' and 'entries'"):
        HermitianMatrix.from_json_obj({"n": 2})
    with pytest.raises(InputFormatError, match="positive integer"):
        HermitianMatrix.from_json_obj({"n": 0, "entries": []})
    with pytest.raises(InputFormatError, match="row 0"):
        HermitianMatrix.from_json_obj({"n": 2, "entries": [[], []]})
    bad_cell = {
        "n": 2,
        "entries": [
            [["1", "0"], ["1", "0"]],
            [["1", "0"], ["1/0", "0"]],
        ],
    }
    with pytest.raises(InputFormatError, match=r"entry \(1, 1\)"):
        HermitianMatrix.from_json_obj(bad_cell)
    lopsided = {
        "n": 2,
        "entries": [
            [["1", "0"], ["2", "1"]],
            [["2", "1"], ["1", "0"]],
        ],
    }
    with pytest.raises(InputFormatError, match=r"\(0, 1\)"):
        HermitianMatrix.from_json_obj(lopsided)


@pytest.mark.parametrize("part", [3, None, ["1"], True])
@pytest.mark.parametrize("slot", [0, 1])
def test_matrix_json_names_the_entry_of_a_non_string_part(part, slot):
    # Entry strings are parsed once each; a part that is not a string
    # must still be refused as input, never looked up as a key.
    cell = ["1", "0"]
    cell[slot] = part
    doc = {"n": 2, "entries": [[["1", "0"], ["1", "0"]], [cell, ["1", "0"]]]}
    with pytest.raises(
        InputFormatError, match=r"^entry \(1, 0\): rational must be a string"
    ):
        HermitianMatrix.from_json_obj(doc)


def test_matrix_json_reports_a_repeated_bad_string_at_its_first_entry():
    doc = {
        "n": 2,
        "entries": [[["1", "0"], ["1.5", "0"]], [["1.5", "0"], ["1.5", "0"]]],
    }
    with pytest.raises(InputFormatError, match=r"^entry \(0, 1\): invalid rational '1.5'$"):
        HermitianMatrix.from_json_obj(doc)


def test_matrix_json_spellings_of_one_value_parse_to_equal_entries(tmp_path, capsys):
    doc = {
        "n": 2,
        "entries": [[["3", "0"], ["+03", "0"]], [[" 3 ", "0"], ["+03", " 0"]]],
    }
    m = HermitianMatrix.from_json_obj(doc)
    assert {c for row in m.entries for c in row} == {GR(3)}
    assert m == HermitianMatrix([[3, 3], [3, 3]])
    canonical = [[["3", "0"]] * 2] * 2
    assert m.to_json_obj()["entries"] == canonical
    # The report echoes the canonical form.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--mode", "cauchy", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suites"]["cauchy"]["trials"][0]["matrix"]["entries"] == canonical


def scaled_sum(block, q):
    """(B (+) B) / q: every eigenvalue of B appears twice."""
    half = block.n
    rows = [[GR(0)] * (2 * half) for _ in range(2 * half)]
    for i, row in enumerate(block.entries):
        for j, c in enumerate(row):
            rows[i][j] = rows[half + i][half + j] = GaussianRational(c.re / q, c.im / q)
    return HermitianMatrix(rows)


def rational_hermitian(rng, n):
    rows = [[GR(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = GR(rng.rational(20, 9))
        for j in range(i + 1, n):
            rows[i][j] = GR(rng.rational(20, 9), rng.rational(20, 9))
            rows[j][i] = rows[i][j].conjugate()
    return HermitianMatrix(rows)


def one_pass_cases():
    for trial in range(14):
        rng = trial_rng(4242, trial)
        yield random_hermitian(rng, 2 + trial % 7, 10)
        yield rational_hermitian(rng, 2 + trial % 5)
    for half, q in ((1, 2), (2, 3), (3, 7), (4, 5)):
        yield scaled_sum(random_hermitian(trial_rng(99, half), half, 10), q)


def test_one_pass_yields_every_submatrix_char_poly():
    sizes = set()
    for m in one_pass_cases():
        den, full, subs = hermitian._chars(m)
        assert hermitian._unscaled(full, den) == char_poly(m)
        assert len(subs) == m.n
        for k, sub in enumerate(subs):
            assert hermitian._unscaled(sub, den) == char_poly(principal_submatrix(m, k))
        sizes.add(m.n)
    assert sizes >= set(range(2, 9))


def test_bordered_identity_sides_match_separate_char_polys():
    for m in one_pass_cases():
        for alpha in (F(3), F(-7, 4)):
            n = m.n
            rows = [list(row) for row in m.entries]
            rows[n - 1][n - 1] = rows[n - 1][n - 1] + alpha
            report = bordered_identity(m, alpha)
            assert report.lhs == char_poly(HermitianMatrix(rows))
            assert report.rhs == (
                char_poly(m) - alpha * char_poly(principal_submatrix(m, n - 1))
            )
            assert report.exact_match


def count_calls(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(hermitian, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(hermitian, name, counted)
    return counts


def test_all_deletions_of_a_matrix_share_one_pass(monkeypatch):
    m = random_hermitian(SplitMix64(71), 6, 10)
    counts = count_calls(
        monkeypatch, "_char_poly_gaussian_int", "isolate_roots", "principal_submatrix",
        "_residue_certificate",
    )
    reports = [cauchy_check(m, k) for k in range(m.n)]
    assert all(r.verdict == InterlaceVerdict.INTERLACES for r in reports)
    # The verdicts isolate only A's spectrum, and one certificate pass
    # checks every deletion; each submatrix spectrum is isolated when it
    # is first read.
    assert counts == {
        "_char_poly_gaussian_int": 1, "isolate_roots": 1, "principal_submatrix": 0,
        "_residue_certificate": 1,
    }
    assert m._certified_memo == frozenset(range(m.n))
    for r in reports:
        assert r.submatrix_spectrum is r.submatrix_spectrum
    assert counts == {
        "_char_poly_gaussian_int": 1, "isolate_roots": m.n + 1, "principal_submatrix": 0,
        "_residue_certificate": 1,
    }
    # char(A) and char(B) are read from the kept pass; only the shifted
    # matrix takes a pass of its own.
    counts["_char_poly_gaussian_int"] = 0
    assert bordered_identity(m, F(5, 2)).exact_match
    assert counts["_char_poly_gaussian_int"] == 1
    assert counts["principal_submatrix"] == 0


def test_an_equal_matrix_built_afresh_does_not_reuse_the_work(monkeypatch):
    m = random_hermitian(SplitMix64(72), 4, 10)
    counts = count_calls(monkeypatch, "_char_poly_gaussian_int", "_residue_certificate")
    cauchy_check(m, 0)
    cauchy_check(m, 1)
    assert counts == {"_char_poly_gaussian_int": 1, "_residue_certificate": 1}
    again = HermitianMatrix(m.entries)
    assert again == m
    assert again._certified_memo is None
    cauchy_check(again, 0)
    assert counts == {"_char_poly_gaussian_int": 2, "_residue_certificate": 2}
    assert again._certified_memo == m._certified_memo


def test_eigen_intervals_shares_its_work_with_cauchy_check(monkeypatch):
    m = random_hermitian(SplitMix64(75), 5, 10)
    counts = count_calls(monkeypatch, "_char_poly_gaussian_int", "isolate_roots")
    spectrum = eigen_intervals(m)
    reports = [cauchy_check(m, k) for k in range(m.n)]
    assert counts == {"_char_poly_gaussian_int": 1, "isolate_roots": 1}
    assert all(r.matrix_spectrum is spectrum for r in reports)
    assert eigen_intervals(m) is spectrum
    for r in reports:
        r.submatrix_spectrum
    assert counts == {"_char_poly_gaussian_int": 1, "isolate_roots": m.n + 1}
    # A deletion whose char(A_k) shares a root with char(A) also walks
    # both spectra at once, which isolates the submatrix spectrum.  A
    # repeated eigenvalue stays an eigenvalue of every A_k; the path
    # graph's eigenvalue 0 has eigenvector (1, 0, -1), so only A_1 keeps it.
    path = [[GR(0), GR(1), GR(0)], [GR(1), GR(0), GR(1)], [GR(0), GR(1), GR(0)]]
    repeated = HermitianMatrix.diagonal([2, 2, 5])
    for tied, ties in ((repeated, 3), (HermitianMatrix(path), 1)):
        counts["isolate_roots"] = 0
        for k in range(tied.n):
            cauchy_check(tied, k)
        assert counts["isolate_roots"] == 1 + ties


def test_alternating_deletions_of_two_matrices_share_their_work(monkeypatch):
    a = random_hermitian(SplitMix64(3), 5, 10)
    b = scaled_sum(random_hermitian(SplitMix64(4), 2, 10), 3)
    counts = count_calls(monkeypatch, "_char_poly_gaussian_int")
    for k in range(4):
        cauchy_check(a, k)
        cauchy_check(b, k)
    assert counts["_char_poly_gaussian_int"] == 2


def test_shared_cauchy_work_matches_fresh_calls():
    a = random_hermitian(SplitMix64(3), 5, 10)
    b = scaled_sum(random_hermitian(SplitMix64(4), 2, 10), 3)
    # Alternate the matrices, then go over each again, so that every call
    # after the first two reads work kept on its matrix.
    calls = [(m, k) for k in range(4) for m in (a, b)]
    calls += [(m, k) for m in (a, b) for k in range(m.n)]
    shared = [cauchy_check(m, k).as_dict() for m, k in calls]
    fresh = [cauchy_check(HermitianMatrix(m.entries), k).as_dict() for m, k in calls]
    assert shared == fresh


ENTRY_POINTS = {
    "char_poly": char_poly,
    "bordered_identity": lambda m: bordered_identity(m, F(5, 2)),
    "eigen_intervals": eigen_intervals,
    "cauchy_check": lambda m: [cauchy_check(m, k).verdict for k in range(m.n)],
    "as_dict": lambda m: cauchy_check(m, 1).as_dict(),
}


@pytest.mark.parametrize(
    "matrix, isolations",
    [
        # A's spectrum, and the submatrix spectrum that as_dict reads.
        (rational_hermitian(trial_rng(78, 0), 4), 2),
        # Every deletion of diag(2, 2, 5) shares the root 2, so each is
        # also walked over both spectra: three more submatrix spectra.
        (HermitianMatrix.diagonal([2, 2, 5]), 5),
    ],
    ids=["rational", "repeated"],
)
def test_every_entry_point_reads_one_pass_in_any_order(monkeypatch, matrix, isolations):
    fresh = {name: call(HermitianMatrix(matrix.entries)) for name, call in ENTRY_POINTS.items()}
    counts = count_calls(
        monkeypatch, "_char_poly_gaussian_int", "isolate_roots", "_residue_certificate"
    )
    for order in itertools.permutations(ENTRY_POINTS):
        m = HermitianMatrix(matrix.entries)
        counts.update(dict.fromkeys(counts, 0))
        for name in order:
            assert ENTRY_POINTS[name](m) == fresh[name], (order, name)
        # One pass for m and one for the matrix bordered_identity shifts;
        # one certificate pass for the deletions of m.
        assert counts == {
            "_char_poly_gaussian_int": 2, "isolate_roots": isolations,
            "_residue_certificate": 1,
        }, order


def test_cauchy_check_argument_errors_keep_their_text():
    m = HermitianMatrix.diagonal([1, 2, 3])
    with pytest.raises(InputFormatError, match=r"^deletion index 3 out of range for a 3x3 matrix$"):
        cauchy_check(m, 3)
    with pytest.raises(InputFormatError, match=r"^deletion index -1 out of range"):
        cauchy_check(m, -1)
    with pytest.raises(InputFormatError, match=r"^cannot delete the only row of a 1x1 matrix$"):
        cauchy_check(HermitianMatrix.diagonal([4]), 0)
    with pytest.raises(TypeError):
        cauchy_check(m, 0, F(1, 8))
    with pytest.raises(TypeError):
        eigen_intervals(m, F(1, 8))


@pytest.mark.parametrize(
    "k, kind",
    [(True, "bool"), (False, "bool"), (1.0, "float"), (F(1), "Fraction"),
     ("1", "str"), (None, "NoneType")],
)
@pytest.mark.parametrize(
    "call",
    [cauchy_check, principal_submatrix],
    ids=["cauchy_check", "principal_submatrix"],
)
def test_a_deletion_index_that_is_not_an_int_is_rejected(call, k, kind):
    # True used to delete row 1 and serialize as "deleted": true, 1.0
    # failed with a bare TypeError from list indexing, and
    # principal_submatrix(m, 1.0) returned a submatrix.
    m = HermitianMatrix.diagonal([1, 2, 3])
    message = f"^deletion index must be an int, got {kind}$"
    with pytest.raises(InputFormatError, match=message):
        call(m, k)


PLAIN_GRID = [[GR(2), GR(1, 1)], [GR(1, -1), GR(3)]]
NOT_HERMITIAN = [[GR(2), GR(1, 1)], [GR(1, 1), GR(3)]]


@pytest.mark.parametrize(
    "call",
    [
        lambda m: eigen_intervals(m).intervals,
        lambda m: cauchy_check(m, 1).as_dict(),
        lambda m: principal_submatrix(m, 0),
        lambda m: bordered_identity(m, F(1, 3)).as_dict(),
    ],
    ids=["eigen_intervals", "cauchy_check", "principal_submatrix", "bordered_identity"],
)
def test_plain_grids_are_coerced_and_checked(call):
    assert call(PLAIN_GRID) == call(HermitianMatrix(PLAIN_GRID))
    with pytest.raises(InputFormatError, match=r"not Hermitian: entry \(0, 1\)"):
        call(NOT_HERMITIAN)


def test_a_bad_argument_leaves_the_memo_alone(monkeypatch):
    m = random_hermitian(SplitMix64(73), 3, 10)
    other = random_hermitian(SplitMix64(74), 3, 10)
    cauchy_check(m, 0)
    memo = m._pass_memo, m._spectrum_memo, m._certified_memo
    assert None not in memo
    counts = count_calls(monkeypatch, "_chars", "isolate_roots", "_residue_certificate")
    one = HermitianMatrix([[GR(5)]])
    bad = [(one, 0), (other, -1), (other, 3), (m, 3), (m, -1)]
    bad += [(other, 1.0), (other, True), (other, "1"), (m, F(1)), (m, None)]
    for matrix, k in bad:
        with pytest.raises(InputFormatError):
            cauchy_check(matrix, k)
    assert counts == {"_chars": 0, "isolate_roots": 0, "_residue_certificate": 0}
    for fresh in (one, other):
        assert fresh._pass_memo is None and fresh._spectrum_memo is None
        assert fresh._certified_memo is None
    assert m._pass_memo is memo[0] and m._spectrum_memo is memo[1]
    assert m._certified_memo is memo[2]


def test_forcing_the_walk_on_every_deletion_gives_the_index_verdict():
    matrices = list(one_pass_cases())
    matrices += [random_hermitian(trial_rng(76, t), 3 + t % 8, 10) for t in range(16)]
    ties = 0
    for m in matrices:
        for k in range(m.n):
            report = cauchy_check(m, k)
            assert report.verdict == InterlaceVerdict.INTERLACES
            assert report.interlace.verdict == report.verdict
            assert report.interlace is report.interlace
            chain = report.interlace.chain_certificate
            # Neighbours that were settled equal overlap or share a point.
            ties += any(
                a.hi > b.lo or a.lo == a.hi == b.lo == b.hi
                for a, b in zip(chain, chain[1:])
            )
    assert ties > 0  # the scaled sums repeat every eigenvalue


def test_a_failed_index_verdict_raises_with_the_full_report(monkeypatch, capsys):
    # Certify nothing, so that every deletion reaches the index route.
    monkeypatch.setattr(hermitian, "_residue_certificate", lambda *args: frozenset())
    monkeypatch.setattr(_intops, "interlace_index", lambda f, g: (False, 0))
    m = random_hermitian(SplitMix64(77), 4, 10)
    with pytest.raises(InternalInconsistencyError, match=r"deleted 2") as info:
        cauchy_check(m, 2)
    report = info.value.report
    assert report.verdict == InterlaceVerdict.DOES_NOT_INTERLACE
    d = report.as_dict()
    assert sum(r["mult"] for r in d["matrix_spectrum"]) == 4
    assert sum(r["mult"] for r in d["submatrix_spectrum"]) == 3
    # The walk over both spectra still certifies the chain.
    assert d["interlace"]["verdict"] == "Interlaces"
    assert len(d["interlace"]["chain_certificate"]) == 7
    code = cli.main(["check", "--mode", "cauchy", "--seed", "6", "--trials", "1",
                     "--size-min", "3", "--size-max", "3"])
    assert code == 1
    suite = json.loads(capsys.readouterr().out)["suites"]["cauchy"]
    verdicts = [record["verdict"] for record in suite["trials"][0]["deletions"]]
    assert verdicts == ["Inconsistent"] * 3


# Hwang's residue signs: the certificate that decides most deletions.


def certificate_cases():
    """540 random matrices, n 2..12: Gaussian-integer ones and rational (D > 1) ones."""
    for t in range(540):
        rng = trial_rng(301, t)
        n = 2 + t % 11
        if t % 3 == 2:
            yield rational_hermitian(rng, n)
        else:
            yield random_hermitian(rng, n, (1, 10, 1000, 10**6)[t % 4])


def test_every_certified_deletion_interlaces_strictly_by_the_index_route():
    kinds = {"integer": 0, "rational": 0}
    for m in certificate_cases():
        den, char, subs = hermitian._chars(m)
        for k in hermitian._certified(m):
            assert _intops.interlace_index(char, subs[k]) == (True, 0), (m, k)
            kinds["integer" if den == 1 else "rational"] += 1
    assert min(kinds.values()) > 500, kinds


def test_almost_every_generic_deletion_is_certified():
    certified = total = 0
    for t in range(300):
        m = random_hermitian(trial_rng(302, t), 2 + t % 11, (10, 1000, 10**6)[t % 3])
        certified += len(hermitian._certified(m))
        total += m.n
    assert total > 2000
    assert certified >= 0.99 * total, (certified, total)


@pytest.mark.parametrize(
    "matrix",
    [
        HermitianMatrix.diagonal([2, 2, 5]),
        HermitianMatrix.diagonal([1, 2, 3]),
        scaled_sum(random_hermitian(SplitMix64(81), 3, 10), 1),
    ],
    ids=["diag(2, 2, 5)", "diag(1, 2, 3)", "A (+) A"],
)
def test_no_tie_deletion_is_certified(matrix):
    _, char, subs = hermitian._chars(matrix)
    ties = [k for k in range(matrix.n) if _intops.interlace_index(char, subs[k])[1]]
    assert ties == list(range(matrix.n))
    assert hermitian._certified(matrix) == frozenset()
    for k in range(matrix.n):
        assert cauchy_check(matrix, k).verdict == InterlaceVerdict.INTERLACES


def slots(value, w, count):
    """The signed w-bit slots of a packed int, lowest first."""
    out = []
    for _ in range(count):
        low = value & ((1 << w) - 1)
        low -= (low >> (w - 1)) << w
        out.append(low)
        value = (value - low) >> w
    assert value == 0
    return out


def test_every_packed_slot_is_its_own_polynomial_at_each_point(monkeypatch):
    calls = []
    original = hermitian._packed_values

    def recorded(polys, points, s):
        result = original(polys, points, s)
        calls.append((polys, points, s, result))
        return result

    monkeypatch.setattr(hermitian, "_packed_values", recorded)
    matrices = [random_hermitian(trial_rng(303, t), 2 + t % 11, 10) for t in range(11)]
    matrices += [rational_hermitian(trial_rng(304, t), 3 + t) for t in range(4)]
    matrices += [random_hermitian(trial_rng(305, n), n, 10**12) for n in (18, 19, 20)]
    for m in matrices:
        hermitian._certified(m)
    assert len(calls) == len(matrices)
    # The certificate's own points, then points far outside the spectrum.
    far = [-(7 ** 60), 3 ** 80, 0, -1]
    calls += [(polys, far, s, original(polys, far, s)) for polys, _, s, _ in calls[-3:]]
    # Values near the proof's bound: nonnegative coefficients summing to
    # 2**40 - 1, at num = 2**30 - 1, reach past 2**(L + d*p - 1).
    top = (1 << 40) - 6
    polys = [[top, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, top], [0, 0, 0, 0, 0, 1]]
    tight = [(1 << 30) - 1, 1 - (1 << 30), 1 << 22]
    w, values = original(polys, tight, 22)
    assert slots(values[0], w, 3)[1] >> (40 + 5 * 30 - 1) == 1
    calls.append((polys, tight, 22, (w, values)))
    for polys, points, s, (w, values) in calls:
        assert len(values) == len(points)
        for num, value in zip(points, values):
            expected = [_intops.eval_scaled(c, num, 1 << s) for c in polys]
            assert max(map(abs, expected)) < 1 << (w - 1)
            assert slots(value, w, len(polys)) == expected


def test_a_wrong_slot_sign_sends_only_its_deletion_to_the_index_route(monkeypatch):
    m = random_hermitian(SplitMix64(82), 6, 10)
    fresh = [cauchy_check(HermitianMatrix(m.entries), k).as_dict() for k in range(m.n)]
    original = hermitian._packed_values

    def one_slot_flipped(polys, points, s):
        w, values = original(polys, points, s)
        slot = slots(values[5], w, len(polys))[2]
        values[5] -= 2 * slot << (2 * w)
        return w, values

    monkeypatch.setattr(hermitian, "_packed_values", one_slot_flipped)
    indexed = []
    index = _intops.interlace_index

    def counted(f, g):
        indexed.append(g)
        return index(f, g)

    monkeypatch.setattr(_intops, "interlace_index", counted)
    reports = [cauchy_check(m, k) for k in range(m.n)]
    assert hermitian._certified(m) == frozenset(range(m.n)) - {2}
    assert indexed == [hermitian._chars(m)[2][2]]
    assert all(r.verdict == InterlaceVerdict.INTERLACES for r in reports)
    assert [r.as_dict() for r in reports] == fresh
