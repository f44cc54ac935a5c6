from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interlacekit.hermitian as hermitian
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
    det_exact,
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


def test_det_examples():
    assert det_exact([[GR(3)]]) == GR(3)
    m = HermitianMatrix([[GR(1), GR(0, 1)], [GR(0, -1), GR(1)]])
    assert det_exact(m) == GR(0)
    assert det_exact(HermitianMatrix.diagonal([2, 3, 4])) == GR(24)
    singular = [[GR(1), GR(2), GR(3)], [GR(2), GR(4), GR(6)], [GR(3), GR(6), GR(9)]]
    assert det_exact(singular) == GR(0)


def test_det_handles_zero_pivots():
    m = [[GR(0), GR(1)], [GR(1), GR(0)]]
    assert det_exact(m) == GR(-1)
    m3 = [
        [GR(0), GR(0), GR(1)],
        [GR(0), GR(1), GR(0)],
        [GR(1), GR(0), GR(0)],
    ]
    assert det_exact(m3) == GR(-1)


def test_det_against_cofactor_oracle():
    for trial in range(100):
        rng = trial_rng(2024, trial)
        n = rng.int_between(1, 4)
        m = random_hermitian(rng, n, 9)
        assert det_exact(m) == det_cofactor([list(r) for r in m.entries])


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


@settings(max_examples=200, deadline=None)
@given(square_grids())
def test_det_matches_cofactor_on_any_square_grid(grid):
    assert det_exact(grid) == det_cofactor(grid)


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

    Row 4 of the stacked product is the imaginary part of row 1.
    """
    m = random_hermitian(SplitMix64(5), 3, 10)
    original = hermitian._int_matmul
    calls = []

    def corrupted(a, bt):
        product = original(a, bt)
        calls.append(None)
        if len(calls) == m.n:
            product[row][col] += 1
        return product

    monkeypatch.setattr(hermitian, "_int_matmul", corrupted)
    with pytest.raises(InternalInconsistencyError, match="Cayley-Hamilton"):
        char_poly(m)
    assert len(calls) == m.n


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
        full, subs = hermitian._char_polys(m, range(m.n))
        assert full == char_poly(m)
        assert len(subs) == m.n
        for k, sub in enumerate(subs):
            assert sub == char_poly(principal_submatrix(m, k))
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
        monkeypatch, "_char_poly_gaussian_int", "isolate_roots", "principal_submatrix"
    )
    for k in range(m.n):
        assert cauchy_check(m, k).verdict == InterlaceVerdict.INTERLACES
    assert counts == {
        "_char_poly_gaussian_int": 1, "isolate_roots": m.n + 1, "principal_submatrix": 0
    }
    counts["_char_poly_gaussian_int"] = 0
    assert bordered_identity(m, F(5, 2)).exact_match
    assert counts["_char_poly_gaussian_int"] == 2
    assert counts["principal_submatrix"] == 0


def test_an_equal_matrix_built_afresh_does_not_reuse_the_work(monkeypatch):
    m = random_hermitian(SplitMix64(72), 4, 10)
    counts = count_calls(monkeypatch, "_char_poly_gaussian_int")
    cauchy_check(m, 0)
    cauchy_check(m, 1)
    assert counts["_char_poly_gaussian_int"] == 1
    again = HermitianMatrix(m.entries)
    assert again == m
    cauchy_check(again, 0)
    assert counts["_char_poly_gaussian_int"] == 2


def test_eigen_intervals_shares_its_work_with_cauchy_check(monkeypatch):
    m = random_hermitian(SplitMix64(75), 5, 10)
    counts = count_calls(monkeypatch, "_char_poly_gaussian_int", "isolate_roots")
    spectrum = eigen_intervals(m)
    reports = [cauchy_check(m, k) for k in range(m.n)]
    assert counts == {"_char_poly_gaussian_int": 1, "isolate_roots": m.n + 1}
    assert all(r.matrix_spectrum is spectrum for r in reports)
    assert eigen_intervals(m) is spectrum


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
    memo = m._spectra
    assert memo is not None
    counts = count_calls(monkeypatch, "_char_polys", "isolate_roots")
    one = HermitianMatrix([[GR(5)]])
    bad = [(one, 0), (other, -1), (other, 3), (m, 3), (m, -1)]
    for matrix, k in bad:
        with pytest.raises(InputFormatError):
            cauchy_check(matrix, k)
    assert counts == {"_char_polys": 0, "isolate_roots": 0}
    assert one._spectra is None and other._spectra is None
    assert m._spectra is memo
