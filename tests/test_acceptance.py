"""End-to-end acceptance gate.

One test per headline criterion, each printing a single PASS/FAIL line
(run with -s to see them on success).  Randomness is seeded, so every
run exercises the same cases.  Nothing here uses a tolerance: matrix
identities compare coefficient tuples and root claims are certified
counts.  The only measured quantity is wall-clock time, reported for
information.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction as F

from interlacekit import (
    GaussianRational,
    HermitianMatrix,
    InterlaceVerdict,
    Polynomial,
    bordered_identity,
    cauchy_check,
    char_poly,
    default_alphas,
    interlaces_exact,
    is_real_rooted,
    isolate_roots,
    pencil_scan,
    principal_submatrix,
    random_hermitian,
    refine_to,
    trial_rng,
)

GR = GaussianRational.of


def report(ok, text):
    print(f"{'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_cauchy_interlacing_over_random_matrices():
    matrices = 500
    started = time.monotonic()
    checks = 0
    good = 0
    for trial in range(matrices):
        rng = trial_rng(101, trial)
        n = rng.int_between(2, 8)
        matrix = random_hermitian(rng, n, 10)
        for k in range(n):
            checks += 1
            good += cauchy_check(matrix, k).verdict == InterlaceVerdict.INTERLACES
    elapsed = time.monotonic() - started
    report(
        good == checks,
        f"criterion 1: submatrix spectra interlace in {good}/{checks} deletion"
        f" checks over {matrices} random Hermitian matrices ({elapsed:.1f}s)",
    )


def test_criterion_2_bordered_identity_exact_on_random_input():
    trials = 200
    good = 0
    for trial in range(trials):
        rng = trial_rng(202, trial)
        n = rng.int_between(2, 6)
        matrix = random_hermitian(rng, n, 10)
        alpha = rng.rational(100, 100)
        good += bordered_identity(matrix, alpha).exact_match
    report(
        good == trials,
        f"criterion 2: bordered determinant identity exact in {good}/{trials}"
        f" random (matrix, alpha) cases",
    )


def test_criterion_3_shifted_combinations_stay_real_rooted():
    matrices = 100
    alphas_each = 20
    good = 0
    total = matrices * alphas_each
    for trial in range(matrices):
        rng = trial_rng(303, trial)
        n = rng.int_between(2, 8)
        matrix = random_hermitian(rng, n, 10)
        full = char_poly(matrix)
        sub = char_poly(principal_submatrix(matrix, n - 1))
        for _ in range(alphas_each):
            alpha = rng.rational(100, 100)
            good += is_real_rooted(full - alpha * sub)
    report(
        good == total,
        f"criterion 3: char(A) - alpha*char(B) real rooted in {good}/{total}"
        f" sampled combinations",
    )


def test_criterion_4_interlacing_pairs_survive_the_full_grid():
    pairs = 200
    grid = default_alphas()
    good = 0
    for trial in range(pairs):
        rng = trial_rng(404, trial)
        degree = rng.int_between(2, 6)
        values = sorted(rng.rational(40, 4) for _ in range(2 * degree - 1))
        f = Polynomial.from_roots(values[0::2])
        g = Polynomial.from_roots(values[1::2])
        good += pencil_scan(f, g, grid).all_real
    report(
        good == pairs,
        f"criterion 4: every sampled pencil member real rooted for"
        f" {good}/{pairs} constructed interlacing pairs"
        f" ({len(grid)} alphas each)",
    )


# Curated non-interlacing pairs as explicit rational roots.  Each was
# made from a valid chain by dislocating one entry, so the violation is
# checkable below by direct comparison of sorted rationals, independent
# of any package machinery.
NON_INTERLACING_PAIRS = [
    ([0, 2], [3]),
    ([0, 1], [100]),
    ([-5, -1], [0]),
    ([1, 3], [0]),
    ([0, 2], [-7]),
    ([F(1, 2), F(5, 2)], [F(-3, 2)]),
    ([1, 1], [0]),
    ([2, 2], [5]),
    ([0, 2, 4], [3, 5]),
    ([0, 2, 4], [-1, 1]),
    ([0, 2, 4], [F(5, 2), 3]),
    ([-3, 0, 3], [-2, 4]),
    ([-3, 0, 3], [F(1, 2), 1]),
    ([1, 2, 3], [1, 1]),
    ([0, 1, 2, 3], [F(1, 2), F(3, 2), 4]),
    ([0, 1, 2, 3], [-1, F(3, 2), F(5, 2)]),
    ([0, 1, 2, 3], [F(1, 2), F(3, 2), F(7, 4)]),
    ([-6, -2, 2, 6], [-4, 0, 8]),
    ([-6, -2, 2, 6], [-4, -3, 4]),
    ([0, 0, 5, 5], [1, 2, 3]),
    ([0, 1, 2, 3, 4], [F(1, 2), F(3, 2), F(5, 2), 5]),
    ([0, 1, 2, 3, 4], [-2, F(3, 2), F(5, 2), F(7, 2)]),
    ([-4, -2, 0, 2, 4], [-3, -1, 1, F(9, 2)]),
    ([0, 1, 2, 3, 4, 5], [F(1, 2), F(3, 2), F(5, 2), F(7, 2), 6]),
    ([0, 1, 2, 3, 4, 5], [F(1, 2), F(3, 2), F(5, 2), F(7, 2), F(15, 4)]),
]


def chain_violated(roots_f, roots_g):
    rf, rg = sorted(roots_f), sorted(roots_g)
    return any(
        not (rf[k] <= rg[k] <= rf[k + 1]) for k in range(len(rf) - 1)
    )


def test_criterion_5_curated_violations_detected_and_witnessed():
    grid = default_alphas()
    detected = 0
    witnessed = 0
    for roots_f, roots_g in NON_INTERLACING_PAIRS:
        assert len(roots_f) == len(roots_g) + 1
        assert chain_violated(roots_f, roots_g), (roots_f, roots_g)
        f = Polynomial.from_roots(roots_f)
        g = Polynomial.from_roots(roots_g)
        verdict = interlaces_exact(f, g).verdict
        detected += verdict == InterlaceVerdict.DOES_NOT_INTERLACE
        witnessed += pencil_scan(f, g, grid).witness is not None
    total = len(NON_INTERLACING_PAIRS)
    report(
        total == 25 and detected == total and witnessed >= 23,
        f"criterion 5: {detected}/{total} curated pairs rejected exactly,"
        f" pencil witness found for {witnessed}/{total} (need >= 23)",
    )


def _det_cofactor(grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    total = GR(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = grid[0][j] * _det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _char_by_interpolation(matrix):
    n = matrix.n
    result = Polynomial()
    points = []
    for t in range(n + 1):
        shifted = [
            [
                GR(t) - matrix.entries[i][j] if i == j else -matrix.entries[i][j]
                for j in range(n)
            ]
            for i in range(n)
        ]
        value = _det_cofactor(shifted)
        assert value.im == 0
        points.append((F(t), value.re))
    for i, (xi, yi) in enumerate(points):
        term = Polynomial([yi])
        for j, (xj, _) in enumerate(points):
            if i != j:
                term = term * Polynomial([-xj / (xi - xj), 1 / (xi - xj)])
        result = result + term
    return result


def test_criterion_6_independent_routes_agree():
    det_trials = 100
    det_good = 0
    for trial in range(det_trials):
        rng = trial_rng(606, trial)
        n = rng.int_between(1, 4)
        matrix = random_hermitian(rng, n, 9)
        grid = [list(row) for row in matrix.entries]
        det = (-1) ** n * char_poly(matrix).coeffs[0]
        det_good += GR(det) == _det_cofactor(grid)

    char_trials = 100
    char_good = 0
    for trial in range(char_trials):
        rng = trial_rng(607, trial)
        n = rng.int_between(1, 4)
        matrix = random_hermitian(rng, n, 9)
        char_good += char_poly(matrix) == _char_by_interpolation(matrix)

    count_trials = 50
    count_good = 0
    for trial in range(count_trials):
        rng = trial_rng(608, trial)
        size = rng.int_between(1, 6)
        roots = [F(rng.int_between(-8, 8)) for _ in range(size)]
        isolated = isolate_roots(Polynomial.from_roots(roots))
        lo = F(2 * rng.int_between(-9, 9) - 1, 2)
        hi = lo + rng.int_between(1, 10)
        expected = len({r for r in roots if lo < r <= hi})
        # Integer roots in brackets at most 1/4 wide: no bracket reaches
        # the half-integer ends, so a bracket counts when it lies inside.
        brackets = refine_to(isolated, F(1, 4)).intervals
        count_good += sum(lo < a and b <= hi for a, b in brackets) == expected

    report(
        det_good == det_trials
        and char_good == char_trials
        and count_good == count_trials,
        f"criterion 6: determinant route agreement {det_good}/{det_trials},"
        f" characteristic polynomial agreement {char_good}/{char_trials},"
        f" certified counts vs known factorizations {count_good}/{count_trials}",
    )


def test_criterion_7_cli_reports_are_deterministic():
    args = [
        sys.executable, "-m", "interlacekit", "check",
        "--mode", "all", "--seed", "1234", "--trials", "2",
        "--size-min", "2", "--size-max", "4",
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    ok = first.returncode == 0 and second.returncode == 0
    if ok:
        a = json.loads(first.stdout)
        b = json.loads(second.stdout)
        a.pop("timing")
        b.pop("timing")
        ok = a == b and a["failures"] == 0
    report(
        ok,
        "criterion 7: repeated seeded CLI runs produce identical reports"
        " modulo timing",
    )


def test_pencil_witness_example_is_stable():
    # the textbook non-interlacing pair keeps its grid witness pinned
    f = Polynomial([0, -2, 1])
    g = Polynomial([-3, 1])
    assert pencil_scan(f, g).witness == F(-1)
    assert not is_real_rooted(f + -1 * g)
