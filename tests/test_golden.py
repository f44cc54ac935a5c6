"""Byte-level pins on ``check`` reports and library Cauchy reports.

Each CLI case runs the CLI in process and hashes its report with the
wall clock value in the timing block blanked out; every other byte
counts.  A CLI ``cauchy`` record carries only k and the verdict, so the
library cases hash A's spectrum and every ``CauchyReport.as_dict()``,
with its submatrix brackets and walk certificate.  A refactor that
keeps verdicts, witnesses, multiplicities, brackets and chain
certificates leaves every digest in place.  A deliberate report change
must update the digest here and say why.
"""

import hashlib
import json
import re

import pytest

from interlacekit import (
    GaussianRational,
    HermitianMatrix,
    cauchy_check,
    eigen_intervals,
    random_hermitian,
    trial_rng,
)
from interlacekit.cli import main

_ELAPSED = re.compile(r'"elapsed_seconds": [^\n]*')

# (A (+) A) / 3 with A = [[2, 1+i], [1-i, 3]], whose eigenvalues are 1 and
# 4: rational entries and the double eigenvalues 1/3 and 4/3.
_ZERO = ["0", "0"]
REPEATED_MATRIX = {
    "n": 4,
    "entries": [
        [["2/3", "0"], ["1/3", "1/3"], _ZERO, _ZERO],
        [["1/3", "-1/3"], ["1", "0"], _ZERO, _ZERO],
        [_ZERO, _ZERO, ["2/3", "0"], ["1/3", "1/3"]],
        [_ZERO, _ZERO, ["1/3", "-1/3"], ["1", "0"]],
    ],
}

# Dyadic roots under a dyadic Cauchy bound, so isolation and refinement
# midpoints land on roots: f = (x + 2)(x + 7/4)(x - 7/4), g = (x + 2)(x - 3/2)
# share the root -2 (a gcd tie) and the comparer pins roots it bisects onto.
# The second pair, f = (x + 1)(x - 1)(x - 2), g = x(x - 5/2), breaks the
# chain at its upper side.
DYADIC_PAIRS = {
    "tie.json": {"f": ["-49/8", "-49/16", "2", "1"], "g": ["-3", "1/2", "1"]},
    "break.json": {"f": ["2", "-1", "-2", "1"], "g": ["0", "-5/2", "1"]},
}

GENERATED = {
    "cauchy": "7023941ac09f286202a3a35cebed6d5727f84924d1aebf728c2d5f64b0d99c8f",
    "definition": "0137128eaa9e32bf56808c1135e00a588896797587fd26ca1ee00140a581a6dd",
    "identity": "156a99a890e3e2c9c2c77800f0565582343cbf72b5355a8a35993154cc5256a3",
    "pencil": "f9b2b244aa68197d02348c62725c25a1d480401fa9f3e0a12e29cabd6dfd1ce4",
}

FILE_CASES = {
    ("cauchy", "matrix.json"):
        "18ebb59d6686fbfd90ca4fdcbf5da64f4fd4c99b6c14e4ebcb2b3225772915b2",
    ("definition", "tie.json", "break.json"):
        "ac8e0e8c1cc9930643f11fb02fdac474324c69db40160408f0b094c76f9cdd14",
    ("identity", "matrix.json"):
        "e10787d26eb203fb701ceead02b04d57c68beceb85f4577d2b1bcbccfc4b6812",
    ("pencil", "tie.json", "break.json"):
        "095c93694ac7b725f1db62716588d06bc4eadb6de25fe7b01da47a38c06f9ad5",
}


def report_digest(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    stable = _ELAPSED.sub('"elapsed_seconds": 0', out)
    return hashlib.sha256(stable.encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(GENERATED))
def test_generated_reports_are_pinned(mode, capsys):
    argv = ["check", "--mode", mode, "--seed", "42", "--trials", "10"]
    assert report_digest(capsys, argv) == GENERATED[mode]


@pytest.mark.parametrize("case", sorted(FILE_CASES), ids="-".join)
def test_file_reports_are_pinned(case, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    docs = {"matrix.json": REPEATED_MATRIX, **DYADIC_PAIRS}
    for name in case[1:]:
        (tmp_path / name).write_text(json.dumps(docs[name]))
    argv = ["check", "--mode", case[0], "--seed", "42", *case[1:]]
    assert report_digest(capsys, argv) == FILE_CASES[case]



def _path_graph():
    one, zero = GaussianRational.of(1), GaussianRational.of(0)
    return HermitianMatrix([[zero, one, zero], [one, zero, one], [zero, one, zero]])


# Generic integer matrices, a repeated eigenvalue kept by every deletion,
# the 3x3 path graph (the tie 0 at its middle deletion), rational entries
# with double eigenvalues, and entries up to 10^12.
LIBRARY_CASES = {
    "int-4": (
        lambda: random_hermitian(trial_rng(90, 0), 4, 10),
        "7143099c6eace35090075a6797ac4a4efb85d2bfbf9f738cec91ae34901b3c1d",
    ),
    "int-5": (
        lambda: random_hermitian(trial_rng(90, 1), 5, 10),
        "34398e676f3493b65691babc5273303c71c7070f7637de850b4b809931e1bf9f",
    ),
    "int-6": (
        lambda: random_hermitian(trial_rng(90, 2), 6, 10),
        "a86190803a625445eab1765144475c7a1eb2b47a090047a7afa967ba46323179",
    ),
    "int-7": (
        lambda: random_hermitian(trial_rng(90, 3), 7, 10),
        "1f10084742d28ec23ca6af15d186b8388620d2e1fdd56f2f82599e4f59a3e449",
    ),
    "diag-2-2-5": (
        lambda: HermitianMatrix.diagonal([2, 2, 5]),
        "d22baf2c9091c40e6ea92a230a56dd9d6928433d57ae9fb7d9a16051e2e4b8be",
    ),
    "path-3": (
        _path_graph,
        "c51703e9e882a2886f9eeb399bf116e5e14734d5affeb85f4d35a4eec40e338a",
    ),
    "repeated": (
        lambda: HermitianMatrix.from_json_obj(REPEATED_MATRIX),
        "0c624554602001aa9f2f42354fefc74738d29d553d1b7765a14ab87ff34c38eb",
    ),
    "bound-1e12": (
        lambda: random_hermitian(trial_rng(91, 0), 6, 10**12),
        "d51f78d4a5fb8dc72050be73b2f5240507f15595dc907130d56f4381c9166a9d",
    ),
}


@pytest.mark.parametrize("name", list(LIBRARY_CASES))
def test_library_cauchy_reports_are_pinned(name):
    build, digest = LIBRARY_CASES[name]
    m = build()
    doc = [
        eigen_intervals(m).to_json_obj(),
        [cauchy_check(m, k).as_dict() for k in range(m.n)],
    ]
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
