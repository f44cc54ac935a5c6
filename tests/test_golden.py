"""Byte-level pins on ``check`` reports.

Each case runs the CLI in process and hashes its report with the wall
clock value in the timing block blanked out; every other byte counts.
A refactor that keeps verdicts, witnesses, multiplicities and chain
certificates leaves every digest in place.  A deliberate report change
must update the digest here and say why.
"""

import hashlib
import json
import re

import pytest

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
