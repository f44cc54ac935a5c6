"""Seeded case generators and construction-derived verdict checks.

Each workload is a fixed pool of cases generated from the benchmark's
seed.  A case is one input file plus the CLI modes run on it, and it
carries the outcome its construction guarantees, so every report can be
checked without trusting the code under test.

Sizes are stratified rather than drawn: every pool holds each size the
same number of times and only the entries come from the seed.  The cost
of a case grows steeply with its size, so drawing sizes would let the
seed, not the code, decide most of a run's time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

# One case per size (and per kind): a smaller pool is run more often in a
# run, and a case's fastest time needs many runs on a busy host.
CAUCHY_SIZES = tuple(range(4, 13))
CAUCHY_BOUND = 10

PENCIL_DEGREES = tuple(range(4, 13))
PENCIL_KINDS = ("interlacing", "violation", "complex")
PENCIL_ROOT_NUM = 40
PENCIL_ROOT_DEN = 4

# Half-size of the duplicated block -> cases per pool.  A size-8 case
# costs about thirty size-4 cases, so smaller sizes carry the count and
# the large one keeps the Fraction path and the tie certificates busy.
# The median case falls inside the size-6 group, not on a group's edge,
# and ten passes (the 100 cases a run needs) fit in about 30 s.
DEGENERATE_MIX = ((2, 4), (3, 5), (4, 1))
DEGENERATE_BOUND = 10
DEGENERATE_DENOMINATORS = (2, 3, 5, 7)

_WORKLOAD_TAGS = {"cauchy-int": 1, "pencil-mixed": 2, "degenerate-rational": 3}


@dataclass(frozen=True)
class Case:
    """One benchmark case: an input document and what it must yield."""

    index: int
    kind: str
    size: int
    modes: tuple[str, ...]
    doc: dict
    expect: dict

    @property
    def filename(self) -> str:
        return f"case_{self.index:03d}.json"

    def argvs(self, path: str) -> list[list[str]]:
        return [["check", "--mode", mode, path] for mode in self.modes]

    def attrs(self) -> dict:
        """Pool index, size and kind, stored on the case's root span."""
        key = "degree" if self.modes == ("pencil",) else "n"
        return {"index": self.index, key: self.size, "kind": self.kind}


def _master_rng(lib, workload: str, seed: int):
    return lib.SplitMix64((seed << 8) ^ _WORKLOAD_TAGS[workload])


def _cauchy_int(lib, seed: int) -> list[Case]:
    master = _master_rng(lib, "cauchy-int", seed)
    cases = []
    for n in CAUCHY_SIZES:
        rng = lib.SplitMix64(master.next_u64())
        matrix = lib.random_hermitian(rng, n, CAUCHY_BOUND)
        cases.append(
            Case(len(cases), "hermitian", n, ("cauchy",), matrix.to_json_obj(), {"n": n})
        )
    return cases


def _chain_values(rng, count: int) -> list[Fraction]:
    return sorted(
        rng.rational(PENCIL_ROOT_NUM, PENCIL_ROOT_DEN) for _ in range(count)
    )


def _pencil_pair(lib, rng, degree: int, kind: str):
    """Polynomial pair of the given kind plus its expected outcome.

    The weak chain v_0 <= ... <= v_{2d-2} gives f the even and g the odd
    positions, so f and g interlace.  A violation swaps v_{2j} and
    v_{2j+1} where they differ: the chain then first breaks at
    r_{j+1} <= s_{j+1}.  A complex pair replaces two roots of one side by
    a +- bi with b > 0, so that side is not real rooted.
    """
    values = _chain_values(rng, 2 * degree - 1)
    if kind == "violation":
        start = rng.below(degree - 1)
        for step in range(degree - 1):
            j = (start + step) % (degree - 1)
            if values[2 * j] < values[2 * j + 1]:
                break
        else:
            raise ValueError("all chain values coincide; draw again")
        values[2 * j], values[2 * j + 1] = values[2 * j + 1], values[2 * j]
        expect = {"verdict": "DoesNotInterlace", "witness": {"k": j + 1, "side": "lower"}}
    elif kind == "complex":
        culprit = "fg"[rng.below(2)]
        expect = {"verdict": "NotRealRooted", "not_real_rooted": [culprit]}
    else:
        expect = {"verdict": "Interlaces", "all_real": True}
    roots = {"f": values[0::2], "g": values[1::2]}
    polys = {}
    for side, rs in roots.items():
        if kind == "complex" and side == expect["not_real_rooted"][0]:
            a = (rs[0] + rs[1]) / 2
            b = Fraction(rng.int_between(1, 4 * PENCIL_ROOT_DEN), PENCIL_ROOT_DEN)
            quadratic = lib.Polynomial([a * a + b * b, -2 * a, 1])
            polys[side] = lib.Polynomial.from_roots(rs[2:]) * quadratic
        else:
            polys[side] = lib.Polynomial.from_roots(rs)
    doc = {side: lib.poly_to_strings(p) for side, p in polys.items()}
    return doc, expect


def _pencil_mixed(lib, seed: int) -> list[Case]:
    master = _master_rng(lib, "pencil-mixed", seed)
    cases = []
    for degree in PENCIL_DEGREES:
        for kind in PENCIL_KINDS:
            while True:
                rng = lib.SplitMix64(master.next_u64())
                try:
                    doc, expect = _pencil_pair(lib, rng, degree, kind)
                    break
                except ValueError:
                    continue
            cases.append(Case(len(cases), kind, degree, ("pencil",), doc, expect))
    return cases


def _degenerate_matrix(lib, rng, half: int):
    """(A (+) A) / q for a random Gaussian-integer Hermitian A.

    Every eigenvalue of A appears twice, and q is redrawn until some entry
    is not a multiple of it, so the scaled matrix is not Gaussian-integer.
    """
    block = lib.random_hermitian(rng, half, DEGENERATE_BOUND)
    parts = [c.re for row in block.entries for c in row]
    parts += [c.im for row in block.entries for c in row]
    while True:
        q = DEGENERATE_DENOMINATORS[rng.below(len(DEGENERATE_DENOMINATORS))]
        if any(part % q for part in parts):
            break
    zero = lib.GaussianRational.of(0)
    n = 2 * half
    rows = [[zero] * n for _ in range(n)]
    for i, row in enumerate(block.entries):
        for j, c in enumerate(row):
            scaled = lib.GaussianRational(c.re / q, c.im / q)
            rows[i][j] = scaled
            rows[half + i][half + j] = scaled
    return lib.HermitianMatrix(rows)


def _degenerate_rational(lib, seed: int) -> list[Case]:
    master = _master_rng(lib, "degenerate-rational", seed)
    cases = []
    for half, count in DEGENERATE_MIX:
        for _ in range(count):
            rng = lib.SplitMix64(master.next_u64())
            matrix = _degenerate_matrix(lib, rng, half)
            cases.append(
                Case(len(cases), "degenerate", 2 * half, ("identity", "cauchy"),
                     matrix.to_json_obj(), {"n": 2 * half, "min_mult": 2})
            )
    return cases


GENERATORS = {
    "cauchy-int": _cauchy_int,
    "pencil-mixed": _pencil_mixed,
    "degenerate-rational": _degenerate_rational,
}
WORKLOADS = tuple(GENERATORS)


def generate(lib, workload: str, seed: int) -> list[Case]:
    """The workload's case pool for a seed; the smallest case comes first."""
    return GENERATORS[workload](lib, seed)


def write_cases(cases: list[Case], directory: str) -> list[str]:
    """Write each case document into a fresh directory; return the paths."""
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
    paths = []
    for case in cases:
        path = os.path.join(directory, case.filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case.doc, fh, sort_keys=True, indent=2)
        paths.append(path)
    return paths


def check_report(case: Case, mode: str, report: dict) -> list[str]:
    """Disagreements between one CLI report and the case's construction."""
    problems = []
    suite = report["suites"][mode]
    (record,) = suite["trials"]
    if report["failures"] != 0 or not record["pass"]:
        problems.append(f"{mode}: report marks the case as failed")
    if mode == "cauchy":
        verdicts = [d["verdict"] for d in record["deletions"]]
        if verdicts != ["Interlaces"] * case.expect["n"]:
            problems.append(f"cauchy: deletion verdicts {verdicts}")
    elif mode == "identity":
        if record["report"]["exact_match"] is not True:
            problems.append("identity: no exact match")
    elif mode == "pencil":
        cross = record["report"]
        interlace = cross["interlace"]
        if not cross["consistent"]:
            problems.append("pencil: routes are inconsistent")
        if interlace["verdict"] != case.expect["verdict"]:
            problems.append(f"pencil: verdict {interlace['verdict']}")
        if "witness" in case.expect and interlace["failure_witness"] != case.expect["witness"]:
            problems.append(f"pencil: witness {interlace['failure_witness']}")
        if "not_real_rooted" in case.expect and (
            interlace["not_real_rooted"] != case.expect["not_real_rooted"]
        ):
            problems.append(f"pencil: not real rooted {interlace['not_real_rooted']}")
        if case.expect.get("all_real") and not cross["pencil"]["all_real"]:
            problems.append("pencil: interlacing pair has a non-real pencil member")
    return problems


def check_multiplicities(lib, case: Case) -> list[str]:
    """A degenerate case must isolate n eigenvalues, each at least double."""
    if "min_mult" not in case.expect:
        return []
    matrix = lib.HermitianMatrix.from_json_obj(case.doc)
    roots = lib.isolate_roots(lib.char_poly(matrix))
    mults = list(roots.multiplicities)
    if sum(mults) != case.expect["n"] or min(mults) < case.expect["min_mult"]:
        return [f"isolated multiplicities {mults} for n = {case.expect['n']}"]
    return []
