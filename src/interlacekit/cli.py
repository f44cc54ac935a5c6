"""Command line harness: generate test cases, run checks, emit reports.

Two subcommands.  ``gen`` writes random Hermitian matrix files; ``check``
runs one suite (or all of them) over generated cases or over input files
and prints a JSON report.  Reports are deterministic for a fixed seed
and flags, except for the timing block, which is the only place a
wall-clock number appears.

Every suite is one row of the ``_SUITES`` table: a case source paired
with a checker.  The pair source yields generated trials or pair files
(definition, pencil); the matrix source yields generated trials or
matrix files (identity, cauchy).  A checker turns one case into its
report fields and pass flag.  ``cmd_check`` runs every suite through
the same loop, which also counts passes and failures and keeps the
timing block.

Exit codes: 0 all checks passed, 1 at least one property violation,
2 malformed input or I/O failure.  Flags are checked once, by
``_validate``, before any case is generated, read or written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .errors import (
    DegreeMismatchError,
    InputFormatError,
    InterlaceKitError,
    InternalInconsistencyError,
)
from .hermitian import (
    HermitianMatrix,
    bordered_identity,
    cauchy_check,
    random_hermitian,
)
from .interlace import (
    DEFAULT_ALPHA_RANDOM_COUNT,
    default_alphas,
    hko_crosscheck,
    interlaces_exact,
)
from .polynomials import Polynomial, poly_from_strings, poly_to_strings
from .rationals import format_rational
from .realroots import DEFAULT_WIDTH
from .rng import trial_rng

MODES = ("definition", "pencil", "identity", "cauchy", "all")


def _validate(config: argparse.Namespace) -> None:
    """Reject flag values no run can use, before any work starts."""
    if config.trials < 1:
        raise InputFormatError(f"trials must be >= 1, got {config.trials}")
    if config.size_min < 1 or config.size_max < config.size_min:
        raise InputFormatError(
            f"need 1 <= size-min <= size-max,"
            f" got {config.size_min}..{config.size_max}"
        )
    if config.bound < 1:
        raise InputFormatError(f"bound must be >= 1, got {config.bound}")
    if config.command == "gen":
        return
    if config.alphas < 0:
        raise InputFormatError(f"alphas must be >= 0, got {config.alphas}")
    if config.inputs and config.mode == "all":
        raise InputFormatError("input files require a single mode, not 'all'")
    if config.mode in ("identity", "cauchy", "all") and config.size_min < 2:
        raise InputFormatError(
            f"mode {config.mode!r} needs size-min >= 2, got {config.size_min}"
        )


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, or an integer literal past
        # the interpreter's digit limit.
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise InputFormatError(f"{path}: invalid JSON: nested too deeply") from None


def _extra_keys(obj, keys: set[str]) -> str:
    """The keys of a JSON object beyond the given ones, quoted and sorted."""
    extra = set(obj) - keys if isinstance(obj, dict) else ()
    return ", ".join(map(repr, sorted(extra)))


def _load_matrix(path: str, mode: str) -> HermitianMatrix:
    obj = _load_json(path)
    try:
        extra = _extra_keys(obj, {"n", "entries"})
        if extra:
            raise InputFormatError(
                f"matrix document needs exactly the keys n and entries, not {extra}"
            )
        matrix = HermitianMatrix.from_json_obj(obj)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    if matrix.n < 2:
        raise InputFormatError(f"{path}: {mode} mode needs n >= 2")
    return matrix


def _load_pair(path: str) -> tuple[Polynomial, Polynomial]:
    obj = _load_json(path)
    try:
        if not isinstance(obj, dict) or set(obj) != {"f", "g"}:
            extra = _extra_keys(obj, {"f", "g"})
            raise InputFormatError(
                "pair document needs exactly the keys f and g"
                + (f", not {extra}" if extra else "")
            )
        f = poly_from_strings(obj["f"])
        g = poly_from_strings(obj["g"])
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    if f.is_zero or g.is_zero:
        raise InputFormatError(f"{path}: polynomials must be nonzero")
    return f, g


def _random_interlacing_pair(rng, degree: int, bound: int):
    """Monic pair built from an explicit weak chain of rational roots."""
    values = sorted(
        rng.rational(10 * bound, 4) for _ in range(2 * degree - 1)
    )
    roots_f = values[0::2]
    roots_g = values[1::2]
    return Polynomial.from_roots(roots_f), Polynomial.from_roots(roots_g)


def _trials(config: argparse.Namespace):
    """(trial, rng, size) per generated trial; the size is the first draw."""
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        yield trial, rng, rng.int_between(config.size_min, config.size_max)


def _pair_cases(config: argparse.Namespace):
    """(record, (f, g)) for each pair file, or else each generated trial."""
    if config.inputs:
        cases = (({"path": path}, _load_pair(path)) for path in config.inputs)
    else:
        cases = (
            ({"trial": trial, "degree": degree},
             _random_interlacing_pair(rng, degree, config.bound))
            for trial, rng, degree in _trials(config)
        )
    for record, (f, g) in cases:
        record.update(f=poly_to_strings(f), g=poly_to_strings(g))
        yield record, (f, g)


def _matrix_cases(config: argparse.Namespace):
    """(record, (matrix, rng)) for each matrix file, or else each trial.

    ``rng`` is the stream a checker draws further values from: the rest
    of a generated trial's stream, or ``trial_rng(seed, index)`` for the
    file at ``index``.
    """
    if config.inputs:
        cases = (
            ({"path": path}, _load_matrix(path, config.mode),
             trial_rng(config.seed, index))
            for index, path in enumerate(config.inputs)
        )
    else:
        cases = (
            ({"trial": trial}, random_hermitian(rng, n, config.bound), rng)
            for trial, rng, n in _trials(config)
        )
    for record, matrix, rng in cases:
        record.update(n=matrix.n, matrix=matrix.to_json_obj())
        yield record, (matrix, rng)


# Verdicts a definition case passes on, keyed by whether it came from a
# file: generated pairs are built to interlace, a file pair may not.
_DEFINITION_PASSES = {
    False: ("Interlaces",),
    True: ("Interlaces", "DoesNotInterlace"),
}


def _definition(config: argparse.Namespace):
    passing = _DEFINITION_PASSES[bool(config.inputs)]

    def check(f, g):
        report = interlaces_exact(f, g)
        return {"report": report.as_dict(), "pass": report.verdict.value in passing}

    return check


def _pencil(config: argparse.Namespace):
    grid = default_alphas(random_count=config.alphas)

    def check(f, g):
        report = hko_crosscheck(f, g, alphas=grid)
        return {"report": report.as_dict(), "pass": report.consistent}

    return check


def _identity(config: argparse.Namespace):
    def check(matrix, rng):
        report = bordered_identity(matrix, rng.rational(100, 100))
        return {"report": report.as_dict(), "pass": report.exact_match}

    return check


def _cauchy(config: argparse.Namespace):
    def check(matrix, rng):
        deletions = []
        ok = True
        for k in range(matrix.n):
            try:
                report = cauchy_check(matrix, k)
                deletions.append({"k": k, "verdict": report.verdict.value})
            except InternalInconsistencyError as exc:
                ok = False
                deletions.append(
                    {"k": k, "verdict": "Inconsistent", "detail": str(exc)}
                )
        return {"deletions": deletions, "pass": ok}

    return check


# mode -> (case source, checker).  A checker runs once per suite and
# returns the function that turns one case into its report fields and
# pass flag.
_SUITES = {
    "definition": (_pair_cases, _definition),
    "pencil": (_pair_cases, _pencil),
    "identity": (_matrix_cases, _identity),
    "cauchy": (_matrix_cases, _cauchy),
}


def _config_dict(config: argparse.Namespace) -> dict:
    return {
        "mode": config.mode,
        "seed": config.seed,
        "trials": config.trials,
        "size_min": config.size_min,
        "size_max": config.size_max,
        "bound": config.bound,
        "alphas": config.alphas,
        "width": format_rational(DEFAULT_WIDTH),
        "inputs": list(config.inputs),
    }


def cmd_check(config: argparse.Namespace) -> int:
    started = time.monotonic()
    suites = {}
    failures = 0
    names = [config.mode] if config.mode != "all" else list(_SUITES)
    for name in names:
        source, checker = _SUITES[name]
        check = checker(config)
        records = []
        for record, case in source(config):
            try:
                record.update(check(*case))
            except DegreeMismatchError as exc:
                # A pair file the checker cannot take is malformed input.
                if not config.inputs:
                    raise
                raise InputFormatError(f"{record['path']}: {exc}") from None
            records.append(record)
        failed = sum(1 for r in records if not r["pass"])
        failures += failed
        suites[name] = {
            "trials": records,
            "passes": len(records) - failed,
            "failures": failed,
        }
    report = {
        "tool": {"name": "interlacekit", "version": __version__},
        "config": _config_dict(config),
        "suites": suites,
        "failures": failures,
        "timing": {"elapsed_seconds": time.monotonic() - started},
    }
    text = _dump(report)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if failures == 0 else 1


def _gen_path(template: str | None, index: int, total: int) -> str:
    if template is None:
        template = "matrix_{i:03d}.json"
    if "{i" in template:
        try:
            path = template.format(i=index)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise InputFormatError(f"--out template {template!r}: {exc!r}") from None
        if "\0" in path:
            raise InputFormatError(
                f"--out template {template!r}: path {path!r} holds a NUL byte"
            )
        return path
    if total == 1:
        return template
    stem, dot, ext = template.rpartition(".")
    if not dot:
        return f"{template}_{index:03d}"
    return f"{stem}_{index:03d}.{ext}"


def cmd_gen(config: argparse.Namespace) -> int:
    for trial, rng, n in _trials(config):
        matrix = random_hermitian(rng, n, config.bound)
        path = _gen_path(config.out, trial, config.trials)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dump(matrix.to_json_obj()))
        sys.stdout.write(path + "\n")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="interlacekit",
        description="exact interlacing and Hermitian spectrum checks",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--trials", type=int, default=10)
        p.add_argument("--size-min", type=int, default=2, dest="size_min")
        p.add_argument("--size-max", type=int, default=6, dest="size_max")
        p.add_argument("--bound", type=int, default=10)
        p.add_argument("--out", type=str, default=None)

    gen = sub.add_parser(
        "gen", help="write random Hermitian matrix files", allow_abbrev=False
    )
    add_common(gen)

    check = sub.add_parser(
        "check", help="run checks and print a JSON report", allow_abbrev=False
    )
    add_common(check)
    check.add_argument(
        "--alphas",
        type=int,
        default=DEFAULT_ALPHA_RANDOM_COUNT,
        help="random alphas appended to the fixed pencil grid",
    )
    check.add_argument("--mode", choices=MODES, default="all")
    check.add_argument("inputs", nargs="*", help="matrix or pair files")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    config = parser.parse_args(argv)
    try:
        _validate(config)
        if config.command == "gen":
            return cmd_gen(config)
        return cmd_check(config)
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InterlaceKitError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
