"""One rule for numeric arguments: an int or a Fraction, never a bool.

Every public argument that takes a number goes through
``rationals.as_rational`` or ``rationals.as_int``.  A bool, a float or a
string raises InputFormatError, and the message starts with the
argument's name; the same call with an int (or, where rationals are
allowed, a Fraction) succeeds.  Every argument that takes a collection
goes through ``rationals.as_list``, so one that is not iterable raises
InputFormatError naming the argument too.
"""

import re
from fractions import Fraction as F

import pytest

from interlacekit import (
    GaussianRational,
    HermitianMatrix,
    InputFormatError,
    Polynomial,
    RootIntervals,
    SplitMix64,
    SturmChain,
    bordered_identity,
    cauchy_check,
    default_alphas,
    hko_crosscheck,
    is_real_rooted,
    isolate_roots,
    pencil_scan,
    principal_submatrix,
    random_hermitian,
    refine_to,
)

F_POLY = Polynomial([0, -2, 1])  # x^2 - 2x
G_POLY = Polynomial([-3, 1])  # x - 3
MATRIX = HermitianMatrix.diagonal([1, 2, 3])
RATIONAL = (1, F(1, 2))
INTEGER = (1,)

# (argument name as the message gives it, call taking the value, values that pass)
ARGUMENTS = {
    "Polynomial coefficient": ("coefficient", lambda v: Polynomial([1, v]), RATIONAL),
    "Polynomial.constant": ("constant", Polynomial.constant, RATIONAL),
    "Polynomial.from_roots": ("root", lambda v: Polynomial.from_roots([v]), RATIONAL),
    "Polynomial.evaluate": ("point", F_POLY.evaluate, RATIONAL),
    "GaussianRational.of re": ("re", GaussianRational.of, RATIONAL),
    "GaussianRational.of im": ("im", lambda v: GaussianRational.of(0, v), RATIONAL),
    "matrix entry": ("matrix entry", lambda v: HermitianMatrix([[v]]), RATIONAL),
    "HermitianMatrix.diagonal": (
        "diagonal value", lambda v: HermitianMatrix.diagonal([v, 2]), RATIONAL
    ),
    "bordered_identity alpha": (
        "alpha", lambda v: bordered_identity(MATRIX, v), RATIONAL
    ),
    "pencil_scan alphas": (
        "alpha", lambda v: pencil_scan(F_POLY, G_POLY, alphas=[v]), RATIONAL
    ),
    "hko_crosscheck alphas": (
        "alpha", lambda v: hko_crosscheck(F_POLY, G_POLY, alphas=[v]), RATIONAL
    ),
    "refine_to width": (
        "width", lambda v: refine_to(RootIntervals.from_roots([0]), v), RATIONAL
    ),
    "RootIntervals.from_roots": (
        "root", lambda v: RootIntervals.from_roots([v]), RATIONAL
    ),
    "RootIntervals end": (
        "interval 0 end", lambda v: RootIntervals(((0, v),), (1,), (-1, 2)), RATIONAL
    ),
    "RootIntervals multiplicity": (
        "multiplicity 0", lambda v: RootIntervals(((0, 0),), (v,), (0, 1)), INTEGER
    ),
    "RootIntervals carrier": (
        "carrier coefficient 1", lambda v: RootIntervals((), (), (0, v)), INTEGER
    ),
    "is_real_rooted int coefficient": (
        "coefficient 1", lambda v: is_real_rooted([-1, v]), INTEGER
    ),
    "isolate_roots int coefficient": (
        "coefficient 1", lambda v: isolate_roots([-1, v]), INTEGER
    ),
    "SturmChain int coefficient": (
        "coefficient 1", lambda v: SturmChain([-1, v]), INTEGER
    ),
    "random_hermitian n": (
        "n", lambda v: random_hermitian(SplitMix64(1), v, 3), INTEGER
    ),
    "random_hermitian bound": (
        "bound", lambda v: random_hermitian(SplitMix64(1), 2, v), INTEGER
    ),
    "default_alphas random_count": ("random_count", default_alphas, INTEGER),
    "cauchy_check deletion index": (
        "deletion index", lambda v: cauchy_check(MATRIX, v), INTEGER
    ),
    "principal_submatrix deletion index": (
        "deletion index", lambda v: principal_submatrix(MATRIX, v), INTEGER
    ),
    "matrix document n": (
        "field 'n'",
        lambda v: HermitianMatrix.from_json_obj({"n": v, "entries": [[["1", "0"]]]}),
        INTEGER,
    ),
}

BAD_VALUES = {"bool": True, "float": 1.0, "str": "1"}


@pytest.mark.parametrize("kind", BAD_VALUES)
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_a_numeric_argument_refuses_bools_floats_and_strings(argument, kind):
    name, call, _ = ARGUMENTS[argument]
    message = f"^{re.escape(name)} must be an int( or a Fraction)?, got {kind}$"
    with pytest.raises(InputFormatError, match=message):
        call(BAD_VALUES[kind])


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_the_same_call_takes_an_int_or_a_fraction(argument):
    _, call, good_values = ARGUMENTS[argument]
    for value in good_values:
        call(value)


def test_polynomial_arithmetic_refuses_bools():
    # A float or a string operand leaves the operator protocol to Python
    # (NotImplemented, then TypeError); a bool is an int and must not pass.
    p = Polynomial([1, 1])
    for operate in (lambda: p + True, lambda: True - p, lambda: p * False):
        with pytest.raises(InputFormatError, match="must be an int or a Fraction, got bool$"):
            operate()
    with pytest.raises(InputFormatError, match="^operand must be an int or a Fraction"):
        GaussianRational.of(1) * True
    with pytest.raises(TypeError):
        p * 1.0


# (argument name as the message gives it, call taking the collection)
CONTAINERS = {
    "Polynomial": ("coefficients", Polynomial),
    "Polynomial.from_roots": ("roots", Polynomial.from_roots),
    "is_real_rooted": ("coefficients", is_real_rooted),
    "isolate_roots": ("coefficients", isolate_roots),
    "SturmChain": ("coefficients", SturmChain),
    "RootIntervals.from_roots": ("roots", RootIntervals.from_roots),
    "RootIntervals.from_roots multiplicities": (
        "multiplicities", lambda v: RootIntervals.from_roots([1], v)
    ),
    "HermitianMatrix": ("matrix", HermitianMatrix),
    "HermitianMatrix row": ("matrix row 0", lambda v: HermitianMatrix([v])),
    "HermitianMatrix.diagonal": ("diagonal values", HermitianMatrix.diagonal),
    "cauchy_check matrix": ("matrix", lambda v: cauchy_check(v, 0)),
    "pencil_scan alphas": ("alphas", lambda v: pencil_scan(F_POLY, G_POLY, alphas=v)),
    "hko_crosscheck alphas": (
        "alphas", lambda v: hko_crosscheck(F_POLY, G_POLY, alphas=v)
    ),
}


@pytest.mark.parametrize("value", [5, F(1, 2)], ids=["int", "Fraction"])
@pytest.mark.parametrize("argument", CONTAINERS)
def test_a_collection_argument_refuses_a_non_iterable(argument, value):
    name, call = CONTAINERS[argument]
    message = f"^{re.escape(name)} must be iterable, got {type(value).__name__}$"
    with pytest.raises(InputFormatError, match=message):
        call(value)


@pytest.mark.parametrize(
    "rows, index", [([1, 2], 0), ([[1, 0], 2], 1)], ids=["first", "second"]
)
def test_a_row_that_is_not_iterable_is_named_by_its_index(rows, index):
    message = f"^matrix row {index} must be iterable, got int$"
    with pytest.raises(InputFormatError, match=message):
        HermitianMatrix(rows)
