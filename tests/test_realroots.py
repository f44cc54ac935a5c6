import re
import signal
from contextlib import contextmanager
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlacekit import _intops
from interlacekit import (
    EndpointRootError,
    InputFormatError,
    InterlaceVerdict,
    InternalInconsistencyError,
    Polynomial,
    RootIntervals,
    SplitMix64,
    ZeroPolynomialError,
    build_sturm,
    char_poly,
    count_roots_in,
    interlaces_by_roots,
    interlaces_exact,
    is_real_rooted,
    isolate_roots,
    random_hermitian,
    refine_to,
    squarefree_part,
)
from interlacekit.realroots import _refine

root_values = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def poly_rem(f, g):
    """Remainder of f by nonzero g: plain long division over Fractions."""
    rem = list(f.coeffs)
    while len(rem) >= len(g.coeffs):
        factor = rem[-1] / g.coeffs[-1]
        shift = len(rem) - len(g.coeffs)
        for i, c in enumerate(g.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
    return Polynomial(rem)


def rational_chain(sturm):
    """The textbook rational Sturm chain of the carrier a chain starts from.

    Monic squarefree part, its derivative, then negated Fraction
    remainders down to a constant: the reference the integer chain is
    checked against.
    """
    seq = [Polynomial(sturm._int_chain[0]).monic()]
    if seq[0].degree >= 1:
        seq.append(seq[0].derivative())
        while seq[-1].degree >= 1:
            rem = poly_rem(seq[-2], seq[-1])
            if rem.is_zero:
                break
            seq.append(-rem)
    return tuple(seq)


def test_chain_of_x_squared_minus_one():
    chain = rational_chain(build_sturm(Polynomial([-1, 0, 1])))
    assert chain == (
        Polynomial([-1, 0, 1]),
        Polynomial([0, 2]),
        Polynomial([1]),
    )


def test_chain_of_x_squared_plus_one():
    chain = rational_chain(build_sturm(Polynomial([1, 0, 1])))
    assert chain == (
        Polynomial([1, 0, 1]),
        Polynomial([0, 2]),
        Polynomial([-1]),
    )


def test_chain_squarefrees_first():
    # (x-1)^2 collapses to x-1 before the chain is built
    chain = rational_chain(build_sturm(Polynomial([1, -2, 1])))
    assert chain == (Polynomial([-1, 1]), Polynomial([1]))


def test_chain_of_constant():
    sturm = build_sturm(Polynomial([5]))
    assert rational_chain(sturm) == (Polynomial([1]),)
    assert count_roots_in(sturm, -10, 10) == 0


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        build_sturm(Polynomial())
    with pytest.raises(ZeroPolynomialError):
        is_real_rooted(Polynomial())
    with pytest.raises(ZeroPolynomialError):
        is_real_rooted([])
    with pytest.raises(ZeroPolynomialError):
        is_real_rooted([0, 0])
    with pytest.raises(ZeroPolynomialError):
        isolate_roots(Polynomial())


def test_reality_test_rejects_non_int_coefficients():
    with pytest.raises(InputFormatError, match="^coefficient 1 must be an int, got float$"):
        is_real_rooted([1, 0.5, 1])
    with pytest.raises(InputFormatError, match="^coefficient 1 must be an int, got Fraction$"):
        is_real_rooted([-1, F(1)])


@pytest.mark.parametrize(
    "coeffs, index",
    [([True, True], 0), ([-1, 0, False], 2), ([2, True, 1], 1)],
    ids=["all bools", "trailing bool", "middle bool"],
)
def test_reality_test_rejects_bool_coefficients(coeffs, index):
    # isinstance(True, int) holds, so [True, True], read as x + 1, used to
    # pass as real rooted; RootIntervals already rejects a bool carrier.
    with pytest.raises(InputFormatError, match=f"^coefficient {index} must be an int, got bool$"):
        is_real_rooted(coeffs)


def test_count_examples():
    chain = build_sturm(Polynomial([-1, 0, 1]))
    assert count_roots_in(chain, -2, 2) == 2
    assert count_roots_in(chain, 0, 2) == 1
    assert count_roots_in(chain, F(-1, 2), F(1, 2)) == 0
    # half-open (lo, hi]: hi exactly on a root would raise, so probe around it
    assert count_roots_in(chain, F(1, 2), 2) == 1


def test_count_is_blind_to_multiplicity():
    chain = build_sturm(Polynomial.from_roots([1, 1, 1, 4]))
    assert count_roots_in(chain, 0, 5) == 2


def test_endpoint_root_raises():
    chain = build_sturm(Polynomial([-1, 0, 1]))
    with pytest.raises(EndpointRootError):
        count_roots_in(chain, -1, 2)
    with pytest.raises(EndpointRootError):
        count_roots_in(chain, -2, 1)


def test_count_evaluates_each_endpoint_chain_once(monkeypatch):
    chain = build_sturm(Polynomial.from_roots([-3, -1, 0, 2, 5]))
    counts = _count_calls(monkeypatch, ("eval_sign",))
    assert count_roots_in(chain, F(-1, 2), 3) == 2
    assert counts["eval_sign"] == 2 * len(chain._int_chain)


def test_count_rejects_empty_interval():
    chain = build_sturm(Polynomial([-1, 0, 1]))
    with pytest.raises(ValueError):
        count_roots_in(chain, 2, 2)
    with pytest.raises(ValueError):
        count_roots_in(chain, 3, 2)


def test_is_real_rooted_basics():
    assert is_real_rooted(Polynomial([-1, 0, 1]))
    assert not is_real_rooted(Polynomial([1, 0, 1]))
    assert not is_real_rooted(Polynomial([3, -3, 1]))
    assert is_real_rooted(Polynomial([7]))
    assert is_real_rooted(Polynomial([0, 1]))
    assert is_real_rooted(Polynomial.from_roots([-3, F(1, 2), 2, 2]))
    # real roots plus a complex pair
    mixed = Polynomial.from_roots([1, 2]) * Polynomial([1, 0, 1])
    assert not is_real_rooted(mixed)


def test_isolation_example():
    roots = isolate_roots(Polynomial.from_roots([1, 2, 3]))
    assert len(roots) == 3
    assert roots.multiplicities == (1, 1, 1)
    for expected, (lo, hi) in zip([1, 2, 3], roots.intervals):
        assert lo < expected < hi


def test_isolation_multiplicities():
    p = Polynomial.from_roots([-1, 2, 2, 2])
    roots = isolate_roots(p)
    assert roots.multiplicities == (1, 3)
    assert roots.total_multiplicity == 4


def test_isolation_ignores_complex_pairs():
    p = Polynomial.from_roots([5]) * Polynomial([1, 0, 1])
    roots = isolate_roots(p)
    assert len(roots) == 1
    assert roots.total_multiplicity == 1
    lo, hi = roots.intervals[0]
    assert lo < 5 < hi


def test_isolation_of_rootless_polynomial():
    roots = isolate_roots(Polynomial([1, 0, 1]))
    assert len(roots) == 0
    assert roots.total_multiplicity == 0


def test_isolation_carrier_is_integer_squarefree():
    p = 3 * Polynomial.from_roots([1, 1, 4])
    roots = isolate_roots(p)
    assert roots.carrier == (4, -5, 1)


def test_refine_to_width_and_separation():
    roots = isolate_roots(Polynomial.from_roots([0, F(1, 1000)]))
    narrow = refine_to(roots, F(1, 10 ** 6))
    assert len(narrow) == 2
    for (lo, hi) in narrow.intervals:
        assert hi - lo <= F(1, 10 ** 6)
    assert narrow.intervals[0][1] < narrow.intervals[1][0]
    assert 0 > narrow.intervals[0][0]
    assert 0 < narrow.intervals[0][1]


def test_refine_preserves_multiplicities_and_carrier():
    roots = isolate_roots(Polynomial.from_roots([-2, -2, 7]))
    narrow = refine_to(roots, F(1, 512))
    assert narrow.multiplicities == roots.multiplicities
    assert narrow.carrier == roots.carrier


def test_refine_rejects_nonpositive_width():
    roots = isolate_roots(Polynomial([0, 1]))
    with pytest.raises(ValueError, match=r"^width must be positive, got 0$"):
        refine_to(roots, 0)
    with pytest.raises(ValueError, match=r"^width must be positive, got -1/2$"):
        refine_to(roots, F(-1, 2))


def test_from_roots_point_intervals():
    ri = RootIntervals.from_roots([F(-1, 2), 3], [2, 1])
    assert ri.intervals == ((F(-1, 2), F(-1, 2)), (F(3), F(3)))
    assert ri.multiplicities == (2, 1)
    assert ri.total_multiplicity == 3
    assert ri.carrier == (-3, -5, 2)


def test_from_roots_validation():
    with pytest.raises(ValueError):
        RootIntervals.from_roots([3, 1])
    with pytest.raises(ValueError):
        RootIntervals.from_roots([1, 1])
    with pytest.raises(ValueError):
        RootIntervals.from_roots([1], [0])
    with pytest.raises(ValueError):
        RootIntervals.from_roots([1], [1, 1])
    # The constructor itself holds the same checks.
    with pytest.raises(ValueError):
        RootIntervals(((F(1), F(1)), (F(1), F(1))), (1, 1), (-1, 1))
    with pytest.raises(ValueError):
        RootIntervals(((F(1), F(1)),), (0,), (-1, 1))


@pytest.mark.parametrize(
    "make, index, kind",
    [
        (lambda: RootIntervals.from_roots([0], [1.9]), 0, "float"),
        (lambda: RootIntervals.from_roots([0], ["2"]), 0, "str"),
        (lambda: RootIntervals(((F(0), F(0)),), (1.5,), (0, 1)), 0, "float"),
        (lambda: RootIntervals.from_roots([0, 1], [2, True]), 1, "bool"),
    ],
    ids=["truncated float", "string", "constructor float", "bool"],
)
def test_multiplicities_must_be_ints(make, index, kind):
    # Coercing with int() would truncate 1.9 to 1 and parse "2", and an
    # unchecked float would reach interlacing reports as degrees=(1.5, 0).
    message = f"^multiplicity {index} must be an int, got {kind}$"
    with pytest.raises(InputFormatError, match=message):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RootIntervals(((0.5, 0.5),), (1,), (-1, 2)),
         "interval 0 end must be an int or a Fraction, got float"),
        (lambda: RootIntervals(((F(0), F(1)), (F(2), 3.0)), (1, 1), (1, -5, 3)),
         "interval 1 end must be an int or a Fraction, got float"),
        (lambda: RootIntervals(((False, True),), (1,), (-1, 2)),
         "interval 0 end must be an int or a Fraction, got bool"),
        (lambda: RootIntervals(((0, 1),), (1,), (-1.0, 2)),
         "carrier coefficient 0 must be an int, got float"),
        (lambda: RootIntervals(((0, 1),), (1,), (-1, F(2))),
         "carrier coefficient 1 must be an int, got Fraction"),
        (lambda: RootIntervals(((0, 1),), (1,), (-1, True)),
         "carrier coefficient 1 must be an int, got bool"),
        (lambda: RootIntervals(((1,),), (1,), (-1, 2)),
         re.escape("interval 0 must be a pair (lo, hi), got (1,)")),
        (lambda: RootIntervals((5,), (1,), (-1, 2)),
         re.escape("interval 0 must be a pair (lo, hi), got 5")),
        (lambda: RootIntervals(((0, 1), (2, 3, 4)), (1, 1), (-1, 2)),
         re.escape("interval 1 must be a pair (lo, hi), got (2, 3, 4)")),
        (lambda: RootIntervals(((0, 1), None), (1, 1), (-1, 2)),
         re.escape("interval 1 must be a pair (lo, hi), got None")),
    ],
    ids=["float end", "second interval", "bool ends", "float carrier",
         "Fraction carrier", "bool carrier", "one end", "bare int", "three ends",
         "None interval"],
)
def test_interval_ends_and_carrier_are_exact(make, message):
    # A float end used to reach refine_to and fail there with an
    # AttributeError on .numerator, naming no field; an interval that is
    # not a pair failed its unpacking with a bare ValueError or TypeError.
    with pytest.raises(InputFormatError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RootIntervals(5, (1,), (1,)), "intervals must be a tuple or a list"),
        (lambda: RootIntervals(((0, 1),), 1, (-1, 2)),
         "multiplicities must be a tuple or a list"),
        (lambda: RootIntervals(((0, 1),), (1,), 7), "carrier must be a tuple or a list"),
        (lambda: RootIntervals(((0, 1),), (1, 1), (-1, 2)),
         "multiplicities must hold one entry per interval"),
        (lambda: RootIntervals(((0, 1), (2, 2)), (1, 0), (2, -5, 2)),
         "multiplicity 1 must be positive, got 0"),
        (lambda: RootIntervals(((0, 1),), (-2,), (-1, 2)),
         "multiplicity 0 must be positive, got -2"),
        (lambda: RootIntervals(((1, 0),), (1,), (-1, 2)),
         re.escape("interval 0 is inverted: [1, 0]")),
        (lambda: RootIntervals(((0, 2), (1, 3)), (1, 1), (2, -5, 2)),
         "interval 1 overlaps or precedes interval 0"),
        (lambda: RootIntervals(((2, 3), (0, 1)), (1, 1), (2, -5, 2)),
         "interval 1 overlaps or precedes interval 0"),
        (lambda: RootIntervals(((1, 1), (1, 1)), (1, 1), (-1, 1)),
         re.escape("interval 1 repeats the point [1, 1]")),
    ],
    ids=["intervals not a sequence", "multiplicities not a sequence",
         "carrier not a sequence", "count mismatch", "zero multiplicity",
         "negative multiplicity", "inverted", "overlapping", "out of order",
         "repeated point"],
)
def test_malformed_root_intervals_name_the_field(make, message):
    # An int field used to fail in len() with a bare TypeError, and the
    # structural checks raised a plain ValueError naming no index.
    with pytest.raises(InputFormatError, match=f"^{message}$"):
        make()


def test_int_interval_ends_are_accepted():
    roots = RootIntervals(((0, 1), (2, 2)), (1, 1), (2, -5, 2))
    assert refine_to(roots, F(1, 8)).intervals == ((F(1, 2), F(1, 2)), (F(2), F(2)))


def test_serialized_intervals():
    ri = RootIntervals.from_roots([1], [2])
    assert ri.to_json_obj() == [{"lo": "1", "hi": "1", "mult": 2}]


@settings(max_examples=60)
@given(st.lists(root_values, min_size=1, max_size=5))
def test_isolation_finds_exactly_the_roots(values):
    p = Polynomial.from_roots(values)
    found = isolate_roots(p)
    distinct = sorted(set(values))
    assert len(found) == len(distinct)
    assert found.total_multiplicity == len(values)
    for root, (lo, hi), mult in zip(
        distinct, found.intervals, found.multiplicities
    ):
        assert lo < root < hi
        assert mult == values.count(root)


@settings(max_examples=60)
@given(
    st.lists(root_values, min_size=1, max_size=5),
    st.fractions(min_value=-7, max_value=7, max_denominator=9),
    st.fractions(min_value=-7, max_value=7, max_denominator=9),
)
def test_count_matches_direct_enumeration(values, a, b):
    lo, hi = min(a, b), max(a, b)
    if lo == hi or lo in values or hi in values:
        return
    chain = build_sturm(Polynomial.from_roots(values))
    expected = len({v for v in values if lo < v <= hi})
    assert count_roots_in(chain, lo, hi) == expected


@settings(max_examples=40)
@given(st.lists(root_values, min_size=1, max_size=4))
def test_products_of_linear_factors_are_real_rooted(values):
    assert is_real_rooted(Polynomial.from_roots(values))


@settings(max_examples=40)
@given(st.lists(root_values, min_size=1, max_size=4))
def test_refinement_never_loses_a_root(values):
    roots = isolate_roots(Polynomial.from_roots(values))
    narrow = refine_to(roots, F(1, 4096))
    for root, (lo, hi) in zip(sorted(set(values)), narrow.intervals):
        assert lo <= root <= hi
        assert hi - lo <= F(1, 4096)


def bisect_once(p0, lo, hi):
    """One Fraction bisection step: the reference ``_refine`` is checked against.

    Keeps the half that still changes sign, reading the sign at lo
    afresh.  A midpoint that is itself the root pins the interval to
    (mid, mid).
    """
    mid = (lo + hi) / 2
    s_mid = _intops.eval_sign(p0, mid.numerator, mid.denominator)
    if s_mid == 0:
        return (mid, mid)
    if _intops.eval_sign(p0, lo.numerator, lo.denominator) * s_mid < 0:
        return (lo, mid)
    return (mid, hi)


def reference_bisect(p0, lo, hi, steps):
    for _ in range(steps):
        if lo == hi:
            break
        lo, hi = bisect_once(p0, lo, hi)
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(
    st.lists(root_values, min_size=1, max_size=4),
    st.fractions(min_value=-7, max_value=7, max_denominator=9),
    st.fractions(min_value=F(1, 9), max_value=14, max_denominator=9),
    st.integers(0, 40),
    st.sampled_from(["open", "root at lo", "point"]),
)
@example([1, 2, 3], F(0), F(4), 1, "open")  # three roots, one step
@example([F(1, 3)], F(0), F(1), 40, "open")  # off the grid at every depth
@example([1], F(0), F(4), 5, "open")  # the second midpoint pins 1
@example([-1, F(5, 2)], F(-3), F(7), 3, "open")  # two roots, no sign change
@example([1], F(1, 2), F(1), 3, "point")  # a point off the carrier
def test_refine_takes_the_reference_steps(values, lo, span, steps, start):
    # A bracket with one root inside, or any bracket with a strict sign
    # change for one step, matches the reference, also when a midpoint
    # hits a root.  Other brackets are rejected, and a point on the
    # carrier is final.
    p = Polynomial.from_roots(values)
    p0 = isolate_roots(p).carrier
    if start == "root at lo":
        lo = values[0]
    hi = lo if start == "point" else lo + span
    s_lo = _intops.eval_sign(p0, lo.numerator, lo.denominator)
    s_hi = _intops.eval_sign(p0, hi.numerator, hi.denominator)
    if lo == hi and s_lo == 0:
        assert _refine(p0, lo, hi, steps) == (lo, hi)
    elif s_lo * s_hi < 0:
        assert _refine(p0, lo, hi, 1) == bisect_once(p0, lo, hi)
        if count_roots_in(build_sturm(p), lo, hi) == 1:
            assert _refine(p0, lo, hi, steps) == reference_bisect(p0, lo, hi, steps)
    else:
        with pytest.raises(ValueError, match=re.escape(f"[{lo}, {hi}]")):
            _refine(p0, lo, hi, steps)


def reference_isolate(p, splits=None):
    """Fraction subdivision: the reference isolation is checked against.

    Starts from (-B, B) for the Cauchy bound B of the carrier, reads the
    Sturm count of each bracket afresh, and splits a bracket with
    several roots at lo + (hi - lo) / 2^j for the least j whose point is
    not a root.  Every point tried as a split is appended to ``splits``
    when a list is given.
    """
    chain = build_sturm(p)._int_chain
    p0 = chain[0]
    if len(p0) == 1:
        return ()

    def variations_at(x):
        signs = [_intops.eval_sign(c, x.numerator, x.denominator) for c in chain]
        return _intops.variations(signs)

    bound = 1 + F(max(abs(c) for c in p0[:-1]), abs(p0[-1]))
    out = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        count = variations_at(lo) - variations_at(hi)
        if count == 1:
            out.append((lo, hi))
        elif count > 1:
            step = hi - lo
            for _ in range(len(p0) + 1):
                step /= 2
                mid = lo + step
                if splits is not None:
                    splits.append(mid)
                if _intops.eval_sign(p0, mid.numerator, mid.denominator) != 0:
                    break
            stack += [(mid, hi), (lo, mid)]
    return tuple(out)


# Dyadic roots, 0 among them: the bound of a carrier with dyadic roots is
# dyadic, so split points often land on roots and the search for a
# non-root split point runs.
dyadic_roots = st.one_of(
    st.just(F(0)),
    st.builds(lambda n, k: F(n, 2 ** k), st.integers(-12, 12), st.integers(0, 3)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(dyadic_roots, min_size=1, max_size=6))
@example([1, 2, 3])  # the split of (0, 6) lands on 3
@example([0, F(5, 2)])  # the first split lands on 0
@example([-2, -2, F(-7, 4), F(7, 4), F(3, 2), F(3, 2)])
def test_isolation_matches_the_fraction_reference(values):
    p = Polynomial.from_roots(values)
    assert isolate_roots(p).intervals == reference_isolate(p)


def test_isolation_evaluates_no_point_twice(monkeypatch):
    # Each split reuses the carrier sign it found while searching for a
    # non-root point, so no (polynomial, point) pair is evaluated again.
    seen = []
    original = _intops.eval_sign

    def spy(coeffs, num, den):
        seen.append((tuple(coeffs), F(num, den)))
        return original(coeffs, num, den)

    monkeypatch.setattr(_intops, "eval_sign", spy)
    isolate_roots(Polynomial.from_roots([-3, F(-1, 2), 0, 1, F(5, 4), 7]))
    assert seen
    assert len(set(seen)) == len(seen)


small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=7)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_fractions, max_size=4),
    st.lists(
        st.tuples(small_fractions, small_fractions.filter(bool)), max_size=3
    ),
    st.integers(-40, 40).filter(bool),
)
@example([0], [], 1)  # degree 1, root at 0
@example([0], [], -3)
@example([F(1, 3)], [], 7)
@example([], [(0, 1)], 1)  # x^2 + 1
@example([2, -2], [(0, 3)], -5)  # zero middle coefficients
@example([0, 0, F(-9, 2)], [(F(7, 3), F(-1, 5))], 12)
# A bound one bit short for k < d misses a root of each of these.
@example([-34, F(19, 3)], [], -11)
@example([F(-43, 7), F(39, 2)], [], 19)
@example([-33], [(F(7, 3), F(48, 5))], 39)
def test_root_bound_exponent_bounds_every_root(values, quadratics, lead):
    # Real roots r and conjugate pairs a +- bi, the roots of
    # x^2 - 2ax + (a^2 + b^2), all compared with 2^e in squares.
    p = Polynomial.from_roots(values)
    for a, b in quadratics:
        p = p * Polynomial([a * a + b * b, -2 * a, 1])
    if p.degree == 0:
        return
    ints = [lead * c for c in _intops.from_fraction_coeffs(p.coeffs)]
    e = _intops.root_bound_exponent(ints)
    moduli = [r * r for r in values] + [a * a + b * b for a, b in quadratics]
    assert e >= 0
    assert all(m <= 4 ** e for m in moduli)
    # Not loose either: Fujiwara's bound is at most 2d times the largest
    # modulus, and rounding from bit lengths costs at most a factor 4.
    assert 4 ** e <= max(1, 64 * p.degree ** 2 * max(moduli))


def assert_isolation_matches_past_the_root_bound(p):
    splits = []
    assert isolate_roots(p).intervals == reference_isolate(p, splits)
    e = _intops.root_bound_exponent(build_sturm(p)._int_chain[0])
    assert any(abs(x) > 2 ** e for x in splits)


# n = 2 is left out: a 2x2 spectrum never sends a split beyond 2^e.
@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("seed", range(3))
def test_char_poly_isolation_past_the_root_bound_matches_the_reference(n, seed):
    assert_isolation_matches_past_the_root_bound(
        char_poly(random_hermitian(SplitMix64(seed), n, 10))
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=2, max_size=5, unique=True),
    st.integers(10 ** 6, 10 ** 12),
    st.sampled_from([1, -1]),
)
def test_wide_spread_isolation_past_the_root_bound_matches_the_reference(
    values, k, side
):
    # The constant term k * prod(values) puts B near k or beyond, while
    # every root has modulus at most sqrt(k); the split at B/2 on the
    # side that holds every real root lies beyond 2^e.
    p = Polynomial.from_roots([side * v for v in values]) * Polynomial([k, 0, 1])
    assert_isolation_matches_past_the_root_bound(p)


def test_isolation_evaluates_nothing_beyond_the_root_bound(monkeypatch):
    p = char_poly(random_hermitian(SplitMix64(10), 10, 10))
    p0 = build_sturm(p)._int_chain[0]
    e = _intops.root_bound_exponent(p0)
    bound = F(*_intops.cauchy_bound(p0))
    points = []
    original = _intops.eval_sign

    def spy(coeffs, num, den):
        points.append(F(num, den))
        return original(coeffs, num, den)

    monkeypatch.setattr(_intops, "eval_sign", spy)
    isolate_roots(p)
    # Only the two sanity checks at +-B look past the root bound.
    assert [x for x in points if abs(x) > 2 ** e] == [bound, -bound]
    # A deterministic work number: evaluating at every split costs 893.
    assert len(points) == 145


@pytest.mark.parametrize(
    "ratio, halvings",
    [(F(1, 3), 0), (F(1), 0), (F(8), 3), (F(8) + F(1, 10 ** 6), 4)],
)
def test_refine_to_takes_the_fewest_halvings(ratio, halvings):
    # The only real root of x^3 - 2 is irrational, so no midpoint pins it.
    roots = isolate_roots(Polynomial([-2, 0, 0, 1]))
    ((lo, hi),) = roots.intervals
    width = (hi - lo) / ratio
    ((a, b),) = refine_to(roots, width).intervals
    assert b - a == (hi - lo) / 2 ** halvings
    assert (a, b) == reference_bisect(roots.carrier, lo, hi, halvings)


def test_refinement_and_comparer_pin_the_same_brackets():
    # Both roots of x^2 - 1 lie on bisection midpoints of the isolating
    # intervals, so either route pins them to point intervals.
    f = Polynomial([-1, 0, 1])
    refined = refine_to(isolate_roots(f), F(1, 2 ** 20))
    assert refined.intervals == ((-1, -1), (1, 1))
    report = interlaces_exact(f, Polynomial([F(-1, 2), 1]))
    brackets = [(e.lo, e.hi) for e in report.chain_certificate if e.owner == "f"]
    assert brackets == list(refined.intervals)


@settings(max_examples=60)
@given(
    st.lists(root_values, min_size=0, max_size=5),
    st.integers(-4, 4),
    st.integers(0, 9),
    st.integers(-5, 5).filter(bool),
)
def test_integer_chain_scales_the_textbook_chain(values, b, c, scale):
    # x^2 + b*x + c adds a complex pair when b^2 < 4c
    p = scale * Polynomial.from_roots(values) * Polynomial([c, b, 1])
    sturm = build_sturm(p)
    reference_chain = rational_chain(sturm)
    assert len(sturm._int_chain) == len(reference_chain)
    for entry, reference in zip(sturm._int_chain, reference_chain):
        ratio = entry[-1] / reference.leading_coefficient()
        assert ratio > 0
        assert Polynomial(entry) == ratio * reference
    # Isolated roots keep the chain's first entry as their carrier.
    roots = isolate_roots(p)
    carrier = tuple(_intops.from_fraction_coeffs(squarefree_part(p).coeffs))
    assert roots.carrier == carrier
    assert refine_to(roots, F(1, 4096)).carrier == carrier


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(_intops, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_intops, name, counted)
    return counts


def test_sturm_builds_run_one_remainder_sequence(monkeypatch):
    counts = _count_calls(
        monkeypatch, ("neg_signed_prem", "poly_gcd", "remainder_sequence")
    )
    for p in (
        Polynomial.from_roots(range(-6, 6)),
        Polynomial.from_roots([F(-1, 3), 2, 5]) * Polynomial([1, 0, 1]),
    ):
        counts.update(dict.fromkeys(counts, 0))
        is_real_rooted(p)
        assert counts["neg_signed_prem"] <= p.degree
        assert counts["poly_gcd"] == 0
    counts.update(dict.fromkeys(counts, 0))
    roots = isolate_roots(Polynomial.from_roots([-1, -1, 1, 1, 1, 2]))
    assert roots.multiplicities == (2, 3, 1)
    # p's chain, its rebuild from the squarefree part, then one gcd, and
    # so one sequence, per tower layer: gcd(p, p') has roots -1, 1, 1 and
    # its gcd root 1.
    assert counts["poly_gcd"] == 2
    assert counts["remainder_sequence"] <= 4


def int_poly(degree):
    """Ascending integer coefficients of the given degree."""
    body = st.lists(st.integers(-40, 40), min_size=degree, max_size=degree)
    return st.builds(lambda c, lc: c + [lc], body, st.integers(-40, 40).filter(bool))


def test_real_rootedness_strips_content_at_most_twice(monkeypatch):
    # The subresultant divisors keep the entries small without a content
    # gcd per step: only the derivative is made primitive.
    p = Polynomial.from_roots([F(k, 3) for k in range(-6, 6)])
    ints = _intops.from_fraction_coeffs(p.coeffs)
    counts = _count_calls(monkeypatch, ("content",))
    assert _intops.is_real_rooted(ints)
    assert counts["content"] <= 2


@st.composite
def prem_pairs(draw):
    """(f, g) with deg f - deg g in 0..5."""
    g = draw(int_poly(draw(st.integers(0, 5))))
    return draw(int_poly(len(g) - 1 + draw(st.integers(0, 5)))), g


@settings(max_examples=200, deadline=None)
@given(prem_pairs())
@example(([0, 0, -2, -1, 2, 1], [0, 6, 5, -12, 4]))
def test_neg_signed_prem_is_positive_multiple_of_negated_remainder(pair):
    # lc(g) takes both signs and gap = deg f - deg g takes both
    # parities, the two things a lc(g)**(gap + 1) scaling would flip.
    f, g = pair
    r = _intops.neg_signed_prem(f, g)
    reference = -poly_rem(Polynomial(f), Polynomial(g))
    if reference.is_zero:
        assert r == []
        return
    ratio = F(r[-1]) / reference.leading_coefficient()
    assert ratio == abs(g[-1]) ** (len(f) - len(g) + 1)
    assert Polynomial(r) == ratio * reference
    # A divisor of every coefficient divides exactly; one that is not raises.
    k = _intops.content(r)
    assert _intops.neg_signed_prem(f, g, k) == [c // k for c in r]
    with pytest.raises(InternalInconsistencyError):
        _intops.neg_signed_prem(f, g, 2 * k)


def reference_eval_scaled(coeffs, num, den):
    """den**d * p(num/den) in Fractions, d = deg p; 0 for the empty list."""
    if not coeffs:
        return 0
    x = F(num, den)
    value = sum(c * x ** i for i, c in enumerate(coeffs)) * den ** (len(coeffs) - 1)
    assert value.denominator == 1
    return value.numerator


# den = 1 and 2**k take the shift loop; every other den the multiply loop.
_dens = st.one_of(
    st.integers(0, 200).map(lambda k: 2 ** k),
    st.integers(1, 10 ** 6),
    st.integers(1, 200).map(lambda k: 2 ** k + 1),
    st.integers(2, 200).map(lambda k: 2 ** k - 1),
    st.integers(1, 200).map(lambda k: 3 << k),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=9),
    st.integers(-10 ** 70, 10 ** 70),
    _dens,
)
@example([], -3, 1)
@example([-7], -3, 2 ** 200)
@example([5, 0, -1], -(2 ** 90) - 1, 2 ** 64)
@example([1, 2, 3], -5, 6)
def test_eval_scaled_matches_the_fraction_reference(coeffs, num, den):
    value = _intops.eval_scaled(coeffs, num, den)
    assert type(value) is int
    assert value == reference_eval_scaled(coeffs, num, den)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_exact_quotient_divides_out_a_primitive_factor(dp, dq, data):
    p = data.draw(int_poly(dp))
    q = _intops.primitive(data.draw(int_poly(dq)))
    pq = [int(c) for c in (Polynomial(p) * Polynomial(q)).coeffs]
    expected = _intops.primitive(p if p[-1] > 0 else [-c for c in p])
    assert _intops.exact_quotient(pq, q) == expected


def test_exact_quotient_rejects_non_divisors():
    # x / (2x + 1) fails at an inexact step, (x^2 + 1) / (x - 1) on the
    # leftover, and a divisor of higher degree at once.
    for p, g in (([0, 1], [1, 2]), ([1, 0, 1], [-1, 1]), ([1, 1], [1, 0, 1])):
        with pytest.raises(InternalInconsistencyError):
            _intops.exact_quotient(p, g)


small_factors = st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(
    lambda c: c[-1] != 0
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(small_factors, st.integers(1, 3)), max_size=3),
    st.integers(-5, 5).filter(bool),
)
def test_squarefree_sturm_matches_gcd_then_chain(factors, scale):
    # Powers plant repeated factors; a negative scale flips the leading sign.
    p = Polynomial([scale])
    for coeffs, power in factors:
        for _ in range(power):
            p = p * Polynomial(coeffs)
    ints = [int(c) for c in p.coeffs]
    gcd = _intops.poly_gcd(ints, _intops.derivative(ints))
    chain, g = _intops.squarefree_sturm(ints)
    assert chain == _intops.sturm_chain(_intops.exact_quotient(ints, gcd))
    ratio = F(g[-1], gcd[-1])
    assert Polynomial(g) == ratio * Polynomial(gcd)


def test_roots_convert_each_input_once(monkeypatch):
    # One conversion per Sturm build; refinement and the comparer read
    # the integer carriers as they are.
    counts = _count_calls(monkeypatch, ("from_fraction_coeffs",))
    f = Polynomial.from_roots([F(-1, 3), 1, 1, 4])
    g = Polynomial.from_roots([0, 1, F(7, 2)])
    report = interlaces_by_roots(
        refine_to(isolate_roots(f), F(1, 64)), isolate_roots(g)
    )
    assert report.verdict.value == "Interlaces"
    assert counts["from_fraction_coeffs"] == 2


def test_refinement_evaluates_fewer_points_than_halvings(monkeypatch):
    # Irrational roots far apart: no pins, and no separation step.  One
    # evaluation per halving, plus one per root for the lower end, would
    # cost 182; the secant jumps reach the same brackets in 68.
    roots = isolate_roots(
        Polynomial([-2, 0, 1]) * Polynomial([-3, 0, 1]) * Polynomial([-7, 0, 1])
    )
    counts = _count_calls(monkeypatch, ("eval_scaled",))
    narrow = refine_to(roots, F(1, 2 ** 30))
    halvings = [
        ((hi - lo) / (b - a)).numerator.bit_length() - 1
        for (lo, hi), (a, b) in zip(roots.intervals, narrow.intervals)
    ]
    assert len(halvings) == 6 and min(halvings) > 0
    assert counts["eval_scaled"] == 68 < len(halvings) + sum(halvings)
    assert narrow.intervals == tuple(
        reference_bisect(roots.carrier, lo, hi, k)
        for (lo, hi), k in zip(roots.intervals, halvings)
    )


def seeded_roots():
    """(carrier, lo, hi) for every isolated root of 60 seeded polynomials."""
    rng = SplitMix64(2024)
    for _ in range(60):
        body = [rng.int_between(-30, 30) for _ in range(rng.int_between(2, 12))]
        roots = isolate_roots(Polynomial(body + [rng.int_between(1, 3)]))
        for lo, hi in roots.intervals:
            yield roots.carrier, lo, hi


def test_missed_jumps_reuse_the_midpoint_value(monkeypatch):
    # A missed jump of depth m >= 2 halves its cell at grid index
    # 2^(m-1).  When the jump evaluated that point, as the secant point
    # or its neighbour, the value is reused; without that reuse these
    # brackets cost 5,447 evaluations.
    runs = [(*root, steps) for steps in (5, 20, 40) for root in seeded_roots()]
    expected = [reference_bisect(*run) for run in runs]
    counts = _count_calls(monkeypatch, ("eval_scaled",))
    assert [_refine(*run) for run in runs] == expected
    assert counts["eval_scaled"] == 5275


def reference_refine(roots, width):
    """``refine_to`` with every step taken by the Fraction reference.

    Each bracket takes the fewest halvings that bring it within the
    width, then neighbours that still touch halve once each until they
    are apart.
    """
    p0 = roots.carrier
    out = []
    for lo, hi in roots.intervals:
        steps = 0
        while (hi - lo) / 2 ** steps > width:
            steps += 1
        out.append(reference_bisect(p0, lo, hi, steps))
    for i in range(len(out) - 1):
        while out[i][1] >= out[i + 1][0]:
            out[i] = reference_bisect(p0, *out[i], 1)
            out[i + 1] = reference_bisect(p0, *out[i + 1], 1)
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(dyadic_roots, root_values), min_size=1, max_size=5),
    st.lists(st.sampled_from([2, 3, 5, 6, 7, 11]), max_size=2),
    st.one_of(
        st.builds(lambda j: F(1, 2 ** j), st.integers(0, 40)),
        st.sampled_from([F(1, 3), F(2, 7), F(100), F(10 ** 6)]),
    ),
)
@example([1, 2, 3], [], F(1, 2 ** 20))  # brackets from (0, 6) hit 1 and 2
@example([-5, -1, 3], [], F(1, 2 ** 20))  # a neighbour of the secant point is -5
@example([-2, -2, F(1, 3), F(5, 8), F(5, 8)], [2], F(2, 7))
@example([F(1, 2), 4], [3, 7], F(10 ** 6))  # wider than every bracket
def test_refine_to_matches_the_reference_bisection(values, squares, width):
    # Dyadic roots land on the bisection grid and pin; repeats, other
    # rationals and the irrational roots +-sqrt(c) do not.
    p = Polynomial.from_roots(values)
    for c in squares:
        p = p * Polynomial([-c, 0, 1])
    roots = isolate_roots(p)
    assert refine_to(roots, width).intervals == reference_refine(roots, width)


@pytest.mark.parametrize(
    "interval",
    [(F(-2), F(2)), (F(2), F(3)), (F(-1), F(3)), (F(1), F(1))],
)
def test_refine_to_rejects_brackets_without_a_sign_change(interval):
    # Hand-built brackets that break the one-root invariant of x^2 - 1:
    # both roots inside, no root, a root at an end.  A point is final
    # and comes back unchanged.
    roots = RootIntervals((interval,), (1,), (-1, 0, 1))
    lo, hi = interval
    for width in (F(1, 2 ** 10), F(1, 3)):
        if lo == hi:
            assert refine_to(roots, width).intervals == (interval,)
        else:
            with pytest.raises(ValueError, match=re.escape(f"[{lo}, {hi}]")):
                refine_to(roots, width)


@contextmanager
def raises_value_error_within(seconds, match):
    """pytest.raises(ValueError) that fails, not hangs, on a runaway loop."""

    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        with pytest.raises(ValueError, match=re.escape(match)):
            yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# The point (1, 1) touches the open bracket (0, 1), which ends on the
# root 1 of the carrier x - 1.
touching = RootIntervals(((F(0), F(1)), (F(1), F(1))), (1, 1), (-1, 1))
# Brackets that hold no root of x^2 + 1.
rootless_f = RootIntervals(((F(0), F(2)), (F(3), F(4))), (1, 1), (1, 0, 1))
rootless_g = RootIntervals(((F(1), F(2)),), (1,), (1, 0, 1))


@pytest.mark.parametrize(
    "call, bracket",
    [
        (lambda: refine_to(touching, F(1, 4)), "[0, 1]"),
        (lambda: refine_to(touching, F(4)), "[0, 1]"),  # no halving steps
        (lambda: interlaces_by_roots(rootless_f, rootless_g), "[0, 2]"),
    ],
    ids=["refine_to", "refine_to_no_steps", "interlaces_by_roots"],
)
def test_uncertified_brackets_raise_instead_of_looping(call, bracket):
    # Halving such a bracket never separates it from its neighbour.
    with raises_value_error_within(5, bracket):
        call()


# The point 1/3 is no root of f's carrier (x - 1)(x - 5); g's bracket
# (0, 1) holds the root 1/3 of 3x - 1, which no dyadic midpoint hits.
off_carrier_f = RootIntervals(((F(1, 3), F(1, 3)), (F(5), F(5))), (1, 1), (5, -6, 1))
off_carrier_g = RootIntervals(((F(0), F(1)),), (1,), (-1, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: interlaces_by_roots(off_carrier_f, off_carrier_g),
        lambda: refine_to(off_carrier_f, F(1, 8)),
        lambda: refine_to(off_carrier_f, F(4)),  # no halving steps
    ],
    ids=["interlaces_by_roots", "refine_to", "refine_to_no_steps"],
)
def test_a_point_bracket_off_its_carrier_raises_instead_of_looping(call):
    # Without the point check the walk halves g's bracket forever, and
    # refine_to returns the bogus point unchanged.
    with raises_value_error_within(5, "[1/3, 1/3]"):
        call()


def test_point_brackets_on_their_carrier_are_final():
    roots = RootIntervals.from_roots([F(1, 3), 5])
    assert refine_to(roots, F(1, 8)).intervals == roots.intervals
    report = interlaces_by_roots(roots, off_carrier_g)
    assert report.verdict == InterlaceVerdict.INTERLACES


def reference_is_real_rooted(p):
    """Variation count at +-infinity over the Sturm chain of p's squarefree part."""
    chain = build_sturm(p)._int_chain
    distinct = _intops.variations_at_infinity(
        chain, -1
    ) - _intops.variations_at_infinity(chain, 1)
    return distinct == len(chain[0]) - 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(root_values, st.integers(1, 3)), max_size=4),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-20, 20)), max_size=2),
    st.integers(-9, 9).filter(bool),
)
@example([], [], -3)  # a negative constant
@example([(2, 3)], [], -1)  # a repeated root under a negative lead
@example([(1, 1)], [(0, 1)], 1)  # (x - 1)(x^2 + 1)
@example([(1, 1)], [(1, 1)], 1)  # x^3 - 1: positive leads, one degree gap
@example([(1, 1), (3, 1)], [(-4, 4), (0, 1)], 2)  # a double root and x^2 + 1
def test_early_exit_reality_test_matches_the_variation_count(roots, quadratics, lead):
    # Repeated roots come from the multiplicities; x^2 + bx + c is a
    # complex pair when b^2 < 4c and two real roots (or one double) else.
    p = lead * Polynomial.from_roots([r for r, m in roots for _ in range(m)])
    for b, c in quadratics:
        p = p * Polynomial([c, b, 1])
    assert is_real_rooted(p) == reference_is_real_rooted(p)
    # The int route strips content and trailing zeros to the same verdict.
    den = lcm(*[c.denominator for c in p.coeffs])
    k = 1 + abs(lead)
    ints = [k * int(c * den) for c in p.coeffs] + [0, 0]
    assert is_real_rooted(ints) == is_real_rooted(p)
