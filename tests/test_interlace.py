from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlacekit import realroots
from interlacekit import (
    DegreeMismatchError,
    InputFormatError,
    InterlaceVerdict,
    Polynomial,
    RootIntervals,
    SplitMix64,
    ZeroPolynomialError,
    default_alphas,
    hko_crosscheck,
    interlaces_by_index,
    interlaces_by_roots,
    interlaces_exact,
    is_real_rooted,
    isolate_roots,
    pencil_scan,
)
from test_realroots import reference_bisect

root_values = st.fractions(min_value=-6, max_value=6, max_denominator=3)


def collapse(values):
    distinct = sorted(set(values))
    return RootIntervals.from_roots(
        distinct, [values.count(v) for v in distinct]
    )


def test_weak_interlacing_accepted():
    report = interlaces_by_roots(
        RootIntervals.from_roots([0, 2]), RootIntervals.from_roots([1])
    )
    assert report.verdict == InterlaceVerdict.INTERLACES
    assert report.failure_witness is None
    assert len(report.chain_certificate) == 3
    assert [e.owner for e in report.chain_certificate] == ["f", "g", "f"]


def test_violation_above_is_witnessed():
    report = interlaces_by_roots(
        RootIntervals.from_roots([0, 2]), RootIntervals.from_roots([3])
    )
    assert report.verdict == InterlaceVerdict.DOES_NOT_INTERLACE
    assert report.failure_witness == (1, "upper")
    assert report.chain_certificate is None


def test_violation_below_is_witnessed():
    report = interlaces_by_roots(
        RootIntervals.from_roots([1, 3]), RootIntervals.from_roots([0])
    )
    assert report.verdict == InterlaceVerdict.DOES_NOT_INTERLACE
    assert report.failure_witness == (1, "lower")


def test_shared_root_weak_versus_strict():
    rf = RootIntervals.from_roots([1, 2])
    rg = RootIntervals.from_roots([1])
    assert interlaces_by_roots(rf, rg).verdict == InterlaceVerdict.INTERLACES
    strict = interlaces_by_roots(rf, rg, strict=True)
    assert strict.verdict == InterlaceVerdict.DOES_NOT_INTERLACE
    assert strict.failure_witness == (1, "lower")
    assert strict.strict
    # f = x(x-2)(x-5) and g = (x-2)(x-3) share the root 2, which lies in
    # f's bracket (1, 3) but not in its overlap (5/2, 3) with g's bracket
    # for 3: comparing those two roots finds no tie, so the walk halves
    # the brackets until f's root 2 lies wholly below g's root 3.
    rf = RootIntervals(
        intervals=((F(-1), F(1)), (F(1), F(3)), (F(4), F(6))),
        multiplicities=(1, 1, 1),
        carrier=(0, 10, -7, 1),
    )
    rg = RootIntervals(
        intervals=((F(3, 2), F(5, 2)), (F(5, 2), F(7, 2))),
        multiplicities=(1, 1),
        carrier=(6, -5, 1),
    )
    weak = interlaces_by_roots(rf, rg)
    assert weak.verdict == InterlaceVerdict.INTERLACES
    r_2, s_2 = weak.chain_certificate[2:4]
    assert (r_2.owner, s_2.owner) == ("f", "g")
    assert r_2.hi <= s_2.lo
    strict = interlaces_by_roots(rf, rg, strict=True)
    assert strict.failure_witness == (1, "upper")


def test_multiplicities_expand_the_chain():
    # f = (x-1)^2 (x-3), g = (x-1)(x-2): chain 1,1,1,2,3 works weakly
    rf = RootIntervals.from_roots([1, 3], [2, 1])
    rg = RootIntervals.from_roots([1, 2])
    report = interlaces_by_roots(rf, rg)
    assert report.verdict == InterlaceVerdict.INTERLACES
    assert len(report.chain_certificate) == 5
    # but g = (x-2)^2 pushes s_1 past the repeated r_2 = 1
    rg2 = RootIntervals.from_roots([2], [2])
    report2 = interlaces_by_roots(rf, rg2)
    assert report2.verdict == InterlaceVerdict.DOES_NOT_INTERLACE
    assert report2.failure_witness == (1, "upper")


def test_root_count_mismatch_reported():
    report = interlaces_by_roots(
        RootIntervals.from_roots([0, 1]), RootIntervals.from_roots([2, 3])
    )
    assert report.verdict == InterlaceVerdict.DEGREE_MISMATCH
    assert report.degrees == (2, 2)


def test_exact_on_non_interlacing_pair():
    f = Polynomial([0, -2, 1])    # roots 0, 2
    g = Polynomial([-3, 1])       # root 3
    report = interlaces_exact(f, g)
    assert report.verdict == InterlaceVerdict.DOES_NOT_INTERLACE
    assert report.failure_witness == (1, "upper")
    assert report.lc_sign_f == 1
    assert report.lc_sign_g == 1


def test_exact_on_interlacing_pair():
    f = Polynomial([0, -2, 1])
    g = Polynomial([-1, 1])
    report = interlaces_exact(f, g)
    assert report.verdict == InterlaceVerdict.INTERLACES
    owners = [e.owner for e in report.chain_certificate]
    assert owners == ["f", "g", "f"]


def test_exact_with_irrational_roots():
    # char poly of the 3x3 tridiagonal (2,1) matrix: roots 2 and 2 +- sqrt 2
    f = Polynomial([-4, 10, -6, 1])
    g = Polynomial([4, -4, 1])    # (x-2)^2
    report = interlaces_exact(f, g)
    assert report.verdict == InterlaceVerdict.INTERLACES
    assert interlaces_exact(f, g, strict=True).verdict == (
        InterlaceVerdict.DOES_NOT_INTERLACE
    )


def test_exact_scaling_invariance():
    f = -3 * Polynomial([0, -2, 1])
    g = F(1, 7) * Polynomial([-1, 1])
    report = interlaces_exact(f, g)
    assert report.verdict == InterlaceVerdict.INTERLACES
    assert report.lc_sign_f == -1
    assert report.lc_sign_g == 1


def test_exact_reports_not_real_rooted():
    g = Polynomial([-1, 1])
    report = interlaces_exact(Polynomial([3, -3, 1]), g)
    assert report.verdict == InterlaceVerdict.NOT_REAL_ROOTED
    assert report.not_real_rooted == ("f",)
    both = interlaces_exact(
        Polynomial([1, 0, 1]) * Polynomial([0, 1]),
        Polynomial([1, 0, 1]),
    )
    assert both.verdict == InterlaceVerdict.NOT_REAL_ROOTED
    assert both.not_real_rooted == ("f", "g")


def test_exact_reports_degree_mismatch():
    report = interlaces_exact(Polynomial([0, -2, 1]), Polynomial([1, 0, 0, 1]))
    assert report.verdict == InterlaceVerdict.DEGREE_MISMATCH
    assert report.degrees == (2, 3)


def test_exact_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        interlaces_exact(Polynomial(), Polynomial([1]))


def test_derivative_always_interlaces():
    f = Polynomial.from_roots([-3, F(-1, 2), 1, 4])
    report = interlaces_exact(f, f.derivative())
    assert report.verdict == InterlaceVerdict.INTERLACES


def test_default_alpha_grid_shape():
    grid = default_alphas()
    assert grid[:7] == [
        F(0), F(1, 2), F(-1, 2), F(1), F(-1), F(2), F(-2),
    ]
    assert grid[-1].denominator <= 10 ** 4
    assert len(grid) == len(set(grid))
    assert len(grid) == 89
    assert grid == default_alphas()
    # Each call returns a fresh list; a smaller count gives a prefix.
    grid.clear()
    assert len(default_alphas()) == 89
    short = default_alphas(3)
    assert len(short) == 28 and short == default_alphas()[:28]


def test_alpha_grids_drop_equal_values_keeping_first_occurrence():
    # The grid is deduplicated on (numerator, denominator), not on
    # Fraction hashes; the order must stay the hash-deduplicated order.
    raw = [F(0)]
    for k in range(-1, 11):
        raw += [F(2) ** k, -F(2) ** k]
    rng = SplitMix64(0x5EED)
    raw += [rng.rational(10 ** 4, 10 ** 4) for _ in range(64)]
    grid = default_alphas()
    assert len(grid) == 89
    assert grid == list(dict.fromkeys(raw))
    f = Polynomial([0, -2, 1])
    g = Polynomial([-1, 1])
    report = pencil_scan(f, g, alphas=[1, F(2, 2), 0, 1])
    assert report.alphas_tested == (1, 0)


def test_default_alphas_rejects_a_negative_count():
    with pytest.raises(InputFormatError, match="random_count must be >= 0, got -5"):
        default_alphas(-5)


def test_pencil_scan_finds_expected_witness():
    f = Polynomial([0, -2, 1])
    g = Polynomial([-3, 1])
    report = pencil_scan(f, g)
    assert not report.all_real
    assert report.witness == F(-1)
    assert tuple(report.alphas_tested) == tuple(default_alphas())


def test_pencil_scan_on_interlacing_pair():
    f = Polynomial([0, -2, 1])
    g = Polynomial([-1, 1])
    report = pencil_scan(f, g)
    assert report.all_real
    assert report.witness is None
    assert report.lc_sign_f == 1


def test_pencil_scan_custom_alphas_deduplicated():
    f = Polynomial([0, -2, 1])
    g = Polynomial([-1, 1])
    report = pencil_scan(f, g, alphas=[1, 1, F(1, 2), 0])
    assert report.alphas_tested == (F(1), F(1, 2), F(0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(root_values, min_size=2, max_size=5),
    st.data(),
    st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
    st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
    st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=7), max_size=8),
)
def test_pencil_members_match_f_plus_alpha_g(values_f, data, scale_f, scale_g, alphas):
    # Leading coefficients of either sign and rational scales: each
    # integer member must decide exactly as f + alpha*g does.
    size = len(values_f) - 1
    values_g = data.draw(st.lists(root_values, min_size=size, max_size=size))
    f = scale_f * Polynomial.from_roots(values_f)
    g = scale_g * Polynomial.from_roots(values_g)
    scanned = [pencil_scan(f, g, alphas=[a]).all_real for a in alphas]
    assert scanned == [is_real_rooted(f + a * g) for a in alphas]


def test_pencil_scan_rejects_degree_gap():
    with pytest.raises(DegreeMismatchError):
        pencil_scan(Polynomial([1, 0, 0, 1]), Polynomial([1, 1]))


def test_crosscheck_consistent_and_falsified():
    f = Polynomial([0, -2, 1])
    report = hko_crosscheck(f, Polynomial([-3, 1]))
    assert report.consistent
    assert report.verdict == "Consistent"
    assert not report.unfalsified
    assert report.pencil.witness == F(-1)
    assert report.interlace.verdict == InterlaceVerdict.DOES_NOT_INTERLACE


def test_crosscheck_on_interlacing_pair():
    f = Polynomial([0, -2, 1])
    report = hko_crosscheck(f, Polynomial([-1, 1]))
    assert report.consistent
    assert not report.unfalsified
    assert report.pencil.all_real


def test_crosscheck_flags_unfalsified():
    # shared-root near miss: strict ordering broken only by a tie at 1,
    # with every grid combination still real rooted
    f = Polynomial.from_roots([0, 1])
    g = Polynomial.from_roots([0])
    report = hko_crosscheck(f, g, strict=True)
    assert report.consistent
    assert report.unfalsified
    assert report.interlace.verdict == InterlaceVerdict.DOES_NOT_INTERLACE


def test_report_dictionaries_are_stable():
    f = Polynomial([0, -2, 1])
    d = hko_crosscheck(f, Polynomial([-3, 1])).as_dict()
    assert d["verdict"] == "Consistent"
    assert d["pencil"]["witness"] == "-1"
    assert d["interlace"]["failure_witness"] == {"k": 1, "side": "upper"}
    assert d["interlace"]["verdict"] == "DoesNotInterlace"


@settings(max_examples=60, deadline=None)
@given(st.lists(root_values, min_size=3, max_size=9))
def test_constructed_chains_always_interlace(values):
    if len(values) % 2 == 0:
        values = values[:-1]
    values = sorted(values)
    rf = collapse(values[0::2])
    rg = collapse(values[1::2])
    report = interlaces_by_roots(rf, rg)
    assert report.verdict == InterlaceVerdict.INTERLACES
    assert len(report.chain_certificate) == len(values)


@settings(max_examples=40, deadline=None)
@given(st.lists(root_values, min_size=3, max_size=7, unique=True))
def test_exact_agrees_with_by_roots(values):
    if len(values) % 2 == 0:
        values = values[:-1]
    values = sorted(values)
    f = Polynomial.from_roots(values[0::2])
    g = Polynomial.from_roots(values[1::2])
    by_roots = interlaces_by_roots(
        RootIntervals.from_roots(values[0::2]),
        RootIntervals.from_roots(values[1::2]),
    )
    exact = interlaces_exact(f, g)
    assert exact.verdict == by_roots.verdict == InterlaceVerdict.INTERLACES


@settings(max_examples=30, deadline=None)
@given(
    st.lists(root_values, min_size=3, max_size=7, unique=True),
    st.integers(min_value=0, max_value=100),
)
def test_forward_direction_of_the_pencil_claim(values, alpha_raw):
    # interlacing pairs keep every sampled pencil member real rooted
    if len(values) % 2 == 0:
        values = values[:-1]
    values = sorted(values)
    f = Polynomial.from_roots(values[0::2])
    g = Polynomial.from_roots(values[1::2])
    alpha = F(alpha_raw - 50, 7)
    assert is_real_rooted(f + alpha * g)


@st.composite
def chain_candidates(draw):
    """Root multisets for f (n roots) and g (n - 1), ties and repeats likely.

    Half the draws split one sorted list alternately, so the weak chain
    holds and the Interlaces direction is exercised as well.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    values = draw(st.lists(small, min_size=2 * n - 1, max_size=2 * n - 1))
    if draw(st.booleans()):
        values.sort()
    return values[0::2], values[1::2]


def brute_force_witness(roots_f, roots_g, strict):
    """First broken inequality of r_k <= s_k <= r_{k+1}, or None."""
    r = sorted(roots_f)
    s = sorted(roots_g)
    below = (lambda a, b: a < b) if strict else (lambda a, b: a <= b)
    for k in range(len(s)):
        if not below(r[k], s[k]):
            return (k + 1, "lower")
        if not below(s[k], r[k + 1]):
            return (k + 1, "upper")
    return None


@settings(max_examples=150, deadline=None)
@given(chain_candidates(), st.booleans())
def test_chain_walk_matches_brute_force(pair, strict):
    roots_f, roots_g = pair
    witness = brute_force_witness(roots_f, roots_g, strict)
    merged = [None] * (2 * len(roots_f) - 1)
    merged[0::2] = sorted(roots_f)
    merged[1::2] = sorted(roots_g)
    # Isolated against exact roots in both orders, so ties between a
    # point and an open bracket are decided too.
    reports = (
        interlaces_by_roots(collapse(roots_f), collapse(roots_g), strict=strict),
        interlaces_by_roots(
            isolate_roots(Polynomial.from_roots(roots_f)),
            collapse(roots_g),
            strict=strict,
        ),
        interlaces_by_roots(
            collapse(roots_f),
            isolate_roots(Polynomial.from_roots(roots_g)),
            strict=strict,
        ),
        interlaces_exact(
            Polynomial.from_roots(roots_f), Polynomial.from_roots(roots_g), strict=strict
        ),
    )
    for report in reports:
        assert report.strict == strict
        assert report.failure_witness == witness
        if witness is not None:
            assert report.verdict == InterlaceVerdict.DOES_NOT_INTERLACE
            assert report.chain_certificate is None
            continue
        assert report.verdict == InterlaceVerdict.INTERLACES
        certificate = report.chain_certificate
        assert [e.owner for e in certificate] == ["f", "g"] * len(roots_g) + ["f"]
        assert len(certificate) == len(merged)
        for entry, root in zip(certificate, merged):
            assert entry.lo <= root <= entry.hi


def assert_reference_cells(f, g, certificate):
    """Each certificate bracket is a reference bisection cell of its root.

    An open bracket is ``reference_bisect`` of the isolation bracket it
    lies in, for the halving count its width gives; a point is where the
    reference pins.  Returns the deepest halving count seen.
    """
    isolated = {"f": isolate_roots(f), "g": isolate_roots(g)}
    deepest = 0
    for entry in certificate:
        roots = isolated[entry.owner]
        (lo0, hi0), = [
            (lo, hi)
            for lo, hi in roots.intervals
            if lo <= entry.lo <= entry.hi <= hi
        ]
        if entry.lo == entry.hi:
            pinned = reference_bisect(roots.carrier, lo0, hi0, 200)
            assert pinned == (entry.lo, entry.hi)
            continue
        ratio = (hi0 - lo0) / (entry.hi - entry.lo)
        k = ratio.numerator.bit_length() - 1
        assert ratio == 2 ** k
        assert reference_bisect(roots.carrier, lo0, hi0, k) == (entry.lo, entry.hi)
        deepest = max(deepest, k)
    return deepest


@pytest.mark.parametrize(
    "f_roots, g_roots, witness",
    [
        ([1, 3], [1 + F(1, 2 ** 40)], None),
        ([1, 3], [1 - F(1, 2 ** 40)], (1, "lower")),
        ([1, 3], [1 + F(1, 3 * 2 ** 40)], None),
        # Midpoints pin all three roots of f, and g's bracket near -3/2
        # is halved against a point.
        ([F(-3, 2), 2, 5], [F(-3, 2) + F(1, 2 ** 40), F(23, 6)], None),
        # The double root 1/3 never lands on the grid.  Its one bracket
        # is halved from slot r_2 against s_1, then from slot r_3 against
        # s_3, which is closer.
        (
            [0, F(1, 3), F(1, 3), 1],
            [F(1, 3) - F(1, 2 ** 40), F(1, 3), F(1, 3) + F(1, 2 ** 48)],
            None,
        ),
    ],
)
def test_walk_brackets_are_reference_bisection_cells(f_roots, g_roots, witness):
    # Near ties take the walk about 40 halvings deep.
    f, g = Polynomial.from_roots(f_roots), Polynomial.from_roots(g_roots)
    report = interlaces_exact(f, g)
    assert report.failure_witness == witness
    if witness is not None:
        assert report.verdict == InterlaceVerdict.DOES_NOT_INTERLACE
        return
    assert report.verdict == InterlaceVerdict.INTERLACES
    assert assert_reference_cells(f, g, report.chain_certificate) >= 38


def exact_says_interlaces(f, g, strict):
    return interlaces_exact(f, g, strict=strict).verdict == InterlaceVerdict.INTERLACES


# x^2 + bx + c with b^2 < 4c: a complex pair that f and g can share.
complex_quadratics = st.sampled_from([(1, 0, 1), (5, 2, 1), (3, -3, 1), (7, 1, 2)])


@settings(max_examples=200, deadline=None)
@given(
    chain_candidates(),
    st.sampled_from([F(1), F(-1), F(3, 2), F(-2, 7)]),
    st.one_of(st.none(), complex_quadratics),
    st.booleans(),
)
def test_index_route_matches_the_exact_verdict(pair, scale, shared, strict):
    roots_f, roots_g = pair
    f = Polynomial.from_roots(roots_f)
    g = scale * Polynomial.from_roots(roots_g)
    if shared is not None:
        f, g = f * Polynomial(shared), g * Polynomial(shared)
    assert interlaces_by_index(f, g, strict) == exact_says_interlaces(f, g, strict)


def seeded_pair(rng, kind):
    """One (f, g) pair of degrees (d, d - 1) from a seeded stream.

    Kinds: 0 a sorted chain, ties likely; 1 a chain with one value
    moved; 2 g's roots drawn from f's, repeats likely; 3 a chain times a
    shared complex quadratic; 4 random integer coefficients, most of
    them not real rooted.  g is scaled by a rational of either sign.
    """
    d = rng.int_between(1, 6)
    if kind == 4:
        f = [rng.int_between(-5, 5) for _ in range(d)] + [rng.int_between(1, 3)]
        g = [rng.int_between(-5, 5) for _ in range(d - 1)] + [rng.int_between(1, 3)]
        return Polynomial(f), -Polynomial(g) if rng.below(2) else Polynomial(g)
    values = sorted(
        F(rng.int_between(-4, 4), rng.int_between(1, 2)) for _ in range(2 * d - 1)
    )
    if kind == 1:
        values[rng.below(len(values))] += F(rng.int_between(-3, 3), 2)
    roots_f, roots_g = values[0::2], values[1::2]
    if kind == 2:
        roots_g = [roots_f[rng.below(len(roots_f))] for _ in roots_g]
    scale = rng.rational(5, 3)
    f = Polynomial.from_roots(roots_f)
    g = (scale or F(-1)) * Polynomial.from_roots(roots_g)
    if kind == 3:
        b = rng.int_between(-3, 3)
        q = Polynomial([b * b // 4 + rng.int_between(1, 4), b, 1])
        f, g = f * q, g * q
    return f, g


def test_index_route_agrees_on_4000_seeded_pairs():
    rng = SplitMix64(2005)
    verdicts = {True: 0, False: 0}
    ties = 0
    for trial in range(4000):
        f, g = seeded_pair(rng, trial % 5)
        weak, strict = (exact_says_interlaces(f, g, s) for s in (False, True))
        assert interlaces_by_index(f, g) == weak, (f, g)
        assert interlaces_by_index(f, g, strict=True) == strict, (f, g)
        verdicts[weak] += 1
        verdicts[strict] += 1
        ties += weak and not strict
    # Both verdicts, and weak-only ties, are well represented.
    assert min(verdicts.values()) > 1000
    assert ties > 300


def test_index_route_edge_cases():
    x = Polynomial([0, 1])
    assert interlaces_by_index(x, Polynomial([-4]))  # one root, no g roots
    assert interlaces_by_index(-x * x + 1, x, strict=True)  # negative leads
    assert not interlaces_by_index(x * x + 1, x)  # f not real rooted
    assert not interlaces_by_index(x * x, Polynomial([1]))  # degree gap
    double = (x - 1) * (x - 1)
    assert interlaces_by_index(double * (x - 3), double)  # gcd (x - 1)^2
    assert not interlaces_by_index(double * (x - 3), double, strict=True)
    with pytest.raises(ZeroPolynomialError):
        interlaces_by_index(x, Polynomial())


@pytest.mark.parametrize(
    "f, g, chains",
    [
        # x^3 - 4x + 1 and its derivative: simple irrational roots, which
        # the float cells isolate without a chain.
        (Polynomial([1, -4, 0, 1]), Polynomial([-4, 0, 3]), 0),
        # (x + 1)(x - 1)^2 and (x - 1)^2: the repeated root 1 needs the
        # chain and its multiplicity tower for each input.
        (
            Polynomial.from_roots([-1, 1, 1]),
            Polynomial.from_roots([1, 1]),
            2,
        ),
    ],
    ids=["simple", "repeated"],
)
def test_exact_decision_builds_sturm_chains_only_for_repeated_roots(
    monkeypatch, f, g, chains
):
    # The reality tests run remainder sequences of their own; isolation
    # builds a Sturm chain only where the float cells are not proved.
    calls = []
    original = realroots.SturmChain

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(realroots, "SturmChain", counted)
    assert interlaces_exact(f, g).verdict == InterlaceVerdict.INTERLACES
    assert len(calls) == chains
