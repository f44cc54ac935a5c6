"""The public surface: the exported names and the names the benchmark traces."""

import importlib

import interlacekit

EXPORTS = [
    "CauchyReport",
    "ChainEntry",
    "CrosscheckReport",
    "DEFAULT_WIDTH",
    "DegreeMismatchError",
    "EndpointRootError",
    "GaussianRational",
    "HermitianMatrix",
    "IdentityReport",
    "InputFormatError",
    "InterlaceKitError",
    "InterlaceReport",
    "InterlaceVerdict",
    "InternalInconsistencyError",
    "PencilReport",
    "Polynomial",
    "Rational",
    "RootIntervals",
    "SplitMix64",
    "SturmChain",
    "ZeroPolynomialError",
    "__version__",
    "bordered_identity",
    "build_sturm",
    "cauchy_check",
    "char_poly",
    "count_roots_in",
    "default_alphas",
    "det_exact",
    "eigen_intervals",
    "format_rational",
    "hko_crosscheck",
    "interlaces_by_index",
    "interlaces_by_roots",
    "interlaces_exact",
    "is_real_rooted",
    "isolate_roots",
    "lin_comb",
    "parse_rational",
    "pencil_scan",
    "poly_from_strings",
    "poly_gcd",
    "poly_to_strings",
    "principal_submatrix",
    "random_hermitian",
    "refine_to",
    "squarefree_part",
    "trial_rng",
]

# The (module, attribute) pairs of ``TARGETS`` in bench/tracing.py.  The
# tracer looks each one up when it starts, so a removed name would
# crash the benchmark; this list makes such a removal fail here first.
TRACED = [
    ("cli", "main"),
    ("hermitian", "char_poly"),
    ("hermitian", "cauchy_check"),
    ("hermitian", "eigen_intervals"),
    ("hermitian", "principal_submatrix"),
    ("hermitian", "bordered_identity"),
    ("realroots", "isolate_roots"),
    ("realroots", "refine_to"),
    ("realroots", "is_real_rooted"),
    ("realroots", "SturmChain"),
    ("polynomials", "squarefree_part"),
    ("polynomials", "poly_gcd"),
    ("interlace", "interlaces_by_roots"),
    ("interlace", "interlaces_exact"),
    ("interlace", "pencil_scan"),
    ("interlace", "hko_crosscheck"),
]


def test_exports_are_pinned():
    assert sorted(interlacekit.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(interlacekit, name), name


def test_every_traced_name_exists():
    for module, attr in TRACED:
        assert hasattr(importlib.import_module(f"interlacekit.{module}"), attr), (
            f"interlacekit.{module}.{attr}"
        )
