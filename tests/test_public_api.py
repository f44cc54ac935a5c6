"""The public surface: the exported names and the names the benchmark traces."""

import importlib
import pkgutil

import interlacekit

EXPORTS = [
    "CauchyReport",
    "ChainEntry",
    "CrosscheckReport",
    "DEFAULT_WIDTH",
    "DegreeMismatchError",
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
    "cauchy_check",
    "char_poly",
    "default_alphas",
    "eigen_intervals",
    "format_rational",
    "hko_crosscheck",
    "interlaces_by_index",
    "interlaces_by_roots",
    "interlaces_exact",
    "is_real_rooted",
    "isolate_roots",
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

# Names retired from the package; CHANGES.md gives each one's replacement.
RETIRED = ["EndpointRootError", "build_sturm", "count_roots_in", "det_exact", "lin_comb"]

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


def test_retired_names_are_defined_in_no_module():
    # __main__ is left out: importing it runs the command line.
    modules = [interlacekit] + [
        importlib.import_module(f"interlacekit.{info.name}")
        for info in pkgutil.iter_modules(interlacekit.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        for name in RETIRED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
