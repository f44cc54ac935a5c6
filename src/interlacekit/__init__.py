"""Exact verification of root interlacing and Hermitian spectra.

The package decides, with rational arithmetic only, whether two real
rooted polynomials interlace, whether every member of a sampled pencil
f + alpha*g is real rooted, and whether the eigenvalues of a principal
submatrix of a Hermitian matrix interlace those of the full matrix.
Identities are checked coefficient by coefficient and root counts come
from Sturm chains, so every verdict is a certificate, not an estimate.
"""

__version__ = "0.1.0"

from .errors import (
    DegreeMismatchError,
    InputFormatError,
    InterlaceKitError,
    InternalInconsistencyError,
    ZeroPolynomialError,
)
from .rationals import Rational, format_rational, parse_rational
from .polynomials import (
    Polynomial,
    poly_from_strings,
    poly_gcd,
    poly_to_strings,
    squarefree_part,
)
from .realroots import (
    DEFAULT_WIDTH,
    RootIntervals,
    SturmChain,
    is_real_rooted,
    isolate_roots,
    refine_to,
)
from .interlace import (
    ChainEntry,
    CrosscheckReport,
    InterlaceReport,
    InterlaceVerdict,
    PencilReport,
    default_alphas,
    hko_crosscheck,
    interlaces_by_index,
    interlaces_by_roots,
    interlaces_exact,
    pencil_scan,
)
from .hermitian import (
    CauchyReport,
    GaussianRational,
    HermitianMatrix,
    IdentityReport,
    bordered_identity,
    cauchy_check,
    char_poly,
    eigen_intervals,
    principal_submatrix,
    random_hermitian,
)
from .rng import SplitMix64, trial_rng

__all__ = [
    "__version__",
    "ChainEntry",
    "CauchyReport",
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
