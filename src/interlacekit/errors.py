"""Exception types shared across the package."""


class InterlaceKitError(Exception):
    """Base class for every error raised by this package."""


class InputFormatError(InterlaceKitError, ValueError):
    """Malformed string, structure, or file content."""


class ZeroPolynomialError(InterlaceKitError, ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class DegreeMismatchError(InterlaceKitError, ValueError):
    """A polynomial pair does not satisfy deg f = deg g + 1."""


class InternalInconsistencyError(InterlaceKitError, RuntimeError):
    """Two routes that must agree produced different answers.

    This is never a user error.  It means an implementation invariant
    broke, so the offending computation is surfaced instead of patched.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
