"""Exception types shared across the package."""


class MatZeroError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(MatZeroError, ValueError):
    """A function got an argument outside its domain: a negative
    exponent or rank, a field order below 2, the zero polynomial where
    a nonzero one is needed, or a uniform matroid with r > n."""


class ParseError(MatZeroError, ValueError):
    """A matroid or decomposition file is malformed.  ``line`` is the
    1-based number of the offending line, or None for the whole file."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# -- finite fields ----------------------------------------------------------

class NotPrimeError(MatZeroError):
    """The requested characteristic is not a prime number."""


class OrderTooLargeError(MatZeroError):
    """The requested field order exceeds the supported maximum."""


class ReduciblePolynomialError(MatZeroError):
    """The supplied modulus polynomial is not irreducible."""


class DivisionByZeroError(MatZeroError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


# -- matroids ---------------------------------------------------------------

class HasLoopError(MatZeroError):
    """The operation requires a loopless matroid."""


class NotSimpleError(MatZeroError):
    """The operation requires a simple matroid (no loops, no parallel pairs)."""


class NotLinearError(MatZeroError):
    """The operation requires a matroid backed by an explicit matrix."""


class RankZeroError(MatZeroError):
    """The operation requires a matroid of positive rank."""


class TooLargeError(MatZeroError):
    """The instance exceeds a documented size cap for this operation."""


# -- polynomials ------------------------------------------------------------

class InexactDivisionError(MatZeroError):
    """Polynomial division left a nonzero remainder or fractional quotient."""


class NonIntegralError(MatZeroError, ValueError):
    """A polynomial coefficient or scalar factor is not an integer."""


class RootArgumentError(ArgumentError):
    """A root-layer function got an argument it cannot answer for: the
    zero polynomial, a bound that is not a finite rational number, or a
    tolerance that is not a positive one."""


class RootCertificateError(MatZeroError):
    """A Sturm root count disagrees with the Budan-Fourier bound from
    the sign variations of the shifted polynomial."""


# -- projective geometry ----------------------------------------------------

class PointCollisionError(MatZeroError):
    """A requested extension point is already occupied by the embedded matroid."""


class NeckNotFilledError(MatZeroError):
    """A split was requested across an edge whose neck points are not all present."""


class NotModularError(MatZeroError):
    """The common flat fails the modular-pair rank identity."""


# -- tree decompositions ----------------------------------------------------

class NotInTreeError(MatZeroError):
    """A vertex or edge does not belong to the decomposition tree."""


# -- verification harness ---------------------------------------------------

class WidthWitnessExceededError(MatZeroError):
    """An instance's witness decomposition is wider than the claimed bound."""


class LineMinorPresentError(MatZeroError):
    """An instance contains a long-line minor that the suite requires absent."""
