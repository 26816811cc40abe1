"""Exception hierarchy shared by every module in the package.

All domain errors derive from :class:`MdsforgeError` so callers (and the
CLI) can distinguish "the mathematics said no" from genuine bugs.
"""


class MdsforgeError(Exception):
    """Base class for every error raised deliberately by this package."""


class NotPrimeError(MdsforgeError):
    """A parameter that must be prime is composite (or < 2)."""


class TooLargeError(MdsforgeError):
    """A full enumeration was requested past its size guard."""


class InfeasibleError(MdsforgeError):
    """A combinatorial scan would exceed its enumeration guard."""


class IndexOutOfRangeError(MdsforgeError):
    """A row/column index fell outside the matrix dimensions."""


class DimensionMismatchError(MdsforgeError):
    """Shapes of the operands do not line up."""


class SingularError(MdsforgeError):
    """A square system has no unique solution."""


class InvalidParamsError(MdsforgeError):
    """Parameters are outside the documented domain of the operation."""


class BoundViolatedError(MdsforgeError):
    """Requested parameters exceed the feasibility bound of a family."""


class BinomialDivisibleError(MdsforgeError):
    """The characteristic divides the binomial coefficient C(k, r)."""


class DuplicateColumnsError(MdsforgeError):
    """Two parity-check columns map to the same field element."""


class ConditionViolatedError(MdsforgeError):
    """A subset condition that a construction relies on failed at runtime.

    ``witness`` holds the offending index subset when one is known.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class KEvenError(MdsforgeError):
    """An odd k was required."""


class TooManyErasuresError(MdsforgeError):
    """More than n - k coordinates of a received word are erased."""


class InconsistentError(MdsforgeError):
    """The non-erased symbols of a received word fit no codeword."""


class FormatError(MdsforgeError):
    """A JSON document does not match the expected file format."""
