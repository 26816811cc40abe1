"""Exception hierarchy shared by every module in the package.

All domain errors derive from :class:`MdsforgeError` so callers (and the
CLI) can distinguish "the mathematics said no" from genuine bugs.  The CLI
prints ``error: <message>`` for each and exits with the status given:

- :class:`InvalidParamsError` (exit 2): parameters outside the documented
  domain -- a composite p, a family's bound or divisibility condition,
  mismatched shapes; the message names which.
- :class:`TooLargeError` (exit 2): a field, enumeration or scan past its
  size guard.
- :class:`FormatError` (exit 2): malformed input text or file.
- :class:`ConditionViolatedError` (exit 1): a subset condition failed.
- :class:`InconsistentError` (exit 1): a received word fits no codeword.
- :class:`TooManyErasuresError` (exit 1): too many erasures to decode, or
  survivors of rank below k.

Any other exception a command raises is a bug: the CLI prints its traceback
and exits 3.
"""

#: Messages spell out integers of at most this many bits (77 digits).
SHOWN_BITS = 256


def shown(label: str, value: int | None) -> str:
    """``label = value`` when `value` (None: never computed) fits on a line, else `label`."""
    return label if value is None or value.bit_length() > SHOWN_BITS else f"{label} = {value}"


class MdsforgeError(Exception):
    """Base class for every error raised deliberately by this package."""


class InvalidParamsError(MdsforgeError):
    """Parameters are outside the documented domain of the operation."""


class TooLargeError(MdsforgeError):
    """A field, enumeration or scan was requested past its size guard."""


class FormatError(MdsforgeError):
    """A JSON document does not match the expected file format."""


class ConditionViolatedError(MdsforgeError):
    """A subset condition that a construction relies on failed at runtime.

    ``witness`` holds the offending index subset when one is known.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InconsistentError(MdsforgeError):
    """The non-erased symbols of a received word fit no codeword."""


class TooManyErasuresError(MdsforgeError):
    """More than n - k coordinates of a received word are erased."""
