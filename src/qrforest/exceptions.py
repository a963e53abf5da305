"""Exception hierarchy.

Everything raised on purpose derives from ``QrfError`` so callers (and the
CLI exit-code mapping) can distinguish our failures from genuine bugs.
"""


class QrfError(Exception):
    """Base class for all errors raised by this package."""


class SchemaMismatchError(QrfError):
    """Input object does not conform to the forest's attribute schema."""


class DegenerateRangeError(QrfError):
    """All leaf labels are equal: the normalized target is undefined."""


class ForestFormatError(QrfError):
    """Forest document is malformed; message names the offending location."""


class UnsupportedForestError(QrfError):
    """Forest shape not supported by the circuit compiler."""


class ResourceLimitError(QrfError):
    """Requested simulation exceeds the configured width limits."""
