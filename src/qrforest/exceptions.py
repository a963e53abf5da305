"""Exception hierarchy.

Errors raised on purpose for a bad forest, input or request derive from
``QrfError``.  A bad argument to a public function (a count that is not an
integer, a delta that is not a real number in (0, 0.5), a negative seed)
raises ``ValueError`` instead.  ``cli.main`` maps ``ResourceLimitError`` to
exit 4 and ``QrfError``, ``ValueError`` and ``OSError`` to exit 3; anything
else is a bug.
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
