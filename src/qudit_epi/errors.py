"""Exception hierarchy: three classes, one per way a caller can tell failures apart.

Every message reports the measured deviation or the offending value, so the
class only has to say what kind of failure it is.
"""


class QuditEpiError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QuditEpiError):
    """A state, spectrum, distribution or unitary failed one of its invariants."""


class UsageError(QuditEpiError):
    """Bad command line or configuration, rejected before trial 0."""
