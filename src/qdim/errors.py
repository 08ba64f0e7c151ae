"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: malformed input specs exit 1,
numerical failures (bracket loss, divergent series, degenerate
truncations) exit 2, verification gaps exit 3.
"""


class QdimError(Exception):
    """Base class for all toolkit errors."""


class SpecFormatError(QdimError, ValueError):
    """A system/potential specification document is malformed."""


class NumericalFailure(QdimError, RuntimeError):
    """A numerical procedure could not complete as contracted."""


class BracketError(NumericalFailure):
    """No sign change found for a root bracket; never extrapolated over."""


class NonSummableError(NumericalFailure):
    """The potential family fails the summability requirement."""


class DegenerateSystemError(NumericalFailure):
    """A (truncated) system whose limit set carries no dimension content."""
