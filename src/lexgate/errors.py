"""Exception hierarchy shared across the package."""

from __future__ import annotations

from typing import Optional


class LexgateError(Exception):
    """Base class for every error raised by this package."""


class PolicySyntaxError(LexgateError):
    """Malformed policy or report markup; carries element path and line."""

    def __init__(self, message: str, path: str = "", line: Optional[int] = None):
        detail = message
        if path:
            detail += f" (at {path}"
            detail += f", line {line})" if line is not None else ")"
        super().__init__(detail)
        self.path = path
        self.line = line


class PolicyTypeError(LexgateError):
    """A literal does not satisfy its declared data type."""


class CoordinateRangeError(LexgateError):
    """Latitude/longitude outside the WGS84 domain."""


class WireFormatError(LexgateError):
    """Malformed request/response in the line-oriented wire format."""


class MissingCategoryError(WireFormatError):
    """The mandatory subject category is absent from a request."""


class FixtureError(LexgateError):
    """A fixture store file failed to load or violated its invariants."""


class UnknownScopeError(LexgateError):
    """A legal scope id does not resolve in the registry."""


class UnknownCustomerError(LexgateError):
    """A customer id does not resolve in the identity registry."""


class UnknownTerritoryError(LexgateError):
    """No country in the zone tree contains the given point."""


class PrecisionError(LexgateError):
    """The position's accuracy disc is too imprecise to classify.

    country is set when the disc lies in exactly one country but straddles
    a restricted-zone boundary; it is None when the disc overlaps several
    countries.
    """

    def __init__(self, message: str, country: Optional[str] = None):
        super().__init__(message)
        self.country = country


class LocationUnavailableError(LexgateError):
    """No position source exists for the requesting subject."""


class UnknownCombinerError(LexgateError):
    """A combining algorithm id names no standard algorithm."""


class ObligationError(LexgateError):
    """An obligation could not be executed."""


class AuditError(LexgateError):
    """The audit stream rejected an append."""


class ScenarioFormatError(LexgateError):
    """A scenario file is malformed."""
