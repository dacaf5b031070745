"""lexgate: jurisdiction-aware policy decision engine and enforcement kit.

The pieces compose bottom-up: the policy model and parsers, the decision
engine with its built-in functions and combiners, the pluggable context
suppliers (identity, diary, clock, zone+ location, legal scopes) and the
reference monitor that enforces decisions, executes obligations and keeps
the audit trail. `lexgate.cli` exposes all of it as a command line.
"""

from .combining import combine
from .engine import PolicyDecisionPoint
from .errors import LexgateError
from .model import (
    AttributeValue,
    Category,
    DataType,
    Decision,
    Effect,
    GeoPoint,
    MatchClause,
    NodeKind,
    Obligation,
    PolicyDocument,
    PolicyNode,
    ResponseContext,
    Target,
    TraceRecord,
    Violation,
    validate_document,
)
from .parsing import (
    LocationReport,
    RequestContext,
    ZoneKind,
    parse_location_report,
    parse_policy_document,
    parse_request,
    parse_response,
    serialize_location_report,
    serialize_policy_document,
    serialize_request,
    serialize_response,
)
from .pep import AuditLog, AuditRecord, AuthState, ReferenceMonitor, ViewMode

__version__ = "0.1.0"

__all__ = [
    "AttributeValue",
    "AuditLog",
    "AuditRecord",
    "AuthState",
    "Category",
    "DataType",
    "Decision",
    "Effect",
    "GeoPoint",
    "LexgateError",
    "LocationReport",
    "MatchClause",
    "NodeKind",
    "Obligation",
    "PolicyDecisionPoint",
    "PolicyDocument",
    "PolicyNode",
    "ReferenceMonitor",
    "RequestContext",
    "ResponseContext",
    "Target",
    "TraceRecord",
    "ViewMode",
    "Violation",
    "ZoneKind",
    "combine",
    "parse_location_report",
    "parse_policy_document",
    "parse_request",
    "parse_response",
    "serialize_location_report",
    "serialize_policy_document",
    "serialize_request",
    "serialize_response",
    "validate_document",
    "__version__",
]
