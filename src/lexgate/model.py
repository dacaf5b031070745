"""Policy document tree, attribute values, decisions and obligations.

Everything here is immutable after construction and safe to share across
threads; the parser builds these values and the engine only reads them.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union


class Decision(Enum):
    PERMIT = "Permit"
    DENY = "Deny"
    NOT_APPLICABLE = "NotApplicable"
    INDETERMINATE = "Indeterminate"

    def __str__(self) -> str:
        return self.value


class Effect(Enum):
    """Rule effects; a strict subset of the decision domain."""

    PERMIT = "Permit"
    DENY = "Deny"

    def __str__(self) -> str:
        return self.value

    def to_decision(self) -> Decision:
        return Decision(self.value)


# Response status values; "ok" accompanies every conclusive decision.
STATUS_OK = "ok"
STATUS_MISSING_ATTRIBUTE = "missing-attribute"
STATUS_PROCESSING_ERROR = "processing-error"
STATUS_SYNTAX_ERROR = "syntax-error"


class DataType(Enum):
    STRING = "string"
    TIME_OF_DAY = "time-of-day"
    DATE = "date"
    INTEGER = "integer"
    BOOLEAN = "boolean"
    GEO_POINT = "geo-point"
    COUNTRY_CODE = "country-code"
    IDENTIFIER = "identifier"


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 point; latitude in [-90, 90], longitude in [-180, 180]."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


_COUNTRY_CODE_RE = re.compile(r"^[A-Z]{2}$")

_PAYLOAD_TYPES = {
    DataType.STRING: str,
    DataType.TIME_OF_DAY: dt.time,
    DataType.DATE: dt.date,
    DataType.INTEGER: int,
    DataType.BOOLEAN: bool,
    DataType.GEO_POINT: GeoPoint,
    DataType.COUNTRY_CODE: str,
    DataType.IDENTIFIER: str,
}


@dataclass(frozen=True)
class AttributeValue:
    """A typed literal; the payload's Python type must match data_type."""

    data_type: DataType
    value: object

    def __post_init__(self) -> None:
        expected = _PAYLOAD_TYPES[self.data_type]
        if self.data_type is DataType.INTEGER and isinstance(self.value, bool):
            raise TypeError("integer value must not be bool")
        if not isinstance(self.value, expected):
            raise TypeError(
                f"{self.data_type.value} value must be {expected.__name__}, "
                f"got {type(self.value).__name__}"
            )
        if self.data_type is DataType.COUNTRY_CODE and not _COUNTRY_CODE_RE.match(self.value):
            raise ValueError(f"country code must be uppercase ISO-3166 alpha-2: {self.value!r}")
        if self.data_type is DataType.DATE and isinstance(self.value, dt.datetime):
            raise TypeError("date value must be a plain date")

    @classmethod
    def _trusted(cls, data_type: DataType, value: object) -> "AttributeValue":
        """A value the engine derives itself from loaded stores, built
        without the payload checks; parsed values always take them."""
        made = object.__new__(cls)
        fields = made.__dict__
        fields["data_type"] = data_type
        fields["value"] = value
        return made


@dataclass(frozen=True)
class MatchClause:
    """One target clause: request values for attribute_id are matched
    against the literal with match_function (any value matching suffices)."""

    attribute_id: str
    match_function: str
    literal: AttributeValue


@dataclass(frozen=True)
class Target:
    """Four clause lists; an empty list matches any request (match-any)."""

    subjects: tuple[MatchClause, ...] = ()
    resources: tuple[MatchClause, ...] = ()
    actions: tuple[MatchClause, ...] = ()
    environments: tuple[MatchClause, ...] = ()

    def is_match_any(self) -> bool:
        return not (self.subjects or self.resources or self.actions or self.environments)


MATCH_ANY = Target()


class Category(Enum):
    SUBJECT = "subject"
    RESOURCE = "resource"
    ACTION = "action"
    ENVIRONMENT = "environment"

    # Members are singletons, so identity hashing agrees with equality and
    # keeps the (category, attribute) keys of every bag lookup in C.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class FunctionApplication:
    function: str
    args: tuple["ConditionExpr", ...]


@dataclass(frozen=True)
class Literal:
    value: AttributeValue


@dataclass(frozen=True)
class AttributeSelector:
    category: Category
    attribute_id: str
    data_type: DataType


ConditionExpr = Union[FunctionApplication, Literal, AttributeSelector]


@dataclass(frozen=True)
class Obligation:
    """A directive executed by the enforcement point when the response
    decision equals fulfill_on."""

    id: str
    fulfill_on: Effect
    parameters: tuple[tuple[str, AttributeValue], ...] = ()

    def parameter(self, name: str) -> Optional[AttributeValue]:
        for key, value in self.parameters:
            if key == name:
                return value
        return None


class NodeKind(Enum):
    POLICY_SET = "PolicySet"
    POLICY = "Policy"
    RULE = "Rule"


@dataclass(frozen=True)
class PolicyNode:
    """One node of the policy tree.

    Rules carry effect and optionally a condition and have no children;
    policies and policy sets carry a combining algorithm id and children.
    The optional legislation set names the legal scopes under which the
    node is applicable at all.
    """

    id: str
    kind: NodeKind
    target: Target = MATCH_ANY
    combining: Optional[str] = None
    effect: Optional[Effect] = None
    condition: Optional[ConditionExpr] = None
    children: tuple["PolicyNode", ...] = ()
    obligations: tuple[Obligation, ...] = ()
    legislation: Optional[frozenset[str]] = None


@dataclass(frozen=True)
class PolicyDocument:
    root: PolicyNode
    source_name: str = "<memory>"

    def walk(self):
        """All nodes in document order (depth-first, children as written)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


# Line breaks as str.splitlines sees them.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")
# What single_line escapes: line breaks, lone surrogates, which UTF-8
# cannot encode, and the backslash, so that the escaping can be undone.
_UNSAFE_TEXT = re.compile(f"[\\\\{_LINE_BREAKS}\ud800-\udfff]")


def _escape(match: re.Match) -> str:
    return match.group().encode("unicode_escape").decode("ascii")


def single_line(text: str) -> str:
    """The text as one line of encodable UTF-8: line breaks, lone
    surrogates and the backslash itself are backslash-escaped (LF becomes
    \\n, `\\` becomes `\\\\`), the rest is kept."""
    if _UNSAFE_TEXT.search(text) is None:
        return text
    return _UNSAFE_TEXT.sub(_escape, text)


# The escapes single_line writes: `\\`, `\n`, `\r`, `\xhh` and `\uhhhh`.
_ESCAPED = re.compile(r"\\(?:\\|[nr]|x[0-9a-f]{2}|u[0-9a-f]{4})")
_SHORT_ESCAPES = {"\\\\": "\\", "\\n": "\n", "\\r": "\r"}


def _unescape(match: re.Match) -> str:
    escape = match.group()
    return _SHORT_ESCAPES.get(escape) or chr(int(escape[2:], 16))


def undo_single_line(line: str) -> str:
    """The text that single_line turned into this line."""
    if "\\" not in line:
        return line
    return _ESCAPED.sub(_unescape, line)


@dataclass(frozen=True)
class TraceRecord:
    """One visited node. Its reason is made single-line (`single_line`),
    since it may carry an exception's text, and its audit digest text and
    wire line are rendered once, when the record is built: the engine
    builds most records when it compiles a node, and every response and
    audit digest that carries them reuses the strings."""

    node_id: str
    decision: Decision
    reason: str
    # "<node> <decision> <reason>": the line pep.trace_digest hashes.
    digest_text: str = field(init=False, repr=False, compare=False)
    # "trace <node> <decision> [reason]" (docs/wire-format.md).
    wire_line: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        reason = single_line(self.reason)
        if reason is not self.reason:
            object.__setattr__(self, "reason", reason)
        text = f"{self.node_id} {self.decision.value} {reason}"
        object.__setattr__(self, "digest_text", text)
        object.__setattr__(self, "wire_line", f"trace {text}".rstrip())


@dataclass(frozen=True)
class ResponseContext:
    """Outcome of one evaluation: decision, status, obligations to fulfil
    and a per-node trace in completion order."""

    decision: Decision
    status: str = STATUS_OK
    obligations: tuple[Obligation, ...] = ()
    trace: tuple[TraceRecord, ...] = ()


@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate_document; data, not an error."""

    code: str
    node_id: str
    message: str = ""


STANDARD_COMBINERS = (
    "deny-overrides",
    "permit-overrides",
    "first-applicable",
    "only-one-applicable",
)

# Condition/match functions every engine instance registers.
BUILTIN_FUNCTIONS = (
    "function:and",
    "function:or",
    "function:not",
    "function:string-equal",
    "function:boolean-equal",
    "function:time-greater-than-or-equal",
    "function:time-less-than-or-equal",
    "function:time-one-and-only",
    "function:string-one-and-only",
    "function:location-match",
)


def _condition_functions(expr: ConditionExpr):
    if isinstance(expr, FunctionApplication):
        yield expr.function
        for arg in expr.args:
            yield from _condition_functions(arg)


def validate_document(doc: PolicyDocument, *, known_scopes=None) -> list[Violation]:
    """Check the document against the structural rules of the dialect.

    Returns every violation found (an empty list iff the document is
    well-formed). Functions and combiners are checked against
    BUILTIN_FUNCTIONS and STANDARD_COMBINERS. known_scopes is the
    legal-scope registry's id set; pass None to skip referential scope
    checks.
    """
    violations: list[Violation] = []
    seen_ids: set[str] = set()

    for node in doc.walk():
        if node.id in seen_ids:
            violations.append(Violation(f"duplicate-id:{node.id}", node.id))
        seen_ids.add(node.id)

        if node.kind is NodeKind.RULE:
            if node.children:
                violations.append(Violation("rule-has-children", node.id))
            if node.effect is None:
                violations.append(Violation("rule-missing-effect", node.id))
        else:
            if node.combining is None:
                violations.append(Violation("missing-combiner", node.id))
            elif node.combining not in STANDARD_COMBINERS:
                violations.append(Violation(f"unknown-combiner:{node.combining}", node.id))
            if node.effect is not None:
                violations.append(Violation("effect-on-container", node.id))
            if node.condition is not None:
                violations.append(Violation("condition-on-container", node.id))
            for child in node.children:
                if node.kind is NodeKind.POLICY and child.kind is not NodeKind.RULE:
                    violations.append(Violation("policy-contains-non-rule", node.id))
                if node.kind is NodeKind.POLICY_SET and child.kind is NodeKind.RULE:
                    violations.append(Violation("policy-set-contains-rule", node.id))

        clause_functions = [
            clause.match_function
            for clauses in (
                node.target.subjects,
                node.target.resources,
                node.target.actions,
                node.target.environments,
            )
            for clause in clauses
        ]
        for fn in clause_functions:
            if fn not in BUILTIN_FUNCTIONS:
                violations.append(Violation(f"unknown-function:{fn}", node.id))
        if node.condition is not None:
            for fn in _condition_functions(node.condition):
                if fn not in BUILTIN_FUNCTIONS:
                    violations.append(Violation(f"unknown-function:{fn}", node.id))

        if node.legislation is not None:
            if not node.legislation:
                violations.append(Violation("empty-legislation", node.id))
            elif known_scopes is not None:
                for scope in sorted(node.legislation):
                    if scope not in known_scopes:
                        violations.append(Violation(f"unknown-scope:{scope}", node.id))

    return violations
