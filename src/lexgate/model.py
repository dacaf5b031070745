"""Policy document tree, attribute values, decisions and obligations.

Everything here but `Memo` is immutable and safe to share across
threads; the parser builds these values and the engine only reads them.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, Union


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

    # Identity hashing, as for Category, for the tables keyed on members.
    __hash__ = object.__hash__


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

    def sections(self) -> tuple[tuple[Category, tuple[MatchClause, ...]], ...]:
        """The four clause lists with their categories, in the order
        applicability checks them."""
        return (
            (Category.SUBJECT, self.subjects),
            (Category.RESOURCE, self.resources),
            (Category.ACTION, self.actions),
            (Category.ENVIRONMENT, self.environments),
        )


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
# What a wire line cannot carry: line breaks and lone surrogates, which
# UTF-8 cannot encode.
_NOT_WIRE_TEXT = re.compile(f"[{_LINE_BREAKS}\ud800-\udfff]")
# What single_line escapes: that, and the backslash, so that the escaping
# can be undone; the body of a regular expression's character class.
SINGLE_LINE_ESCAPED = f"\\\\{_LINE_BREAKS}\ud800-\udfff"
_UNSAFE_TEXT = re.compile(f"[{SINGLE_LINE_ESCAPED}]")


def _escape(match: re.Match) -> str:
    return match.group().encode("unicode_escape").decode("ascii")


def single_line(text: str) -> str:
    """The text as one line of encodable UTF-8: line breaks, lone
    surrogates and the backslash itself are backslash-escaped (LF becomes
    \\n, `\\` becomes `\\\\`), the rest is kept."""
    if _UNSAFE_TEXT.search(text) is None:
        return text
    return _UNSAFE_TEXT.sub(_escape, text)


def is_wire_text(text: str) -> bool:
    """True iff the text fits on one wire line: it holds no line break,
    and UTF-8 can encode it (no lone surrogate)."""
    return _NOT_WIRE_TEXT.search(text) is None


def is_one_field(text: str) -> bool:
    """True iff the text is one field of a space-separated wire line:
    non-empty wire text (`is_wire_text`) without whitespace."""
    return text.split() == [text] and is_wire_text(text)


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
    wire line are rendered once, when the record is built, and every
    response and audit digest that carries it reuses the strings.

    `obligations` holds those of the node's obligations whose FulfillOn
    is the record's decision; the engine fills it on the Permit and Deny
    records its walk builds (a rule's effect, a default rule, a container's
    combined decision), so a response's obligations are read off its
    walked records. It enters neither the digest text nor the wire line."""

    node_id: str
    decision: Decision
    reason: str
    obligations: tuple[Obligation, ...] = field(default=(), repr=False, compare=False)
    # "<node> <decision> <reason>": the line trace_digest hashes.
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


_DIGEST_TEXT = operator.attrgetter("digest_text")
_WIRE_LINE = operator.attrgetter("wire_line")


def trace_text(records: Sequence[TraceRecord]) -> bytes:
    """The records' wire lines, each ending in a line feed, as UTF-8."""
    if not records:
        return b""
    return ("\n".join(map(_WIRE_LINE, records)) + "\n").encode("utf-8")


def trace_digest(records: Sequence[TraceRecord]) -> str:
    """The audit digest of trace records: the SHA-256 hex digest of their
    digest texts, joined by line feeds."""
    body = "\n".join(map(_DIGEST_TEXT, records))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class Trace(tuple):
    """The trace records of one response, in completion order, with their
    audit digest (`digest`, by `trace_digest`) and their wire text
    (`body`): a tuple of UTF-8 pieces whose join is the records' wire
    lines, each ending in a line feed. Both are found once, when the
    trace is built. Without a body the records are rendered here
    (`trace_text`); the engine passes views of its screen's shared text
    for the runs of screened records and one `trace_text` per walked
    document.

    It is equal to, and hashes like, the plain tuple of the same records.
    A tuple made from it, such as `trace + (record,)`, is a plain tuple.
    `copy` and `pickle` rebuild a Trace whole, its body as bytes, since a
    memoryview cannot be pickled."""

    def __new__(cls, records: Sequence[TraceRecord], body: Optional[tuple] = None) -> "Trace":
        trace = super().__new__(cls, records)
        trace.digest = trace_digest(trace)
        trace.body = (trace_text(trace),) if body is None else body
        return trace

    def __reduce__(self):
        return Trace, (tuple(self), tuple(map(bytes, self.body)))


@dataclass(frozen=True)
class ResponseContext:
    """Outcome of one evaluation: decision, status, obligations to fulfil
    and a per-node trace in completion order. The trace is always a
    `Trace`: any other sequence of records is made one here, so every
    response carries its audit digest and wire text.

    The wire head and the obligation ids are found on first use and kept
    on the response (in its `__dict__`, which `dataclasses.replace` does
    not copy), so a memoized response renders them once."""

    decision: Decision
    status: str = STATUS_OK
    obligations: tuple[Obligation, ...] = ()
    trace: Trace = ()

    def __post_init__(self) -> None:
        if type(self.trace) is not Trace:
            object.__setattr__(self, "trace", Trace(self.trace))

    @cached_property
    def wire_head(self) -> bytes:
        """The `response`, `decision`, `status`, `obligation` and `param`
        lines of the wire text, as UTF-8 (`parsing.wire.response_head`,
        which raises `WireFormatError` and keeps nothing for a param that
        is not wire text)."""
        from .parsing.wire import response_head  # wire imports this module

        return response_head(self)

    @cached_property
    def obligation_ids(self) -> tuple[str, ...]:
        """The ids of the obligations, in order: the audit record's."""
        return tuple(ob.id for ob in self.obligations)


def refusal(
    node: str, decision: Decision, status: str, reason: str, trace: Sequence[TraceRecord] = ()
) -> ResponseContext:
    """A response given in place of a decision: `decision` and `status`,
    with the trace so far ended by one record of the step that refused."""
    return ResponseContext(decision, status, trace=(*trace, TraceRecord(node, decision, reason)))


class Memo(dict):
    """A bounded memo of values that are a pure function of their key: a
    hit is a bare `get`, and a miss `put`s its value, which counts the
    miss and first empties a memo that holds `bound` entries (no order to
    keep, no lock when threads share it). At bound 0 nothing is stored, and
    no memo stores an error. `misses` is exact for one thread only: `+=`
    may lose counts under threads, which never changes a stored value.

    A memo built with `doorkeeper=True` admits a key at its second miss:
    the first records `hash(key)` in the doorkeeper, a set of at most
    `bound` hashes emptied when full, and stores nothing. A key whose hash
    the doorkeeper holds is stored at once, so one pushed out when the
    memo was emptied comes back at its next miss. This is TinyLFU's
    doorkeeper (Einziger, Friedman and Manes, ACM TOS 2017) with a set in
    place of a Bloom filter. The memos of caller text use it, so text seen
    once is not kept; a hash collision or a lost thread race only admits a
    key early or late.

    `ReferenceMonitor.memos()` names all but the per-plan response memos.
    README's "Memos" section holds the one table of every memo: its owner,
    key, bound, admission, what it never keeps and its size when full."""

    __slots__ = ("bound", "misses", "seen")

    def __init__(self, bound: int, *, doorkeeper: bool = False):
        self.bound = bound
        self.misses = 0
        # The doorkeeper: the hashes of keys that missed since it was last emptied.
        self.seen: Optional[set[int]] = set() if doorkeeper else None

    def put(self, key: object, value: object) -> object:
        """Store `value` under `key` as a miss (for a doorkeeper memo, a
        key's second or later miss), and return it."""
        self.misses += 1
        seen = self.seen
        if seen is not None:
            sighting = hash(key)
            if sighting not in seen:
                if len(seen) >= self.bound:
                    seen.clear()
                if self.bound:
                    seen.add(sighting)
                return value
        if len(self) >= self.bound:
            self.clear()
        if self.bound:
            self[key] = value
        return value


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


class Signature(NamedTuple):
    """A built-in function's type, after the XACML 3.0 core function list
    (Appendix A.3): per argument its payload type (`_PAYLOAD_TYPES`, so
    country codes and identifiers are strings) and whether it is a bag,
    whose one value the kernel gets; the result type; the kernel."""

    args: tuple[tuple[type, bool], ...]
    result: type
    kernel: Callable[..., object]


SIGNATURES = {
    "function:not": Signature(((bool, False),), bool, operator.not_),
    "function:string-equal": Signature(((str, False),) * 2, bool, operator.eq),
    "function:boolean-equal": Signature(((bool, False),) * 2, bool, operator.eq),
    "function:time-greater-than-or-equal": Signature(((dt.time, False),) * 2, bool, operator.ge),
    "function:time-less-than-or-equal": Signature(((dt.time, False),) * 2, bool, operator.le),
    "function:time-one-and-only": Signature(((dt.time, True),), dt.time, lambda value: value),
    "function:string-one-and-only": Signature(((str, True),), str, lambda value: value),
}

# Condition/match functions every engine instance registers; those without
# a signature (and, or, and location-match over strings) give a boolean.
BUILTIN_FUNCTIONS = ("function:and", "function:or", *SIGNATURES, "function:location-match")


def operand_type(expr: ConditionExpr) -> Optional[tuple[type, bool]]:
    """(payload type, whether a bag) of any value the operand evaluates
    to; None for a function that is not built in."""
    if isinstance(expr, Literal):
        return type(expr.value.value), False
    if isinstance(expr, AttributeSelector):
        return _PAYLOAD_TYPES[expr.data_type], True
    if isinstance(expr, FunctionApplication) and expr.function in BUILTIN_FUNCTIONS:
        signature = SIGNATURES.get(expr.function)
        return (bool if signature is None else signature.result), False
    return None


def fits(signature: Signature, operands: Sequence[Optional[tuple[type, bool]]]) -> bool:
    """False when operands of these types (`operand_type`) cannot fit the
    signature, so that the application always fails once its operands are
    evaluated; else True. An operand whose type is unknown (None: an
    unknown function's application) counts as fitting, since it raises
    before any kernel runs."""
    return len(operands) == len(signature.args) and all(
        operand is None or (operand[1] is bag and issubclass(operand[0], expected))
        for operand, (expected, bag) in zip(operands, signature.args)
    )


def _strings_only(operands: Sequence[Optional[tuple[type, bool]]]) -> bool:
    """Whether operands (`operand_type`) may be location-match's: one or
    more strings, none of them a bag. It has no fixed arity, so no
    Signature. This is stricter than `fits`: an operand that cannot be a
    string is reported even where an earlier argument may match first,
    in which case the application evaluates to true without reaching it."""
    return bool(operands) and all(
        operand is None or (not operand[1] and issubclass(operand[0], str)) for operand in operands
    )


def _applications(expr: ConditionExpr):
    if isinstance(expr, FunctionApplication):
        yield expr
        for arg in expr.args:
            yield from _applications(arg)


def validate_document(doc: PolicyDocument, *, known_scopes=None) -> list[Violation]:
    """Check the document against the structural rules of the dialect.

    Returns every violation found (an empty list iff the document is
    well-formed). Functions and combiners are checked against
    BUILTIN_FUNCTIONS and STANDARD_COMBINERS, and a built-in application
    or match clause against its signature (`fits`; `_strings_only` for
    location-match). known_scopes is the legal-scope registry's id set;
    pass None to skip referential scope checks.
    """
    violations: list[Violation] = []
    seen_ids: set[str] = set()

    for node in doc.walk():
        if node.id in seen_ids:
            violations.append(Violation(f"duplicate-id:{node.id}", node.id))
        seen_ids.add(node.id)
        if not is_one_field(node.id):
            violations.append(Violation("id-not-one-field", node.id))

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

        # Each function application with its operands' types; a clause
        # applies its function to a request value and the literal.
        applications = [
            (clause.match_function, (None, (type(clause.literal.value), False)))
            for _, clauses in node.target.sections()
            for clause in clauses
        ] + [
            (application.function, [operand_type(arg) for arg in application.args])
            for application in _applications(node.condition)
        ]
        for fn, operands in applications:
            if fn not in BUILTIN_FUNCTIONS:
                violations.append(Violation(f"unknown-function:{fn}", node.id))
            elif (fn in SIGNATURES and not fits(SIGNATURES[fn], operands)) or (
                fn == "function:location-match" and not _strings_only(operands)
            ):
                violations.append(Violation(f"ill-typed:{fn}", node.id))

        if node.legislation is not None:
            if not node.legislation:
                violations.append(Violation("empty-legislation", node.id))
            elif known_scopes is not None:
                for scope in sorted(node.legislation):
                    if scope not in known_scopes:
                        violations.append(Violation(f"unknown-scope:{scope}", node.id))

    return violations
