"""Enforcement layer: reference monitor, obligation service, audit log.

The monitor drives the full flow for one request: authenticate, let the
decision point resolve location/context and decide, execute obligations,
append an audit record, respond. Fail-safe rules: an obligation failure
downgrades Permit to Deny, an audit storage failure turns the response
into Indeterminate/processing-error, and no response ever carries a
cleartext view together with anything but Permit.

`ReferenceMonitor._decide` gives the response; `handle_request` then
audits it and answers in one place. Every request gets one of these
responses. All but the decision come from `model.refusal`, which ends
the trace so far with one record of the refusing step:

| response           | trace ends with  | decision      | status           | audit line |
|--------------------|------------------|---------------|------------------|------------|
| wrong credentials  | `<monitor>`      | Deny          | processing-error | yes        |
| not a request      | `<monitor>`      | Indeterminate | syntax-error     | yes        |
| subject mismatch   | `<monitor>`      | Deny          | processing-error | yes        |
| context failure    | `<context>`      | Indeterminate | processing-error | yes        |
| decision           | forest's records | the engine's  | the engine's     | yes        |
| obligation failure | `<obligations>`  | Deny          | processing-error | yes        |
| audit failure      | `<audit>`        | Indeterminate | processing-error | no         |

The refusing record's reason is `authentication-failed`,
`bad-request:<error>`, `subject-session-mismatch`, the context error,
`obligation-failure:<error>` or the audit error. Every response's trace
is a `model.Trace`, which carries its audit digest and wire text. The
two refusals whose text never changes, wrong credentials and subject
mismatch, are built once, at import, so answering them hashes and
renders nothing. A bad-request refusal is built at most twice per
distinct body: the body memo (`model.Memo`) maps the bodies of
authenticated callers it has seen twice to the request they parse to,
with its `engine.RequestFacts` (what the context build reads of the
request alone), or to their refusal. A body the memo holds is decided
without a parse, a catalog lookup or a token parse, and, under a scope
set it met before, without choosing its plan again (the facts' choices);
its location, local time, relationship, task assessment and legal scopes
are still taken per request, at one instant, which a `limit-duration`
expiry counts from too. Only a Permit decision carries a view. The
`pseudonymize` and `anonymize` obligations are fulfilled once per
resource: the payload memo maps (obligation id, pseudonym key, content,
customers) to the transformed payload, which replaces every customer id
in one pass, so no id is matched inside text already written; only
`limit-duration`'s expiry and the view are made per request. The audit line
and the returned `AuditRecord` carry the response's decision and status,
except after an audit failure: the record returned then is the one whose
append failed.

The audit trail is held open: `AuditLog` opens its file, unbuffered, at
the first append, writes each record with one `write`, so that it
reaches the operating system before the response is returned, and keeps
the file open until `close()` (or the end of a `with` block). To rotate
the file, call `close()` and move it; the next append opens the path
again. A file moved or deleted without `close()` is noticed at the next
append, which then opens the path again too. The monitor stamps each
record under the log's lock, so the records of threads that share a log
are appended in the order of their timestamps.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import hmac
import io
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .context.bundle import PipBundle
from .context.resources import ResourceRecord
from .engine import PolicyDecisionPoint
from .errors import AuditError, ObligationError, WireFormatError
from .instant import format_instant
from .model import (
    DataType,
    Decision,
    Memo,
    Obligation,
    PolicyDocument,
    ResponseContext,
    SINGLE_LINE_ESCAPED,
    STATUS_PROCESSING_ERROR,
    STATUS_SYNTAX_ERROR,
    refusal,
    single_line,
)
from .parsing import wire
from .parsing.wire import RequestContext, ViewMode, WireView, parse_request, serialize_response

OB_PSEUDONYMIZE = "pseudonymize"
OB_ANONYMIZE = "anonymize"
OB_LIMIT_DURATION = "limit-duration"

ANONYMIZED_MARKER = "[REDACTED]"


class AuditRecord(NamedTuple):
    at: dt.datetime
    requester: str
    resource: str
    action: str
    decision: Decision
    status: str
    trace_digest: str
    obligations_executed: tuple[str, ...] = ()

    def to_line(self) -> str:
        """One line of UTF-8 text with eight `|`-separated fields: the
        caller-supplied fields are made single-line and `|`-free
        (`_audit_field`), so no request can split its record in two or
        shift its fields. One scan finds the fields that are kept as
        they are, the usual case."""
        requester, resource, action = fields = self.requester or "-", self.resource or "-", self.action or "-"
        if _AUDIT_ESCAPED.search("".join(fields)):
            requester, resource, action = map(_audit_field, fields)
        return (
            f"{format_instant(self.at)}|{requester}|{resource}|{action}|"
            f"{_DECISION_TEXT[self.decision]}|{self.status}|{self.trace_digest}|"
            f"{','.join(self.obligations_executed) or '-'}"
        )


# What `_audit_field` changes in a caller-supplied field: what
# `single_line` escapes, `%` and `|`.
_AUDIT_ESCAPED = re.compile(f"[%|{SINGLE_LINE_ESCAPED}]")
# Decision -> its text; reading `Decision.value` is an Enum property call.
_DECISION_TEXT = {decision: decision.value for decision in Decision}


def _audit_field(text: str) -> str:
    """A caller-supplied audit field: `-` when empty, made single-line
    (`single_line`), with `%` written as `%25` and `|` as `%7C`. Text
    without either character is kept as it is."""
    text = single_line(text or "-")
    if "|" in text or "%" in text:
        text = text.replace("%", "%25").replace("|", "%7C")
    return text


class AuditLog:
    """Append-only, monotonically timestamped decision trail. The records
    go to the file; memory holds only the last timestamp written.

    One unbuffered append-mode file is opened at the first append, and
    each record is written as a UTF-8 line with one `write` (repeated
    after a short write until the whole line is written), so it reaches
    the operating system before `append` returns. After an `OSError` from
    open or write the file is closed and `AuditError` is raised; the next
    append opens the file again. Before each write the path is checked
    (one `stat`): when the file was moved or deleted since it was opened,
    the file is closed and the path opened anew, so the record goes where
    a reopen per record would put it. `lock` orders appends from threads;
    it is reentrant, so a caller that holds it while stamping its record
    appends records in the order of their timestamps. `close()` may be
    called any number of times; an append after it reopens the file."""

    def __init__(self, path: Optional[Path] = None):
        self._path = path
        self._where = None if path is None else os.fspath(path)
        self._stream: Optional[io.FileIO] = None
        self._file_id: Optional[tuple[int, int]] = None
        self._last_at: Optional[dt.datetime] = None
        self.lock = threading.RLock()

    def append(self, record: AuditRecord) -> None:
        with self.lock:
            if self._last_at is not None and record.at < self._last_at:
                raise AuditError("audit timestamps must not decrease")
            if self._path is not None:
                try:
                    if self._stream is not None and self._moved():
                        self.close()
                    if self._stream is None:
                        self._stream = open(self._path, "ab", buffering=0)
                        opened = os.fstat(self._stream.fileno())
                        self._file_id = opened.st_ino, opened.st_dev
                    line = f"{record.to_line()}\n".encode("utf-8")
                    written = self._stream.write(line)
                    while written < len(line):
                        line = line[written:]
                        written = self._stream.write(line)
                except OSError as exc:
                    with contextlib.suppress(OSError):
                        self.close()
                    raise AuditError(f"audit storage failed: {exc}") from exc
            self._last_at = record.at

    def _moved(self) -> bool:
        """Whether the open file is no longer the one at the path: it was
        moved or deleted under the log (a rotation without `close()`)."""
        try:
            now = os.stat(self._where)
        except FileNotFoundError:
            return True
        return (now.st_ino, now.st_dev) != self._file_id

    def close(self) -> None:
        stream, self._stream = self._stream, None
        if stream is not None:
            stream.close()

    def __enter__(self) -> "AuditLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def pseudonym(key: str, identifier: str) -> str:
    """Stable keyed one-way mapping of a customer identifier."""
    digest = hmac.new(key.encode("utf-8"), identifier.encode("utf-8"), hashlib.sha256)
    return "nym-" + digest.hexdigest()[:12]


def _replaced(text: str, customers: frozenset[str], key: Optional[str]) -> str:
    """`text` with each customer id replaced by its pseudonym under `key`,
    or by `ANONYMIZED_MARKER` when `key` is None, in one left-to-right
    pass that takes the longest id starting at each position: text already
    written is never matched again. An empty id is skipped."""
    if len(customers) > 1:
        ids = sorted(filter(None, customers), key=len, reverse=True)
        replacement = {customer: ANONYMIZED_MARKER if key is None else pseudonym(key, customer) for customer in ids}
        return re.sub("|".join(map(re.escape, ids)), lambda match: replacement[match[0]], text)
    for customer in customers:
        if customer:
            text = text.replace(customer, ANONYMIZED_MARKER if key is None else pseudonym(key, customer))
    return text


class ObligationService:
    """Executes the built-in obligations against resource content.

    `payload` memoizes a transformed payload by what the transform reads:
    (obligation id, pseudonym key or None for anonymize, original content,
    customers). A key reassigned to `pseudonym_key` is part of the next
    lookup, so it never gets the old key's pseudonyms."""

    def __init__(self, pseudonym_key: Optional[str] = None):
        self.pseudonym_key = pseudonym_key
        self.payload = Memo(4_096)

    def execute(
        self,
        obligation: Obligation,
        record: Optional[ResourceRecord],
        view: WireView,
        original: str,
        now: dt.datetime,
    ) -> WireView:
        """Apply one obligation to the current view.

        `original` is the untransformed payload so anonymize always works
        from the source identifiers regardless of prior transformations.
        """
        if obligation.id == OB_LIMIT_DURATION:
            seconds = obligation.parameter("duration-seconds")
            if seconds is None or seconds.data_type is not DataType.INTEGER:
                raise ObligationError("limit-duration needs an integer duration-seconds")
            try:
                expires_at = now + dt.timedelta(seconds=seconds.value)
            except OverflowError:
                raise ObligationError("limit-duration expiry is out of range") from None
            return WireView(view.mode, view.payload, expires_at)
        if obligation.id == OB_ANONYMIZE:
            key, mode = None, ViewMode.ANONYMOUS
        elif obligation.id == OB_PSEUDONYMIZE:
            key, mode = self.pseudonym_key, ViewMode.PSEUDONYMOUS
            if not key:
                raise ObligationError("pseudonym mapping key is unavailable")
            if view.mode is ViewMode.ANONYMOUS:
                return view  # anonymous already reveals nothing
        else:
            raise ObligationError(f"unknown obligation {obligation.id!r}")
        # The payload is a function of what the transform reads, all in the key.
        customers = record.customers if record else frozenset()
        held = obligation.id, key, original, customers
        payload = self.payload.get(held)
        if payload is None:
            payload = self.payload.put(held, _replaced(original, customers, key))
        return WireView(mode, payload, view.expires_at)

    def apply_all(
        self,
        obligations: Sequence[Obligation],
        record: Optional[ResourceRecord],
        now: dt.datetime,
    ) -> WireView:
        original = record.content if record else ""
        view = WireView(ViewMode.CLEARTEXT, original)
        for obligation in obligations:
            view = self.execute(obligation, record, view, original, now)
        return view


@dataclass(frozen=True)
class AuthState:
    """Credentials presented with a request (fixture verifier: id+secret)."""

    user: str
    secret: str


# The two refusals whose text never changes, built once with their trace.
_AUTHENTICATION_FAILED, _SUBJECT_SESSION_MISMATCH = (
    refusal("<monitor>", Decision.DENY, STATUS_PROCESSING_ERROR, reason)
    for reason in ("authentication-failed", "subject-session-mismatch")
)


# The longest body the body memo keeps, in bytes or characters.
_LONGEST_BODY_HELD = 1_024


class ReferenceMonitor:
    """Internal enforcement point in front of the decision engine."""

    def __init__(
        self,
        engine: PolicyDecisionPoint,
        documents: Sequence[PolicyDocument],
        pips: PipBundle,
        audit: Optional[AuditLog] = None,
        pseudonym_key: Optional[str] = None,
    ):
        self.engine = engine
        self.forest = engine.compile(documents)
        self.pips = pips
        self.audit = audit or AuditLog()
        self.obligations = ObligationService(pseudonym_key)
        self._bodies = Memo(256, doorkeeper=True)

    def memos(self) -> dict[str, Memo]:
        """The memos a request passes through, by name (`model.Memo`); the
        line memo is shared by every monitor in the process."""
        return {
            "body": self._bodies,
            "line": wire._LINES,
            "plan": self.forest._plans,
            "screen": self.forest._screens,
            "location": self.pips.location._reports,
            "cell": self.pips.zones._grid.sub_cells,
            "payload": self.obligations.payload,
        }

    # -- the event flow --------------------------------------------------------

    def handle_request(self, raw: bytes | str, session: AuthState) -> tuple[bytes, AuditRecord]:
        """Decide, audit, respond: the one exit of every request (see the
        module docstring for the responses it can give)."""
        request, response, view = self._decide(raw, session)
        resource = (request.resource_id() or "") if request else ""
        action = (request.action_id() or "") if request else ""
        # Stamped under the log's lock, so threads append in time order.
        with self.audit.lock:
            record = AuditRecord(
                self.pips.clock.now_utc(), session.user, resource, action, response.decision,
                response.status, response.trace.digest, response.obligation_ids,
            )
            try:
                self.audit.append(record)
            except AuditError as exc:
                response = refusal(
                    "<audit>", Decision.INDETERMINATE, STATUS_PROCESSING_ERROR, str(exc), response.trace
                )
                view = None
        return serialize_response(response, view), record

    def _decide(
        self, raw: bytes | str, session: AuthState
    ) -> tuple[Optional[RequestContext], ResponseContext, Optional[WireView]]:
        """Authenticate, parse, check the subject, evaluate and fulfil the
        obligations: the request (None when it was not parsed), the
        response and the view it releases (None unless Permit)."""
        if not self.pips.identities.authenticate(session.user, session.secret):
            return None, _AUTHENTICATION_FAILED, None

        # The request's facts or its refusal are a frozen function of the
        # body: a body the memo has admitted, at its second sighting, is
        # decided without a parse or a facts build, and a bad one refused
        # without a parse, a hash or a render.
        kept = type(raw) in (bytes, str) and len(raw) <= _LONGEST_BODY_HELD
        read = self._bodies.get(raw) if kept else None
        if read is None:
            try:
                read = self.engine.facts(parse_request(raw), self.pips), None
            except WireFormatError as exc:
                read = None, refusal("<monitor>", Decision.INDETERMINATE, STATUS_SYNTAX_ERROR, f"bad-request:{exc}")
            if kept:
                self._bodies.put(raw, read)
        facts, refused = read
        if refused is not None:
            return None, refused, None

        request = facts.request
        if facts.subject_id != session.user:
            return request, _SUBJECT_SESSION_MISMATCH, None

        # The decision point resolves the location snapshot itself (single
        # supplier query) and never raises past its boundary. The context
        # and the obligations take one instant, the decision's.
        now = self.pips.clock.now_utc()
        response = self.engine.evaluate(self.forest, facts, self.pips, now=now)

        record = facts.record
        try:
            if response.decision is Decision.PERMIT:
                return request, response, self.obligations.apply_all(response.obligations, record, now)
            if response.decision is Decision.DENY and response.obligations:
                self.obligations.apply_all(response.obligations, record, now)
        except ObligationError as exc:
            return request, refusal(
                "<obligations>", Decision.DENY, STATUS_PROCESSING_ERROR,
                f"obligation-failure:{exc}", response.trace,
            ), None
        return request, response, None
