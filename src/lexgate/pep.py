"""Enforcement layer: reference monitor, obligation service, audit log.

The monitor drives the full flow for one request: authenticate, let the
decision point resolve location/context and decide, execute obligations,
append an audit record, respond. Fail-safe rules: an obligation failure
downgrades Permit to Deny, an audit storage failure turns the response
into Indeterminate/processing-error, and no response ever carries a
cleartext view together with anything but Permit.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import hmac
import operator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from .context.bundle import PipBundle
from .context.resources import ResourceRecord
from .engine import PolicyDecisionPoint
from .errors import AuditError, ObligationError, WireFormatError
from .model import (
    Decision,
    Obligation,
    PolicyDocument,
    ResponseContext,
    STATUS_PROCESSING_ERROR,
    STATUS_SYNTAX_ERROR,
    TraceRecord,
    single_line,
)
from .parsing.wire import RequestContext, WireView, parse_request, serialize_response

OB_PSEUDONYMIZE = "pseudonymize"
OB_ANONYMIZE = "anonymize"
OB_LIMIT_DURATION = "limit-duration"

ANONYMIZED_MARKER = "[REDACTED]"

_DIGEST_TEXT = operator.attrgetter("digest_text")


class ViewMode(Enum):
    CLEARTEXT = "cleartext"
    PSEUDONYMOUS = "pseudonymous"
    ANONYMOUS = "anonymous"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DataView:
    mode: ViewMode
    payload: str
    expires_at: Optional[dt.datetime] = None

    def to_wire(self) -> WireView:
        return WireView(mode=self.mode.value, payload=self.payload, expires_at=self.expires_at)


@dataclass(frozen=True)
class AuditRecord:
    at: dt.datetime
    requester: str
    resource: str
    action: str
    decision: Decision
    status: str
    trace_digest: str
    obligations_executed: tuple[str, ...] = ()

    def to_line(self) -> str:
        """One line of UTF-8 text: the caller-supplied fields are made
        single-line, so no request can split its record in two."""
        from .instant import format_instant

        obligations = ",".join(self.obligations_executed) or "-"
        return (
            f"{format_instant(self.at)}|{single_line(self.requester or '-')}|"
            f"{single_line(self.resource or '-')}|{single_line(self.action or '-')}|"
            f"{self.decision.value}|{self.status}|{self.trace_digest}|{obligations}"
        )


def trace_digest(trace: Sequence[TraceRecord]) -> str:
    body = "\n".join(map(_DIGEST_TEXT, trace))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class AuditLog:
    """Append-only, monotonically timestamped decision trail. The records
    go to the file; memory holds only the last timestamp written."""

    def __init__(self, path: Optional[Path] = None):
        self._path = path
        self._last_at: Optional[dt.datetime] = None

    def append(self, record: AuditRecord) -> None:
        if self._last_at is not None and record.at < self._last_at:
            raise AuditError("audit timestamps must not decrease")
        if self._path is not None:
            try:
                with open(self._path, "a", encoding="utf-8") as stream:
                    stream.write(record.to_line() + "\n")
            except OSError as exc:
                raise AuditError(f"audit storage failed: {exc}") from exc
        self._last_at = record.at


def pseudonym(key: str, identifier: str) -> str:
    """Stable keyed one-way mapping of a customer identifier."""
    digest = hmac.new(key.encode("utf-8"), identifier.encode("utf-8"), hashlib.sha256)
    return "nym-" + digest.hexdigest()[:12]


class ObligationService:
    """Executes the built-in obligations against resource content."""

    def __init__(self, pseudonym_key: Optional[str] = None):
        self.pseudonym_key = pseudonym_key

    def execute(
        self,
        obligation: Obligation,
        record: Optional[ResourceRecord],
        view: DataView,
        original: str,
        now: dt.datetime,
    ) -> DataView:
        """Apply one obligation to the current view.

        `original` is the untransformed payload so anonymize always works
        from the source identifiers regardless of prior transformations.
        """
        customers = sorted(record.customers, key=len, reverse=True) if record else []
        if obligation.id == OB_ANONYMIZE:
            payload = original
            for customer in customers:
                payload = payload.replace(customer, ANONYMIZED_MARKER)
            return DataView(ViewMode.ANONYMOUS, payload, view.expires_at)
        if obligation.id == OB_PSEUDONYMIZE:
            if not self.pseudonym_key:
                raise ObligationError("pseudonym mapping key is unavailable")
            if view.mode is ViewMode.ANONYMOUS:
                return view  # anonymous already reveals nothing
            payload = original
            for customer in customers:
                payload = payload.replace(customer, pseudonym(self.pseudonym_key, customer))
            return DataView(ViewMode.PSEUDONYMOUS, payload, view.expires_at)
        if obligation.id == OB_LIMIT_DURATION:
            seconds = obligation.parameter("duration-seconds")
            if seconds is None or not isinstance(seconds.value, int):
                raise ObligationError("limit-duration needs an integer duration-seconds")
            return DataView(view.mode, view.payload, now + dt.timedelta(seconds=seconds.value))
        raise ObligationError(f"unknown obligation {obligation.id!r}")

    def apply_all(
        self,
        obligations: Sequence[Obligation],
        record: Optional[ResourceRecord],
        now: dt.datetime,
    ) -> DataView:
        original = record.content if record else ""
        view = DataView(ViewMode.CLEARTEXT, original)
        for obligation in obligations:
            view = self.execute(obligation, record, view, original, now)
        return view


@dataclass(frozen=True)
class AuthState:
    """Credentials presented with a request (fixture verifier: id+secret)."""

    user: str
    secret: str


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

    # -- helpers -------------------------------------------------------------

    def _error_response(self, reason: str, status: str) -> ResponseContext:
        decision = Decision.DENY if status == STATUS_PROCESSING_ERROR else Decision.INDETERMINATE
        return ResponseContext(
            decision=decision,
            status=status,
            trace=(TraceRecord("<monitor>", decision, reason),),
        )

    def _audit_and_respond(
        self,
        response: ResponseContext,
        view: Optional[DataView],
        requester: str,
        request: Optional[RequestContext],
    ) -> tuple[bytes, AuditRecord]:
        record = AuditRecord(
            at=self.pips.clock.now_utc(),
            requester=requester,
            resource=(request.resource_id() or "") if request else "",
            action=(request.action_id() or "") if request else "",
            decision=response.decision,
            status=response.status,
            trace_digest=trace_digest(response.trace),
            obligations_executed=tuple(ob.id for ob in response.obligations),
        )
        try:
            self.audit.append(record)
        except AuditError as exc:
            response = ResponseContext(
                decision=Decision.INDETERMINATE,
                status=STATUS_PROCESSING_ERROR,
                trace=response.trace
                + (TraceRecord("<audit>", Decision.INDETERMINATE, str(exc)),),
            )
            view = None
        self.pips.log.record("respond")
        wire_view = view.to_wire() if view is not None else None
        return serialize_response(response, wire_view), record

    # -- the event flow --------------------------------------------------------

    def handle_request(self, raw: bytes | str, session: AuthState) -> tuple[bytes, AuditRecord]:
        """Authenticate, decide, fulfil obligations, audit, respond."""
        log = self.pips.log
        log.start_request()
        log.record("authenticate")
        authenticated = self.pips.identities.authenticate(session.user, session.secret)

        if not authenticated:
            response = self._error_response("authentication-failed", STATUS_PROCESSING_ERROR)
            return self._audit_and_respond(response, None, session.user, None)

        try:
            request = parse_request(raw)
        except WireFormatError as exc:
            response = self._error_response(f"bad-request:{exc}", STATUS_SYNTAX_ERROR)
            return self._audit_and_respond(response, None, session.user, None)

        if request.subject_id() != session.user:
            response = self._error_response("subject-session-mismatch", STATUS_PROCESSING_ERROR)
            return self._audit_and_respond(response, None, session.user, request)

        # The decision point resolves the location snapshot itself (single
        # supplier query) and never raises past its boundary.
        response = self.engine.evaluate(self.forest, request, self.pips)

        log.record("obligations")
        view: Optional[DataView] = None
        now = self.pips.clock.now_utc()
        record = self.pips.resources.get(request.resource_id() or "")
        try:
            if response.decision is Decision.PERMIT:
                view = self.obligations.apply_all(response.obligations, record, now)
            elif response.decision is Decision.DENY and response.obligations:
                self.obligations.apply_all(response.obligations, record, now)
        except ObligationError as exc:
            response = ResponseContext(
                decision=Decision.DENY,
                status=STATUS_PROCESSING_ERROR,
                trace=response.trace
                + (TraceRecord("<obligations>", Decision.DENY, f"obligation-failure:{exc}"),),
            )
            view = None

        return self._audit_and_respond(response, view, session.user, request)
