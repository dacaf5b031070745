import dataclasses
import datetime as dt
import errno
import gc
import hashlib
import itertools
import os
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EVENT_FLOW, make_bundle, watch, wire_request
from lexgate.context.bundle import load_bundle
from lexgate.context.clock import FixedClock, SystemClock
from lexgate import cli, pep
from lexgate.engine import PolicyDecisionPoint
from lexgate.errors import AuditError, ObligationError, WireFormatError
from lexgate.instant import parse_instant
from lexgate.model import (
    AttributeSelector,
    AttributeValue,
    Category,
    DataType,
    Decision,
    Effect,
    FunctionApplication,
    Literal,
    Memo,
    Obligation,
    STATUS_PROCESSING_ERROR,
    STATUS_SYNTAX_ERROR,
    Target,
    refusal,
    trace_digest,
)
from lexgate.parsing import wire
from lexgate.parsing.wire import parse_response, serialize_response
from lexgate.pep import (
    AuditLog,
    AuditRecord,
    AuthState,
    ObligationService,
    ReferenceMonitor,
    ViewMode,
    pseudonym,
)
from policybuild import document, policy, rule, string_clause
from wire_grammar import wire_requests

GOOD_SESSION = AuthState("c.miller", "miller-pass-1")
KEY = "unit-test-key"


class _CountedMemo(Memo):
    """A memo built like `memo`, with its bound and a doorkeeper if it
    has one, that also counts the lookups that found a value."""

    __slots__ = ("hits",)

    def __init__(self, memo):
        super().__init__(memo.bound, doorkeeper=memo.seen is not None)
        self.hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        self.hits += value is not None
        return value


def make_monitor(policy_pack, at, key=KEY, audit=None):
    pips = make_bundle(at)
    monitor = ReferenceMonitor(
        PolicyDecisionPoint(), policy_pack, pips, audit=audit, pseudonym_key=key
    )
    return monitor, pips


# -- event flow -----------------------------------------------------------------


def test_permitted_request_follows_the_event_flow(policy_pack, monkeypatch):
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z")
    flow = watch(monkeypatch, monitor)
    evaluations = watch(monkeypatch, monitor, ("engine.evaluate",))
    raw = wire_request(
        resource="cust/4711/portfolio",
        point="47.37 8.54",
        tokens=("cust:4711",),
        token_at="2026-03-10T13:40:00Z",
    )
    response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.PERMIT
    assert flow == list(EVENT_FLOW)
    assert len(evaluations) == 1
    assert view is not None and view.mode is ViewMode.CLEARTEXT
    assert record.decision is Decision.PERMIT


def test_unauthenticated_request_never_reaches_the_pdp(policy_pack, monkeypatch):
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z")
    reached = watch(monkeypatch, monitor, ("engine.evaluate", "location.locate"))
    raw = wire_request(resource="cust/4711/portfolio", point="47.37 8.54")
    response_bytes, record = monitor.handle_request(raw, AuthState("c.miller", "wrong"))
    response, view = parse_response(response_bytes)
    assert reached == []
    assert response.decision is Decision.DENY
    assert response.status == STATUS_PROCESSING_ERROR
    assert view is None
    assert record.decision is Decision.DENY


def test_the_bundle_is_frozen():
    pips = make_bundle("2026-03-10T13:40:00Z")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pips.clock = None


def test_session_subject_mismatch_is_rejected_before_the_pdp(policy_pack, monkeypatch):
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z")
    evaluations = watch(monkeypatch, monitor, ("engine.evaluate",))
    raw = wire_request(subject="a.chen", resource="cust/4711/portfolio", point="47.37 8.54")
    monitor.handle_request(raw, GOOD_SESSION)
    assert evaluations == []


def test_malformed_request_is_a_syntax_error(policy_pack):
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z")
    response_bytes, _record = monitor.handle_request(b"not a request\n", GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == "syntax-error"
    assert view is None


@pytest.mark.parametrize("token_at", ["yesterday", "0001-01-01T00:30:00+01:00"])
def test_an_unreadable_token_is_skipped(policy_pack, token_at):
    # A token is only evidence: one whose instant cannot be read counts as
    # no token at all, so the request is decided as if it carried none.
    monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z")
    request = dict(resource="cust/4711/portfolio", point="47.37 8.54")
    with_token, _ = monitor.handle_request(
        wire_request(tokens=("cust:4711",), token_at=token_at, **request), GOOD_SESSION
    )
    without, _ = monitor.handle_request(wire_request(**request), GOOD_SESSION)
    assert with_token == without
    assert parse_response(without)[0].status == "ok"


# -- obligations and data views ----------------------------------------------------


def test_window_permit_carries_pseudonymized_view(policy_pack):
    monitor, _ = make_monitor(policy_pack, "2026-03-10T12:45:00Z")
    raw = wire_request(resource="cust/4711/portfolio", point="47.36 8.53")
    response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.PERMIT
    assert [ob.id for ob in response.obligations] == ["pseudonymize"]
    assert view.mode is ViewMode.PSEUDONYMOUS
    assert "cust:4711" not in view.payload
    assert pseudonym(KEY, "cust:4711") in view.payload
    assert record.obligations_executed == ("pseudonymize",)


def test_a_diary_window_reaching_back_to_year_two_leaves_the_permit(policy_pack, fixtures_root, tmp_path):
    # The entry's window is longer than the time since year 1, so the
    # lower bound of the diary's bisection cannot be computed.
    diary = tmp_path / "diary.txt"
    diary.write_bytes(
        (fixtures_root / "diary.txt").read_bytes()
        + b"entry owner=c.miller task=long start=0002-01-01T00:30:00Z "
        b"end=9999-12-31T20:00:00Z country=LU resources=other\n"
    )
    pips = load_bundle(
        fixtures_root, clock=FixedClock(parse_instant("2026-03-10T12:45:00Z")),
        stores={"diary": str(diary)},
    )
    monitor = ReferenceMonitor(PolicyDecisionPoint(), policy_pack, pips, pseudonym_key=KEY)
    raw = (fixtures_root / "requests" / "portfolio-ch-window.req").read_bytes()
    response, view = parse_response(monitor.handle_request(raw, GOOD_SESSION)[0])
    assert (response.decision, response.status) == (Decision.PERMIT, "ok")
    assert view.mode is ViewMode.PSEUDONYMOUS


def test_missing_pseudonym_key_downgrades_permit_to_deny(policy_pack):
    monitor, _ = make_monitor(policy_pack, "2026-03-10T12:45:00Z", key=None)
    raw = wire_request(resource="cust/4711/portfolio", point="47.36 8.53")
    response_bytes, _record = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.DENY
    assert response.status == STATUS_PROCESSING_ERROR
    assert view is None


@pytest.mark.parametrize("key", [KEY, None], ids=["permit", "obligation-failure"])
def test_the_audit_digest_is_that_of_the_trace_the_response_carries(policy_pack, key):
    # Without a key the monitor adds an <obligations> record to the trace
    # the engine gave, so the engine's digest no longer holds.
    monitor, _ = make_monitor(policy_pack, "2026-03-10T12:45:00Z", key=key)
    raw = wire_request(resource="cust/4711/portfolio", point="47.36 8.53")
    for _ in range(2):  # the second request finds its digest memoized
        response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
        trace = parse_response(response_bytes)[0].trace
        body = "\n".join(item.digest_text for item in trace).encode("utf-8")
        assert record.trace_digest == hashlib.sha256(body).hexdigest()
    assert (trace[-1].node_id == "<obligations>") is (key is None)


def test_no_response_ever_pairs_cleartext_with_non_permit(policy_pack):
    # Sweep the whole border-trip corpus through the monitor.
    steps = [
        ("2026-03-10T07:45:00Z", "50.32 8.55", ()),
        ("2026-03-10T09:10:00Z", "50.40 8.70", ("cust:4711",)),
        ("2026-03-10T12:45:00Z", "47.36 8.53", ()),
        ("2026-03-10T13:40:00Z", "47.37 8.54", ("cust:4711",)),
    ]
    for at, point, tokens in steps:
        monitor, _ = make_monitor(policy_pack, at)
        raw = wire_request(
            resource="cust/4711/portfolio", point=point, tokens=tokens, token_at=at
        )
        response_bytes, _ = monitor.handle_request(raw, GOOD_SESSION)
        response, view = parse_response(response_bytes)
        if response.decision is not Decision.PERMIT:
            assert view is None


def test_restricted_zone_insulates_confidential_resources(policy_pack):
    monitor, _ = make_monitor(policy_pack, "2026-03-10T09:30:00Z")
    raw = wire_request(resource="cust/4711/portfolio", point="50.32 8.55")  # customs hall
    response_bytes, _ = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.DENY
    assert view is None


# -- obligation service ------------------------------------------------------------


@pytest.fixture
def service():
    return ObligationService(pseudonym_key=KEY)


@pytest.fixture
def portfolio(fixtures_root):
    from lexgate.context.loader import load_resources

    return load_resources(fixtures_root / "resources.txt").get("cust/4711/portfolio")


NOW = dt.datetime(2026, 3, 10, 13, 0, tzinfo=dt.timezone.utc)


def test_anonymize_removes_every_customer_identifier(service, portfolio):
    view = service.apply_all([Obligation("anonymize", Effect.PERMIT)], portfolio, NOW)
    assert view.mode is ViewMode.ANONYMOUS
    assert "cust:4711" not in view.payload
    assert "[REDACTED]" in view.payload


def test_pseudonymize_is_deterministic_per_key(service, portfolio):
    first = service.apply_all([Obligation("pseudonymize", Effect.PERMIT)], portfolio, NOW)
    second = service.apply_all([Obligation("pseudonymize", Effect.PERMIT)], portfolio, NOW)
    assert first.payload == second.payload
    other = ObligationService(pseudonym_key="other-key").apply_all(
        [Obligation("pseudonymize", Effect.PERMIT)], portfolio, NOW
    )
    assert other.payload != first.payload


def test_no_obligations_keeps_cleartext(service, portfolio):
    view = service.apply_all([], portfolio, NOW)
    assert view.mode is ViewMode.CLEARTEXT
    assert view.payload == portfolio.content


def test_limit_duration_stamps_an_expiry(service, portfolio):
    obligation = Obligation(
        "limit-duration",
        Effect.PERMIT,
        (("duration-seconds", AttributeValue(DataType.INTEGER, 600)),),
    )
    view = service.apply_all([obligation], portfolio, NOW)
    assert view.mode is ViewMode.CLEARTEXT
    assert view.expires_at == NOW + dt.timedelta(seconds=600)


def test_unknown_obligation_fails(service, portfolio):
    with pytest.raises(ObligationError):
        service.apply_all([Obligation("levitate", Effect.PERMIT)], portfolio, NOW)


def test_anonymize_dominates_pseudonymize(service, portfolio):
    view = service.apply_all(
        [Obligation("pseudonymize", Effect.PERMIT), Obligation("anonymize", Effect.PERMIT)],
        portfolio,
        NOW,
    )
    assert view.mode is ViewMode.ANONYMOUS
    assert "cust:4711" not in view.payload
    assert pseudonym(KEY, "cust:4711") not in view.payload


# -- audit -------------------------------------------------------------------------


def _record(at_minute: int, decision=Decision.PERMIT) -> AuditRecord:
    return AuditRecord(
        at=dt.datetime(2026, 3, 10, 12, at_minute, tzinfo=dt.timezone.utc),
        requester="c.miller",
        resource="r",
        action="read",
        decision=decision,
        status="ok",
        trace_digest="0" * 64,
    )


def test_audit_appends_in_order_with_monotone_timestamps(tmp_path):
    with AuditLog(tmp_path / "audit.log") as log:
        log.append(_record(1))
        log.append(_record(2, Decision.DENY))
    lines = (tmp_path / "audit.log").read_text().splitlines()
    assert [line.split("|")[4] for line in lines] == ["Permit", "Deny"]


def test_audit_rejects_backwards_timestamps(tmp_path):
    with AuditLog(tmp_path / "audit.log") as log:
        log.append(_record(5))
        with pytest.raises(AuditError):
            log.append(_record(4))


def test_close_is_idempotent_and_an_append_after_it_reopens_the_file(tmp_path):
    audit_path = tmp_path / "audit.log"
    log = AuditLog(audit_path)
    log.close()  # nothing opened yet
    log.append(_record(1))
    log.close()
    log.close()
    assert audit_path.read_text() == _record(1).to_line() + "\n"
    # A rotation: the closed file is moved away, the next append makes a new one.
    audit_path.rename(tmp_path / "audit.log.1")
    with log:
        log.append(_record(2))
    assert audit_path.read_text() == _record(2).to_line() + "\n"
    assert (tmp_path / "audit.log.1").read_text() == _record(1).to_line() + "\n"


def test_a_file_moved_or_deleted_under_the_open_log_is_noticed(tmp_path):
    audit_path = tmp_path / "audit.log"
    with AuditLog(audit_path) as log:
        log.append(_record(1))
        # Rotated without close(), the way logrotate's `create` does it.
        audit_path.rename(tmp_path / "audit.log.1")
        audit_path.touch()
        log.append(_record(2))
        assert audit_path.read_text() == _record(2).to_line() + "\n"
        audit_path.unlink()
        log.append(_record(3))
    assert audit_path.read_text() == _record(3).to_line() + "\n"
    assert (tmp_path / "audit.log.1").read_text() == _record(1).to_line() + "\n"


_PERMITTED_REQUEST = wire_request(
    resource="cust/4711/portfolio",
    point="47.37 8.54",
    tokens=("cust:4711",),
    token_at="2026-03-10T13:40:00Z",
)


def _assert_audit_failure(response_bytes):
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == STATUS_PROCESSING_ERROR
    assert response.trace[-1].node_id == "<audit>"
    assert view is None  # fail-safe: no data with an error response


def test_unwritable_audit_storage_yields_processing_error(policy_pack, tmp_path):
    # A vanished parent directory makes every append fail, root or not.
    audit_path = tmp_path / "gone" / "audit.log"
    with AuditLog(audit_path) as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        failed, _ = monitor.handle_request(_PERMITTED_REQUEST, GOOD_SESSION)
        _assert_audit_failure(failed)

        # The failed open left no stream behind, so once the directory is
        # back the next append opens the path and audits normally.
        audit_path.parent.mkdir()
        response_bytes, record = monitor.handle_request(_PERMITTED_REQUEST, GOOD_SESSION)
    assert parse_response(response_bytes)[0].decision is Decision.PERMIT
    assert audit_path.read_text() == record.to_line() + "\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_failed_flush_yields_processing_error(policy_pack):
    # /dev/full accepts the open; the one unbuffered write that hands the
    # record to the operating system fails, each time the file is reopened.
    with AuditLog(Path("/dev/full")) as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        for _ in range(2):
            response_bytes, _ = monitor.handle_request(_PERMITTED_REQUEST, GOOD_SESSION)
            _assert_audit_failure(response_bytes)


class _InjectedFile:
    """An opened audit file whose writes take at most `most` bytes each,
    or raise `OSError` when `most` is None."""

    def __init__(self, file, most):
        self.file, self.most, self.writes = file, most, 0

    def write(self, data):
        self.writes += 1
        if self.most is None:
            raise OSError(errno.EIO, "injected write failure")
        return self.file.write(data[: self.most])

    def fileno(self):
        return self.file.fileno()

    def close(self):
        self.file.close()


def _inject(monkeypatch, *mosts):
    """Make the audit log's next opens return `_InjectedFile`s with these
    `most`s, in turn; the opened files are returned."""
    opened, mosts = [], iter(mosts)

    def injected_open(*args, **kwargs):
        opened.append(_InjectedFile(open(*args, **kwargs), next(mosts)))
        return opened[-1]

    monkeypatch.setattr(pep, "open", injected_open, raising=False)
    return opened


def test_a_short_write_still_lands_the_whole_line(tmp_path, monkeypatch):
    audit_path = tmp_path / "audit.log"
    opened = _inject(monkeypatch, 3)
    with AuditLog(audit_path) as log:
        log.append(_record(1))
        log.append(_record(2))
    lines = [_record(1).to_line() + "\n", _record(2).to_line() + "\n"]
    assert audit_path.read_text() == "".join(lines)
    assert len(opened) == 1 and opened[0].file.closed
    assert opened[0].writes == sum(-(-len(line) // 3) for line in lines)


def test_a_failed_write_yields_processing_error_and_the_next_append_reopens(policy_pack, tmp_path, monkeypatch):
    audit_path = tmp_path / "audit.log"
    opened = _inject(monkeypatch, None, 1 << 20)
    with AuditLog(audit_path) as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        failed, _ = monitor.handle_request(_PERMITTED_REQUEST, GOOD_SESSION)
        _assert_audit_failure(failed)
        assert len(opened) == 1 and opened[0].file.closed
        response_bytes, record = monitor.handle_request(_PERMITTED_REQUEST, GOOD_SESSION)
        assert parse_response(response_bytes)[0].decision is Decision.PERMIT
        assert len(opened) == 2 and not opened[1].file.closed
    assert audit_path.read_text() == record.to_line() + "\n"


def test_threads_sharing_a_monitor_append_in_timestamp_order(policy_pack, tmp_path):
    # Each record is stamped under the log's lock: stamped before it, a
    # thread switch could let a later stamp be appended first, and the
    # earlier one would then be refused as a step back of the clock.
    audit_path = tmp_path / "audit.log"
    pips = dataclasses.replace(make_bundle("2026-03-10T13:40:00Z"), clock=SystemClock())
    refused = []

    def send(monitor):
        for _ in range(2_000):
            response_bytes, _record = monitor.handle_request(wire_request(), GOOD_SESSION)
            refused.append(b"<audit>" in response_bytes)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many thread switches, each a chance to interleave
    try:
        with AuditLog(audit_path) as audit:
            monitor = ReferenceMonitor(PolicyDecisionPoint(), policy_pack, pips, audit=audit, pseudonym_key=KEY)
            threads = [threading.Thread(target=send, args=(monitor,)) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        sys.setswitchinterval(switch)
    assert len(refused) == 4_000 and not any(refused)
    stamps = [parse_instant(line.split("|")[0]) for line in audit_path.read_text().splitlines()]
    assert len(stamps) == 4_000 and stamps == sorted(stamps)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_the_held_stream_leaks_no_descriptor(policy_pack, tmp_path):
    audit_path = tmp_path / "audit.log"

    def descriptors_on_the_audit_file():
        links = []
        for fd in Path("/proc/self/fd").iterdir():
            try:
                links.append(os.readlink(fd))
            except OSError:  # the directory's own descriptor, closed by now
                pass
        return links.count(str(audit_path))

    with AuditLog(audit_path) as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        for _ in range(1_000):
            monitor.handle_request(_PERMITTED_REQUEST, GOOD_SESSION)
            assert descriptors_on_the_audit_file() <= 1
    assert descriptors_on_the_audit_file() == 0
    assert len(audit_path.read_text().splitlines()) == 1_000


def test_a_clock_step_back_is_refused_until_the_clock_catches_up(policy_pack, tmp_path):
    # The audit trail must stay monotone, so a request stamped before the
    # last audited instant gets no decision and leaves no audit line.
    audit_path = tmp_path / "audit.log"
    with AuditLog(audit_path) as audit:
        monitor, pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        first, _ = monitor.handle_request(_PERMITTED_REQUEST, GOOD_SESSION)
        assert parse_response(first)[0].decision is Decision.PERMIT

        pips.clock.set(parse_instant("2026-03-10T13:39:59Z"))
        refused, _ = monitor.handle_request(_PERMITTED_REQUEST, GOOD_SESSION)
        _assert_audit_failure(refused)
        assert len(audit_path.read_text().splitlines()) == 1

        pips.clock.set(parse_instant("2026-03-10T13:40:00Z"))
        again, _ = monitor.handle_request(_PERMITTED_REQUEST, GOOD_SESSION)
        assert again == first
        assert len(audit_path.read_text().splitlines()) == 2


def test_every_pdp_invocation_has_exactly_one_audit_record(policy_pack, tmp_path, monkeypatch):
    with AuditLog(tmp_path / "audit.log") as audit:
        monitor, _pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        evaluations = watch(monkeypatch, monitor, ("engine.evaluate",))
        for _ in range(3):
            monitor.handle_request(_PERMITTED_REQUEST, GOOD_SESSION)
    assert len(evaluations) == 3
    assert len((tmp_path / "audit.log").read_text().splitlines()) == 3


def test_trace_digest_is_stable():
    from lexgate.model import Trace, TraceRecord

    trace = (TraceRecord("a", Decision.PERMIT, "effect"),)
    assert trace_digest(trace) == trace_digest(tuple(trace)) == Trace(trace).digest


# -- the monitor boundary -----------------------------------------------------------


def test_non_utf8_request_is_a_syntax_error_with_one_audit_record(policy_pack, tmp_path):
    raw = wire_request(extra_lines=("resource note string caf\xe9",)).replace("\xe9".encode(), b"\xe9\xff")
    with AuditLog(tmp_path / "audit.log") as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == "syntax-error"
    assert response.trace[0].reason.startswith("bad-request:message is not UTF-8")
    assert view is None
    assert (tmp_path / "audit.log").read_text() == record.to_line() + "\n"


def _response(*lines):
    return "".join(f"{line}\n" for line in ("response", *lines, "end")).encode()


# The packaged forest's trace for _PERMITTED_REQUEST at 13:40.
_PERMIT_TRACE = (
    "trace DECustomerDataLockdown NotApplicable legislation-scope-miss:DE",
    "trace EUDenyWithoutTask NotApplicable condition-false",
    "trace EUDenyUnauthorizedRelationship NotApplicable condition-false",
    "trace EUDataProtection NotApplicable combined:deny-overrides",
    "trace LUStrategicExportControl NotApplicable target-no-match:resource",
    "trace PermitPublicResources NotApplicable target-no-match:resource",
    "trace PermitCustomerServiceOnTask Permit effect",
    "trace PermitPseudonymousWindow NotApplicable condition-false",
    "trace OrgAccessGrants Permit combined:first-applicable",
    "trace LoginRule Permit effect",
    "trace WorkingTimePolicy Permit combined:deny-overrides",
    "trace RestrictedZoneInsulation NotApplicable target-no-match:environment",
)


# Every exit of handle_request: (instant, pseudonym key, audit path, request,
# session, response bytes).
_EXITS = {
    "wrong-secret": (
        "2026-03-10T13:40:00Z", KEY, "audit.log", _PERMITTED_REQUEST, AuthState("c.miller", "wrong"),
        _response("decision Deny", "status processing-error", "trace <monitor> Deny authentication-failed"),
    ),
    "not-a-request": (
        "2026-03-10T13:40:00Z", KEY, "audit.log", b"not a request\n", GOOD_SESSION,
        _response(
            "decision Indeterminate", "status syntax-error",
            "trace <monitor> Indeterminate bad-request:request must start with a 'request' line",
        ),
    ),
    "subject-mismatch": (
        "2026-03-10T13:40:00Z", KEY, "audit.log",
        wire_request(subject="a.chen", resource="cust/4711/portfolio", point="47.37 8.54"), GOOD_SESSION,
        _response("decision Deny", "status processing-error", "trace <monitor> Deny subject-session-mismatch"),
    ),
    "decision": (
        "2026-03-10T13:40:00Z", KEY, "audit.log", _PERMITTED_REQUEST, GOOD_SESSION,
        _response(
            "decision Permit", "status ok", *_PERMIT_TRACE,
            "view cleartext - UG9ydGZvbGlvIHN0YXRlbWVudCBmb3IgY3VzdDo0NzExOiBib25kcyBhbmQgZXF1aXRpZXMgaGVs"
            "ZCBhdCB0aGUgTHV4ZW1ib3VyZyBoZWFkIG9mZmljZS4=",
        ),
    ),
    "no-pseudonym-key": (
        "2026-03-10T12:45:00Z", None, "audit.log",
        wire_request(resource="cust/4711/portfolio", point="47.36 8.53"), GOOD_SESSION,
        _response(
            "decision Deny", "status processing-error",
            *_PERMIT_TRACE[:6],
            "trace PermitCustomerServiceOnTask NotApplicable condition-false",
            "trace PermitPseudonymousWindow Permit effect",
            *_PERMIT_TRACE[8:],
            "trace <obligations> Deny obligation-failure:pseudonym mapping key is unavailable",
        ),
    ),
    "unwritable-audit": (
        "2026-03-10T13:40:00Z", KEY, "gone/audit.log", _PERMITTED_REQUEST, GOOD_SESSION,
        _response(
            "decision Indeterminate", "status processing-error", *_PERMIT_TRACE,
            "trace <audit> Indeterminate audit storage failed: [Errno 2] No such file or directory: "
            "'gone/audit.log'",
        ),
    ),
}


@pytest.mark.parametrize("exit_name", list(_EXITS))
def test_every_exit_answers_and_audits_byte_for_byte(policy_pack, tmp_path, monkeypatch, exit_name):
    at, key, path, raw, session, expected = _EXITS[exit_name]
    monkeypatch.chdir(tmp_path)  # a relative audit path keeps the <audit> reason fixed
    with AuditLog(Path(path)) as audit:
        monitor, _ = make_monitor(policy_pack, at, key=key, audit=audit)
        response_bytes, record = monitor.handle_request(raw, session)
    assert response_bytes == expected
    response, _view = parse_response(response_bytes)
    if exit_name == "unwritable-audit":
        assert not Path(path).exists()
        # The record whose append failed: the decision it would have audited.
        assert (record.decision, record.status) == (Decision.PERMIT, "ok")
    else:
        assert Path(path).read_text().splitlines() == [record.to_line()]
        assert (record.decision, record.status) == (response.decision, response.status)


def test_memory_stays_bounded_over_many_requests(policy_pack, fixtures_root):
    # One monitor serves the packaged requests. After the warm-up (roots
    # compiled, scopes selected) the memory still held must not grow with
    # the request count.
    requests = [
        (fixtures_root / "requests" / f"{name}.req").read_bytes()
        for name in ("portfolio-de-office", "login-noon", "portfolio-ch-window")
    ]
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T12:45:00Z", audit=AuditLog())
    held = _held_after_warm_up(lambda n: monitor.handle_request(requests[n % 3], GOOD_SESSION))
    assert held < 16 * 1024


def test_the_plan_memo_stays_bounded_over_distinct_requests(policy_pack):
    # 100 documents keyed on resource-id literals. Request n carries a
    # resource-id no document names and the pair of literals n % 100 and
    # n // 100: each request has a plan of its own, and no caller text may
    # enter a plan's key.
    keyed = [
        document(policy(
            f"lit-{i}", [rule(f"lit-{i}-r", Effect.DENY)],
            target=Target(resources=(string_clause("resource-id", f"lit/{i}"),)),
        ))
        for i in range(100)
    ]
    monitor, _pips = make_monitor([*policy_pack, *keyed], "2026-03-10T12:45:00Z", audit=AuditLog())

    def send(n):
        hits = tuple(f"resource resource-id string lit/{i}" for i in (n % 100, n // 100))
        monitor.handle_request(wire_request(resource=f"caller/{n}", extra_lines=hits), GOOD_SESSION)

    # A full memo of 256 plans holds about 0.6 MiB; a memo that kept
    # every plan would hold some 20 MiB.
    assert _held_after_warm_up(send) < 1024 * 1024


def test_the_response_memo_stays_bounded_over_walk_keys_that_never_repeat(policy_pack):
    # A condition reads the "note" attribute, and request n carries note
    # n: one plan, and a walk key of its own for every request.
    noted = document(policy("noted", [rule("noted-r", Effect.DENY, FunctionApplication(
        "function:string-equal",
        (
            FunctionApplication(
                "function:string-one-and-only",
                (AttributeSelector(Category.ENVIRONMENT, "note", DataType.STRING),),
            ),
            Literal(AttributeValue(DataType.STRING, "never")),
        ),
    ))]))
    monitor, _pips = make_monitor([*policy_pack, noted], "2026-03-10T12:45:00Z", audit=AuditLog())

    def send(n):
        monitor.handle_request(wire_request(extra_lines=(f"environment note string {n}",)), GOOD_SESSION)

    # A full memo of 32 responses holds under 0.1 MiB; a memo that kept
    # every response would hold some 11 MiB.
    assert _held_after_warm_up(send) < 512 * 1024


_RESTRICTED_ACTION_POLICY = """\
<Policy PolicyId="RestrictedAction" RuleCombiningAlgId="rule-combining-algorithm:deny-overrides">
  <Target>
    <Actions>
      <Match AttributeId="action-id" MatchId="function:location-match">
        <AttributeValue DataType="XMLSchema#string">restricted</AttributeValue>
      </Match>
    </Actions>
  </Target>
  <Rule RuleId="PermitInRestrictedZone" Effect="Permit"/>
</Policy>
"""


def test_a_monitor_answers_a_location_matching_target_by_the_location(tmp_path, fixtures_root, capsys):
    # The customs hall and the bank are both in GB, and the two requests
    # differ only in their position: one plan, and a walk key that must
    # still tell a restricted zone from an unrestricted one.
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    (policy_dir / "restricted-action.xml").write_text(_RESTRICTED_ACTION_POLICY, encoding="utf-8")
    assert cli.main(["validate", str(policy_dir), "--scopes", str(fixtures_root / "scopes.txt")]) == 0
    capsys.readouterr()
    documents = cli.load_policy_dir(policy_dir)
    at = "2026-03-10T12:45:00Z"
    monitor, _pips = make_monitor(documents, at, audit=AuditLog())
    for points in (("51.505 0.05", "51.507861 -0.099349"), ("51.507861 -0.099349", "51.505 0.05")):
        decisions = []
        for point in points:
            raw = wire_request(point=point)
            response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
            cold, _ = make_monitor(documents, at, audit=AuditLog())
            # The same bytes, and the same audit record with its trace digest.
            assert (response_bytes, record) == cold.handle_request(raw, GOOD_SESSION)
            response, _view = parse_response(response_bytes)
            decisions.append(response.decision)
        assert set(decisions) == {Decision.PERMIT, Decision.NOT_APPLICABLE}


def test_the_trusted_bag_memo_stays_bounded_over_distinct_resources_and_countries(
    policy_pack, monkeypatch
):
    # Request n names resource caller/n and one of the 676 destination
    # countries; one shared bag is kept per country seen, here at most 64.
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T12:45:00Z", audit=AuditLog())
    memo = monitor.engine._bags = Memo(64)

    def send(n):
        code = f"{chr(65 + n // 26 % 26)}{chr(65 + n % 26)}"
        raw = wire_request(resource=f"caller/{n}", extra_lines=(f"destination-country {code}",))
        monitor.handle_request(raw, GOOD_SESSION)
        assert len(memo) <= 64

    assert _held_after_warm_up(send) < 256 * 1024
    assert memo.misses > 676


def test_the_line_memo_stays_bounded_over_long_and_distinct_lines(policy_pack, monkeypatch):
    # Request n carries a distinct 10 KB line, which passes by the memo,
    # and a distinct short line, whose hash the doorkeeper records and
    # forgets again; the request's other lines repeat, so they are admitted.
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T12:45:00Z", audit=AuditLog())
    memo = _CountedMemo(wire._LINES)
    monkeypatch.setattr(wire, "_LINES", memo)

    def send(n):
        long_line = f"environment long-note string {n:05d}{'x' * 10_000}"
        short_line = f"environment note string {n}"
        monitor.handle_request(wire_request(extra_lines=(long_line, short_line)), GOOD_SESSION)
        assert len(memo) <= memo.bound

    # A full memo of 256 short lines holds about 0.1 MiB; one that kept
    # the long lines would hold some 5 MiB.
    assert _held_after_warm_up(send) < 256 * 1024
    assert memo.hits > 0



def test_the_body_memo_stays_bounded_over_long_and_distinct_bodies(policy_pack):
    # Request n is sent as a distinct 10 KB body, which passes by the
    # memo, and twice as a distinct short body, which enters it at its
    # second sighting and is pushed out again.
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T12:45:00Z", audit=AuditLog())
    memo = monitor._bodies = _CountedMemo(monitor._bodies)

    def send(n):
        long_note = f"environment long-note string {n:05d}{'x' * 10_000}"
        monitor.handle_request(wire_request(extra_lines=(long_note,)), GOOD_SESSION)
        short = wire_request(extra_lines=(f"environment note string {n}",))
        monitor.handle_request(short, GOOD_SESSION)
        monitor.handle_request(short, GOOD_SESSION)
        assert 0 < len(memo) <= memo.bound

    # A full memo of 256 such short bodies holds about 0.25 MiB, and it
    # is full after the warm-up; one that kept every body would grow by
    # some 90 MiB.
    assert _held_after_warm_up(send) < 256 * 1024
    # Only the 10,000 short bodies were looked up, each missing twice.
    assert memo.misses == 20_000 and memo.hits == 0


def test_the_location_memo_stays_bounded_over_distinct_positions(policy_pack):
    # Request n stands at a position of its own in London and is sent
    # twice, so that the position enters the location memo at its second
    # sighting; the memo is emptied whenever it is full.
    monitor, pips = make_monitor(policy_pack, "2026-03-10T12:45:00Z", audit=AuditLog())
    memo = pips.location._reports

    def send(n):
        raw = wire_request(point=f"{51.4 + n * 1e-5:.5f} -0.099349")
        monitor.handle_request(raw, GOOD_SESSION)
        monitor.handle_request(raw, GOOD_SESSION)
        assert 0 < len(memo) <= memo.bound

    # A full memo of 256 reports holds about 0.1 MiB, on top of the 0.2 MiB
    # the body and line memos hold for these requests; a memo that kept
    # every position would hold some 4 MiB.
    assert _held_after_warm_up(send) < 512 * 1024


@pytest.mark.parametrize(
    "value,as_text,mib",
    [
        pytest.param("integer {k}{i:03d}", False, 3, id="integer-lines"),
        # Text outside the Basic Multilingual Plane takes 4 bytes a character.
        pytest.param("string \U0001F600{k}.{i}", True, 4, id="astral-str"),
    ],
)
def test_a_full_body_memo_holds_a_few_mib(policy_pack, value, as_text, mib):
    # 256 bodies of the longest kept length, each one subject line and as
    # many distinct attribute lines as fit: the most a memo entry parses to.
    def body(k):
        lines = ["request", f"subject user-id identifier c{k}"]
        for i in itertools.count():
            line = f"environment n{i} {value.format(k=k, i=i)}"
            if len("\n".join([*lines, line, "end\n"])) > pep._LONGEST_BODY_HELD:
                text = "\n".join([*lines, "end\n"])
                return text if as_text else text.encode()
            lines.append(line)

    # Each body names a subject of its own and is sent twice, so it is read
    # into the memo at its second sighting and refused as a subject
    # mismatch, before any evaluation.
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T12:45:00Z", audit=AuditLog())
    memo = monitor._bodies
    wire._LINES.clear()
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(memo.bound):
            raw = body(k)
            monitor._decide(raw, GOOD_SESSION)
            monitor._decide(raw, GOOD_SESSION)
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(memo) == memo.bound
    assert held < mib * 1024 * 1024


def test_the_body_memo_keeps_no_body_of_a_caller_who_did_not_authenticate(policy_pack):
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T12:45:00Z", audit=AuditLog())
    memo = monitor._bodies = _CountedMemo(monitor._bodies)
    for n in range(10):
        # Sent twice, so that the memo admits the body at its second sighting.
        for _ in range(2):
            monitor.handle_request(wire_request(resource=f"caller/{n}"), GOOD_SESSION)
    before = dict(memo), memo.hits, memo.misses
    for n in range(10, 600):
        for raw in (wire_request(resource=f"caller/{n}"), b"not a request %d" % n):
            monitor.handle_request(raw, AuthState(GOOD_SESSION.user, "wrong-secret"))
            monitor.handle_request(raw, AuthState("mallory", GOOD_SESSION.secret))
    assert (dict(memo), memo.hits, memo.misses) == before
    assert len(before[0]) == 10


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(b"", id="empty"),
        pytest.param(wire_request()[:40], id="truncated"),
        pytest.param(b"request\nsubject user-id string \xff\nend\n", id="non-utf8"),
        pytest.param("request\nsubject user-id string caf\udc80\nend\n", id="str-surrogate"),
        pytest.param(b"request\nsubject user-id integer many\nend\n", id="bad-value"),
        pytest.param(b"request\nresource resource-id string x\nend\n", id="no-subject"),
    ],
)
def test_a_repeated_bad_body_keeps_its_second_refusal_and_shares_it(policy_pack, raw):
    # The body memo admits a body at its second sighting: the refusal
    # built, hashed and rendered then is kept, and later requests with
    # the body share it. The first refusal has the same bytes.
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T12:45:00Z", audit=AuditLog())
    _request, first, _view = monitor._decide(raw, GOOD_SESSION)
    _request, second, _view = monitor._decide(raw, GOOD_SESSION)
    _request, again, _view = monitor._decide(raw, GOOD_SESSION)
    assert again is second
    assert serialize_response(second) == serialize_response(first)
    assert (first.decision, first.status) == (Decision.INDETERMINATE, STATUS_SYNTAX_ERROR)
    with pytest.raises(WireFormatError) as refused:
        wire.parse_request(raw)
    fresh = refusal("<monitor>", Decision.INDETERMINATE, STATUS_SYNTAX_ERROR, f"bad-request:{refused.value}")
    assert serialize_response(again) == serialize_response(fresh)


def test_a_repeated_request_body_is_parsed_at_most_twice_then_shared(policy_pack):
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T12:45:00Z", audit=AuditLog())

    def parsed_three_times(raw):
        return [monitor._decide(raw, GOOD_SESSION)[0] for _ in range(3)]

    first, second, third = parsed_three_times(_VALID_REQUEST)
    assert third is second and second == first
    # The same text as str is a body of its own, and one over the length
    # bound, or not bytes or str, is parsed on every request.
    as_text = parsed_three_times(_VALID_REQUEST.decode())
    assert as_text[2] is as_text[1] is not second
    padded = parsed_three_times(_VALID_REQUEST + b"#" * pep._LONGEST_BODY_HELD + b"\n")
    assert len({id(request) for request in padded}) == 3
    assert len(monitor._bodies) == 2


# Grammar-drawn bodies, and bodies that are neither bytes nor str: a
# drawn request as a bytearray or memoryview, None or a number.
_bodies = st.one_of(
    wire_requests(),
    st.builds(
        lambda raw, kind: kind(raw if isinstance(raw, bytes) else raw.encode()),
        wire_requests(), st.sampled_from((bytearray, memoryview)),
    ),
    st.sampled_from((None, 0, 1.5)),
)


@settings(max_examples=150, deadline=None)
@given(_bodies)
def test_the_body_memo_changes_no_response_and_no_audit_line(policy_pack, tmp_path_factory, raw):
    # Each body is sent four times: cold, again (which the memo admits),
    # from the memo, and with the memo bypassed. A body that is neither
    # bytes nor str is the `<monitor>` bad-request refusal, and is never
    # kept.
    audit_path = tmp_path_factory.mktemp("audit") / "audit.log"
    sent = []
    with AuditLog(audit_path) as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        monitor._bodies = _CountedMemo(monitor._bodies)
        for longest in (*(pep._LONGEST_BODY_HELD,) * 3, -1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pep, "_LONGEST_BODY_HELD", longest)  # -1: no body is kept
                response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
            lines = audit_path.read_bytes().splitlines()
            assert len(lines) == len(sent) + 1
            sent.append((response_bytes, lines[-1]))
    assert sent[0] == sent[1] == sent[2] == sent[3]
    kept = type(raw) in (bytes, str)
    assert monitor._bodies.hits == (kept and len(raw) <= pep._LONGEST_BODY_HELD)
    if not kept:
        response, view = parse_response(sent[0][0])
        assert (response.decision, response.status) == (Decision.INDETERMINATE, STATUS_SYNTAX_ERROR)
        assert [trace.node_id for trace in response.trace] == ["<monitor>"]
        assert response.trace[0].reason == f"bad-request:message must be bytes or str, not {type(raw).__name__}"
        assert view is None
        assert sent[0][1] == record.to_line().encode()


def _held_after_warm_up(send) -> int:
    """Bytes still held after send(n) for 9,000 more n, once 1,000 have
    warmed up (roots compiled, scopes selected)."""
    for n in range(1_000):
        send(n)
    gc.collect()
    tracemalloc.start()
    try:
        for n in range(1_000, 10_000):
            send(n)
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


_VALID_REQUEST = wire_request(resource="cust/4711/portfolio", point="47.37 8.54")


class _FailingSupplier:
    """A location supplier that raises ValueError(message) on every call."""

    def __init__(self, message):
        self.message = message

    def locate(self, request):
        raise ValueError(self.message)


_FORGED = "2026-03-10T13:40:00.000000Z|c.miller|cust/4711/portfolio|read|Permit|ok|0|-"


@pytest.mark.parametrize(
    "message,user,raw",
    [
        pytest.param("a\nb", GOOD_SESSION.user, _VALID_REQUEST, id="location-error-spans-lines"),
        pytest.param("bad \udc80 text", GOOD_SESSION.user, _VALID_REQUEST, id="location-error-surrogate"),
        pytest.param("", "c.mil\udc80ler", _VALID_REQUEST, id="session-user-surrogate"),
        pytest.param(
            "", GOOD_SESSION.user,
            _VALID_REQUEST.decode().replace("end\n", "resource note string caf\udc80\nend\n"),
            id="str-request-surrogate",
        ),
        pytest.param("", "mallory\n" + _FORGED, _VALID_REQUEST, id="session-user-forges-a-record"),
        pytest.param(
            "", "x|c.miller|cust/4711/portfolio|read|Permit|ok", _VALID_REQUEST,
            id="session-user-shifts-the-fields",
        ),
    ],
)
def test_caller_text_cannot_break_the_response_or_the_audit_line(tmp_path, message, user, raw):
    # A location supplier that raises with `message` fails the context
    # build, so its text reaches the `<context>` trace reason.
    forest = [document(policy("p", [rule("r", Effect.PERMIT)]))]
    audit_path = tmp_path / "audit.log"
    pips = dataclasses.replace(make_bundle("2026-03-10T13:40:00Z"), location=_FailingSupplier(message))
    with AuditLog(audit_path) as audit:
        monitor = ReferenceMonitor(PolicyDecisionPoint(), forest, pips, audit=audit, pseudonym_key=KEY)
        response_bytes, _record = monitor.handle_request(raw, AuthState(user, "miller-pass-1"))
    response, _view = parse_response(response_bytes)
    lines = audit_path.read_bytes().decode("utf-8").splitlines()
    assert len(lines) == 1
    # Split from the left: no caller text may add a field.
    fields = lines[0].split("|")
    assert len(fields) == 8
    assert (fields[4], fields[5]) == (response.decision.value, response.status)


@st.composite
def _request_bytes(draw):
    """Arbitrary bytes, or a valid request with arbitrary bytes spliced in."""
    noise = draw(st.binary(max_size=64))
    if draw(st.booleans()):
        return noise
    at = draw(st.integers(0, len(_VALID_REQUEST)))
    cut = draw(st.integers(0, 8))
    return _VALID_REQUEST[:at] + noise + _VALID_REQUEST[at + cut:]


@settings(max_examples=300, deadline=None)
@given(_request_bytes())
def test_any_bytes_yield_a_response_and_exactly_one_audit_record(
    policy_pack, tmp_path_factory, raw
):
    audit_path = tmp_path_factory.mktemp("audit") / "audit.log"
    with AuditLog(audit_path) as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, _view = parse_response(response_bytes)
    assert audit_path.read_text() == record.to_line() + "\n"
    assert record.decision is response.decision


# A location block without its timezone line; the offset 1e308 is finite,
# but four times it is not.
_LOCATION_LINES = ("location country GB", "location city London", "location zone unrestricted",
                   "location point 51.507861 -0.099349")


@pytest.mark.parametrize("offset", ["inf", "-inf", "1e400", "nan", "1e308"])
def test_a_non_finite_timezone_offset_is_a_syntax_error_with_one_audit_record(policy_pack, tmp_path, offset):
    raw = wire_request(point="", extra_lines=(*_LOCATION_LINES, f"location timezone Europe/London {offset}"))
    with AuditLog(tmp_path / "audit.log") as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, _view = parse_response(response_bytes)
    assert (response.decision, response.status) == (Decision.INDETERMINATE, "syntax-error")
    assert "timezone offset out of range" in response.trace[0].reason
    assert (tmp_path / "audit.log").read_text() == record.to_line() + "\n"


@pytest.mark.parametrize(
    "radius, message", [("nan", "must be finite"), ("inf", "must be finite"), ("-inf", "must be >= 0")]
)
def test_a_non_finite_accuracy_radius_is_a_syntax_error_with_one_audit_record(
    policy_pack, tmp_path, radius, message
):
    # The same London block answers Permit/ok with `location accuracy 10`.
    lines = (*_LOCATION_LINES, "location timezone Europe/London 0", f"location accuracy {radius}")
    with AuditLog(tmp_path / "audit.log") as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        response_bytes, record = monitor.handle_request(wire_request(point="", extra_lines=lines), GOOD_SESSION)
    response, _view = parse_response(response_bytes)
    assert (response.decision, response.status) == (Decision.INDETERMINATE, "syntax-error")
    assert f"accuracy radius {message}" in response.trace[0].reason
    assert (tmp_path / "audit.log").read_text() == record.to_line() + "\n"


def test_a_negative_position_accuracy_is_a_processing_error(policy_pack, tmp_path):
    raw = wire_request(extra_lines=("environment position-accuracy integer -50000",))
    with AuditLog(tmp_path / "audit.log") as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, _view = parse_response(response_bytes)
    assert (response.decision, response.status) == (Decision.INDETERMINATE, STATUS_PROCESSING_ERROR)
    assert response.trace[-1].node_id == "<context>"
    assert response.trace[-1].reason == "accuracy radius must be >= 0"
    assert (tmp_path / "audit.log").read_text() == record.to_line() + "\n"


@pytest.mark.parametrize("sign", ["", "-"])
def test_a_position_accuracy_past_a_float_is_a_processing_error_naming_the_field(
    policy_pack, tmp_path, sign
):
    raw = wire_request(extra_lines=(f"environment position-accuracy integer {sign}1{'0' * 400}",))
    with AuditLog(tmp_path / "audit.log") as audit:
        monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
        response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, _view = parse_response(response_bytes)
    assert (response.decision, response.status) == (Decision.INDETERMINATE, STATUS_PROCESSING_ERROR)
    assert response.trace[-1].node_id == "<context>"
    assert response.trace[-1].reason == "position-accuracy is out of range"
    assert (tmp_path / "audit.log").read_text() == record.to_line() + "\n"


@pytest.mark.parametrize("seconds", [10**12, -(10**12), 10**20])
def test_a_limit_duration_past_the_calendar_denies_with_one_audit_record(tmp_path, seconds):
    duration = Obligation(
        "limit-duration", Effect.PERMIT, (("duration-seconds", AttributeValue(DataType.INTEGER, seconds)),)
    )
    permit = document(policy("p", [rule("r", Effect.PERMIT)], obligations=(duration,)))
    with AuditLog(tmp_path / "audit.log") as audit:
        monitor = ReferenceMonitor(
            PolicyDecisionPoint(), [permit], make_bundle("2026-03-10T13:40:00Z"), audit=audit, pseudonym_key=KEY
        )
        response_bytes, record = monitor.handle_request(wire_request(), GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert (response.decision, response.status) == (Decision.DENY, STATUS_PROCESSING_ERROR)
    assert response.trace[-1].node_id == "<obligations>"
    assert response.trace[-1].reason == "obligation-failure:limit-duration expiry is out of range"
    assert view is None
    assert (tmp_path / "audit.log").read_text() == record.to_line() + "\n"


def test_a_boolean_limit_duration_denies_with_one_audit_record(tmp_path):
    # A boolean is no duration, although Python counts True as the int 1.
    duration = Obligation(
        "limit-duration", Effect.PERMIT, (("duration-seconds", AttributeValue(DataType.BOOLEAN, True)),)
    )
    permit = document(policy("p", [rule("r", Effect.PERMIT)], obligations=(duration,)))
    with AuditLog(tmp_path / "audit.log") as audit:
        monitor = ReferenceMonitor(
            PolicyDecisionPoint(), [permit], make_bundle("2026-03-10T13:40:00Z"), audit=audit, pseudonym_key=KEY
        )
        response_bytes, record = monitor.handle_request(wire_request(), GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert (response.decision, response.status) == (Decision.DENY, STATUS_PROCESSING_ERROR)
    assert response.trace[-1].node_id == "<obligations>"
    assert response.trace[-1].reason == "obligation-failure:limit-duration needs an integer duration-seconds"
    assert view is None
    assert (tmp_path / "audit.log").read_text() == record.to_line() + "\n"


def test_a_permit_whose_expiry_falls_before_year_1000_parses_back(tmp_path):
    # 2026-03-10T13:40Z less 60,021,259,200 s is 0124-03-11T01:40Z; the
    # view line writes its year with four digits, as docs/wire-format.md
    # spells an instant and parse_response reads it.
    duration = Obligation(
        "limit-duration", Effect.PERMIT,
        (("duration-seconds", AttributeValue(DataType.INTEGER, -60_021_259_200)),),
    )
    permit = document(policy("p", [rule("r", Effect.PERMIT)], obligations=(duration,)))
    with AuditLog(tmp_path / "audit.log") as audit:
        monitor = ReferenceMonitor(
            PolicyDecisionPoint(), [permit], make_bundle("2026-03-10T13:40:00Z"), audit=audit, pseudonym_key=KEY
        )
        response_bytes, _record = monitor.handle_request(wire_request(), GOOD_SESSION)
    assert b"\nview cleartext 0124-03-11T01:40:00Z " in response_bytes
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.PERMIT
    assert view.expires_at == dt.datetime(124, 3, 11, 1, 40, tzinfo=dt.timezone.utc)


class _Hostile(Exception):
    """An extension point's own exception type."""


_RAISED = (Exception, ValueError, TypeError, KeyError, RuntimeError, ZeroDivisionError, OSError, _Hostile)
# Text no reason, response or audit line may carry as it is.
_HOSTILE_TEXT = st.builds(
    lambda text, piece, long: text + piece + ("x" * 100_000 if long else ""),
    st.text(alphabet=st.characters(exclude_categories=()), max_size=20),
    st.sampled_from(["", "\r\n", "\n", "\r", "\x00", "\ud800", "a\udc80b", "\u2028", "\\n"]),
    st.booleans(),
)
_WRONG_TYPES = st.sampled_from([None, "Permit", 1, 0.5, b"", [], object(), Effect.PERMIT])


def _recurse(*args):
    return _recurse(*args)


@st.composite
def _hostile_behaviour(draw):
    """A callable that raises, returns the wrong type, or recurses past the
    recursion limit, whatever it is called with."""
    kind = draw(st.sampled_from(["raise", "return", "recurse"]))
    if kind == "raise":
        error = draw(st.sampled_from(_RAISED))(draw(_HOSTILE_TEXT))

        def behave(*_args):
            raise error

        return behave
    if kind == "return":
        value = draw(_WRONG_TYPES)
        return lambda *_args: value
    return _recurse


@st.composite
def _str_request(draw):
    """The valid request as text, with a lone surrogate spliced in or not."""
    text = _VALID_REQUEST.decode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["\ud800", "\udfff", "\udc80x"])) + text[at:]
    return text


# The suppliers a deployment may swap into its bundle, by the one method
# the engine calls on each.
_EXTENSION_POINTS = {"location": "locate", "scopes": "select_legislation"}


@settings(max_examples=150, deadline=None)
@given(_hostile_behaviour(), st.sampled_from(sorted(_EXTENSION_POINTS)), _str_request())
def test_hostile_extension_points_yield_a_response_and_one_matching_audit_line(
    policy_pack, tmp_path_factory, behaviour, point, raw
):
    # The packaged forest and bundle, whose location supplier or legal
    # scope registry is the hostile extension point.
    supplier = types.SimpleNamespace(**{_EXTENSION_POINTS[point]: behaviour})
    pips = dataclasses.replace(make_bundle("2026-03-10T13:40:00Z"), **{point: supplier})
    audit_path = tmp_path_factory.mktemp("audit") / "audit.log"
    with AuditLog(audit_path) as audit:
        monitor = ReferenceMonitor(PolicyDecisionPoint(), policy_pack, pips, audit=audit, pseudonym_key=KEY)
        response_bytes, _record = monitor.handle_request(raw, GOOD_SESSION)
    response, _view = parse_response(response_bytes)
    lines = audit_path.read_bytes().decode("utf-8").splitlines()
    assert len(lines) == 1
    fields = lines[0].split("|")
    assert (fields[4], fields[5]) == (response.decision.value, response.status)
