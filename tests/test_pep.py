import datetime as dt
import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_bundle, wire_request
from lexgate.engine import FunctionRegistry, PolicyDecisionPoint
from lexgate.errors import AuditError, ObligationError
from lexgate.instant import parse_instant
from lexgate.model import (
    AttributeValue,
    DataType,
    Decision,
    Effect,
    FunctionApplication,
    Obligation,
    STATUS_PROCESSING_ERROR,
)
from lexgate.parsing.wire import parse_response
from lexgate.pep import (
    AuditLog,
    AuditRecord,
    AuthState,
    DataView,
    ObligationService,
    ReferenceMonitor,
    ViewMode,
    pseudonym,
    trace_digest,
)
from policybuild import document, policy, rule

GOOD_SESSION = AuthState("c.miller", "miller-pass-1")
KEY = "unit-test-key"

EXPECTED_FLOW = [
    "authenticate",
    "locate",
    "attributes",
    "diary",
    "policies",
    "decide",
    "obligations",
    "respond",
]


def make_monitor(policy_pack, at, key=KEY, audit=None):
    pips = make_bundle(at)
    monitor = ReferenceMonitor(
        PolicyDecisionPoint(), policy_pack, pips, audit=audit, pseudonym_key=key
    )
    return monitor, pips


# -- event flow -----------------------------------------------------------------


def test_permitted_request_follows_the_event_flow(policy_pack):
    monitor, pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z")
    raw = wire_request(
        resource="cust/4711/portfolio",
        point="47.37 8.54",
        tokens=("cust:4711",),
        token_at="2026-03-10T13:40:00Z",
    )
    response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.PERMIT
    assert pips.log.events == EXPECTED_FLOW
    assert pips.log.pdp_calls == 1
    assert view is not None and view.mode == "cleartext"
    assert record.decision is Decision.PERMIT


def test_interaction_log_holds_one_request(policy_pack):
    monitor, pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z")
    raw = wire_request(
        resource="cust/4711/portfolio",
        point="47.37 8.54",
        tokens=("cust:4711",),
        token_at="2026-03-10T13:40:00Z",
    )
    for _ in range(50):
        monitor.handle_request(raw, GOOD_SESSION)
    assert pips.log.events == EXPECTED_FLOW
    assert pips.log.pdp_calls == 50


def test_unauthenticated_request_never_reaches_the_pdp(policy_pack):
    monitor, pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z")
    raw = wire_request(resource="cust/4711/portfolio", point="47.37 8.54")
    response_bytes, record = monitor.handle_request(raw, AuthState("c.miller", "wrong"))
    response, view = parse_response(response_bytes)
    assert pips.log.pdp_calls == 0
    assert "locate" not in pips.log.events
    assert response.decision is Decision.DENY
    assert response.status == STATUS_PROCESSING_ERROR
    assert view is None
    assert record.decision is Decision.DENY


def test_session_subject_mismatch_is_rejected_before_the_pdp(policy_pack):
    monitor, pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z")
    raw = wire_request(subject="a.chen", resource="cust/4711/portfolio", point="47.37 8.54")
    monitor.handle_request(raw, GOOD_SESSION)
    assert pips.log.pdp_calls == 0


def test_malformed_request_is_a_syntax_error(policy_pack):
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z")
    response_bytes, _record = monitor.handle_request(b"not a request\n", GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == "syntax-error"
    assert view is None


# -- obligations and data views ----------------------------------------------------


def test_window_permit_carries_pseudonymized_view(policy_pack):
    monitor, _ = make_monitor(policy_pack, "2026-03-10T12:45:00Z")
    raw = wire_request(resource="cust/4711/portfolio", point="47.36 8.53")
    response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.PERMIT
    assert [ob.id for ob in response.obligations] == ["pseudonymize"]
    assert view.mode == "pseudonymous"
    assert "cust:4711" not in view.payload
    assert pseudonym(KEY, "cust:4711") in view.payload
    assert record.obligations_executed == ("pseudonymize",)


def test_missing_pseudonym_key_downgrades_permit_to_deny(policy_pack):
    monitor, _ = make_monitor(policy_pack, "2026-03-10T12:45:00Z", key=None)
    raw = wire_request(resource="cust/4711/portfolio", point="47.36 8.53")
    response_bytes, _record = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.DENY
    assert response.status == STATUS_PROCESSING_ERROR
    assert view is None


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
    log = AuditLog(tmp_path / "audit.log")
    log.append(_record(1))
    log.append(_record(2, Decision.DENY))
    lines = (tmp_path / "audit.log").read_text().splitlines()
    assert [line.split("|")[4] for line in lines] == ["Permit", "Deny"]


def test_audit_rejects_backwards_timestamps(tmp_path):
    log = AuditLog(tmp_path / "audit.log")
    log.append(_record(5))
    with pytest.raises(AuditError):
        log.append(_record(4))


def test_unwritable_audit_storage_yields_processing_error(policy_pack, tmp_path):
    # A vanished parent directory makes every append fail, root or not.
    audit_path = tmp_path / "gone" / "audit.log"
    monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=AuditLog(audit_path))
    raw = wire_request(
        resource="cust/4711/portfolio",
        point="47.37 8.54",
        tokens=("cust:4711",),
        token_at="2026-03-10T13:40:00Z",
    )
    response_bytes, _ = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == STATUS_PROCESSING_ERROR
    assert view is None  # fail-safe: no data with an error response


def test_a_clock_step_back_is_refused_until_the_clock_catches_up(policy_pack, tmp_path):
    # The audit trail must stay monotone, so a request stamped before the
    # last audited instant gets no decision and leaves no audit line.
    audit_path = tmp_path / "audit.log"
    monitor, pips = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=AuditLog(audit_path))
    raw = wire_request(
        resource="cust/4711/portfolio",
        point="47.37 8.54",
        tokens=("cust:4711",),
        token_at="2026-03-10T13:40:00Z",
    )
    first, _ = monitor.handle_request(raw, GOOD_SESSION)
    assert parse_response(first)[0].decision is Decision.PERMIT

    pips.clock.set(parse_instant("2026-03-10T13:39:59Z"))
    refused, _ = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(refused)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == STATUS_PROCESSING_ERROR
    assert response.trace[-1].node_id == "<audit>"
    assert view is None
    assert len(audit_path.read_text().splitlines()) == 1

    pips.clock.set(parse_instant("2026-03-10T13:40:00Z"))
    again, _ = monitor.handle_request(raw, GOOD_SESSION)
    assert again == first
    assert len(audit_path.read_text().splitlines()) == 2


def test_every_pdp_invocation_has_exactly_one_audit_record(policy_pack, tmp_path):
    audit = AuditLog(tmp_path / "audit.log")
    pips = make_bundle("2026-03-10T13:40:00Z")
    monitor = ReferenceMonitor(
        PolicyDecisionPoint(), policy_pack, pips, audit=audit, pseudonym_key=KEY
    )
    raw = wire_request(
        resource="cust/4711/portfolio",
        point="47.37 8.54",
        tokens=("cust:4711",),
        token_at="2026-03-10T13:40:00Z",
    )
    for _ in range(3):
        monitor.handle_request(raw, GOOD_SESSION)
    assert pips.log.pdp_calls == 3
    assert len((tmp_path / "audit.log").read_text().splitlines()) == 3


def test_trace_digest_is_stable():
    view = DataView(ViewMode.CLEARTEXT, "x")
    assert view.to_wire().mode == "cleartext"
    from lexgate.model import TraceRecord

    trace = (TraceRecord("a", Decision.PERMIT, "effect"),)
    assert trace_digest(trace) == trace_digest(tuple(trace))


# -- the monitor boundary -----------------------------------------------------------


def test_non_utf8_request_is_a_syntax_error_with_one_audit_record(policy_pack, tmp_path):
    audit = AuditLog(tmp_path / "audit.log")
    monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=audit)
    raw = wire_request(extra_lines=("resource note string caf\xe9",)).replace("\xe9".encode(), b"\xe9\xff")
    response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, view = parse_response(response_bytes)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == "syntax-error"
    assert response.trace[0].reason.startswith("bad-request:message is not UTF-8")
    assert view is None
    assert (tmp_path / "audit.log").read_text() == record.to_line() + "\n"


def test_memory_stays_bounded_over_many_requests(policy_pack, fixtures_root):
    # One monitor serves the packaged requests. After the warm-up (roots
    # compiled, scopes selected) the memory still held must not grow with
    # the request count.
    requests = [
        (fixtures_root / "requests" / f"{name}.req").read_bytes()
        for name in ("portfolio-de-office", "login-noon", "portfolio-ch-window")
    ]
    monitor, _pips = make_monitor(policy_pack, "2026-03-10T12:45:00Z", audit=AuditLog())

    def serve(count):
        for n in range(count):
            monitor.handle_request(requests[n % 3], GOOD_SESSION)

    serve(1_000)
    gc.collect()
    tracemalloc.start()
    try:
        serve(9_000)
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 16 * 1024


_VALID_REQUEST = wire_request(resource="cust/4711/portfolio", point="47.37 8.54")


def _raise_value_error(message):
    def explode(ctx, args):
        raise ValueError(message)

    return explode


_FORGED = "2026-03-10T13:40:00.000000Z|c.miller|cust/4711/portfolio|read|Permit|ok|0|-"


@pytest.mark.parametrize(
    "message,user,raw",
    [
        pytest.param("a\nb", GOOD_SESSION.user, _VALID_REQUEST, id="condition-error-spans-lines"),
        pytest.param("bad \udc80 text", GOOD_SESSION.user, _VALID_REQUEST, id="condition-error-surrogate"),
        pytest.param("", "c.mil\udc80ler", _VALID_REQUEST, id="session-user-surrogate"),
        pytest.param(
            "", GOOD_SESSION.user,
            _VALID_REQUEST.decode().replace("end\n", "resource note string caf\udc80\nend\n"),
            id="str-request-surrogate",
        ),
        pytest.param("", "mallory\n" + _FORGED, _VALID_REQUEST, id="session-user-forges-a-record"),
    ],
)
def test_caller_text_cannot_break_the_response_or_the_audit_line(tmp_path, message, user, raw):
    # A registered condition function that raises with `message` decides
    # the forest's one policy, so its text reaches a trace reason.
    engine = PolicyDecisionPoint(FunctionRegistry({"function:explode": _raise_value_error(message)}))
    forest = [document(policy("p", [rule("r", Effect.PERMIT, FunctionApplication("function:explode", ()))]))]
    audit_path = tmp_path / "audit.log"
    pips = make_bundle("2026-03-10T13:40:00Z")
    monitor = ReferenceMonitor(engine, forest, pips, audit=AuditLog(audit_path), pseudonym_key=KEY)
    response_bytes, _record = monitor.handle_request(raw, AuthState(user, "miller-pass-1"))
    response, _view = parse_response(response_bytes)
    lines = audit_path.read_bytes().decode("utf-8").splitlines()
    assert len(lines) == 1
    # Read from the right: the caller's fields come first and may hold '|'.
    _head, decision, status, _digest, _obligations = lines[0].rsplit("|", 4)
    assert (decision, status) == (response.decision.value, response.status)


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
    monitor, _ = make_monitor(policy_pack, "2026-03-10T13:40:00Z", audit=AuditLog(audit_path))
    response_bytes, record = monitor.handle_request(raw, GOOD_SESSION)
    response, _view = parse_response(response_bytes)
    assert audit_path.read_text() == record.to_line() + "\n"
    assert record.decision is response.decision
