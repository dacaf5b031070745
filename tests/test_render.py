"""The rendered response head and the one-scan audit line give the bytes
of the per-field reference renderings (`render_oracle`)."""

import dataclasses
import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

import render_oracle
from conftest import make_bundle, wire_request
from lexgate import pep
from lexgate.engine import PolicyDecisionPoint
from lexgate.errors import WireFormatError
from lexgate.model import (
    AttributeValue,
    DataType,
    Decision,
    Effect,
    GeoPoint,
    Obligation,
    ResponseContext,
    TraceRecord,
)
from lexgate.parsing import wire
from lexgate.parsing.wire import ViewMode, WireView, parse_request, serialize_response
from lexgate.pep import AuditRecord, AuthState, ReferenceMonitor
from policybuild import document, policy, rule

SESSION = AuthState("c.miller", "miller-pass-1")
AT = dt.datetime(2026, 3, 10, 13, 40, tzinfo=dt.timezone.utc)


# -- the audit line ---------------------------------------------------------------

# Caller text, empty included, made of what the line must escape and what
# it keeps: `|`, `%`, the backslash, CR/LF, U+2028 and lone surrogates.
_caller_text = st.text(
    st.sampled_from(("a", "é", " ", "-", ",", "|", "%", "\\", "\r", "\n", "\u2028", "\ud800", "\udfff")),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(
    requester=_caller_text,
    resource=_caller_text,
    action=_caller_text,
    decision=st.sampled_from(Decision),
    obligations=st.sampled_from(((), ("pseudonymize",), ("anonymize", "limit-duration"))),
    microsecond=st.sampled_from((0, 1, 999_999)),
)
def test_an_audit_line_is_the_reference_line(requester, resource, action, decision, obligations, microsecond):
    record = AuditRecord(
        AT.replace(microsecond=microsecond), requester, resource, action, decision, "ok", "0" * 64, obligations
    )
    line = record.to_line()
    assert line == render_oracle.audit_line(record)
    assert len(line.split("|")) == 8
    line.encode("utf-8")  # no lone surrogate is left


def test_an_audit_record_keeps_its_fields_order_and_default():
    record = AuditRecord(AT, "c.miller", "r", "read", Decision.PERMIT, "ok", "0" * 64)
    assert record._fields == (
        "at", "requester", "resource", "action", "decision", "status", "trace_digest", "obligations_executed",
    )
    assert record.obligations_executed == ()
    assert record == AuditRecord(
        at=AT, requester="c.miller", resource="r", action="read", decision=Decision.PERMIT,
        status="ok", trace_digest="0" * 64,
    )


# -- the response's wire text -------------------------------------------------------

_EVERY_PARAM = (
    ("duration-seconds", AttributeValue(DataType.INTEGER, 60)),
    ("note", AttributeValue(DataType.STRING, "two words é ")),
    ("empty", AttributeValue(DataType.STRING, "")),
    ("until", AttributeValue(DataType.TIME_OF_DAY, dt.time(17, 30))),
    ("day", AttributeValue(DataType.DATE, dt.date(2026, 3, 10))),
    ("flag", AttributeValue(DataType.BOOLEAN, False)),
    ("spot", AttributeValue(DataType.GEO_POINT, GeoPoint(51.5, -0.1))),
    ("country", AttributeValue(DataType.COUNTRY_CODE, "GB")),
)


def _engine_responses():
    """Two evaluations each of a Permit and a Deny that carry obligations
    with every kind of param: the second is the memoized response."""
    obligated = document(policy("Obligated", [
        rule("Grant", Effect.PERMIT, obligations=(
            Obligation("limit-duration", Effect.PERMIT, _EVERY_PARAM),
            Obligation("pseudonymize", Effect.PERMIT),
        )),
    ]))
    refused = document(policy("Refused", [
        rule("Refuse", Effect.DENY, obligations=(Obligation("notify", Effect.DENY, _EVERY_PARAM[1:3]),)),
    ]))
    engine = PolicyDecisionPoint()
    pips = make_bundle(AT)
    request = parse_request(wire_request())
    for forest in (engine.compile([obligated]), engine.compile([obligated, refused])):
        for _ in range(2):
            yield engine.evaluate(forest, request, pips)


def _monitor_responses(policy_pack):
    """The responses of the monitor's exits, each body decided twice: the
    two fixed refusals, the body memo's refusals and the decisions."""
    monitor = ReferenceMonitor(PolicyDecisionPoint(), policy_pack, make_bundle(AT), pseudonym_key="k")
    bodies = (
        (wire_request(resource="cust/4711/portfolio", point="47.37 8.54",
                      tokens=("cust:4711",), token_at="2026-03-10T13:40:00Z"), SESSION),
        (wire_request(), SESSION),
        (wire_request(), AuthState("c.miller", "wrong")),
        (wire_request(subject="a.chen"), SESSION),
        (b"not a request\n", SESSION),
        (b"request\nsubject user-id identifier c.miller\nbogus line\nend\n", SESSION),
        (b"\xff\xfe", SESSION),
    )
    for raw, session in bodies:
        for _ in range(2):
            _request, response, view = monitor._decide(raw, session)
            yield response, view


def test_serialized_responses_are_the_reference_bytes(policy_pack):
    view = WireView(ViewMode.PSEUDONYMOUS, "payload é", dt.datetime(2026, 3, 10, 14, 0, tzinfo=dt.timezone.utc))
    responses = [
        *((response, None) for response in _engine_responses()),
        *((response, view) for response in _engine_responses()),
        *_monitor_responses(policy_pack),
        (pep._AUTHENTICATION_FAILED, None),
        (pep._SUBJECT_SESSION_MISMATCH, None),
    ]
    assert any(response.obligations and response.obligations[0].parameters for response, _ in responses)
    assert any(view is not None for _, view in responses[8:])  # a Permit from the monitor
    for response, shown in responses:
        want = render_oracle.response_bytes(response, shown)
        assert serialize_response(response, shown) == want  # first
        assert serialize_response(response, shown) == want  # from the kept head


def test_a_response_head_is_rendered_once(policy_pack, monkeypatch):
    rendered = []

    def counted(response):
        rendered.append(response)
        return render(response)

    render = wire.response_head
    monkeypatch.setattr(wire, "response_head", counted)
    response = ResponseContext(Decision.DENY, trace=(TraceRecord("p", Decision.DENY, "effect"),))
    for _ in range(3):
        assert serialize_response(response) == render_oracle.response_bytes(response)
    assert rendered == [response]
    # A copy with another field renders its own head; the kept one is not copied.
    changed = dataclasses.replace(response, status="processing-error")
    assert serialize_response(changed) == render_oracle.response_bytes(changed)
    assert len(rendered) == 2 and rendered[1] is changed

    # The monitor answers a repeated request from its memoized response.
    monitor = ReferenceMonitor(PolicyDecisionPoint(), policy_pack, make_bundle(AT), pseudonym_key="k")
    rendered.clear()
    answers = {monitor.handle_request(wire_request(), SESSION)[0] for _ in range(3)}
    assert len(answers) == 1 and len(rendered) == 1


@pytest.mark.parametrize("text", ["a\nb", "a\u2028b", "a\ud800b"])
def test_a_param_that_is_not_wire_text_raises_only_when_serialized(text):
    obligation = Obligation("limit-duration", Effect.PERMIT, (("note", AttributeValue(DataType.STRING, text)),))
    response = ResponseContext(Decision.PERMIT, obligations=(obligation,))
    assert response.obligation_ids == ("limit-duration",)
    for _ in range(2):  # nothing is kept after a refusal
        with pytest.raises(WireFormatError, match="obligation parameter must be one line"):
            serialize_response(response)
    assert "wire_head" not in vars(response)
