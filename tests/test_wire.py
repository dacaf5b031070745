import datetime as dt

import pytest
from hypothesis import given, strategies as st

from lexgate.errors import MissingCategoryError, WireFormatError
from lexgate.model import (
    AttributeValue,
    Category,
    DataType,
    Decision,
    Effect,
    GeoPoint,
    Obligation,
    ResponseContext,
    TraceRecord,
    STATUS_PROCESSING_ERROR,
)
from lexgate.parsing.location_xml import LocationReport, ZoneKind
from lexgate.parsing.wire import (
    RequestContext,
    WireView,
    parse_request,
    parse_response,
    serialize_request,
    serialize_response,
)

SAMPLE = b"""request
subject user-id identifier c.miller
resource resource-id string cust/4711/portfolio
action action-id string read
environment current-position geo-point 51.507861 -0.099349
end
"""


def test_request_parses_all_four_categories():
    request = parse_request(SAMPLE)
    assert request.subject_id() == "c.miller"
    assert request.resource_id() == "cust/4711/portfolio"
    assert request.action_id() == "read"
    point = request.first(Category.ENVIRONMENT, "current-position")
    assert point.value == GeoPoint(51.507861, -0.099349)


def test_request_without_subject_category_is_rejected():
    data = b"request\nresource resource-id string x\nend\n"
    with pytest.raises(MissingCategoryError):
        parse_request(data)


def test_unknown_attributes_survive_round_trip():
    data = b"""request
subject user-id identifier u
subject vendor-specific-flair string sparkly unicorn value
end
"""
    request = parse_request(data)
    again = parse_request(serialize_request(request))
    assert again == request
    assert again.bag(Category.SUBJECT, "vendor-specific-flair")[0].value == "sparkly unicorn value"


def test_request_with_embedded_location_report():
    data = b"""request
destination-country LU
location country GB
location city London
location zone unrestricted
location timezone GMT 0
location point 51.507861 -0.099349
subject user-id identifier u
end
"""
    request = parse_request(data)
    assert request.destination_country == "LU"
    report = request.source_location
    assert report.country == "GB" and report.zone is ZoneKind.UNRESTRICTED
    assert parse_request(serialize_request(request)) == request


def test_error_path_response_shape():
    response = ResponseContext(Decision.INDETERMINATE, STATUS_PROCESSING_ERROR)
    rebuilt, view = parse_response(serialize_response(response))
    assert rebuilt.decision is Decision.INDETERMINATE
    assert rebuilt.status == STATUS_PROCESSING_ERROR
    assert rebuilt.obligations == ()
    assert view is None


def test_response_with_obligation_round_trips():
    response = ResponseContext(
        decision=Decision.PERMIT,
        status="ok",
        obligations=(
            Obligation(
                "pseudonymize",
                Effect.PERMIT,
                (("key-hint", AttributeValue(DataType.STRING, "rotated monthly")),),
            ),
        ),
        trace=(TraceRecord("p1", Decision.PERMIT, "combined:deny-overrides"),),
    )
    rebuilt, view = parse_response(serialize_response(response))
    assert rebuilt == response
    assert view is None


def test_view_round_trips_with_payload_and_expiry():
    response = ResponseContext(Decision.PERMIT)
    view = WireView(
        mode="pseudonymous",
        payload="Portfolio of nym-aabbcc\nwith a newline",
        expires_at=dt.datetime(2026, 3, 10, 15, 0, tzinfo=dt.timezone.utc),
    )
    _, rebuilt_view = parse_response(serialize_response(response, view))
    assert rebuilt_view == view


def test_view_with_an_empty_payload_round_trips():
    response = ResponseContext(Decision.PERMIT)
    view = WireView(mode="cleartext", payload="")
    data = serialize_response(response, view)
    assert b"\nview cleartext - \n" in data
    assert parse_response(data) == (response, view)


def test_non_utf8_bytes_are_a_wire_format_error():
    with pytest.raises(WireFormatError, match="not UTF-8"):
        parse_request(b"request\nsubject user-id identifier caf\xe9\nend\n")


def test_bad_lines_are_rejected():
    with pytest.raises(WireFormatError):
        parse_request(b"request\nsubject user-id mystery-type x\nend\n")
    with pytest.raises(WireFormatError):
        parse_request(b"subject user-id string x\nend\n")
    with pytest.raises(WireFormatError):
        parse_response(b"response\nstatus ok\nend\n")  # decision missing


@pytest.mark.parametrize("text", ["a\nb", "a\rb", "a\u2028b", "a\x85b"])
def test_a_value_with_a_line_break_is_not_serialized(text):
    # parse_request splits lines as str.splitlines does.
    request = RequestContext(subject=(("note", AttributeValue(DataType.STRING, text)),))
    with pytest.raises(WireFormatError, match="line breaks"):
        serialize_request(request)


def test_a_trace_reason_not_escaped_as_written_is_rejected():
    for reason in ("a\\q", "a\\x41", "a\\"):
        with pytest.raises(WireFormatError, match="not escaped"):
            parse_response(f"response\ndecision Deny\ntrace p1 Deny {reason}\nend\n".encode())


# -- round-trip properties ------------------------------------------------------

# Zl and Zp hold U+2028 and U+2029, line breaks a value may not carry.
_clean = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
    min_size=1,
    max_size=24,
).map(str.strip).filter(bool)

_ids = st.sampled_from(("user-id", "resource-id", "action-id", "note", "clearance"))

_values = st.one_of(
    _clean.map(lambda s: AttributeValue(DataType.STRING, s)),
    st.integers(-10**9, 10**9).map(lambda i: AttributeValue(DataType.INTEGER, i)),
    st.booleans().map(lambda b: AttributeValue(DataType.BOOLEAN, b)),
    st.times().map(lambda t: AttributeValue(DataType.TIME_OF_DAY, t.replace(microsecond=0))),
    st.dates(dt.date(1970, 1, 1), dt.date(2100, 1, 1)).map(
        lambda d: AttributeValue(DataType.DATE, d)
    ),
    st.builds(
        GeoPoint,
        lat=st.floats(-90, 90, allow_nan=False),
        lon=st.floats(-180, 180, allow_nan=False),
    ).map(lambda p: AttributeValue(DataType.GEO_POINT, p)),
)

_bags = st.lists(st.tuples(_ids, _values), max_size=3).map(tuple)

_requests = st.builds(
    RequestContext,
    subject=st.lists(st.tuples(_ids, _values), min_size=1, max_size=3).map(tuple),
    resource=_bags,
    action=_bags,
    environment=_bags,
    source_location=st.one_of(
        st.none(),
        st.builds(
            LocationReport,
            country=st.sampled_from(("GB", "LU", "CH")),
            city=st.sampled_from(("London", "Zurich", "")),
            zone=st.sampled_from(ZoneKind),
            timezone_name=st.sampled_from(("GMT", "CET")),
            timezone_offset=st.sampled_from((0.0, 1.0, 5.75)),
            point=st.builds(
                GeoPoint,
                lat=st.floats(-90, 90, allow_nan=False),
                lon=st.floats(-180, 180, allow_nan=False),
            ),
            accuracy_radius=st.sampled_from((0.0, 30.0)),
        ),
    ),
    destination_country=st.one_of(st.none(), st.sampled_from(("LU", "DE"))),
)


@given(_requests)
def test_request_round_trip_property(request):
    assert parse_request(serialize_request(request)) == request


_decisions = st.sampled_from(Decision)
_responses = st.builds(
    ResponseContext,
    decision=_decisions,
    status=st.sampled_from(("ok", "missing-attribute", "processing-error", "syntax-error")),
    obligations=st.lists(
        st.builds(
            Obligation,
            id=st.sampled_from(("pseudonymize", "anonymize", "limit-duration")),
            fulfill_on=st.sampled_from(Effect),
            parameters=st.lists(st.tuples(_ids, _values), max_size=2).map(tuple),
        ),
        max_size=2,
    ).map(tuple),
    trace=st.lists(
        st.builds(
            TraceRecord,
            node_id=st.sampled_from(("p1", "r1", "root")),
            decision=_decisions,
            reason=st.sampled_from(
                (
                    "effect",
                    "condition-false",
                    "combined:deny-overrides",
                    "",
                    # single_line escapes these; parsing must undo it.
                    "condition-error:a\nb",
                    "a\\nb",
                    "x\\y",
                    "bad\udc80 \u2028 \x85",
                )
            ),
        ),
        max_size=3,
    ).map(tuple),
)


@given(_responses)
def test_response_round_trip_property(response):
    rebuilt, view = parse_response(serialize_response(response))
    assert rebuilt == response
    assert view is None
