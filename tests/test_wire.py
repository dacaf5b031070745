import dataclasses
import datetime as dt
import gc
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lexgate.errors import MissingCategoryError, WireFormatError
from lexgate.model import (
    AttributeValue,
    Category,
    DataType,
    Decision,
    Effect,
    GeoPoint,
    Obligation,
    Memo,
    ResponseContext,
    TraceRecord,
    STATUS_PROCESSING_ERROR,
    is_one_field,
)
from lexgate.parsing import wire
from lexgate.parsing.location_xml import LocationReport, ZoneKind
from lexgate.parsing.policy_xml import parse_typed_value
from lexgate.parsing.wire import (
    RequestContext,
    ViewMode,
    WireView,
    parse_request,
    parse_response,
    serialize_request,
    serialize_response,
)
from wire_grammar import REFUSED_LINES, wire_requests

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
        mode=ViewMode.PSEUDONYMOUS,
        payload="Portfolio of nym-aabbcc\nwith a newline",
        expires_at=dt.datetime(2026, 3, 10, 15, 0, tzinfo=dt.timezone.utc),
    )
    _, rebuilt_view = parse_response(serialize_response(response, view))
    assert rebuilt_view == view


def test_view_with_an_empty_payload_round_trips():
    response = ResponseContext(Decision.PERMIT)
    view = WireView(mode=ViewMode.CLEARTEXT, payload="")
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
    for expiry in (b"noon", b"0001-01-01T00:30:00+01:00"):
        with pytest.raises(WireFormatError, match="bad view expiry on line 3"):
            parse_response(b"response\ndecision Permit\nview cleartext " + expiry + b" \nend\n")
    # The grammar allows three view modes.
    with pytest.raises(WireFormatError, match="unknown view mode on line 3"):
        parse_response(b"response\ndecision Permit\nview bogus - eA==\nend\n")
    # An empty attribute id or timezone name, which serialize_request
    # could not write back.
    with pytest.raises(WireFormatError, match="empty attribute id on line 2"):
        parse_request(b"request\nsubject  string x\nend\n")
    location = b"location country GB\nlocation city London\nlocation zone unrestricted\nlocation point 51.5 -0.12\n"
    with pytest.raises(WireFormatError, match="bad location block: empty timezone name"):
        parse_request(b"request\nsubject user-id string x\n" + location + b"location timezone  0\nend\n")
    # Nor one that holds whitespace other than a space.
    for attr_id in ("a\tb", "a\u00a0b", "a\u3000b"):
        with pytest.raises(WireFormatError, match="whitespace in attribute id .* on line 2"):
            parse_request(f"request\nsubject {attr_id} string x\nend\n")
    with pytest.raises(WireFormatError, match="bad location block: whitespace in timezone name"):
        parse_request(b"request\nsubject user-id string x\n" + location + b"location timezone a\tb 0\nend\n")


@pytest.mark.parametrize("text", ["a\nb", "a\rb", "a\u2028b", "a\x85b", "a\ud800b"])
def test_a_value_with_a_line_break_is_not_serialized(text):
    # parse_request splits lines as str.splitlines does, and a lone
    # surrogate has no UTF-8 encoding.
    value = AttributeValue(DataType.STRING, text)
    request = RequestContext(subject=(("note", value),))
    with pytest.raises(WireFormatError, match="line breaks"):
        serialize_request(request)
    obligation = Obligation("limit-duration", Effect.PERMIT, (("note", value),))
    with pytest.raises(WireFormatError, match="line breaks"):
        serialize_response(ResponseContext(Decision.PERMIT, obligations=(obligation,)))


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


def _requests_of(ids, countries=("GB", "LU", "CH", "DE"), timezones=("GMT", "CET")):
    """RequestContexts whose attributes carry ids drawn from `ids`, and
    whose location report and destination draw from `countries` and
    `timezones`."""
    bags = st.lists(st.tuples(ids, _values), max_size=3).map(tuple)
    return st.builds(
        RequestContext,
        subject=st.lists(st.tuples(ids, _values), min_size=1, max_size=3).map(tuple),
        resource=bags,
        action=bags,
        environment=bags,
        source_location=_source_locations(countries, timezones),
        destination_country=st.one_of(st.none(), st.sampled_from(countries)),
    )


def _source_locations(countries, timezones):
    return st.one_of(st.none(), st.builds(
        LocationReport,
        country=st.sampled_from(countries),
        city=st.sampled_from(("London", "Zurich", "")),
        zone=st.sampled_from(ZoneKind),
        timezone_name=st.sampled_from(timezones),
        timezone_offset=st.sampled_from((0.0, 1.0, 5.75)),
        point=st.builds(
            GeoPoint,
            lat=st.floats(-90, 90, allow_nan=False),
            lon=st.floats(-180, 180, allow_nan=False),
        ),
        accuracy_radius=st.sampled_from((0.0, 30.0)),
    ))


_requests = _requests_of(_ids)


@given(_requests)
def test_request_round_trip_property(request):
    assert parse_request(serialize_request(request)) == request


_NOT_ONE_FIELD = ("my note", "a\ud800", "", " x", "a\tb", "a\u2028b", "a\x1cb")


@pytest.mark.parametrize("attr_id", _NOT_ONE_FIELD)
def test_an_attribute_id_that_is_not_one_field_is_not_serialized(attr_id):
    # "my note" would be read back as the id "my" of type "note", and a
    # lone surrogate has no UTF-8 encoding.
    request = RequestContext(subject=((attr_id, AttributeValue(DataType.STRING, "x")),))
    with pytest.raises(WireFormatError, match="attribute id"):
        serialize_request(request)


_LONDON_REPORT = LocationReport(
    country="GB", city="London", zone=ZoneKind.UNRESTRICTED, timezone_name="GMT",
    timezone_offset=0.0, point=GeoPoint(51.5, -0.12), accuracy_radius=0.0,
)


@pytest.mark.parametrize("line", REFUSED_LINES)
def test_each_line_the_grammar_helper_calls_refused_is_refused(line):
    with pytest.raises(WireFormatError, match="on line 3|subject attributes"):
        parse_request(f"request\nsubject user-id identifier c.miller\n{line}\nend\n")


@pytest.mark.parametrize("country", ["gb", "Gb", "G B", "Luxembourg", "GBR"])
def test_a_destination_that_does_not_read_back_as_itself_is_refused(country):
    # As serialize_request refuses it: `country_code` would change it.
    with pytest.raises(WireFormatError, match=f"^bad destination-country on line 3: .*{country!r}$"):
        parse_request(f"request\nsubject user-id identifier c.miller\ndestination-country {country}\nend\n")


@pytest.mark.parametrize(
    "report,destination,match",
    [
        # parse_request refuses "G B" and upper-cases "gb".
        pytest.param({"country": "G B"}, None, "location country", id="country-spans-fields"),
        pytest.param({"country": "gb"}, None, "location country", id="country-lower-case"),
        pytest.param({"timezone_name": "Europe Paris"}, None, "timezone name", id="timezone-spans-fields"),
        pytest.param({"timezone_name": "a\ud800"}, None, "timezone name", id="timezone-surrogate"),
        pytest.param({}, "gb", "destination country", id="destination-lower-case"),
        # parse_request strips each line, so a city's trailing whitespace
        # would be lost; a leading space survives.
        pytest.param({"city": "London "}, None, "city must not end in whitespace", id="city-trailing-space"),
        pytest.param({"city": "a\xa0"}, None, "city must not end in whitespace", id="city-trailing-nbsp"),
    ],
)
def test_a_location_the_wire_cannot_carry_is_not_serialized(report, destination, match):
    subject = (("user-id", AttributeValue(DataType.STRING, "u")),)
    request = RequestContext(
        subject=subject,
        source_location=dataclasses.replace(_LONDON_REPORT, **report),
        destination_country=destination,
    )
    with pytest.raises(WireFormatError, match=match):
        serialize_request(request)
    # The same request with the report's own values is carried.
    carried = dataclasses.replace(
        request, source_location=_LONDON_REPORT, destination_country=destination and "GB"
    )
    assert parse_request(serialize_request(carried)) == carried


# Ids, countries and timezone names as a caller may build them in memory;
# parse_request reads the "bad" ones back as something else, or not at all.
_any_ids = st.one_of(_ids, st.sampled_from(_NOT_ONE_FIELD), st.text(max_size=6))
_BAD_COUNTRIES = ("G B", "gb", " GB", "Germany")
_BAD_TIMEZONES = ("Europe Paris", "a\ud800")


@given(_requests_of(_any_ids, ("GB", "LU", *_BAD_COUNTRIES), ("CET", *_BAD_TIMEZONES)))
def test_a_request_built_in_memory_serializes_to_itself_or_is_refused(request):
    ids = [attr_id for category in Category for attr_id, _value in request.category(category)]
    report = request.source_location
    fields = [request.destination_country, *((report.country, report.timezone_name) if report else ())]
    try:
        data = serialize_request(request)
    except WireFormatError:
        assert not all(map(is_one_field, ids)) or any(f in _BAD_COUNTRIES + _BAD_TIMEZONES for f in fields)
        return
    assert parse_request(data) == request


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
    data = serialize_response(response)
    rebuilt, view = parse_response(data)
    assert rebuilt == response
    assert view is None
    # The audit digest and the bytes survive the wire.
    assert rebuilt.trace.digest == response.trace.digest
    assert serialize_response(rebuilt) == data


# -- the line memo ----------------------------------------------------------------

def _parsed(data):
    try:
        return parse_request(data)
    except Exception as exc:  # the kind and message are the outcome
        return type(exc), str(exc)


@settings(max_examples=150)
@given(wire_requests())
def test_the_line_memo_changes_no_result(data):
    wire._LINES.clear()
    cold = _parsed(data)
    warm = _parsed(data)  # every line the memo keeps is in it now
    hot = _parsed(data)  # and each is read from it
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wire, "_LINES", Memo(256, doorkeeper=True))
        patch.setattr(wire, "_LONGEST_LINE_HELD", -1)  # no line is kept
        unkept = _parsed(data)
        assert not wire._LINES
    assert cold == warm == hot == unkept
    if isinstance(cold, RequestContext):  # what the parser accepts, it can write back
        assert parse_request(serialize_request(cold)) == cold


@settings(max_examples=150)
@given(wire_requests())
def test_a_parsed_request_is_the_one_its_constructors_build(data):
    # parse_request builds the request and its values without their
    # constructors' checks; the constructors accept what it builds.
    request = _parsed(data)
    if not isinstance(request, RequestContext):
        return
    built = RequestContext(
        request.subject, request.resource, request.action, request.environment,
        request.source_location, request.destination_country,
    )
    assert built == request
    assert (built.subject_id(), built.resource_id(), built.action_id()) == (
        request.subject_id(), request.resource_id(), request.action_id()
    )
    for category in Category:
        for _attribute_id, value in request.category(category):
            assert AttributeValue(value.data_type, value.value) == value


@pytest.mark.parametrize(
    "data_type,text",
    [
        (DataType.STRING, " sparkly  unicorn "),
        (DataType.IDENTIFIER, "c.miller"),
        (DataType.TIME_OF_DAY, "08:00:00"),
        (DataType.DATE, "2026-03-10"),
        (DataType.INTEGER, "-600"),
        (DataType.BOOLEAN, "false"),
        (DataType.GEO_POINT, "51.507861 -0.099349"),
        (DataType.COUNTRY_CODE, "LU"),
    ],
)
def test_a_parsed_value_is_the_one_its_constructor_builds(data_type, text):
    value = parse_typed_value(data_type, text)
    assert value == AttributeValue(data_type, value.value)
    assert type(value.value) is type(AttributeValue(data_type, value.value).value)


def test_a_parsed_country_code_keeps_its_pattern_check():
    message = "country code must be uppercase ISO-3166 alpha-2: 'lu'"
    with pytest.raises(ValueError, match=re.escape(message)):
        AttributeValue(DataType.COUNTRY_CODE, "lu")
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_typed_value(DataType.COUNTRY_CODE, " lu ")
    with pytest.raises(TypeError):
        parse_typed_value(DataType.STRING, b"read")


def _bytes_held(make, count=2_000):
    """What the `count` objects `make(i)` returns hold, as tracemalloc sees
    it: the traced bytes that go when the list of them is dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        made = [make(i) for i in range(count)]
        gc.collect()  # what a tracer's frames left behind
        held = tracemalloc.get_traced_memory()[0]
        del made
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_parsed_values_and_requests_are_no_larger_than_constructor_built_ones():
    # Under CPython 3.11 a value or request whose `__dict__` is read gets a
    # dict of its own, some 60 bytes more than one whose fields are set as
    # its constructor sets them. A byte per object is left for the
    # allocator's own slack.
    slack = 2_000
    texts = [f"note-{i}" for i in range(2_000)]
    built = _bytes_held(lambda i: AttributeValue(DataType.STRING, texts[i]))
    assert _bytes_held(lambda i: parse_typed_value(DataType.STRING, texts[i])) <= built + slack
    assert _bytes_held(lambda i: AttributeValue._trusted(DataType.STRING, texts[i])) <= built + slack
    # The body's lines are in the line memo, so a parse makes only the four
    # bags and the request; the rebuilt request shares the parsed one's bags.
    wire._LINES.clear()
    for _ in range(3):
        parse_request(SAMPLE)

    def rebuilt(_i):
        r = parse_request(SAMPLE)
        return RequestContext(r.subject, r.resource, r.action, r.environment, r.source_location, r.destination_country)

    _bytes_held(rebuilt)  # a warm-up
    assert _bytes_held(lambda _i: parse_request(SAMPLE)) <= _bytes_held(rebuilt) + slack


# -- parse_response refusals -------------------------------------------------------

_DECIDED = "response\ndecision Permit\n"
_OBLIGED = _DECIDED + "obligation limit-duration Permit\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("decision Permit\nend\n", "response must start with a 'response' line"),
        ("", "response must start with a 'response' line"),
        (_DECIDED, "response must finish with an 'end' line"),
        ("response\ndecision Maybe\nend\n", "unknown decision on line 2: 'Maybe'"),
        (_DECIDED + "obligation limit-duration\nend\n", "expected 'obligation <id> <effect>' on line 3"),
        (_DECIDED + "obligation limit-duration Maybe\nend\n", "expected 'obligation <id> <effect>' on line 3"),
        (_DECIDED + "param duration-seconds integer 60\nend\n", "param line before any obligation on line 3"),
        (_OBLIGED + "param duration-seconds\nend\n", "expected 'param <name> <type> <value>' on line 4"),
        (_OBLIGED + "param duration-seconds seconds 60\nend\n", "unknown data type 'seconds' on line 4"),
        (_OBLIGED + "param duration-seconds integer sixty\nend\n", "bad param value on line 4: "),
        (_DECIDED + "trace p1\nend\n", "expected 'trace <node> <decision> [reason]' on line 3"),
        (_DECIDED + "trace p1 Maybe effect\nend\n", "unknown decision on line 3: 'Maybe'"),
        (_DECIDED + "view cleartext\nend\n", "expected 'view <mode> <expires> <base64>' on line 3"),
        (_DECIDED + "view cleartext - /w==\nend\n", "bad view payload on line 3: "),
        (_DECIDED + "view cleartext - eA=\nend\n", "bad view payload on line 3: "),
        (_DECIDED + "verdict Permit\nend\n", "unknown line kind 'verdict' on line 3"),
    ],
)
def test_each_malformed_response_line_is_refused_with_its_reason(text, message):
    with pytest.raises(WireFormatError, match="^" + re.escape(message)):
        parse_response(text)
