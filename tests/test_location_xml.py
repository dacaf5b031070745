import pytest
from hypothesis import given, strategies as st
from pathlib import Path

from lexgate.errors import CoordinateRangeError, PolicySyntaxError
from lexgate.model import GeoPoint
from lexgate.parsing.location_xml import (
    LocationReport,
    ZoneKind,
    parse_location_report,
    serialize_location_report,
)

LONDON = Path(__file__).parent.parent / "src/lexgate/fixtures/location-report-london.xml"


def test_london_report_parses_field_for_field():
    report = parse_location_report(LONDON.read_bytes())
    assert report.country == "GB"
    assert report.country_display_name == "United Kingdom"
    assert report.city == "London"
    assert report.zone is ZoneKind.UNRESTRICTED
    assert report.timezone_name == "GMT"
    assert report.timezone_offset == 0
    assert report.point == GeoPoint(51.507861, -0.099349)
    assert report.accuracy_radius == 0


def test_london_report_round_trip_is_structurally_identical():
    report = parse_location_report(LONDON.read_bytes())
    assert parse_location_report(serialize_location_report(report)) == report


def test_restricted_zone_value():
    data = LONDON.read_text().replace("unrestricted", "restricted")
    report = parse_location_report(data)
    assert report.zone is ZoneKind.RESTRICTED
    assert report.city == "London"


def test_out_of_range_latitude_is_a_range_error():
    data = LONDON.read_text().replace("51.507861", "91.0")
    with pytest.raises(CoordinateRangeError):
        parse_location_report(data)


def test_non_4326_crs_is_rejected():
    data = LONDON.read_text().replace("EPSG:6.6:4326", "EPSG:6.6:31466")
    with pytest.raises(PolicySyntaxError):
        parse_location_report(data)


def test_unknown_zone_value_is_rejected():
    data = LONDON.read_text().replace("unrestricted", "liminal")
    with pytest.raises(PolicySyntaxError):
        parse_location_report(data)


def test_missing_country_is_rejected():
    data = LONDON.read_text().replace("<country>United Kingdom</country>", "")
    with pytest.raises(PolicySyntaxError):
        parse_location_report(data)


_reports = st.builds(
    LocationReport,
    country=st.sampled_from(("GB", "LU", "DE", "JP", "ZZ")),
    city=st.sampled_from(("London", "Luxembourg", "Eschborn", "")),
    zone=st.sampled_from(ZoneKind),
    timezone_name=st.sampled_from(("GMT", "CET", "JST")),
    timezone_offset=st.integers(-48, 56).map(lambda q: q / 4.0),
    point=st.builds(
        GeoPoint,
        lat=st.floats(-90, 90, allow_nan=False),
        lon=st.floats(-180, 180, allow_nan=False),
    ),
    accuracy_radius=st.sampled_from((0.0, 25.0, 150.5)),
)


@given(_reports)
def test_report_round_trip_property(report):
    assert parse_location_report(serialize_location_report(report)) == report


@pytest.mark.parametrize("offset", ["inf", "-inf", "1e400", "nan", "1e308"])
def test_a_non_finite_timezone_offset_is_a_syntax_error(offset):
    data = LONDON.read_text().replace("<value>0</value>", f"<value>{offset}</value>")
    with pytest.raises(PolicySyntaxError, match="timezone offset out of range"):
        parse_location_report(data)


@pytest.mark.parametrize(
    "radius, message",
    [("nan", "must be finite"), ("inf", "must be finite"), ("-inf", "must be >= 0"), ("-1", "must be >= 0")],
)
def test_a_non_finite_or_negative_accuracy_radius_is_a_syntax_error(radius, message):
    data = LONDON.read_text().replace("</location>", f"<accuracy>{radius}</accuracy></location>")
    with pytest.raises(PolicySyntaxError, match=f"accuracy radius {message}"):
        parse_location_report(data)
