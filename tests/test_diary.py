import datetime as dt

import pytest
from hypothesis import given, strategies as st

from lexgate.context.diary import (
    DiaryEntry,
    DiaryStore,
    ExpectedLocation,
    TaskAssessment,
    TimeRange,
)
from lexgate.context.identity import IdentityKind, IdentityRecord, IdentityRegistry, ProximityToken
from lexgate.errors import FixtureError
from lexgate.model import GeoPoint
from lexgate.parsing.location_xml import LocationReport, ZoneKind


def _instant(hour: int, minute: int = 0) -> dt.datetime:
    return dt.datetime(2026, 3, 10, hour, minute, tzinfo=dt.timezone.utc)


def _report(country: str, city: str = "") -> LocationReport:
    return LocationReport(
        country=country,
        city=city,
        zone=ZoneKind.UNRESTRICTED,
        timezone_name="CET",
        timezone_offset=1,
        point=GeoPoint(49.6, 6.1),
    )


IDENTITIES = IdentityRegistry(
    [
        IdentityRecord("c1", IdentityKind.CONSULTANT, "pw", frozenset({"k1"})),
        IdentityRecord("k1", IdentityKind.CUSTOMER, "verifier"),
    ]
)

ENTRY = DiaryEntry(
    owner="c1",
    task="customer service",
    time=TimeRange(_instant(14), _instant(15), dt.timedelta(hours=1), dt.timedelta(minutes=30)),
    expected_location=ExpectedLocation(country="LU"),
    participants=frozenset({"k1"}),
    planned_resources=frozenset({"res"}),
)

STORE = DiaryStore([ENTRY])


def _fresh_token(at: dt.datetime) -> ProximityToken:
    return ProximityToken("k1", at, "code-card-subset")


def check(now, location, tokens=()):
    return STORE.check_task("c1", "res", now, location, tokens, IDENTITIES)


def test_full_match_inside_core_with_presence():
    now = _instant(14, 30)
    assert check(now, _report("LU"), (_fresh_token(now),)) is TaskAssessment.FULL_MATCH


def test_pre_extension_yields_pseudonymous_window():
    assert check(_instant(13, 30), _report("LU")) is TaskAssessment.PSEUDONYMOUS_WINDOW


def test_post_extension_yields_pseudonymous_window():
    assert check(_instant(15, 20), _report("LU")) is TaskAssessment.PSEUDONYMOUS_WINDOW


def test_core_without_presence_is_pseudonymous():
    assert check(_instant(14, 30), _report("LU")) is TaskAssessment.PSEUDONYMOUS_WINDOW


def test_core_with_stale_token_is_pseudonymous():
    now = _instant(14, 30)
    stale = ProximityToken("k1", now - dt.timedelta(hours=2), "code-card-subset")
    assert check(now, _report("LU"), (stale,)) is TaskAssessment.PSEUDONYMOUS_WINDOW


def test_wrong_country_is_location_mismatch():
    now = _instant(14, 30)
    assert check(now, _report("FR"), (_fresh_token(now),)) is TaskAssessment.LOCATION_MISMATCH


def test_outside_all_windows_is_no_task():
    assert check(_instant(10), _report("LU")) is TaskAssessment.NO_TASK


def test_unplanned_resource_is_no_task():
    now = _instant(14, 30)
    result = STORE.check_task("c1", "other", now, _report("LU"), (_fresh_token(now),), IDENTITIES)
    assert result is TaskAssessment.NO_TASK


def test_unresolved_location_never_full_match():
    now = _instant(14, 30)
    assert check(now, None, (_fresh_token(now),)) is TaskAssessment.PSEUDONYMOUS_WINDOW
    assert check(_instant(13, 30), None) is TaskAssessment.PSEUDONYMOUS_WINDOW
    assert check(_instant(10), None) is TaskAssessment.NO_TASK


def test_expected_point_radius_is_enforced():
    entry = DiaryEntry(
        owner="c1",
        task="meeting",
        time=TimeRange(_instant(14), _instant(15)),
        expected_location=ExpectedLocation(
            country="LU", point=GeoPoint(49.6, 6.1), radius_m=500.0
        ),
        participants=frozenset({"k1"}),
        planned_resources=frozenset({"res"}),
    )
    store = DiaryStore([entry])
    now = _instant(14, 30)
    near = _report("LU")
    far = LocationReport(
        country="LU", city="", zone=ZoneKind.UNRESTRICTED, timezone_name="CET",
        timezone_offset=1, point=GeoPoint(49.7, 6.4),
    )
    assert store.check_task("c1", "res", now, near, (_fresh_token(now),), IDENTITIES) \
        is TaskAssessment.FULL_MATCH
    assert store.check_task("c1", "res", now, far, (_fresh_token(now),), IDENTITIES) \
        is TaskAssessment.LOCATION_MISMATCH


def test_time_range_invariants():
    with pytest.raises(ValueError):
        TimeRange(_instant(15), _instant(14))
    with pytest.raises(ValueError):
        TimeRange(_instant(14), _instant(15), pre_extension=dt.timedelta(minutes=-1))


def test_cross_border_entries_need_travel_authorization():
    abroad = DiaryEntry(
        owner="c1",
        task="trip",
        time=ENTRY.time,
        expected_location=ExpectedLocation(country="DE"),
        planned_resources=frozenset({"res"}),
    )
    with pytest.raises(FixtureError):
        DiaryStore([abroad], home_country="LU")
    DiaryStore([abroad], home_country="DE")  # not cross-border from DE


@given(
    st.sampled_from([_instant(13), _instant(14), _instant(15), _instant(15, 30)]).flatmap(
        lambda edge: st.sampled_from([-1, 0, 1]).map(
            lambda us: edge + dt.timedelta(microseconds=us)
        )
    )
    | st.integers(min_value=0, max_value=17_999).map(
        lambda s: _instant(12) + dt.timedelta(seconds=s)
    )
)
def test_core_and_extension_windows_are_disjoint(now):
    # With the customer present at the expected place, the core 14:00-15:00
    # is a full match, and only the extensions, from 13:00 and to 15:30,
    # are the pseudonymous window.
    result = check(now, _report("LU"), (_fresh_token(now),))
    if _instant(14) <= now <= _instant(15):
        assert result is TaskAssessment.FULL_MATCH
    elif _instant(13) <= now <= _instant(15, 30):
        assert result is TaskAssessment.PSEUDONYMOUS_WINDOW
    else:
        assert result is TaskAssessment.NO_TASK


@given(
    st.integers(min_value=0, max_value=35_999).map(
        lambda s: _instant(4) + dt.timedelta(seconds=s)
    ),
    st.booleans(),
)
def test_full_match_never_holds_in_the_extension_window(now, with_token):
    tokens = (_fresh_token(now),) if with_token else ()
    result = check(now, _report("LU"), tokens)
    if _instant(13) <= now < _instant(14) or _instant(15) < now <= _instant(15, 30):
        assert result is TaskAssessment.PSEUDONYMOUS_WINDOW


def test_an_expected_city_other_than_the_reports_is_a_location_mismatch():
    # The entry expects Luxembourg city: a report from another city in the
    # country is a mismatch, one from that city or with no city is not.
    entry = DiaryEntry(
        owner="c1",
        task="meeting",
        time=TimeRange(_instant(14), _instant(15)),
        expected_location=ExpectedLocation(country="LU", city="Luxembourg"),
        participants=frozenset({"k1"}),
        planned_resources=frozenset({"res"}),
    )
    store = DiaryStore([entry])
    now = _instant(14, 30)
    tokens = (_fresh_token(now),)
    for city, assessment in (
        ("Esch-sur-Alzette", TaskAssessment.LOCATION_MISMATCH),
        ("Luxembourg", TaskAssessment.FULL_MATCH),
        ("", TaskAssessment.FULL_MATCH),
    ):
        assert store.check_task("c1", "res", now, _report("LU", city), tokens, IDENTITIES) is assessment
