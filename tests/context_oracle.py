"""Reference implementations of the context lookups, kept linear.

`resolve_location` tests every polygon of the zone tree and `check_task`
scans every diary entry, exactly as lexgate did before it indexed both at
load time (bounding boxes per polygon and a grid over the country boxes,
window bounds per owner). `check_task` verifies every token first, tests
each interval from the entry's `TimeRange` fields and asks the registry
for the kind of each participant. The indexed code must agree with these on every
input: the same LocationReport or TaskAssessment, or the same exception
type with the same message. Both sides call the same polygon kernels;
tests/geometry_oracle.py holds those kernels as they were before they
became one pass each.
"""

from __future__ import annotations

from lexgate.context.diary import DiaryStore, TaskAssessment, TimeRange, _better
from lexgate.context.geometry import disc_polygon_relation, point_in_polygon
from lexgate.context.identity import IdentityKind
from lexgate.context.zones import ZoneTree
from lexgate.errors import PrecisionError, UnknownTerritoryError
from lexgate.parsing.location_xml import LocationReport, ZoneKind


def resolve_location(point, accuracy_radius, zones: ZoneTree) -> LocationReport:
    containing = [c for c in zones.countries() if point_in_polygon(point, c.boundary)]
    if not containing:
        raise UnknownTerritoryError(
            f"no territory contains ({point.lat!r}, {point.lon!r})"
        )
    if len(containing) > 1:
        ids = ", ".join(c.id for c in containing)
        raise PrecisionError(f"point lies in several countries: {ids}")
    country = containing[0]

    if accuracy_radius > 0:
        for other in zones.countries():
            if other.id == country.id:
                continue
            if disc_polygon_relation(point, accuracy_radius, other.boundary) != "outside":
                raise PrecisionError(
                    f"accuracy disc of {accuracy_radius!r} m overlaps both "
                    f"{country.id} and {other.id}"
                )

    zone = ZoneKind.UNRESTRICTED
    for area in country.restricted:
        relation = disc_polygon_relation(point, accuracy_radius, area.polygon)
        if relation == "straddles":
            raise PrecisionError(
                f"accuracy disc straddles restricted area {area.id!r}",
                country=country.id,
            )
        if relation == "inside":
            zone = ZoneKind.RESTRICTED

    city = ""
    for city_area in country.cities:
        if point_in_polygon(point, city_area.polygon):
            city = city_area.name
            break

    return LocationReport(
        country=country.id,
        city=city,
        zone=zone,
        timezone_name=country.timezone_name,
        timezone_offset=country.timezone_offset,
        point=point,
        accuracy_radius=accuracy_radius,
    )


def entries_for(store: DiaryStore, user, resource):
    return tuple(
        entry
        for entry in store.entries
        if entry.owner == user and resource in entry.planned_resources
    )


def in_core(time: TimeRange, now) -> bool:
    return time.start <= now <= time.end


def in_extension(time: TimeRange, now) -> bool:
    """Inside the pre/post window but strictly outside the core."""
    before = time.start - time.pre_extension <= now < time.start
    after = time.end < now <= time.end + time.post_extension
    return before or after


def customers_present(entry, verified, identities) -> bool:
    expected = {
        participant
        for participant in entry.participants
        if identities.kind_of(participant) is IdentityKind.CUSTOMER
    }
    return expected <= verified


def check_task(store: DiaryStore, user, resource, now, location, tokens, identities):
    verified = identities.verified_customers(tokens, now)
    best = TaskAssessment.NO_TASK
    for entry in entries_for(store, user, resource):
        core = in_core(entry.time, now)
        if not (core or in_extension(entry.time, now)):
            continue
        if location is None:
            best = _better(best, TaskAssessment.PSEUDONYMOUS_WINDOW)
            continue
        if not entry.expected_location.matches(location):
            best = _better(best, TaskAssessment.LOCATION_MISMATCH)
            continue
        if core and customers_present(entry, verified, identities):
            return TaskAssessment.FULL_MATCH
        best = _better(best, TaskAssessment.PSEUDONYMOUS_WINDOW)
    return best


def outcome(call, *args):
    """The value of call(*args), or (exception type, message, country).
    A ValueError counts too: a report refuses a radius that is NaN, and
    both sides build one."""
    try:
        return call(*args)
    except (PrecisionError, UnknownTerritoryError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "country", None)
