"""Imprecision may only over-restrict, first as README states it: a request
for customer data whose accuracy disc is too imprecise to classify
(`PrecisionError`) never gets a cleartext view. The discs are drawn on and
near every country and restricted-area edge of the packaged zone tree, at
instants on both sides of every diary window's edges and at any minute of
the diary's days."""

import datetime as dt
import math

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import FIXTURES, wire_request
from lexgate.cli import load_policy_dir
from lexgate.context.bundle import load_bundle
from lexgate.context.clock import FixedClock
from lexgate.context.zones import resolve_location
from lexgate.engine import PolicyDecisionPoint
from lexgate.errors import PrecisionError, UnknownTerritoryError
from lexgate.model import GeoPoint
from lexgate.parsing.wire import ViewMode, parse_response
from lexgate.pep import AuditLog, AuthState, ReferenceMonitor

SESSIONS = {"c.miller": "miller-pass-1", "a.chen": "chen-pass-9"}
# The packaged resources that hold customer data, with their customer.
CUSTOMER_DATA = {"cust/4711/portfolio": "cust:4711", "cust/4712/portfolio": "cust:4712"}
METRES_PER_DEGREE = 111_320.0

_PIPS = load_bundle(FIXTURES, clock=FixedClock(dt.datetime(2026, 3, 10, tzinfo=dt.timezone.utc)))
# Every country and restricted-area boundary of the packaged tree, by id.
POLYGONS = {
    area.id: area.boundary if area is country else area.polygon
    for country in _PIPS.zones.countries()
    for area in (country, *country.restricted)
}
# The edges of every diary entry's core and extended windows.
WINDOW_EDGES = sorted({
    instant
    for entry in _PIPS.diary.entries
    for instant in (entry.time.start - entry.time.pre_extension, entry.time.start,
                    entry.time.end, entry.time.end + entry.time.post_extension)
})
DAYS = sorted({instant.date() for instant in WINDOW_EDGES})

_instants = st.one_of(
    st.builds(lambda edge, minutes: edge + dt.timedelta(minutes=minutes),
              st.sampled_from(WINDOW_EDGES), st.integers(-3, 3)),
    st.builds(lambda day, minute: dt.datetime.combine(day, dt.time(), dt.timezone.utc) + dt.timedelta(minutes=minute),
              st.sampled_from(DAYS), st.integers(0, 24 * 60 - 1)),
)


def _near_edge(polygon, edge, along, across_m):
    """The point `along` (0 to 1) the polygon's edge, moved `across_m`
    metres across it."""
    a, b = polygon[edge], polygon[(edge + 1) % len(polygon)]
    lat, lon = a.lat + along * (b.lat - a.lat), a.lon + along * (b.lon - a.lon)
    length = math.hypot(b.lat - a.lat, (b.lon - a.lon) * math.cos(math.radians(lat)))
    normal_lat = -(b.lon - a.lon) * math.cos(math.radians(lat)) / length
    normal_lon = (b.lat - a.lat) / length
    degrees = across_m / METRES_PER_DEGREE
    return GeoPoint(lat + normal_lat * degrees, lon + normal_lon * degrees / math.cos(math.radians(lat)))


@pytest.fixture(scope="module")
def monitor():
    return ReferenceMonitor(PolicyDecisionPoint(), load_policy_dir(FIXTURES / "policies"), _PIPS,
                            pseudonym_key="unit-test-key")


@pytest.mark.parametrize("area", sorted(POLYGONS))
@settings(max_examples=100, deadline=None)
@given(
    edge=st.integers(0, 3),
    along=st.floats(0, 1),
    radius=st.sampled_from([10, 60, 250, 1_000, 5_000, 20_000, 60_000]),
    across=st.floats(-1.5, 1.5),
    at=_instants,
    user=st.sampled_from(sorted(SESSIONS)),
    resource=st.sampled_from(sorted(CUSTOMER_DATA)),
    token=st.booleans(),
)
def test_a_disc_too_imprecise_to_classify_never_gets_a_cleartext_view(
    monitor, area, edge, along, radius, across, at, user, resource, token
):
    # The disc's centre lies on the edge (across 0) or up to 1.5 radii
    # either side of it. Only a disc that raises is checked.
    polygon = POLYGONS[area]
    near = _near_edge(polygon, edge % len(polygon), along, across * radius)
    position = f"{near.lat:.7f} {near.lon:.7f}"
    point = GeoPoint(*map(float, position.split()))
    try:
        resolve_location(point, float(radius), monitor.pips.zones)
        return event("classified")
    except UnknownTerritoryError:
        return event("outside every country")
    except PrecisionError:
        event("too imprecise")
    stamp = at.strftime("%Y-%m-%dT%H:%M:%SZ")
    raw = wire_request(
        subject=user, resource=resource, point=position,
        tokens=(CUSTOMER_DATA[resource],) if token else (), token_at=stamp,
        extra_lines=(f"environment position-accuracy integer {radius}",),
    )
    monitor.pips.clock.set(at)
    monitor.audit = AuditLog()  # the instants are drawn in any order
    response, view = parse_response(monitor.handle_request(raw, AuthState(user, SESSIONS[user]))[0])
    assert view is None or view.mode is not ViewMode.CLEARTEXT, (response.decision, response.trace)
