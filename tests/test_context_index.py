"""The load-time indexes of the context build agree with the linear scans.

ZoneTree keeps a bounding box per polygon and DiaryStore an owner index;
tests/context_oracle.py holds the linear code they replaced. Hypothesis
compares both on the packaged tree, on generated grids of polygons (high
latitudes included), on vertices, edges and discs tangent to a box, and
on random diary stores.
"""

import datetime as dt
import math

import pytest
from hypothesis import given, settings, strategies as st

import context_oracle as oracle
from lexgate.context import zones as zones_module
from lexgate.context.diary import DiaryEntry, DiaryStore, ExpectedLocation, TimeRange
from lexgate.context.geometry import METERS_PER_DEGREE_LAT
from lexgate.context.identity import IdentityKind, IdentityRecord, IdentityRegistry, ProximityToken
from lexgate.context.zones import (
    CityArea,
    RestrictedArea,
    TerritoryNode,
    ZoneTree,
    load_zone_tree,
    resolve_location,
)
from lexgate.model import GeoPoint
from lexgate.parsing.location_xml import LocationReport, ZoneKind

RADII = st.sampled_from((0.0, 500.0, 40_000.0)) | st.floats(0.0, 60_000.0)
# Relative nudges around a box edge or a disc's exact reach.
NUDGES = st.sampled_from((-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6))


@pytest.fixture(scope="module")
def packaged(fixtures_root):
    return load_zone_tree((fixtures_root / "zones.xml").read_bytes())


# -- generated trees -------------------------------------------------------------


def _clamp_point(lat: float, lon: float) -> GeoPoint:
    return GeoPoint(min(90.0, max(-90.0, lat)), min(180.0, max(-180.0, lon)))


def _octagon(lat0, lon0, size, cut):
    """A convex octagon: the cell's square with its corners cut off."""
    c = size * cut
    ring = [
        (lat0, lon0 + c), (lat0, lon0 + size - c), (lat0 + c, lon0 + size),
        (lat0 + size - c, lon0 + size), (lat0 + size, lon0 + size - c),
        (lat0 + size, lon0 + c), (lat0 + size - c, lon0), (lat0 + c, lon0),
    ]
    return tuple(_clamp_point(lat, lon) for lat, lon in ring)


def _square(lat0, lon0, size):
    ring = [(lat0, lon0), (lat0, lon0 + size), (lat0 + size, lon0 + size), (lat0 + size, lon0)]
    return tuple(_clamp_point(lat, lon) for lat, lon in ring)


def grid_tree(lat0, lon0, rows, cols, size, gap, cut):
    """rows x cols countries in cells of `size` degrees `gap` apart (gap 0:
    neighbours share edges), each with a restricted square and a city; the
    first row nests in a union so tree order differs from row order."""
    countries = []
    for r in range(rows):
        for c in range(cols):
            top, left = lat0 + r * (size + gap), lon0 + c * (size + gap)
            code = f"{chr(65 + r)}{chr(65 + c)}"
            countries.append(
                TerritoryNode(
                    id=code,
                    name=code,
                    kind="country",
                    boundary=_octagon(top, left, size, cut),
                    restricted=(
                        RestrictedArea(f"{code}-r", "r", _square(top + size * 0.3, left + size * 0.3, size * 0.2)),
                    ),
                    cities=(CityArea(f"{code}-city", _square(top + size * 0.55, left + size * 0.55, size * 0.3)),),
                )
            )
    union = TerritoryNode(id="UN", name="union", kind="union", children=tuple(countries[:cols]))
    return ZoneTree((union,) + tuple(countries[cols:]))


grids = st.builds(
    grid_tree,
    lat0=st.sampled_from((-60.0, 0.0, 47.5, 80.0, 88.5, 89.9)) | st.floats(-89.0, 88.0),
    lon0=st.floats(-170.0, 160.0),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    size=st.sampled_from((0.001, 0.05, 0.3, 2.0)),
    gap=st.sampled_from((0.0, 0.0001, 0.01, 0.2)),
    cut=st.sampled_from((0.0, 0.1, 0.3)),
)


# -- points near the polygons ------------------------------------------------------


def _polygons(tree):
    for country in tree.countries():
        yield country.boundary
        for area in country.restricted:
            yield area.polygon
        for city in country.cities:
            yield city.polygon


def _lon_reach(lat, radius):
    cos_lat = abs(math.cos(math.radians(lat)))
    return radius / (METERS_PER_DEGREE_LAT * cos_lat) if cos_lat > 0 else 0.0


@st.composite
def probes(draw, tree):
    """(point, radius): on a vertex, on an edge, at a disc's reach from a
    polygon's box, or anywhere around the tree."""
    polygon = draw(st.sampled_from(list(_polygons(tree))))
    radius = draw(RADII)
    kind = draw(st.sampled_from(("vertex", "edge", "tangent", "around")))
    if kind == "vertex":
        vertex = draw(st.sampled_from(polygon))
        return vertex, radius
    if kind == "edge":
        i = draw(st.integers(0, len(polygon) - 1))
        a, b = polygon[i], polygon[(i + 1) % len(polygon)]
        t = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0))
        return _clamp_point(a.lat + t * (b.lat - a.lat), a.lon + t * (b.lon - a.lon)), radius
    lats = [v.lat for v in polygon]
    lons = [v.lon for v in polygon]
    if kind == "tangent":
        nudge = 1.0 + draw(NUDGES)
        side = draw(st.sampled_from(("south", "north", "west", "east")))
        if side in ("south", "north"):
            lon = draw(st.floats(min(lons), max(lons)))
            reach = radius / METERS_PER_DEGREE_LAT * nudge
            lat = min(lats) - reach if side == "south" else max(lats) + reach
            return _clamp_point(lat, lon), radius
        lat = draw(st.floats(min(lats), max(lats)))
        reach = _lon_reach(lat, radius) * nudge
        lon = min(lons) - reach if side == "west" else max(lons) + reach
        return _clamp_point(lat, lon), radius
    all_lats = [v.lat for p in _polygons(tree) for v in p]
    all_lons = [v.lon for p in _polygons(tree) for v in p]
    margin = draw(st.sampled_from((0.0, 0.01, 1.0)))
    lat = draw(st.floats(min(all_lats) - margin, max(all_lats) + margin))
    lon = draw(st.floats(min(all_lons) - margin, max(all_lons) + margin))
    return _clamp_point(lat, lon), radius


def _agree(point, radius, tree):
    assert oracle.outcome(resolve_location, point, radius, tree) == oracle.outcome(
        oracle.resolve_location, point, radius, tree
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packaged_tree_matches_the_linear_scan(packaged, data):
    point, radius = data.draw(probes(packaged))
    _agree(point, radius, packaged)


@settings(max_examples=300, deadline=None)
@given(grids, st.data())
def test_generated_grids_match_the_linear_scan(tree, data):
    point, radius = data.draw(probes(tree))
    _agree(point, radius, tree)


@pytest.mark.parametrize("radius", [0.0, 500.0, 40_000.0])
def test_every_vertex_of_a_touching_grid_matches(radius):
    tree = grid_tree(89.0, 10.0, rows=2, cols=3, size=0.3, gap=0.0, cut=0.1)
    for polygon in _polygons(tree):
        for vertex in polygon:
            _agree(vertex, radius, tree)


def test_polygon_tests_go_through_the_module_globals(packaged, monkeypatch):
    """Per-layer tracing counts polygon tests by wrapping these names."""
    calls = []

    def counted(name):
        inner = getattr(zones_module, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)

        return wrapper

    for name in ("point_in_polygon", "disc_polygon_relation"):
        monkeypatch.setattr(zones_module, name, counted(name))
    report = resolve_location(GeoPoint(51.507861, -0.099349), 500.0, packaged)
    assert report.country == "GB" and report.city == "London"
    # Only GB's boundary and London's polygon have boxes near the point: the
    # disc misses every other country and the customs area east of London.
    assert calls == ["point_in_polygon", "point_in_polygon"]


# -- diary ---------------------------------------------------------------------------

BASE = dt.datetime(2026, 3, 10, 8, tzinfo=dt.timezone.utc)
OWNERS = ("c0", "c1", "c2")
CUSTOMERS = ("k0", "k1")
RESOURCES = ("r0", "r1", "r2")
IDENTITIES = IdentityRegistry(
    [IdentityRecord(owner, IdentityKind.CONSULTANT, "pw") for owner in OWNERS]
    + [IdentityRecord(customer, IdentityKind.CUSTOMER, "v") for customer in CUSTOMERS]
)


def _minutes(low, high):
    return st.integers(low, high).map(lambda m: dt.timedelta(minutes=m))


entries = st.builds(
    lambda owner, start, length, pre, post, country, city, near, participants, resources: DiaryEntry(
        owner=owner,
        task="t",
        time=TimeRange(BASE + start, BASE + start + length, pre, post),
        expected_location=ExpectedLocation(
            country=country,
            city=city,
            point=GeoPoint(49.6, 6.1) if near else None,
            radius_m=800.0 if near else 0.0,
        ),
        participants=participants,
        planned_resources=resources,
    ),
    owner=st.sampled_from(OWNERS),
    start=_minutes(0, 300),
    length=_minutes(0, 120),
    pre=_minutes(0, 60),
    post=_minutes(0, 60),
    country=st.sampled_from(("LU", "DE")),
    city=st.sampled_from(("", "Luxembourg")),
    near=st.booleans(),
    participants=st.frozensets(st.sampled_from(OWNERS + CUSTOMERS)),
    resources=st.frozensets(st.sampled_from(RESOURCES)),
)

locations = st.none() | st.builds(
    lambda country, city, lon: LocationReport(
        country=country, city=city, zone=ZoneKind.UNRESTRICTED, timezone_name="CET",
        timezone_offset=1, point=GeoPoint(49.6, lon),
    ),
    country=st.sampled_from(("LU", "DE")),
    city=st.sampled_from(("", "Luxembourg", "Trier")),
    lon=st.sampled_from((6.1, 6.105, 6.2)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(entries, max_size=12),
    st.sampled_from(OWNERS + ("nobody",)),
    st.sampled_from(RESOURCES + ("r-none",)),
    _minutes(-60, 500),
    locations,
    st.lists(st.tuples(st.sampled_from(CUSTOMERS), _minutes(-30, 0)), max_size=2),
)
def test_diary_index_matches_the_linear_scan(store_entries, user, resource, offset, location, token_specs):
    store = DiaryStore(store_entries)
    now = BASE + offset
    tokens = tuple(ProximityToken(c, now + age, "code-card-subset") for c, age in token_specs)
    assert store.check_task(user, resource, now, location, tokens, IDENTITIES) is oracle.check_task(
        store, user, resource, now, location, tokens, IDENTITIES
    )
