"""The load-time indexes of the context build agree with the linear scans.

ZoneTree keeps a bounding box per polygon and a uniform grid over the
country boxes, and DiaryStore an owner index; tests/context_oracle.py
holds the linear code they replaced. Hypothesis compares both on the
packaged tree, on generated grids of polygons (high latitudes included),
on vertices, edges and discs tangent to a box, and on random diary
stores. For the grid it also draws trees with one far-off country, so
that most cells are empty, and points anywhere on the globe or at a
pole, with discs larger than the grid, infinite or NaN; fixed cases
cover trees with no country, tree order against cell order, and how few
boxes a point or a disc meets among 520 countries.

The location supplier keeps the report of each (position, radius) pair
it has resolved; Hypothesis locates drawn points, repeated, through it
and compares each answer with the linear scan.
"""

import datetime as dt
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import context_oracle as oracle
from conftest import FIXTURES, make_bundle, wire_request
from lexgate.context import bundle as bundle_module, zones as zones_module
from lexgate.context.bundle import LocationSupplier, load_bundle
from lexgate.context.diary import DiaryEntry, DiaryStore, ExpectedLocation, TimeRange
from lexgate.context.geometry import METERS_PER_DEGREE_LAT
from lexgate.context.identity import FRESHNESS, IdentityKind, IdentityRecord, IdentityRegistry, ProximityToken
from lexgate.context.zones import (
    CityArea,
    RestrictedArea,
    TerritoryNode,
    ZoneTree,
    load_zone_tree,
    resolve_location,
)
from lexgate.errors import PrecisionError, UnknownTerritoryError
from lexgate.model import AttributeValue, DataType, GeoPoint
from lexgate.parsing.location_xml import LocationReport, ZoneKind
from lexgate.parsing.wire import CURRENT_POSITION, SUBJECT_ID, RequestContext, parse_request

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


# -- the country grid ----------------------------------------------------------------


def with_far_country(tree, lat, lon, size):
    """The tree and one more country far off, so that most grid cells are empty."""
    far = TerritoryNode(id="ZZ", name="far", kind="country", boundary=_square(lat, lon, size))
    return ZoneTree(tree.roots + (far,))


skewed = st.builds(
    with_far_country,
    grids,
    lat=st.sampled_from((-89.0, 60.0)) | st.floats(-89.0, 89.0),
    lon=st.sampled_from((-179.0, 179.0)) | st.floats(-179.0, 179.0),
    size=st.sampled_from((0.001, 0.05, 2.0)),
)
EXTREME_RADII = st.sampled_from((math.nan, math.inf, 1e6, 2e7)) | RADII


@st.composite
def extremes(draw, tree):
    """(point, radius): anywhere on the globe, so mostly outside the grid;
    at or next to a pole, where a disc's east-west reach is infinite or
    vast; or near the polygons, with a disc larger than the grid, an
    infinite or a NaN radius."""
    kind = draw(st.sampled_from(("globe", "polar", "near")))
    if kind == "globe":
        point = GeoPoint(draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0)))
    elif kind == "polar":
        lons = [v.lon for p in _polygons(tree) for v in p]
        pole = draw(st.sampled_from((90.0, -90.0)))
        lat = pole - math.copysign(draw(st.sampled_from((0.0, 1e-8, 1e-7))), pole)
        point = _clamp_point(lat, draw(st.floats(min(lons), max(lons)) | st.floats(-180.0, 180.0)))
    else:
        point, _ = draw(probes(tree))
    return point, draw(EXTREME_RADII)


@settings(max_examples=100, deadline=None)
@given(skewed, st.data())
def test_skewed_trees_match_the_linear_scan(tree, data):
    point, radius = data.draw(probes(tree) | extremes(tree))
    _agree(point, radius, tree)


@settings(max_examples=100, deadline=None)
@given(grids, st.data())
def test_far_polar_huge_and_nan_probes_match_the_linear_scan(tree, data):
    point, radius = data.draw(extremes(tree))
    _agree(point, radius, tree)


@pytest.mark.parametrize("radius", [40_000.0, 2e7, math.inf])
def test_a_disc_over_many_cells_names_the_countries_in_tree_order(radius):
    # The rows are listed last to first, so that tree order runs against
    # the order of the grid's cells; a 40 km disc spans a few of its 36
    # cells, the larger ones every cell.
    rows = grid_tree(10.0, 10.0, rows=6, cols=6, size=0.3, gap=0.0, cut=0.1).roots
    tree = ZoneTree(tuple(reversed(rows)))
    for country in tree.countries():
        for vertex in country.boundary:
            _agree(vertex, radius, tree)


@pytest.mark.parametrize(
    "tree",
    [ZoneTree(()), ZoneTree((TerritoryNode(id="UN", name="union", kind="union"),))],
    ids=["no-roots", "empty-union"],
)
@pytest.mark.parametrize("lat,lon", [(0.0, 0.0), (51.5, -0.1), (90.0, 12.0), (-90.0, -180.0)])
@pytest.mark.parametrize("radius", [0.0, 500.0, math.inf, math.nan])
def test_a_tree_with_no_countries_contains_no_point(tree, lat, lon, radius):
    _agree(GeoPoint(lat, lon), radius, tree)
    with pytest.raises(UnknownTerritoryError):
        resolve_location(GeoPoint(lat, lon), radius, tree)


def test_a_radius_that_is_not_finite_at_a_located_point():
    # The far country's corner lies in that country alone. An infinite disc
    # meets the other country; a NaN one meets nothing, so both sides build
    # a report, and the report refuses the radius.
    tree = with_far_country(grid_tree(-60.0, 0.0, rows=1, cols=1, size=0.001, gap=0.0, cut=0.0), -89.0, -179.0, 0.001)
    point = GeoPoint(-89.0, -179.0)
    for radius in (math.inf, math.nan):
        _agree(point, radius, tree)
    with pytest.raises(PrecisionError, match="accuracy disc of inf m overlaps both ZZ and "):
        resolve_location(point, math.inf, tree)
    with pytest.raises(ValueError, match="accuracy radius must be finite: nan"):
        resolve_location(point, math.nan, tree)


@pytest.mark.parametrize("gap", [0.0, 0.2])
def test_a_point_or_disc_meets_a_handful_of_boxes_among_520(gap):
    tree = grid_tree(-40.0, -30.0, rows=20, cols=26, size=2.0, gap=gap, cut=0.1)
    grid = tree._grid
    assert len(tree.countries()) == 520
    rng = random.Random(14)
    for _ in range(2_000):
        point = GeoPoint(rng.uniform(grid.south, grid.north), rng.uniform(grid.west, grid.east))
        assert len(grid.at(point.lat, point.lon)) <= 12
        assert len(grid.over(zones_module._disc_reach(point, 500.0))) <= 12
    # Beyond the grid's edges a point gets no candidates.
    for lat, lon in [
        (grid.south - 1e-6, grid.west), (grid.north + 1e-6, grid.east),
        (grid.south, grid.west - 1e-6), (grid.north, grid.east + 1e-6),
    ]:
        assert grid.at(lat, lon) == ()


# -- the location memo ---------------------------------------------------------------


def _placed(subject, point=None, accuracy=None):
    """A request from `subject`, at `point` when one is given (else at the
    subject's device position), with a position-accuracy attribute when
    `accuracy` is given."""
    environment = []
    if point is not None:
        environment.append((CURRENT_POSITION, AttributeValue(DataType.GEO_POINT, point)))
    if accuracy is not None:
        environment.append(("position-accuracy", AttributeValue(DataType.INTEGER, accuracy)))
    return RequestContext(
        subject=((SUBJECT_ID, AttributeValue(DataType.IDENTIFIER, subject)),),
        environment=tuple(environment),
    )


ACCURACIES = st.sampled_from((None, 0, 500, 40_000, 20_000_000)) | st.integers(0, 60_000)


@settings(max_examples=150, deadline=None)
@given(grids, st.data())
def test_the_location_memo_answers_as_the_linear_scan(tree, data):
    # A few points, then requests that repeat them, each placed by its own
    # geo-point or by its subject's device position. Subject d<i> stands
    # at point i.
    points = data.draw(st.lists((probes(tree) | extremes(tree)).map(lambda probe: probe[0]), min_size=1, max_size=4))
    steps = data.draw(st.lists(
        st.tuples(st.integers(0, len(points) - 1), ACCURACIES, st.booleans()), min_size=1, max_size=12,
    ))
    devices = {f"d{i}": point for i, point in enumerate(points)}
    supplier = LocationSupplier(tree, IdentityRegistry([], device_positions=devices))
    for i, accuracy, by_device in steps:
        request = _placed(f"d{i}", None if by_device else points[i], accuracy)
        expected = oracle.outcome(oracle.resolve_location, points[i], float(accuracy or 0), tree)
        assert oracle.outcome(supplier.locate, request) == expected
        assert oracle.outcome(supplier.locate, request) == expected


def test_a_repeated_position_is_resolved_at_most_twice_and_located_every_time(engine, policy_pack, monkeypatch):
    # The location memo admits a position at its second sighting.
    resolved = []

    def counted(*args):
        resolved.append(args)
        return zones_module.resolve_location(*args)

    monkeypatch.setattr(bundle_module, "resolve_location", counted)
    pips = make_bundle("2026-03-10T12:00:00Z", count_locates=True)
    forest = engine.compile(policy_pack)
    request = parse_request(wire_request(point="51.507861 -0.099349"))
    responses = {engine.evaluate(forest, request, pips) for _ in range(5)}
    assert len(responses) == 1
    assert pips.location.calls == 5
    assert len(resolved) == 2


def test_a_negative_zero_coordinate_keeps_its_sign_after_its_positive_twin():
    # GeoPoint(0.0, 0.0) == GeoPoint(-0.0, -0.0), yet each report carries
    # the point it was asked about.
    square = TerritoryNode(id="AA", name="a", kind="country", boundary=_square(-1.0, -1.0, 2.0))
    supplier = LocationSupplier(ZoneTree((square,)), IdentityRegistry([]))
    for lat, lon in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)]:
        report = supplier.locate(_placed("u", GeoPoint(lat, lon)))
        assert (repr(report.point.lat), repr(report.point.lon)) == (repr(lat), repr(lon))
        assert report == resolve_location(GeoPoint(lat, lon), 0.0, ZoneTree((square,)))


def test_two_bundles_each_locate_through_their_own_tree(tmp_path):
    # The second tree renames London; each bundle's supplier keeps its own
    # memo, so the point is London in one and Londinium in the other.
    packaged_zones = (FIXTURES / "zones.xml").read_text()
    (tmp_path / "zones.xml").write_text(packaged_zones.replace('<city name="London">', '<city name="Londinium">'))
    renamed = load_bundle(FIXTURES, stores={"zones": str(tmp_path / "zones.xml")})
    standard = load_bundle(FIXTURES)
    request = _placed("c.miller", GeoPoint(51.507861, -0.099349))
    for _ in range(2):
        assert standard.location.locate(request).city == "London"
        assert renamed.location.locate(request).city == "Londinium"


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


class _CountedTokens:
    """Tokens that count how often they are read."""

    def __init__(self, tokens):
        self.tokens, self.reads = tokens, 0

    def __iter__(self):
        self.reads += 1
        return iter(self.tokens)


MICROSECOND = dt.timedelta(microseconds=1)


@settings(max_examples=400, deadline=None)
@given(st.lists(entries, min_size=1, max_size=8), st.data())
def test_diary_index_matches_the_linear_scan_at_window_and_freshness_edges(store_entries, data):
    # `now` on an edge of a drawn entry's window (start - pre, start, end,
    # end + post) or 1 µs either side; tokens verified 15 min before `now`,
    # 1 µs either side, or after it, some naming a consultant or an id the
    # registry does not hold; and users with no entry.
    store = DiaryStore(store_entries)
    entry = data.draw(st.sampled_from(store_entries))
    time = entry.time
    edge = data.draw(st.sampled_from(
        (time.start - time.pre_extension, time.start, time.end, time.end + time.post_extension)
    ))
    now = edge + data.draw(st.sampled_from((-MICROSECOND, dt.timedelta(0), MICROSECOND)))
    user = data.draw(st.just(entry.owner) | st.sampled_from(OWNERS + ("nobody",)))
    resource = data.draw(
        st.sampled_from(sorted(entry.planned_resources) or ["r-none"]) | st.sampled_from(RESOURCES + ("r-none",))
    )
    expected = entry.expected_location
    at_the_place = LocationReport(
        country=expected.country, city=expected.city, zone=ZoneKind.UNRESTRICTED, timezone_name="CET",
        timezone_offset=1, point=GeoPoint(49.6, 6.1),
    )
    location = data.draw(st.just(at_the_place) | locations)
    ages = st.sampled_from(
        (FRESHNESS - MICROSECOND, FRESHNESS, FRESHNESS + MICROSECOND, -MICROSECOND, dt.timedelta(0))
    )
    named = st.sampled_from(sorted(entry.participants) + list(CUSTOMERS) + ["k-unknown"])
    tokens = tuple(
        ProximityToken(customer, now - age, "phone-code")
        for customer, age in data.draw(st.lists(st.tuples(named, ages), max_size=3))
    )
    counted = _CountedTokens(tokens)
    assert store.check_task(user, resource, now, location, counted, IDENTITIES) is oracle.check_task(
        store, user, resource, now, location, tokens, IDENTITIES
    )
    # The tokens are read at most once, and never for a user without an entry.
    assert counted.reads <= (user in {e.owner for e in store_entries})
