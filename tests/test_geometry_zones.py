import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import geometry_oracle
from lexgate.context.geometry import (
    METERS_PER_DEGREE_LAT,
    disc_polygon_relation,
    is_simple_polygon,
    point_in_polygon,
)
from lexgate.context.zones import load_zone_tree, resolve_location
from lexgate.errors import FixtureError, PrecisionError, UnknownTerritoryError
from lexgate.model import GeoPoint
from lexgate.parsing.location_xml import ZoneKind

SQUARE = (GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1), GeoPoint(1, 0))


@pytest.fixture(scope="module")
def zones(fixtures_root):
    return load_zone_tree((fixtures_root / "zones.xml").read_bytes())


def test_point_in_polygon_interior_and_exterior():
    assert point_in_polygon(GeoPoint(0.5, 0.5), SQUARE)
    assert not point_in_polygon(GeoPoint(1.5, 0.5), SQUARE)


def test_points_on_edges_count_as_inside():
    assert point_in_polygon(GeoPoint(0.0, 0.5), SQUARE)
    assert point_in_polygon(GeoPoint(1.0, 1.0), SQUARE)  # vertex


def test_simple_polygon_detection():
    assert is_simple_polygon(SQUARE)
    bowtie = (GeoPoint(0, 0), GeoPoint(1, 1), GeoPoint(1, 0), GeoPoint(0, 1))
    assert not is_simple_polygon(bowtie)


# -- the one-pass kernels against the reference ------------------------------


def _clamped(lat, lon):
    return GeoPoint(min(90.0, max(-90.0, lat)), min(180.0, max(-180.0, lon)))


@st.composite
def kernel_cases(draw):
    """(point, radius, polygon): vertices on a small lattice, so that edges
    run level, upright or along one another, or anywhere near it; the point
    on a vertex, on an edge, on the lattice or anywhere near it. Polygons
    need not be simple."""
    base_lat = draw(st.sampled_from((0.0, 51.5, -33.9, 89.5, 90.0)))
    base_lon = draw(st.sampled_from((0.0, -0.1, 179.9, -180.0)))
    step = draw(st.sampled_from((1e-4, 0.01, 0.5)))
    offset = st.integers(-2, 2).map(float) | st.floats(-2.0, 2.0)

    def near():
        return _clamped(base_lat + step * draw(offset), base_lon + step * draw(offset))

    vertices = tuple(near() for _ in range(draw(st.integers(3, 8))))
    kind = draw(st.sampled_from(("vertex", "edge", "near")))
    if kind == "vertex":
        point = draw(st.sampled_from(vertices))
    elif kind == "edge":
        i = draw(st.integers(0, len(vertices) - 1))
        a, b = vertices[i], vertices[(i + 1) % len(vertices)]
        t = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0))
        point = _clamped(a.lat + t * (b.lat - a.lat), a.lon + t * (b.lon - a.lon))
    else:
        point = near()
    radius = draw(st.sampled_from((0.0, 1.0, 500.0, math.inf, math.nan)) | st.floats(0.0, 1e5))
    return point, radius, vertices


@settings(max_examples=500, deadline=None)
@given(kernel_cases())
def test_one_pass_kernels_match_the_reference(case):
    point, radius, vertices = case
    assert point_in_polygon(point, vertices) is geometry_oracle.point_in_polygon(point, vertices)
    assert disc_polygon_relation(point, radius, vertices) == geometry_oracle.disc_polygon_relation(
        point, radius, vertices
    )


# -- brute-force oracle for disc/polygon classification ----------------------


def disc_relation_oracle(point, radius_m, polygon, grid_m=1.0):
    """Sample the accuracy disc on a metric grid and classify by containment
    of the samples. Written independently of the analytic implementation."""
    lat_scale = METERS_PER_DEGREE_LAT
    lon_scale = METERS_PER_DEGREE_LAT * math.cos(math.radians(point.lat))
    steps = int(radius_m // grid_m)
    saw_inside = saw_outside = False
    for i in range(-steps, steps + 1):
        for j in range(-steps, steps + 1):
            east, north = i * grid_m, j * grid_m
            if east * east + north * north > radius_m * radius_m:
                continue
            sample = GeoPoint(point.lat + north / lat_scale, point.lon + east / lon_scale)
            if point_in_polygon(sample, polygon):
                saw_inside = True
            else:
                saw_outside = True
            if saw_inside and saw_outside:
                return "straddles"
    if saw_inside and not saw_outside:
        return "inside"
    if saw_outside and not saw_inside:
        return "outside"
    return "straddles"


def test_disc_relation_matches_grid_oracle_near_restricted_boundary(zones):
    customs = zones.country("GB").restricted[0]
    # ~50 m west of the customs area's western edge (lon 0.03) at lat 51.505.
    lon_scale = METERS_PER_DEGREE_LAT * math.cos(math.radians(51.505))
    point = GeoPoint(51.505, 0.03 - 50.0 / lon_scale)
    assert disc_relation_oracle(point, 200.0, customs.polygon) == "straddles"
    assert disc_polygon_relation(point, 200.0, customs.polygon) == "straddles"
    assert disc_relation_oracle(point, 20.0, customs.polygon) == "outside"
    assert disc_polygon_relation(point, 20.0, customs.polygon) == "outside"


def test_resolve_location_london_point(zones):
    report = resolve_location(GeoPoint(51.507861, -0.099349), 0.0, zones)
    assert report.country == "GB"
    assert report.city == "London"
    assert report.zone is ZoneKind.UNRESTRICTED
    assert report.timezone_name == "GMT"
    assert report.timezone_offset == 0


def test_resolve_location_restricted_centroid(zones):
    customs = zones.country("GB").restricted[0]
    lat = sum(v.lat for v in customs.polygon) / len(customs.polygon)
    lon = sum(v.lon for v in customs.polygon) / len(customs.polygon)
    report = resolve_location(GeoPoint(lat, lon), 0.0, zones)
    assert report.zone is ZoneKind.RESTRICTED
    assert report.country == "GB"


def test_resolve_location_precision_failure_near_restricted_boundary(zones):
    lon_scale = METERS_PER_DEGREE_LAT * math.cos(math.radians(51.505))
    point = GeoPoint(51.505, 0.03 - 50.0 / lon_scale)
    customs = zones.country("GB").restricted[0]
    assert disc_relation_oracle(point, 200.0, customs.polygon) == "straddles"
    with pytest.raises(PrecisionError) as err:
        resolve_location(point, 200.0, zones)
    assert err.value.country == "GB"


def test_resolve_location_precision_failure_across_countries(zones):
    # Inside Luxembourg, ~1.1 km below the northern edge; a 15 km disc
    # reaches Germany across the fixture gap.
    point = GeoPoint(50.14, 6.2)
    with pytest.raises(PrecisionError) as err:
        resolve_location(point, 15000.0, zones)
    assert err.value.country is None


def test_resolve_location_unknown_territory(zones):
    with pytest.raises(UnknownTerritoryError):
        resolve_location(GeoPoint(0.0, 0.0), 0.0, zones)


def test_resolve_location_is_deterministic_and_pure(zones):
    point = GeoPoint(47.36, 8.53)
    first = resolve_location(point, 10.0, zones)
    second = resolve_location(point, 10.0, zones)
    assert first == second == resolve_location(point, 10.0, zones)


def test_interior_points_resolve_to_their_country_unrestricted(zones):
    """Random points well inside a single country and away from restricted
    polygons resolve to that country, unrestricted."""
    rng = random.Random(7)
    for country in zones.countries():
        lats = [v.lat for v in country.boundary]
        lons = [v.lon for v in country.boundary]
        for _ in range(25):
            point = GeoPoint(
                rng.uniform(min(lats) + 0.2, max(lats) - 0.2),
                rng.uniform(min(lons) + 0.2, max(lons) - 0.2),
            )
            radius = rng.choice((0.0, 50.0))
            near_restricted = any(
                disc_polygon_relation(point, radius, area.polygon) != "outside"
                for area in country.restricted
            )
            if near_restricted:
                continue
            report = resolve_location(point, radius, zones)
            assert report.country == country.id
            assert report.zone is ZoneKind.UNRESTRICTED


def test_member_countries_follow_the_hierarchy(zones):
    assert zones.member_countries("EU") == frozenset({"LU", "DE", "FR"})
    assert zones.member_countries("CH") == frozenset({"CH"})
    assert zones.member_countries("nowhere") == frozenset()


def test_place_lookup(zones):
    place, territory = zones.place("CH-zurich-hotel")
    assert territory.id == "CH"
    assert place.point == GeoPoint(47.36, 8.53)
    with pytest.raises(FixtureError):
        zones.place("atlantis")


def test_restricted_area_outside_country_is_rejected():
    bad = """
    <zones>
      <territory kind="country" id="AA" name="A">
        <timezone><name>UTC</name><value>0</value></timezone>
        <boundary><posList>0 0  0 1  1 1  1 0</posList></boundary>
        <restricted id="AA-r" name="r">
          <boundary><posList>2 2  2 3  3 3  3 2</posList></boundary>
        </restricted>
      </territory>
    </zones>
    """
    with pytest.raises(FixtureError, match="restricted area 'AA-r' leaves country 'AA'"):
        load_zone_tree(bad)


def test_a_country_without_a_timezone_is_refused_by_name():
    tree = """
    <zones>
      <territory kind="union" id="U" name="U">
        {union_timezone}
        <territory kind="country" id="AA" name="A">
          {country_timezone}
          <boundary><posList>0 0  0 1  1 1  1 0</posList></boundary>
        </territory>
      </territory>
    </zones>
    """
    timezone = "<timezone><name>CET</name><value>1</value></timezone>"
    # A timezone on the enclosing union does not stand in for the country's.
    with pytest.raises(FixtureError, match=r"country 'AA' has no <timezone> \(line 5\)"):
        load_zone_tree(tree.format(union_timezone=timezone, country_timezone=""))
    # A territory that is no country may go without one.
    loaded = load_zone_tree(tree.format(union_timezone="", country_timezone=timezone))
    assert [(c.id, c.timezone_name, c.timezone_offset) for c in loaded.countries()] == [("AA", "CET", 1.0)]
