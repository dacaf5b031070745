"""Pure sub-cells of the zone grid answer as the linear scan does.

`resolve_location` answers a point from a pure sub-cell of `zones._Grid`
when its disc's reach box lies in one; tests/context_oracle.py holds the
linear scan both paths must equal, errors included. Hypothesis draws
points and discs on, and within 1e-9 degrees of, sub-cell edges, grid-cell
edges and the edges and vertices of every country, city and restricted
area, on the packaged tree and on generated world-200 trees. A fixed sweep
checks that each tree answers some points from a sub-cell. Discs of 2,000
km, which meet most of the grid, check that `_Grid.over` merges the cells
they cover in tree order, on 200 and 520 countries.
"""

import math
import random

import pytest
from hypothesis import event, given, settings, strategies as st

import context_oracle as oracle
from conftest import FIXTURES
from lexgate.context import zones as zones_module
from lexgate.context.geometry import METERS_PER_DEGREE_LAT
from lexgate.context.zones import load_zone_tree, resolve_location
from lexgate.model import GeoPoint
from test_context_index import grid_tree

TREES = ("packaged", "world-200:1", "world-200:2")
RADII = st.sampled_from((0.0, 500.0, 40_000.0)) | st.floats(0.0, 60_000.0)
# Offsets of at most 1e-9 degrees from an edge, a vertex or a reach.
OFFSETS = st.sampled_from((-1e-9, -5e-10, 0.0, 5e-10, 1e-9)) | st.floats(-1e-9, 1e-9)


@pytest.fixture(scope="module")
def trees(bench, tmp_path_factory):
    loaded = {"packaged": load_zone_tree((FIXTURES / "zones.xml").read_bytes())}
    for name in TREES[1:]:
        workload, seed = name.split(":")
        out = tmp_path_factory.mktemp(name.replace(":", "-"))
        bench.generate(workload, int(seed), out)
        loaded[name] = load_zone_tree((out / "zones.xml").read_bytes())
    return loaded


def _point(lat, lon):
    return GeoPoint(min(90.0, max(-90.0, lat)), min(180.0, max(-180.0, lon)))


def _polygons(tree):
    for country in tree.countries():
        yield country.boundary
        for area in country.restricted:
            yield area.polygon
        for city in country.cities:
            yield city.polygon


def _from_sub_cell(point, radius, tree):
    return tree._grid.holding(point.lat, point.lon, zones_module._disc_reach(point, radius)) is not None


def _agree(point, radius, tree):
    assert oracle.outcome(resolve_location, point, radius, tree) == oracle.outcome(
        oracle.resolve_location, point, radius, tree
    )


@st.composite
def near_edges(draw, tree):
    """(point, radius): on or beside a sub-cell or grid-cell edge, with a
    disc whose reach ends on or beside that edge, or on or beside an edge
    or a vertex of a polygon."""
    grid = tree._grid
    sub = zones_module._SUB
    radius = draw(RADII)
    kind = draw(st.sampled_from(("sub-cell", "grid-cell", "vertex", "edge")))
    if kind in ("sub-cell", "grid-cell"):
        step = sub if kind == "grid-cell" else 1
        reach = draw(st.booleans())
        if draw(st.booleans()):  # a line of latitude
            line = grid.south + draw(st.integers(0, grid.rows * sub // step)) * step * grid.sub_height
            half = radius / METERS_PER_DEGREE_LAT if reach else 0.0
            lat = line + draw(st.sampled_from((-half, half))) + draw(OFFSETS)
            return _point(lat, draw(st.floats(grid.west, grid.east))), radius
        line = grid.west + draw(st.integers(0, grid.cols * sub // step)) * step * grid.sub_width
        lat = draw(st.floats(grid.south, grid.north))
        cos_lat = abs(math.cos(math.radians(lat)))
        half = radius / (METERS_PER_DEGREE_LAT * cos_lat) if reach and cos_lat > 0 else 0.0
        return _point(lat, line + draw(st.sampled_from((-half, half))) + draw(OFFSETS)), radius
    polygon = draw(st.sampled_from(list(_polygons(tree))))
    i = draw(st.integers(0, len(polygon) - 1))
    a, b = polygon[i], polygon[(i + 1) % len(polygon)]
    t = 0.0 if kind == "vertex" else draw(st.floats(0.0, 1.0))
    return _point(a.lat + t * (b.lat - a.lat) + draw(OFFSETS), a.lon + t * (b.lon - a.lon) + draw(OFFSETS)), radius


@pytest.mark.parametrize("name", TREES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_points_near_sub_cell_and_polygon_edges_match_the_linear_scan(trees, name, data):
    tree = trees[name]
    point, radius = data.draw(near_edges(tree))
    event("sub-cell" if _from_sub_cell(point, radius, tree) else "polygons")
    _agree(point, radius, tree)


@pytest.mark.parametrize("name", TREES)
def test_each_tree_answers_some_points_from_a_pure_sub_cell(trees, name):
    # Points across the grid's extent, and the centre of every sub-cell
    # of the cells they land in: each tree answers some of them from a
    # sub-cell, and every answer equals the linear scan's.
    tree = trees[name]
    grid = tree._grid
    rng = random.Random(30)
    points = [GeoPoint(rng.uniform(grid.south, grid.north), rng.uniform(grid.west, grid.east)) for _ in range(200)]
    for point in points:
        grid.holding(point.lat, point.lon, (point.lat, point.lon, point.lat, point.lon))
    for sub_cells in list(grid.sub_cells.values()):
        points += [GeoPoint((pure.south + pure.north) / 2, (pure.west + pure.east) / 2) for pure in sub_cells if pure]
    taken = 0
    for point in points:
        for radius in (0.0, 500.0):
            taken += _from_sub_cell(point, radius, tree)
            _agree(point, radius, tree)
    assert taken > 0


def test_a_sub_cell_memo_at_bound_zero_answers_every_point_from_the_polygons():
    on, off = (load_zone_tree((FIXTURES / "zones.xml").read_bytes()) for _ in range(2))
    off._grid.sub_cells.bound = 0
    pure = next(
        cell for index in range(on._grid.rows * on._grid.cols) for cell in on._grid._sub_cells(index) if cell
    )
    point = GeoPoint((pure.south + pure.north) / 2, (pure.west + pure.east) / 2)
    assert _from_sub_cell(point, 0.0, on)
    assert not _from_sub_cell(point, 0.0, off)
    assert resolve_location(point, 0.0, off) == resolve_location(point, 0.0, on)
    assert len(off._grid.sub_cells) == 0 and off._grid.sub_cells.misses == 2


# -- discs over most of the grid ------------------------------------------------------


@pytest.fixture(scope="module")
def many(trees):
    return {"200": trees["world-200:1"], "520": grid_tree(-40.0, -30.0, rows=20, cols=26, size=2.0, gap=0.0, cut=0.1)}


@pytest.mark.parametrize("countries", ["200", "520"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_discs_of_2000_km_match_the_linear_scan(many, countries, data):
    tree = many[countries]
    grid = tree._grid
    point = GeoPoint(data.draw(st.floats(grid.south, grid.north)), data.draw(st.floats(grid.west, grid.east)))
    _agree(point, data.draw(st.sampled_from((2e6, 2e6 * (1 + 1e-9))) | st.floats(1e6, 3e6)), tree)
