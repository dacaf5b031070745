"""Zone+ territory tree: hierarchical regions/countries whose leaves are
bisected into restricted areas and the unrestricted remainder.

The tree is loaded from an XML fixture (see docs/fixture-formats.md):
territories nest, countries carry a boundary polygon, a timezone, named
restricted polygons (customs areas and the like), city polygons and named
places that scenarios can reference instead of raw coordinates.

`resolve_location` finds a point's candidate countries through a uniform
grid over the country boxes (W. R. Franklin, "Adaptive grids for geometric
operations", 1984). Each grid cell is cut into sub-cells, and a sub-cell
that no country or restricted-area edge meets, inside one country, answers
the points whose accuracy disc it holds without a polygon or disc test:
the cell-based point-in-polygon test of B. Žalik and I. Kolingerová ("A
cell-based point-in-polygon algorithm suitable for large sets of points",
Computers & Geosciences 2001). A cell's sub-cells are classified at the
first point that lands in the cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..errors import FixtureError, PolicySyntaxError, PrecisionError, UnknownTerritoryError
from ..model import AttributeValue, DataType, GeoPoint, Memo
from ..parsing.location_xml import LocationReport, ZoneKind, check_timezone_offset
from ..parsing.xmlread import XmlNode, parse_xml
from . import geometry
from .geometry import (
    METERS_PER_DEGREE_LAT,
    disc_polygon_relation,
    is_simple_polygon,
    point_in_polygon,
)

Polygon = tuple[GeoPoint, ...]
# (min lat, min lon, max lat, max lon) of a polygon, padded outwards.
Box = tuple[float, float, float, float]

# Relative padding of boxes and disc half-widths. It is far above both
# geometry._EPS (the on-edge tolerance) and float rounding in the polygon
# tests, so a point outside a box can only be outside its polygon.
_BOX_PAD = 1e-9
# Below this |cos(lat)| a disc's east-west reach in degrees is not pruned.
_MIN_COS_LAT = 1e-9
# The country grid has at most this many cells per country.
_CELLS_PER_COUNTRY = 4
# Each grid cell is cut into _SUB x _SUB sub-cells.
_SUB = 4
# An edge shorter than this, in degrees of latitude plus longitude, counts
# as meeting every box its own box meets: the band around it that
# point_in_polygon calls on the edge, geometry._EPS over its length, may
# be wider than _BOX_PAD.
_SHORT_EDGE = 1e-2


@dataclass(frozen=True)
class RestrictedArea:
    id: str
    name: str
    polygon: Polygon


@dataclass(frozen=True)
class CityArea:
    name: str
    polygon: Polygon


@dataclass(frozen=True)
class Place:
    name: str
    point: GeoPoint


@dataclass(frozen=True)
class TerritoryNode:
    id: str
    name: str
    kind: str  # union | region | country | state
    boundary: Optional[Polygon] = None
    timezone_name: str = "UTC"
    timezone_offset: float = 0.0
    restricted: tuple[RestrictedArea, ...] = ()
    cities: tuple[CityArea, ...] = ()
    places: tuple[Place, ...] = ()
    children: tuple["TerritoryNode", ...] = ()


def _bounding_box(polygon: Polygon) -> Box:
    lats = [vertex.lat for vertex in polygon]
    lons = [vertex.lon for vertex in polygon]
    pad = _BOX_PAD * (1.0 + max(map(abs, lats + lons)))
    return (min(lats) - pad, min(lons) - pad, max(lats) + pad, max(lons) + pad)


def _disc_reach(point: GeoPoint, radius_m: float) -> Box:
    """The box an accuracy disc spans, in the local projection that
    geometry._project uses; a little over, never under. A polygon whose box
    lies beyond it is "outside" the disc. A NaN radius spans a NaN box,
    beyond which nothing lies."""
    radius = max(radius_m, 0.0) * (1.0 + _BOX_PAD)
    half_lat = radius / METERS_PER_DEGREE_LAT
    cos_lat = abs(math.cos(math.radians(point.lat)))
    half_lon = radius / (METERS_PER_DEGREE_LAT * cos_lat) if cos_lat > _MIN_COS_LAT else math.inf
    return (point.lat - half_lat, point.lon - half_lon, point.lat + half_lat, point.lon + half_lon)


@dataclass(frozen=True)
class _IndexedCountry:
    """A country with the bounding boxes of its sub-polygons."""

    node: TerritoryNode
    restricted: tuple[tuple[Box, RestrictedArea], ...]
    cities: tuple[tuple[Box, CityArea], ...]


def _cell(value: float, origin: float, size: float, last: int) -> int:
    """The cell along one axis that holds value, clamped to [0, last]. It
    never decreases as value grows, so a box registered in the cells from
    its low edge's to its high edge's is in the cell of any point it
    contains, and in some cell of any range that meets it."""
    offset = (value - origin) / size
    if offset > 0:
        return int(offset) if offset < last else last
    return 0


def _boxes_meet(a: Box, b: Box) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _edge_near(polygon: Polygon, box: Box) -> bool:
    """Whether an edge of the polygon meets the box, or is shorter than
    _SHORT_EDGE with its own box meeting it. A box, padded by _BOX_PAD,
    that no edge is near lies wholly inside or wholly outside the polygon
    for point_in_polygon, on-edge band included."""
    south, west, north, east = box
    last = polygon[-1]
    alat, alon = last.lat, last.lon
    for vertex in polygon:
        blat, blon = vertex.lat, vertex.lon
        if not (
            (alat < south and blat < south) or (alat > north and blat > north)
            or (alon < west and blon < west) or (alon > east and blon > east)
        ):
            dlat, dlon = blat - alat, blon - alon
            if abs(dlat) + abs(dlon) < _SHORT_EDGE:
                return True
            # The boxes meet; the edge meets the box unless its line leaves
            # all four corners on one side (the separating axis test).
            sides = [dlat * (lon - alon) - dlon * (lat - alat) for lat in (south, north) for lon in (west, east)]
            if min(sides) <= 0.0 <= max(sides):
                return True
        alat, alon = blat, blon
    return False


class _PureSubCell(NamedTuple):
    """A sub-cell, south west north east, that lies in one country with no
    edge of that country, of any other country or of a restricted area
    near it: every point in it has the same country and zone. `cities`
    are the country's cities, in tree order, whose edges come near it,
    up to the first city that holds it whole; `city` names that city, or
    is empty."""

    south: float
    west: float
    north: float
    east: float
    country: TerritoryNode
    zone: ZoneKind
    cities: tuple[tuple[Box, CityArea], ...]
    city: str


# The sub-cells of a cell when none is answered from: the classification
# of every cell at a sub-cell memo bound of 0.
_NONE_PURE: tuple[Optional[_PureSubCell], ...] = (None,) * (_SUB * _SUB)


def _classify(box: Box, candidates: tuple[tuple[int, Box, _IndexedCountry], ...]) -> Optional[_PureSubCell]:
    """The sub-cell `box` as a _PureSubCell, or None when it is not pure.
    `candidates` holds every country whose box meets the box, padded."""
    south, west, north, east = box
    pad = _BOX_PAD * (1.0 + max(abs(south), abs(west), abs(north), abs(east)))
    padded = (south - pad, west - pad, north + pad, east + pad)
    lat, lon = (south + north) / 2, (west + east) / 2
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None
    centre = GeoPoint(lat, lon)
    # The polygon tests of a classification go to geometry itself, not
    # through this module's names, which per-request tracing counts: they
    # are paid once per cell, not per point.
    located = None
    for _, country_box, entry in candidates:
        if not _boxes_meet(country_box, padded):
            continue
        if _edge_near(entry.node.boundary, padded):
            return None
        if geometry.point_in_polygon(centre, entry.node.boundary):
            if located is not None:
                return None
            located = entry
    if located is None:
        return None
    zone = ZoneKind.UNRESTRICTED
    for area_box, area in located.restricted:
        if _boxes_meet(area_box, padded):
            if _edge_near(area.polygon, padded):
                return None
            if geometry.point_in_polygon(centre, area.polygon):
                zone = ZoneKind.RESTRICTED
    cities = []
    for city_box, city_area in located.cities:
        if not _boxes_meet(city_box, padded):
            continue
        if _edge_near(city_area.polygon, padded):
            cities.append((city_box, city_area))
        elif geometry.point_in_polygon(centre, city_area.polygon):
            return _PureSubCell(south, west, north, east, located.node, zone, tuple(cities), city_area.name)
    return _PureSubCell(south, west, north, east, located.node, zone, tuple(cities), "")


class _Grid:
    """A uniform grid over the country boxes (W. R. Franklin, "Adaptive
    grids for geometric operations", 1984), so that a point or a disc meets
    a few boxes whatever the country count.

    Cells are about the median box in size, at most _CELLS_PER_COUNTRY per
    country, and tile the boxes' extent. `entries` holds a (tree position,
    box, entry) triple per country, in tree order; each cell holds the
    triples of the boxes it overlaps, in tree order, and `positions` their
    tree positions.

    Each cell is also cut into _SUB x _SUB sub-cells, after B. Žalik and
    I. Kolingerová ("A cell-based point-in-polygon algorithm suitable for
    large sets of points", Computers & Geosciences 2001). At the first
    point that lands in a cell, `holding` classifies the cell's sub-cells
    (`_classify`) and keeps them in `sub_cells`, a `model.Memo` keyed by
    the cell's index, whose bound, rows x cols, is never reached.
    """

    def __init__(self, indexed: tuple[tuple[Box, _IndexedCountry], ...]):
        self.entries = tuple((position, box, entry) for position, (box, entry) in enumerate(indexed))
        if not indexed:
            # One empty cell: every point and disc gets no candidates.
            self.south = self.west = self.north = self.east = 0.0
            self.cell_height = self.cell_width = 1.0
            self.rows = self.cols = 1
            self.cells: tuple[tuple[tuple[int, Box, _IndexedCountry], ...], ...] = ((),)
        else:
            self._tile([box for box, _ in indexed])
        self.positions = tuple(tuple(position for position, _, _ in cell) for cell in self.cells)
        self.sub_height, self.sub_width = self.cell_height / _SUB, self.cell_width / _SUB
        self.sub_cells = Memo(self.rows * self.cols)

    def _tile(self, boxes: list[Box]) -> None:
        self.south = min(box[0] for box in boxes)
        self.west = min(box[1] for box in boxes)
        self.north = max(box[2] for box in boxes)
        self.east = max(box[3] for box in boxes)
        height, width = self.north - self.south, self.east - self.west
        middle = len(boxes) // 2
        median_height = sorted(box[2] - box[0] for box in boxes)[middle]
        median_width = sorted(box[3] - box[1] for box in boxes)[middle]
        # Boxes are padded, so both medians are positive.
        most = _CELLS_PER_COUNTRY * len(boxes)
        rows = min(math.ceil(height / median_height), most)
        cols = min(math.ceil(width / median_width), most)
        while rows * cols > most:
            if rows >= cols:
                rows = (rows + 1) // 2
            else:
                cols = (cols + 1) // 2
        self.rows, self.cols = rows, cols
        self.cell_height, self.cell_width = height / rows, width / cols
        cells: list[list[tuple[int, Box, _IndexedCountry]]] = [[] for _ in range(rows * cols)]
        for triple in self.entries:
            rows_spanned, cols_spanned = self._spans(triple[1])
            for row in rows_spanned:
                for col in cols_spanned:
                    cells[row * cols + col].append(triple)
        self.cells = tuple(tuple(cell) for cell in cells)

    def _spans(self, box: Box) -> tuple[range, range]:
        """The rows and the columns of the cells that the box overlaps,
        clamped to the grid."""
        south, west, north, east = box
        last_row, last_col = self.rows - 1, self.cols - 1
        return (
            range(
                _cell(south, self.south, self.cell_height, last_row),
                _cell(north, self.south, self.cell_height, last_row) + 1,
            ),
            range(
                _cell(west, self.west, self.cell_width, last_col),
                _cell(east, self.west, self.cell_width, last_col) + 1,
            ),
        )

    def at(self, lat: float, lon: float) -> tuple[tuple[int, Box, _IndexedCountry], ...]:
        """The triples of the cell holding the point; none outside the grid."""
        if not (self.south <= lat <= self.north and self.west <= lon <= self.east):
            return ()
        # _cell, inlined: within the grid neither offset is negative.
        row = int((lat - self.south) / self.cell_height)
        col = int((lon - self.west) / self.cell_width)
        if row >= self.rows:
            row = self.rows - 1
        if col >= self.cols:
            col = self.cols - 1
        return self.cells[row * self.cols + col]

    def over(self, box: Box) -> tuple[tuple[int, Box, _IndexedCountry], ...]:
        """The triples of every cell the box overlaps, once each and in
        tree order; none for a box beyond the grid. Repeated positions are
        dropped and the rest sorted as plain ints, in C."""
        south, west, north, east = box
        if north < self.south or south > self.north or east < self.west or west > self.east:
            return ()
        rows, cols = self._spans(box)
        if len(rows) * len(cols) == 1:
            return self.cells[rows[0] * self.cols + cols[0]]
        positions = set().union(*[self.positions[row * self.cols + col] for row in rows for col in cols])
        return tuple(map(self.entries.__getitem__, sorted(positions)))

    def holding(self, lat: float, lon: float, reach: Box) -> Optional[_PureSubCell]:
        """The pure sub-cell that holds the point and its whole reach box,
        if there is one: never outside the grid, nor at a `sub_cells`
        bound of 0."""
        if not (self.south <= lat <= self.north and self.west <= lon <= self.east):
            return None
        row = int((lat - self.south) / self.sub_height)
        col = int((lon - self.west) / self.sub_width)
        if row >= self.rows * _SUB:
            row = self.rows * _SUB - 1
        if col >= self.cols * _SUB:
            col = self.cols * _SUB - 1
        cell = row // _SUB * self.cols + col // _SUB
        sub_cells = self.sub_cells.get(cell)
        if sub_cells is None:
            sub_cells = self.sub_cells.put(cell, self._sub_cells(cell) if self.sub_cells.bound else _NONE_PURE)
        pure = sub_cells[row % _SUB * _SUB + col % _SUB]
        if (
            pure is not None and pure.south <= reach[0] and reach[2] <= pure.north
            and pure.west <= reach[1] and reach[3] <= pure.east
        ):
            return pure
        return None

    def _sub_cells(self, cell: int) -> tuple[Optional[_PureSubCell], ...]:
        """The cell's sub-cells, row by row, each classified (`_classify`)
        against the countries whose boxes meet the cell, padded."""
        first_row, first_col = cell // self.cols * _SUB, cell % self.cols * _SUB
        boxes = [
            (
                self.south + row * self.sub_height, self.west + col * self.sub_width,
                self.south + (row + 1) * self.sub_height, self.west + (col + 1) * self.sub_width,
            )
            for row in range(first_row, first_row + _SUB)
            for col in range(first_col, first_col + _SUB)
        ]
        south, west = boxes[0][0], boxes[0][1]
        north, east = boxes[-1][2], boxes[-1][3]
        # Twice the pad of any one sub-cell, so each padded sub-cell lies inside.
        pad = 2 * _BOX_PAD * (1.0 + max(abs(south), abs(west), abs(north), abs(east)))
        candidates = self.over((south - pad, west - pad, north + pad, east + pad))
        return tuple(_classify(box, candidates) for box in boxes)


class ZoneTree:
    """Immutable territory hierarchy with point classification."""

    def __init__(self, roots: tuple[TerritoryNode, ...]):
        self.roots = roots
        self._by_id: dict[str, TerritoryNode] = {}
        self._countries: list[TerritoryNode] = []
        self._places: dict[str, tuple[Place, TerritoryNode]] = {}
        members: dict[str, set[str]] = {}
        for root in roots:
            self._index(root, (), members)
        self._validate()
        # Built once: location-match asks for a territory's countries per argument.
        self._members = {territory: frozenset(countries) for territory, countries in members.items()}
        # Each country's country-code bag, which every context build shares.
        self.country_bags = {c.id: (AttributeValue._trusted(DataType.COUNTRY_CODE, c.id),) for c in self._countries}
        # The boxes, and the grid over the country boxes, are computed once
        # here so that resolve_location skips most countries and polygons.
        self._grid = _Grid(tuple(
            (
                _bounding_box(country.boundary),
                _IndexedCountry(
                    node=country,
                    restricted=tuple((_bounding_box(a.polygon), a) for a in country.restricted),
                    cities=tuple((_bounding_box(c.polygon), c) for c in country.cities),
                ),
            )
            for country in self._countries
        ))

    def _index(self, node: TerritoryNode, ancestors: tuple[str, ...], members: dict[str, set[str]]) -> None:
        if node.id in self._by_id:
            raise FixtureError(f"duplicate territory id {node.id!r}")
        self._by_id[node.id] = node
        if node.kind == "country":
            self._countries.append(node)
            for territory in ancestors + (node.id,):
                members.setdefault(territory, set()).add(node.id)
        for place in node.places:
            if place.name in self._places:
                raise FixtureError(f"duplicate place name {place.name!r}")
            self._places[place.name] = (place, node)
        for child in node.children:
            self._index(child, ancestors + (node.id,), members)

    def _validate(self) -> None:
        for country in self._countries:
            if country.boundary is None:
                raise FixtureError(f"country {country.id!r} has no boundary polygon")
            if not is_simple_polygon(country.boundary):
                raise FixtureError(f"country {country.id!r} boundary is self-intersecting")
            for area in country.restricted:
                if not is_simple_polygon(area.polygon):
                    raise FixtureError(f"restricted area {area.id!r} is self-intersecting")
                for vertex in area.polygon:
                    if not point_in_polygon(vertex, country.boundary):
                        raise FixtureError(
                            f"restricted area {area.id!r} leaves country {country.id!r}"
                        )

    def countries(self) -> tuple[TerritoryNode, ...]:
        return tuple(self._countries)

    def country(self, code: str) -> TerritoryNode:
        node = self._by_id.get(code)
        if node is None or node.kind != "country":
            raise UnknownTerritoryError(f"no country {code!r} in the zone tree")
        return node

    def member_countries(self, territory_id: str) -> frozenset[str]:
        return self._members.get(territory_id, frozenset())

    def place(self, name: str) -> tuple[Place, TerritoryNode]:
        entry = self._places.get(name)
        if entry is None:
            raise FixtureError(f"unknown place {name!r}")
        return entry


def resolve_location(point: GeoPoint, accuracy_radius: float, zones: ZoneTree) -> LocationReport:
    """Classify a position against the territory tree.

    Raises UnknownTerritoryError when no country contains the point,
    PrecisionError when the accuracy disc overlaps several countries
    (country=None) or straddles a restricted boundary (country set).

    A point whose disc's reach box lies in a pure sub-cell (`_Grid.holding`)
    takes its country and zone from the sub-cell, and every other point
    from the polygon and disc tests of `_place`; both give the same report.
    """
    lat, lon = point.lat, point.lon
    reach = _disc_reach(point, accuracy_radius)
    pure = zones._grid.holding(lat, lon, reach)
    if pure is not None:
        country, zone, cities, city = pure.country, pure.zone, pure.cities, pure.city
    else:
        located, zone = _place(point, accuracy_radius, reach, zones)
        country, cities, city = located.node, located.cities, ""
    for (lat0, lon0, lat1, lon1), city_area in cities:
        if lat0 <= lat <= lat1 and lon0 <= lon <= lon1 and point_in_polygon(point, city_area.polygon):
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


def _place(point: GeoPoint, accuracy_radius: float, reach: Box, zones: ZoneTree) -> tuple[_IndexedCountry, ZoneKind]:
    """The country holding the point and the zone its disc lies in, from
    the polygons and discs; raises as resolve_location says."""
    lat, lon = point.lat, point.lon
    containing = [
        entry
        for _, (lat0, lon0, lat1, lon1), entry in zones._grid.at(lat, lon)
        if lat0 <= lat <= lat1 and lon0 <= lon <= lon1 and point_in_polygon(point, entry.node.boundary)
    ]
    if not containing:
        raise UnknownTerritoryError(
            f"no territory contains ({point.lat!r}, {point.lon!r})"
        )
    if len(containing) > 1:
        ids = ", ".join(entry.node.id for entry in containing)
        raise PrecisionError(f"point lies in several countries: {ids}")
    located = containing[0]
    country = located.node
    south, west, north, east = reach

    if accuracy_radius > 0:
        for _, (lat0, lon0, lat1, lon1), other in zones._grid.over(reach):
            if other is located or north < lat0 or south > lat1 or east < lon0 or west > lon1:
                continue
            if disc_polygon_relation(point, accuracy_radius, other.node.boundary) != "outside":
                raise PrecisionError(
                    f"accuracy disc of {accuracy_radius!r} m overlaps both "
                    f"{country.id} and {other.node.id}"
                )

    zone = ZoneKind.UNRESTRICTED
    for (lat0, lon0, lat1, lon1), area in located.restricted:
        if north < lat0 or south > lat1 or east < lon0 or west > lon1:
            continue
        relation = disc_polygon_relation(point, accuracy_radius, area.polygon)
        if relation == "straddles":
            raise PrecisionError(
                f"accuracy disc straddles restricted area {area.id!r}",
                country=country.id,
            )
        if relation == "inside":
            zone = ZoneKind.RESTRICTED
    return located, zone


def _point(lat: str, lon: str, node: XmlNode) -> GeoPoint:
    try:
        return GeoPoint(float(lat), float(lon))
    except ValueError as exc:
        raise FixtureError(f"<{node.tag}>: {exc} (line {node.line})") from exc


def _parse_polygon(node: XmlNode) -> Polygon:
    pos_list = node.find("posList")
    if pos_list is None:
        raise FixtureError(f"<{node.tag}> needs a <posList> (line {node.line})")
    numbers = pos_list.text.split()
    if len(numbers) < 6 or len(numbers) % 2:
        raise FixtureError(f"posList needs >= 3 'lat lon' pairs (line {pos_list.line})")
    return tuple(_point(numbers[i], numbers[i + 1], pos_list) for i in range(0, len(numbers), 2))


def _parse_territory(node: XmlNode) -> TerritoryNode:
    kind = node.attrs.get("kind", "")
    territory_id = node.attrs.get("id", "")
    if not kind or not territory_id:
        raise FixtureError(f"<territory> needs kind and id (line {node.line})")

    boundary = None
    boundary_node = node.find("boundary")
    if boundary_node is not None:
        boundary = _parse_polygon(boundary_node)

    tz_name, tz_offset = "UTC", 0.0
    tz_node = node.find("timezone")
    if tz_node is None and kind == "country":
        raise FixtureError(f"country {territory_id!r} has no <timezone> (line {node.line})")
    if tz_node is not None:
        name_node, value_node = tz_node.find("name"), tz_node.find("value")
        if name_node is None or value_node is None:
            raise FixtureError(f"<timezone> needs <name> and <value> (line {tz_node.line})")
        tz_name = name_node.text.strip()
        try:
            tz_offset = float(value_node.text.strip())
            check_timezone_offset(tz_offset)
        except ValueError as exc:
            raise FixtureError(f"<value>: {exc} (line {value_node.line})") from exc

    restricted = []
    for area_node in node.findall("restricted"):
        area_boundary = area_node.find("boundary")
        if area_boundary is None:
            raise FixtureError(f"<restricted> needs a <boundary> (line {area_node.line})")
        restricted.append(
            RestrictedArea(
                id=area_node.attrs.get("id", ""),
                name=area_node.attrs.get("name", area_node.attrs.get("id", "")),
                polygon=_parse_polygon(area_boundary),
            )
        )

    cities = []
    for city_node in node.findall("city"):
        city_boundary = city_node.find("boundary")
        if city_boundary is None:
            raise FixtureError(f"<city> needs a <boundary> (line {city_node.line})")
        cities.append(
            CityArea(name=city_node.attrs.get("name", ""), polygon=_parse_polygon(city_boundary))
        )

    places = []
    for place_node in node.findall("place"):
        pos = place_node.attrs.get("pos", "")
        pieces = pos.split()
        if len(pieces) != 2:
            raise FixtureError(f"<place> needs pos=\"lat lon\" (line {place_node.line})")
        places.append(
            Place(
                name=place_node.attrs.get("name", ""),
                point=_point(pieces[0], pieces[1], place_node),
            )
        )

    children = tuple(_parse_territory(child) for child in node.findall("territory"))
    return TerritoryNode(
        id=territory_id,
        name=node.attrs.get("name", territory_id),
        kind=kind,
        boundary=boundary,
        timezone_name=tz_name,
        timezone_offset=tz_offset,
        restricted=tuple(restricted),
        cities=tuple(cities),
        places=tuple(places),
        children=children,
    )


def load_zone_tree(data: bytes | str) -> ZoneTree:
    try:
        root = parse_xml(data)
    except PolicySyntaxError as exc:
        raise FixtureError(f"zone tree: {exc}") from exc
    if root.tag != "zones":
        raise FixtureError("zone tree must be a <zones> document")
    return ZoneTree(tuple(_parse_territory(child) for child in root.findall("territory")))
