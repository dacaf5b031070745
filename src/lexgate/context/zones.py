"""Zone+ territory tree: hierarchical regions/countries whose leaves are
bisected into restricted areas and the unrestricted remainder.

The tree is loaded from an XML fixture (see docs/fixture-formats.md):
territories nest, countries carry a boundary polygon, a timezone, named
restricted polygons (customs areas and the like), city polygons and named
places that scenarios can reference instead of raw coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import FixtureError, PolicySyntaxError, PrecisionError, UnknownTerritoryError
from ..model import GeoPoint
from ..parsing.location_xml import LocationReport, ZoneKind, check_timezone_offset
from ..parsing.xmlread import XmlNode, parse_xml
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


class _Grid:
    """A uniform grid over the country boxes (W. R. Franklin, "Adaptive
    grids for geometric operations", 1984), so that a point or a disc meets
    a few boxes whatever the country count.

    Cells are about the median box in size, at most _CELLS_PER_COUNTRY per
    country, and tile the boxes' extent. Each cell holds a (tree position,
    box, entry) triple per box it overlaps, in tree order.
    """

    def __init__(self, indexed: tuple[tuple[Box, _IndexedCountry], ...]):
        if not indexed:
            # One empty cell: every point and disc gets no candidates.
            self.south = self.west = self.north = self.east = 0.0
            self.cell_height = self.cell_width = 1.0
            self.rows = self.cols = 1
            self.cells: tuple[tuple[tuple[int, Box, _IndexedCountry], ...], ...] = ((),)
            return
        boxes = [box for box, _ in indexed]
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
        for position, (box, entry) in enumerate(indexed):
            rows_spanned, cols_spanned = self._spans(box)
            for row in rows_spanned:
                for col in cols_spanned:
                    cells[row * cols + col].append((position, box, entry))
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
        tree order; none for a box beyond the grid."""
        south, west, north, east = box
        if north < self.south or south > self.north or east < self.west or west > self.east:
            return ()
        rows, cols = self._spans(box)
        if len(rows) * len(cols) == 1:
            return self.cells[rows[0] * self.cols + cols[0]]
        cells = [self.cells[row * self.cols + col] for row in rows for col in cols]
        return tuple(sorted({triple[0]: triple for cell in cells for triple in cell}.values()))


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
    """
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
    reach = _disc_reach(point, accuracy_radius)
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

    city = ""
    for (lat0, lon0, lat1, lon1), city_area in located.cities:
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
