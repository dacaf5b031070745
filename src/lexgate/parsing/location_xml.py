"""Reader and writer for zone+ location reports.

A report is the augmented position a location supplier attaches to a
request: country, city, restricted/unrestricted zone classification,
timezone and a WGS84 point wrapped in the GML ``Point``/``pos`` pair.
``accuracy`` (meters) is an extension element; absent means an exact fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..errors import CoordinateRangeError, PolicySyntaxError
from ..model import GeoPoint
from .xmlread import XmlNode, XmlWriter, parse_xml


class ZoneKind(Enum):
    RESTRICTED = "restricted"
    UNRESTRICTED = "unrestricted"

    def __str__(self) -> str:
        return self.value

    # Identity hashing, as for Category, for the engine's bags keyed on members.
    __hash__ = object.__hash__


# Display names for the fixture countries; <country> accepts either the
# name or the ISO code and serialization prefers the name.
COUNTRY_NAMES = {
    "GB": "United Kingdom",
    "LU": "Luxembourg",
    "DE": "Germany",
    "FR": "France",
    "CH": "Switzerland",
    "JP": "Japan",
    "AT": "Austria",
    "BE": "Belgium",
    "US": "United States",
}
_NAME_TO_CODE = {name: code for code, name in COUNTRY_NAMES.items()}


def country_code(name_or_code: str) -> str:
    """ISO-3166 alpha-2 code for a country name or code string."""
    text = name_or_code.strip()
    if text in _NAME_TO_CODE:
        return _NAME_TO_CODE[text]
    code = text.upper()
    if len(code) == 2 and code.isalpha():
        return code
    raise ValueError(f"unknown country: {name_or_code!r}")


def country_name(code: str) -> str:
    return COUNTRY_NAMES.get(code, code)


def check_timezone_offset(offset: float) -> None:
    """Refuse, with ValueError, a timezone offset (hours) outside -12 to
    14 or not a whole number of quarter hours; NaN and the infinities are
    out of range."""
    # The range first: the quarter-hour test cannot take NaN or infinity.
    if not -12.0 <= offset <= 14.0:
        raise ValueError(f"timezone offset out of range: {offset}")
    if offset * 4 != int(offset * 4):
        raise ValueError("timezone offset must have quarter-hour resolution")


@dataclass(frozen=True)
class LocationReport:
    country: str
    city: str
    zone: ZoneKind
    timezone_name: str
    timezone_offset: float
    point: GeoPoint
    accuracy_radius: float = 0.0

    def __post_init__(self) -> None:
        check_timezone_offset(self.timezone_offset)
        if self.accuracy_radius < 0:
            raise ValueError("accuracy radius must be >= 0")
        if not self.accuracy_radius < math.inf:  # NaN fails every comparison
            raise ValueError(f"accuracy radius must be finite: {self.accuracy_radius}")

    @property
    def country_display_name(self) -> str:
        return country_name(self.country)


def _required(parent: XmlNode, tag: str) -> XmlNode:
    node = parent.find(tag)
    if node is None:
        raise PolicySyntaxError(f"missing <{tag}>", parent.path(), parent.line)
    return node


def parse_location_report(data: bytes | str) -> LocationReport:
    root = parse_xml(data)
    if root.tag != "location":
        raise PolicySyntaxError("expected <location> document", root.path(), root.line)

    country_node = _required(root, "country")
    try:
        country = country_code(country_node.text)
    except ValueError as exc:
        raise PolicySyntaxError(str(exc), country_node.path(), country_node.line) from exc

    city = _required(root, "city").text.strip()

    zone_value = _required(_required(root, "zone"), "value").text.strip()
    try:
        zone = ZoneKind(zone_value)
    except ValueError:
        raise PolicySyntaxError(
            f"zone must be restricted or unrestricted, got {zone_value!r}",
            root.path(),
            root.line,
        ) from None

    timezone = _required(root, "timezone")
    tz_name = _required(timezone, "name").text.strip()
    tz_value_node = _required(timezone, "value")
    try:
        tz_offset = float(tz_value_node.text.strip())
    except ValueError:
        raise PolicySyntaxError(
            f"timezone value must be numeric hours, got {tz_value_node.text.strip()!r}",
            tz_value_node.path(),
            tz_value_node.line,
        ) from None

    position = _required(root, "position")
    point_node = _required(position, "Point")
    srs = point_node.attrs.get("srsName", "")
    if srs and "4326" not in srs:
        raise PolicySyntaxError(
            f"only EPSG 4326 positions are supported, got srsName={srs!r}",
            point_node.path(),
            point_node.line,
        )
    dimension = point_node.attrs.get("srsDimension")
    if dimension not in (None, "2"):
        raise PolicySyntaxError(
            f"srsDimension must be 2, got {dimension!r}", point_node.path(), point_node.line
        )
    pos_node = _required(point_node, "pos")
    pieces = pos_node.text.split()
    if len(pieces) != 2:
        raise PolicySyntaxError(
            f"expected 'lat lon' in <pos>, got {pos_node.text.strip()!r}",
            pos_node.path(),
            pos_node.line,
        )
    try:
        lat, lon = float(pieces[0]), float(pieces[1])
    except ValueError:
        raise PolicySyntaxError(
            f"non-numeric coordinates in <pos>: {pos_node.text.strip()!r}",
            pos_node.path(),
            pos_node.line,
        ) from None
    try:
        point = GeoPoint(lat, lon)
    except ValueError as exc:
        raise CoordinateRangeError(str(exc)) from exc

    accuracy = 0.0
    accuracy_node = root.find("accuracy")
    if accuracy_node is not None:
        try:
            accuracy = float(accuracy_node.text.strip())
        except ValueError:
            raise PolicySyntaxError(
                f"accuracy must be meters, got {accuracy_node.text.strip()!r}",
                accuracy_node.path(),
                accuracy_node.line,
            ) from None

    try:
        return LocationReport(
            country=country,
            city=city,
            zone=zone,
            timezone_name=tz_name,
            timezone_offset=tz_offset,
            point=point,
            accuracy_radius=accuracy,
        )
    except ValueError as exc:
        raise PolicySyntaxError(str(exc), root.path(), root.line) from exc


def format_offset(offset: float) -> str:
    """A timezone offset's text in a report or a wire request."""
    if offset == int(offset):
        return str(int(offset))
    return repr(offset)


def serialize_location_report(report: LocationReport) -> bytes:
    writer = XmlWriter()
    writer.open("location")
    writer.leaf("country", country_name(report.country))
    writer.leaf("city", report.city)
    writer.open("zone")
    writer.leaf("value", report.zone.value)
    writer.close("zone")
    writer.open("timezone")
    writer.leaf("name", report.timezone_name)
    writer.leaf("value", format_offset(report.timezone_offset))
    writer.close("timezone")
    writer.open("position")
    writer.open(
        "gml:Point",
        **{
            "xmlns:gml": "http://www.opengis.net/gml",
            "srsDimension": "2",
            "srsName": "urn:ogc:def:crs:EPSG:6.6:4326",
        },
    )
    writer.leaf("gml:pos", f"{report.point.lat!r} {report.point.lon!r}")
    writer.close("gml:Point")
    writer.close("position")
    if report.accuracy_radius:
        writer.leaf("accuracy", repr(report.accuracy_radius))
    writer.close("location")
    return writer.render().encode("utf-8")
