"""Line-oriented wire format for decision requests and responses.

The format carries one attribute per line, mirroring the four-category
context model; docs/wire-format.md freezes the grammar. Requests must
contain at least one subject attribute; the other categories may be empty.
A request may embed its position either as an ordinary ``environment``
attribute of type ``geo-point`` or as a full resolved zone+ report via
``location`` block lines. Unknown attribute ids pass through untouched, so
``parse(serialize(x))`` is the identity on every well-formed value.
"""

from __future__ import annotations

import base64
import datetime as dt
import operator
from dataclasses import dataclass, field
from typing import Optional

from ..errors import MissingCategoryError, WireFormatError
from ..instant import format_instant, parse_instant
from ..model import (
    AttributeValue,
    Category,
    DataType,
    Decision,
    Effect,
    GeoPoint,
    LINE_BREAK,
    Obligation,
    ResponseContext,
    TraceRecord,
    undo_single_line,
)
from .location_xml import LocationReport, ZoneKind, country_code
from .policy_xml import format_typed_value, parse_typed_value

Attribute = tuple[str, AttributeValue]

SUBJECT_ID = "user-id"
RESOURCE_ID = "resource-id"
ACTION_ID = "action-id"
CURRENT_POSITION = "current-position"
PROXIMITY_TOKEN = "proximity-token"

_CATEGORIES = {c.value: c for c in Category}
# Category -> its bag of a RequestContext; reading `Category.value` is an
# Enum property call, several times slower than the lookup.
_CATEGORY_BAG = {c: operator.attrgetter(c.value) for c in Category}
_WIRE_LINE = operator.attrgetter("wire_line")
_TYPES = {t.value: t for t in DataType}


@dataclass(frozen=True)
class RequestContext:
    """One decision request: four attribute bags plus the source location
    (when already resolved by a supplier) and the destination country.
    The request's own subject, resource and action ids are read once,
    when the context is built."""

    subject: tuple[Attribute, ...] = ()
    resource: tuple[Attribute, ...] = ()
    action: tuple[Attribute, ...] = ()
    environment: tuple[Attribute, ...] = ()
    source_location: Optional[LocationReport] = None
    destination_country: Optional[str] = None
    _subject_id: Optional[str] = field(init=False, repr=False, compare=False)
    _resource_id: Optional[str] = field(init=False, repr=False, compare=False)
    _action_id: Optional[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, category, attribute_id in _OWN_IDS:
            value = self.first(category, attribute_id)
            object.__setattr__(self, name, str(value.value) if value else None)

    def category(self, category: Category) -> tuple[Attribute, ...]:
        return _CATEGORY_BAG[category](self)

    def bag(self, category: Category, attribute_id: str) -> tuple[AttributeValue, ...]:
        return tuple(v for k, v in self.category(category) if k == attribute_id)

    def first(self, category: Category, attribute_id: str) -> Optional[AttributeValue]:
        for key, value in self.category(category):
            if key == attribute_id:
                return value
        return None

    def subject_id(self) -> Optional[str]:
        return self._subject_id

    def resource_id(self) -> Optional[str]:
        return self._resource_id

    def action_id(self) -> Optional[str]:
        return self._action_id


_OWN_IDS = (
    ("_subject_id", Category.SUBJECT, SUBJECT_ID),
    ("_resource_id", Category.RESOURCE, RESOURCE_ID),
    ("_action_id", Category.ACTION, ACTION_ID),
)


@dataclass(frozen=True)
class WireView:
    """Payload view attached to a permitted response on the wire."""

    mode: str
    payload: str
    expires_at: Optional[dt.datetime] = None


def _check_single_line(text: str, what: str) -> str:
    if LINE_BREAK.search(text):
        raise WireFormatError(f"{what} must not contain line breaks: {text!r}")
    return text


def _split_lines(data: bytes | str) -> list[str]:
    """The message's lines that are neither blank nor comments. Text that
    UTF-8 cannot carry (bytes that do not decode, a str with a lone
    surrogate) is a format error."""
    try:
        if isinstance(data, bytes):
            text = data.decode("utf-8")
        else:
            text = data
            text.encode("utf-8")
    except UnicodeError as exc:
        raise WireFormatError(f"message is not UTF-8: {exc}") from exc
    lines = []
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        lines.append(raw)
    return lines


class _LocationAccumulator:
    """Collects 'location <field> ...' lines into a LocationReport."""

    def __init__(self) -> None:
        self.fields: dict[str, str] = {}

    def feed(self, rest: str, line_no: int) -> None:
        parts = rest.split(" ", 1)
        key = parts[0]
        value = parts[1] if len(parts) > 1 else ""
        if key in self.fields:
            raise WireFormatError(f"duplicate location field {key!r} on line {line_no}")
        self.fields[key] = value

    def build(self) -> Optional[LocationReport]:
        if not self.fields:
            return None
        required = ("country", "city", "zone", "timezone", "point")
        missing = [k for k in required if k not in self.fields]
        if missing:
            raise WireFormatError(f"location block missing fields: {', '.join(missing)}")
        try:
            tz_name, tz_value = self.fields["timezone"].split(" ", 1)
            lat_text, lon_text = self.fields["point"].split()
            return LocationReport(
                country=country_code(self.fields["country"]),
                city=self.fields["city"],
                zone=ZoneKind(self.fields["zone"]),
                timezone_name=tz_name,
                timezone_offset=float(tz_value),
                point=GeoPoint(float(lat_text), float(lon_text)),
                accuracy_radius=float(self.fields.get("accuracy", "0") or "0"),
            )
        except (ValueError, KeyError) as exc:
            raise WireFormatError(f"bad location block: {exc}") from exc


def _parse_attribute_line(line: str, line_no: int) -> tuple[Category, Attribute]:
    parts = line.split(" ", 3)
    if len(parts) < 3:
        raise WireFormatError(f"expected '<category> <id> <type> <value>' on line {line_no}")
    category_token, attr_id, type_token = parts[0], parts[1], parts[2]
    value_text = parts[3] if len(parts) > 3 else ""
    category = _CATEGORIES[category_token]
    if type_token not in _TYPES:
        raise WireFormatError(f"unknown data type {type_token!r} on line {line_no}")
    try:
        value = parse_typed_value(_TYPES[type_token], value_text)
    except (ValueError, TypeError) as exc:
        raise WireFormatError(f"bad {type_token} value on line {line_no}: {exc}") from exc
    return category, (attr_id, value)


def parse_request(data: bytes | str) -> RequestContext:
    lines = _split_lines(data)
    if not lines or lines[0].strip() != "request":
        raise WireFormatError("request must start with a 'request' line")
    if lines[-1].strip() != "end":
        raise WireFormatError("request must finish with an 'end' line")

    bags: dict[Category, list[Attribute]] = {c: [] for c in Category}
    location = _LocationAccumulator()
    destination: Optional[str] = None

    for line_no, raw in enumerate(lines[1:-1], start=2):
        line = raw.strip()
        head = line.split(" ", 1)[0]
        rest = line[len(head) + 1:] if " " in line else ""
        if head == "destination-country":
            try:
                destination = country_code(rest)
            except ValueError as exc:
                raise WireFormatError(f"bad destination-country on line {line_no}: {exc}") from exc
        elif head == "location":
            location.feed(rest, line_no)
        elif head in _CATEGORIES:
            category, attribute = _parse_attribute_line(line, line_no)
            bags[category].append(attribute)
        else:
            raise WireFormatError(f"unknown line kind {head!r} on line {line_no}")

    if not bags[Category.SUBJECT]:
        raise MissingCategoryError("request carries no subject attributes")

    return RequestContext(
        subject=tuple(bags[Category.SUBJECT]),
        resource=tuple(bags[Category.RESOURCE]),
        action=tuple(bags[Category.ACTION]),
        environment=tuple(bags[Category.ENVIRONMENT]),
        source_location=location.build(),
        destination_country=destination,
    )


def _format_offset(offset: float) -> str:
    return str(int(offset)) if offset == int(offset) else repr(offset)


def serialize_request(request: RequestContext) -> bytes:
    out = ["request"]
    if request.destination_country:
        out.append(f"destination-country {request.destination_country}")
    if request.source_location is not None:
        report = request.source_location
        out.append(f"location country {report.country}")
        out.append(f"location city {_check_single_line(report.city, 'city')}")
        out.append(f"location zone {report.zone.value}")
        out.append(f"location timezone {report.timezone_name} {_format_offset(report.timezone_offset)}")
        out.append(f"location point {report.point.lat!r} {report.point.lon!r}")
        if report.accuracy_radius:
            out.append(f"location accuracy {report.accuracy_radius!r}")
    for category in Category:
        for attr_id, value in request.category(category):
            text = _check_single_line(format_typed_value(value), "attribute value")
            out.append(f"{category.value} {attr_id} {value.data_type.value} {text}".rstrip())
    out.append("end")
    return ("\n".join(out) + "\n").encode("utf-8")


def serialize_response(response: ResponseContext, view: Optional[WireView] = None) -> bytes:
    out = ["response"]
    out.append(f"decision {response.decision.value}")
    out.append(f"status {response.status}")
    for ob in response.obligations:
        out.append(f"obligation {ob.id} {ob.fulfill_on.value}")
        for name, value in ob.parameters:
            text = _check_single_line(format_typed_value(value), "obligation parameter")
            out.append(f"param {name} {value.data_type.value} {text}".rstrip())
    out.extend(map(_WIRE_LINE, response.trace))
    if view is not None:
        expires = format_instant(view.expires_at) if view.expires_at else "-"
        payload = base64.b64encode(str(view.payload).encode("utf-8")).decode("ascii")
        out.append(f"view {view.mode} {expires} {payload}")
    out.append("end")
    return ("\n".join(out) + "\n").encode("utf-8")


def parse_response(data: bytes | str) -> tuple[ResponseContext, Optional[WireView]]:
    lines = _split_lines(data)
    if not lines or lines[0].strip() != "response":
        raise WireFormatError("response must start with a 'response' line")
    if lines[-1].strip() != "end":
        raise WireFormatError("response must finish with an 'end' line")

    decision: Optional[Decision] = None
    status: Optional[str] = None
    obligations: list[Obligation] = []
    trace: list[TraceRecord] = []
    view: Optional[WireView] = None

    for line_no, raw in enumerate(lines[1:-1], start=2):
        line = raw.strip()
        head, _, rest = line.partition(" ")
        if head == "decision":
            try:
                decision = Decision(rest.strip())
            except ValueError as exc:
                raise WireFormatError(f"unknown decision on line {line_no}: {rest!r}") from exc
        elif head == "status":
            status = rest.strip()
        elif head == "obligation":
            pieces = rest.split()
            if len(pieces) != 2 or pieces[1] not in ("Permit", "Deny"):
                raise WireFormatError(f"expected 'obligation <id> <effect>' on line {line_no}")
            obligations.append(Obligation(pieces[0], Effect(pieces[1])))
        elif head == "param":
            if not obligations:
                raise WireFormatError(f"param line before any obligation on line {line_no}")
            pieces = rest.split(" ", 2)
            if len(pieces) < 2:
                raise WireFormatError(f"expected 'param <name> <type> <value>' on line {line_no}")
            name, type_token = pieces[0], pieces[1]
            value_text = pieces[2] if len(pieces) > 2 else ""
            if type_token not in _TYPES:
                raise WireFormatError(f"unknown data type {type_token!r} on line {line_no}")
            try:
                value = parse_typed_value(_TYPES[type_token], value_text)
            except (ValueError, TypeError) as exc:
                raise WireFormatError(f"bad param value on line {line_no}: {exc}") from exc
            last = obligations[-1]
            obligations[-1] = Obligation(
                last.id, last.fulfill_on, last.parameters + ((name, value),)
            )
        elif head == "trace":
            pieces = rest.split(" ", 2)
            if len(pieces) < 2:
                raise WireFormatError(f"expected 'trace <node> <decision> [reason]' on line {line_no}")
            try:
                node_decision = Decision(pieces[1])
            except ValueError as exc:
                raise WireFormatError(f"unknown decision on line {line_no}: {pieces[1]!r}") from exc
            reason = pieces[2] if len(pieces) > 2 else ""
            # The record escapes its reason again; only the text single_line
            # writes comes back as the same bytes, and so the same digest.
            record = TraceRecord(pieces[0], node_decision, undo_single_line(reason))
            if record.reason != reason:
                raise WireFormatError(f"trace reason is not escaped as written on line {line_no}")
            trace.append(record)
        elif head == "view":
            pieces = rest.split(" ", 2)
            if len(pieces) == 2:
                pieces.append("")  # an empty payload, its separator stripped with the line
            if len(pieces) != 3:
                raise WireFormatError(f"expected 'view <mode> <expires> <base64>' on line {line_no}")
            expires = None if pieces[1] == "-" else parse_instant(pieces[1])
            try:
                payload = base64.b64decode(pieces[2]).decode("utf-8")
            except Exception as exc:
                raise WireFormatError(f"bad view payload on line {line_no}: {exc}") from exc
            view = WireView(mode=pieces[0], payload=payload, expires_at=expires)
        else:
            raise WireFormatError(f"unknown line kind {head!r} on line {line_no}")

    if decision is None:
        raise WireFormatError("response carries no decision line")
    return (
        ResponseContext(
            decision=decision,
            status=status if status is not None else "ok",
            obligations=tuple(obligations),
            trace=tuple(trace),
        ),
        view,
    )
