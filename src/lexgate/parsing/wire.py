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
from enum import Enum
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
    Memo,
    Obligation,
    ResponseContext,
    TraceRecord,
    is_one_field,
    is_wire_text,
    undo_single_line,
)
from .location_xml import LocationReport, ZoneKind, country_code, format_offset
from .policy_xml import format_typed_value, parse_typed_value

Attribute = tuple[str, AttributeValue]

SUBJECT_ID = "user-id"
RESOURCE_ID = "resource-id"
ACTION_ID = "action-id"
CURRENT_POSITION = "current-position"
PROXIMITY_TOKEN = "proximity-token"

# A category's wire token, the first word of its attribute lines, is also
# the name of its bag in a RequestContext; by its place among the bags.
_BAG_INDEX = {c.value: index for index, c in enumerate(Category)}
# Category -> its bag of a RequestContext; reading `Category.value` is an
# Enum property call, several times slower than the lookup.
_CATEGORY_BAG = {c: operator.attrgetter(c.value) for c in Category}
_TYPES = {t.value: t for t in DataType}


def _first_id(bag: tuple[Attribute, ...], attribute_id: str) -> Optional[str]:
    """The text of the bag's first value of attribute_id, if any: one pass,
    as `RequestContext.first` reads it."""
    for key, value in bag:
        if key == attribute_id:
            return str(value.value)
    return None


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
        object.__setattr__(self, "_subject_id", _first_id(self.subject, SUBJECT_ID))
        object.__setattr__(self, "_resource_id", _first_id(self.resource, RESOURCE_ID))
        object.__setattr__(self, "_action_id", _first_id(self.action, ACTION_ID))

    @classmethod
    def _parsed(
        cls,
        subject: tuple[Attribute, ...],
        resource: tuple[Attribute, ...],
        action: tuple[Attribute, ...],
        environment: tuple[Attribute, ...],
        source_location: Optional[LocationReport],
        destination_country: Optional[str],
    ) -> "RequestContext":
        """The request `parse_request` read, built in one call: the fields
        and the three ids set as `__init__` and `__post_init__` set them."""
        made = object.__new__(cls)
        setattr = object.__setattr__
        setattr(made, "subject", subject)
        setattr(made, "resource", resource)
        setattr(made, "action", action)
        setattr(made, "environment", environment)
        setattr(made, "source_location", source_location)
        setattr(made, "destination_country", destination_country)
        setattr(made, "_subject_id", _first_id(subject, SUBJECT_ID))
        setattr(made, "_resource_id", _first_id(resource, RESOURCE_ID))
        setattr(made, "_action_id", _first_id(action, ACTION_ID))
        return made

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


class ViewMode(Enum):
    CLEARTEXT = "cleartext"
    PSEUDONYMOUS = "pseudonymous"
    ANONYMOUS = "anonymous"


@dataclass(frozen=True)
class WireView:
    """The view of the resource a permitted response releases: the
    payload as the obligations left it, its mode and its expiry."""

    mode: ViewMode
    payload: str
    expires_at: Optional[dt.datetime] = None


def _check_country(code: str, what: str) -> str:
    """`code`, when `parse_request` reads it back as itself."""
    try:
        if country_code(code) == code:
            return code
    except ValueError:
        pass
    raise WireFormatError(f"{what} must be a country code that reads back as itself: {code!r}")


def _check_single_line(text: str, what: str) -> str:
    if not is_wire_text(text):
        raise WireFormatError(f"{what} must be one line of UTF-8, without line breaks: {text!r}")
    return text


def _split_lines(data: bytes | str) -> list[str]:
    """The message's lines that are neither blank nor comments, stripped.
    A message that is neither bytes nor str, and text that UTF-8 cannot
    carry (bytes that do not decode, a str with a lone surrogate), is a
    format error."""
    try:
        if isinstance(data, bytes):
            text = data.decode("utf-8")
        elif isinstance(data, str):
            text = data
            text.encode("utf-8")
        else:
            raise WireFormatError(f"message must be bytes or str, not {type(data).__name__}")
    except UnicodeError as exc:
        raise WireFormatError(f"message is not UTF-8: {exc}") from exc
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


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

    def build(self) -> LocationReport:
        required = ("country", "city", "zone", "timezone", "point")
        missing = [k for k in required if k not in self.fields]
        if missing:
            raise WireFormatError(f"location block missing fields: {', '.join(missing)}")
        try:
            tz_name, tz_value = self.fields["timezone"].split(" ", 1)
            if tz_name.split() != [tz_name]:  # empty, or holds whitespace
                raise ValueError("empty timezone name" if not tz_name else f"whitespace in timezone name {tz_name!r}")
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


def _parse_attribute_line(line: str, line_no: int) -> Attribute:
    """The attribute of a '<category> <id> <type> <value>' line; the
    category is the line's first word, which the caller reads."""
    parts = line.split(" ", 3)
    if len(parts) < 3:
        raise WireFormatError(f"expected '<category> <id> <type> <value>' on line {line_no}")
    attr_id, type_token = parts[1], parts[2]
    if attr_id.split() != [attr_id]:  # empty, or holds whitespace
        what = "empty attribute id" if not attr_id else f"whitespace in attribute id {attr_id!r}"
        raise WireFormatError(f"{what} on line {line_no}")
    value_text = parts[3] if len(parts) > 3 else ""
    if type_token not in _TYPES:
        raise WireFormatError(f"unknown data type {type_token!r} on line {line_no}")
    try:
        value = parse_typed_value(_TYPES[type_token], value_text)
    except (ValueError, TypeError) as exc:
        raise WireFormatError(f"bad {type_token} value on line {line_no}: {exc}") from exc
    return attr_id, value


# The line memo (`model.Memo`) and the longest line it keeps, in characters.
# It maps an attribute line to its bag's index and its attribute: the id
# and the value are immutable.
_LINES = Memo(256, doorkeeper=True)
_LONGEST_LINE_HELD = 512


def parse_request(data: bytes | str) -> RequestContext:
    lines = _split_lines(data)
    if not lines or lines[0] != "request":
        raise WireFormatError("request must start with a 'request' line")
    if lines[-1] != "end":
        raise WireFormatError("request must finish with an 'end' line")

    # The bags in field order, as `_BAG_INDEX` numbers them.
    bags: tuple[list[Attribute], ...] = ([], [], [], [])
    location: Optional[_LocationAccumulator] = None
    destination: Optional[str] = None
    memo = _LINES
    held = memo.get

    # Each line is looked up in the line memo once, before it is split; a
    # line the memo holds is an attribute line read before.
    for line_no, line in enumerate(lines[1:-1], start=2):
        attribute = held(line)
        if attribute is not None:
            bags[attribute[0]].append(attribute[1])
            continue
        head, _, rest = line.partition(" ")
        index = _BAG_INDEX.get(head)
        if index is not None:
            attribute = _parse_attribute_line(line, line_no)
            if len(line) <= _LONGEST_LINE_HELD:
                memo.put(line, (index, attribute))
            bags[index].append(attribute)
        elif head == "destination-country":
            try:
                destination = _check_country(rest, "destination country")
            except WireFormatError as exc:
                raise WireFormatError(f"bad destination-country on line {line_no}: {exc}") from None
        elif head == "location":
            if location is None:
                location = _LocationAccumulator()
            location.feed(rest, line_no)
        else:
            raise WireFormatError(f"unknown line kind {head!r} on line {line_no}")

    subject, resource, action, environment = bags
    if not subject:
        raise MissingCategoryError("request carries no subject attributes")
    return RequestContext._parsed(
        tuple(subject), tuple(resource), tuple(action), tuple(environment),
        None if location is None else location.build(), destination,
    )


def serialize_request(request: RequestContext) -> bytes:
    """The request's wire text, as UTF-8. An attribute id or timezone name
    that is not one wire field (`is_one_field`), a value or city that is
    not one line of UTF-8, a city that ends in whitespace, or a country
    that `country_code` would change, raises WireFormatError:
    `parse_request` could not read it back."""
    out = ["request"]
    if request.destination_country:
        out.append(f"destination-country {_check_country(request.destination_country, 'destination country')}")
    if request.source_location is not None:
        report = request.source_location
        out.append(f"location country {_check_country(report.country, 'location country')}")
        city = _check_single_line(report.city, "city")
        if city.rstrip() != city:
            raise WireFormatError(f"city must not end in whitespace, which parse_request strips: {city!r}")
        out.append(f"location city {city}")
        out.append(f"location zone {report.zone.value}")
        if not is_one_field(report.timezone_name):
            raise WireFormatError(f"timezone name must be one field of one line of UTF-8: {report.timezone_name!r}")
        out.append(f"location timezone {report.timezone_name} {format_offset(report.timezone_offset)}")
        out.append(f"location point {report.point.lat!r} {report.point.lon!r}")
        if report.accuracy_radius:
            out.append(f"location accuracy {report.accuracy_radius!r}")
    for category in Category:
        for attr_id, value in request.category(category):
            if not is_one_field(attr_id):
                raise WireFormatError(f"attribute id must be one field of one line of UTF-8: {attr_id!r}")
            text = _check_single_line(format_typed_value(value), "attribute value")
            out.append(f"{category.value} {attr_id} {value.data_type.value} {text}".rstrip())
    out.append("end")
    return ("\n".join(out) + "\n").encode("utf-8")


def serialize_response(response: ResponseContext, view: Optional[WireView] = None) -> bytes:
    """The response's wire text (docs/wire-format.md), as UTF-8, made in
    one join: its head lines (`ResponseContext.wire_head`, rendered at the
    response's first serialization and kept), its trace's body
    (`Trace.body`, rendered when the trace was built) and its closing
    lines."""
    closing = b"end\n" if view is None else f"{_view_line(view)}\nend\n".encode("utf-8")
    return b"".join((response.wire_head, *response.trace.body, closing))


def response_head(response: ResponseContext) -> bytes:
    """The response's head lines as UTF-8: `response`, `decision`,
    `status`, then each obligation's line and its `param` lines. A param
    value that is not one line of UTF-8 raises WireFormatError."""
    out = ["response", f"decision {response.decision.value}", f"status {response.status}"]
    for ob in response.obligations:
        out.append(f"obligation {ob.id} {ob.fulfill_on.value}")
        for name, value in ob.parameters:
            text = _check_single_line(format_typed_value(value), "obligation parameter")
            out.append(f"param {name} {value.data_type.value} {text}".rstrip())
    return ("\n".join(out) + "\n").encode("utf-8")


def _view_line(view: WireView) -> str:
    expires = format_instant(view.expires_at) if view.expires_at else "-"
    payload = base64.b64encode(str(view.payload).encode("utf-8")).decode("ascii")
    return f"view {view.mode.value} {expires} {payload}"


def parse_response(data: bytes | str) -> tuple[ResponseContext, Optional[WireView]]:
    lines = _split_lines(data)
    if not lines or lines[0] != "response":
        raise WireFormatError("response must start with a 'response' line")
    if lines[-1] != "end":
        raise WireFormatError("response must finish with an 'end' line")

    decision: Optional[Decision] = None
    status: Optional[str] = None
    obligations: list[Obligation] = []
    trace: list[TraceRecord] = []
    view: Optional[WireView] = None

    for line_no, line in enumerate(lines[1:-1], start=2):
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
            try:
                mode = ViewMode(pieces[0])
            except ValueError:
                raise WireFormatError(f"unknown view mode on line {line_no}: {pieces[0]!r}") from None
            try:
                expires = None if pieces[1] == "-" else parse_instant(pieces[1])
            except ValueError as exc:
                raise WireFormatError(f"bad view expiry on line {line_no}: {exc}") from exc
            try:
                payload = base64.b64decode(pieces[2]).decode("utf-8")
            except Exception as exc:
                raise WireFormatError(f"bad view payload on line {line_no}: {exc}") from exc
            view = WireView(mode, payload, expires)
        else:
            raise WireFormatError(f"unknown line kind {head!r} on line {line_no}")

    if decision is None:
        raise WireFormatError("response carries no decision line")
    return (
        ResponseContext(
            decision=decision,
            status=status if status is not None else "ok",
            obligations=tuple(obligations),
            trace=trace,
        ),
        view,
    )
