"""Loaders for the plain-text fixture stores.

Each store is a line-oriented file: blank lines and '#' comments are
skipped, every other line is split into a record head plus key=value
fields by split_record (POSIX shell quoting, so values may hold spaces).
docs/fixture-formats.md freezes the field lists.

Loading is paid before a process's first decision, so the common line
takes a short path: a line without backslash or single quote is split by
one regex pass, which is exact because there a double quote can neither
be escaped nor quoted, so quotes pair up in order. Any other line goes to
shlex.split (see split_record).
load_diary builds one value per distinct instant, extension, place and id
list text within a load.
"""

from __future__ import annotations

import datetime as dt
import re
import shlex
from pathlib import Path

from ..errors import FixtureError, LexgateError
from ..instant import parse_instant
from ..model import GeoPoint
from .diary import DiaryEntry, DiaryStore, ExpectedLocation, TimeRange
from .identity import Delegation, IdentityKind, IdentityRecord, IdentityRegistry
from .legal import LegalScope, LegalScopeRegistry
from .resources import ResourceCatalog, ResourceRecord


# A word of a line that holds no backslash and no single quote: plain
# characters and "..." pieces, taken literally.
_PLAIN_WORD = re.compile(r'(?:[^ \t\r\n"]+|"[^"]*")+')


def split_record(line: str) -> list[str]:
    """Split one record line into words by the rules of shlex.split: POSIX
    quoting, no comments. An unclosed quote raises ValueError("No closing
    quotation"), a backslash at the very end ValueError("No escaped
    character"), with the messages shlex gives.

    A line with no backslash and no single quote, such as a typical diary
    line, takes one regex pass. There the double quote is the only
    quoting character and nothing escapes it, so the quotes pair up in
    order: an odd count leaves the last one unclosed, an even count closes
    every piece, and a piece unquotes by dropping its quote characters.
    Any other line goes to shlex.split itself."""
    if "\\" in line or "'" in line:
        return shlex.split(line)
    if line.count('"') % 2:
        raise ValueError("No closing quotation")
    return [word.replace('"', "") if '"' in word else word for word in _PLAIN_WORD.findall(line)]


def read_utf8(path: Path, error: type[LexgateError] = FixtureError) -> str:
    """The text of a UTF-8 file; other bytes raise `error` naming the file
    and line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path.name}:{line_no}: not UTF-8 ({exc.reason})") from exc


def _records(text: str, where: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = split_record(line)
        except ValueError as exc:
            raise FixtureError(f"{where}:{line_no}: {exc}") from exc
        head, fields = tokens[0], {}
        positional = []
        for token in tokens[1:]:
            key, separator, value = token.partition("=")
            if separator:
                fields[key] = value
            else:
                positional.append(token)
        yield line_no, head, positional, fields


def _split_ids(value: str) -> frozenset[str]:
    ids = frozenset(value.split(","))
    return ids - {""} if "" in ids else ids


def _parse_point(value: str) -> GeoPoint:
    pieces = value.replace(",", " ").split()
    if len(pieces) != 2:
        raise ValueError(f"expected 'lat,lon', got {value!r}")
    return GeoPoint(float(pieces[0]), float(pieces[1]))


def load_identities(path: Path) -> IdentityRegistry:
    records: list[IdentityRecord] = []
    delegations: list[Delegation] = []
    positions: dict[str, GeoPoint] = {}
    where = path.name
    for line_no, head, positional, fields in _records(read_utf8(path), where):
        try:
            if head in ("consultant", "customer", "supervisor", "supplier"):
                if len(positional) != 1:
                    raise ValueError("expected exactly one identity id")
                records.append(
                    IdentityRecord(
                        id=positional[0],
                        kind=IdentityKind(head),
                        credentials=fields.get("secret", fields.get("verifier", "")),
                        assigned_customers=_split_ids(fields.get("customers", "")),
                    )
                )
            elif head == "delegation":
                delegations.append(
                    Delegation(
                        consultant=fields["consultant"],
                        customers=_split_ids(fields["customers"]),
                        start=parse_instant(fields["from"]),
                        end=parse_instant(fields["to"]),
                    )
                )
            elif head == "device":
                if len(positional) != 1:
                    raise ValueError("expected exactly one user id")
                positions[positional[0]] = _parse_point(fields["pos"])
            else:
                raise ValueError(f"unknown record kind {head!r}")
        except (KeyError, ValueError) as exc:
            raise FixtureError(f"{where}:{line_no}: {exc}") from exc
    return IdentityRegistry(records, delegations, positions)


class _Shared(dict):
    """Text -> the value `build` makes of it, built on the first lookup, so
    that equal texts share one value."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, text):
        value = self[text] = self._build(text)
        return value


def _minutes(text: str) -> dt.timedelta:
    try:
        return dt.timedelta(minutes=int(text))
    except OverflowError:
        raise ValueError(f"{text} minutes is out of range") from None


def load_diary(path: Path, home_country: str | None = None) -> DiaryStore:
    entries: list[DiaryEntry] = []
    where = path.name
    # Diary lines repeat their instants, extensions, places and id lists, so
    # one load builds one value per distinct text. The statements below keep
    # the order in which a line's fields are read, so a line with several
    # faults reports the same one.
    instants, minutes, id_sets = _Shared(parse_instant), _Shared(_minutes), _Shared(_split_ids)
    locations: dict[tuple, ExpectedLocation] = {}
    for line_no, head, positional, fields in _records(read_utf8(path), where):
        if head != "entry":
            raise FixtureError(f"{where}:{line_no}: unknown record kind {head!r}")
        try:
            point = _parse_point(fields["point"]) if "point" in fields else None
            owner, task = fields["owner"], fields.get("task", "")
            time = TimeRange(
                start=instants[fields["start"]],
                end=instants[fields["end"]],
                pre_extension=minutes[fields.get("pre", "0")],
                post_extension=minutes[fields.get("post", "0")],
            )
            country, city, radius = fields["country"], fields.get("city", ""), fields.get("radius", "0")
            # The point's text, not its value, since GeoPoint(-0.0, 0) == GeoPoint(0, 0).
            place = (country, city, fields.get("point"), radius)
            location = locations.get(place)
            if location is None:
                location = locations[place] = ExpectedLocation(
                    country=country, city=city, point=point, radius_m=float(radius)
                )
            entries.append(
                DiaryEntry(
                    owner=owner,
                    task=task,
                    time=time,
                    expected_location=location,
                    participants=id_sets[fields.get("participants", "")],
                    planned_resources=id_sets[fields.get("resources", "")],
                    travel_authorized_by=fields.get("travel-authorized-by"),
                )
            )
        except (KeyError, ValueError) as exc:
            raise FixtureError(f"{where}:{line_no}: {exc}") from exc
    return DiaryStore(entries, home_country=home_country)


def load_scopes(path: Path) -> LegalScopeRegistry:
    scopes: list[LegalScope] = []
    organization: str | None = None
    where = path.name
    for line_no, head, positional, fields in _records(read_utf8(path), where):
        try:
            if head == "scope":
                scopes.append(
                    LegalScope(
                        id=fields["id"],
                        kind=fields["kind"],
                        parent_memberships=_split_ids(fields.get("member-of", "")),
                    )
                )
            elif head == "organization":
                if len(positional) != 1:
                    raise ValueError("expected exactly one organization scope id")
                organization = positional[0]
            else:
                raise ValueError(f"unknown record kind {head!r}")
        except (KeyError, ValueError) as exc:
            raise FixtureError(f"{where}:{line_no}: {exc}") from exc
    return LegalScopeRegistry(scopes, organization=organization)


# A resource's host: an uppercase ISO-3166 alpha-2 code, as a country-code
# value holds it.
_HOST = re.compile("[A-Z]{2}")


def load_resources(path: Path, default_host: str | None = None) -> ResourceCatalog:
    records: list[ResourceRecord] = []
    where = path.name
    for line_no, head, positional, fields in _records(read_utf8(path), where):
        if head != "resource":
            raise FixtureError(f"{where}:{line_no}: unknown record kind {head!r}")
        try:
            record = ResourceRecord(
                id=fields["id"],
                host_country=fields["host"],
                confidential=fields.get("confidential", "false") == "true",
                customer_related=fields.get("customer-related", "false") == "true",
                customers=_split_ids(fields.get("customers", "")),
                category=fields.get("category", ""),
                content=fields.get("content", ""),
            )
            if not _HOST.fullmatch(record.host_country):
                raise ValueError(f"host must be an uppercase two-letter country code, got {record.host_country!r}")
            records.append(record)
        except (KeyError, ValueError) as exc:
            raise FixtureError(f"{where}:{line_no}: {exc}") from exc
    return ResourceCatalog(records, default_host=default_host)
