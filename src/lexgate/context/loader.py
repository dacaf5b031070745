"""Loaders for the plain-text fixture stores.

Each store is a line-oriented file: blank lines and '#' comments are
skipped, every other line is split into a record head plus key=value
fields by split_record (POSIX shell quoting, so values may hold spaces).
docs/fixture-formats.md freezes the field lists.
"""

from __future__ import annotations

import datetime as dt
import re
from pathlib import Path

from ..errors import FixtureError, LexgateError
from ..instant import parse_instant
from ..model import GeoPoint
from .diary import DiaryEntry, DiaryStore, ExpectedLocation, TimeRange
from .identity import Delegation, IdentityKind, IdentityRecord, IdentityRegistry
from .legal import LegalScope, LegalScopeRegistry
from .resources import ResourceCatalog, ResourceRecord


# A word runs up to the next space, tab, CR or LF outside quotes. Its pieces:
# plain characters, a backslash escaping any next character, '...' taken
# literally, or "..." in which a backslash escapes only a backslash or a
# double quote and is kept before anything else.
_WORD = re.compile(r"""(?:[^ \t\r\n'"\\]+|\\.|'[^']*'|"[^"\\]*(?:\\.[^"\\]*)*")+""", re.DOTALL)
# The escaped character, or the inside of a single- or double-quoted piece.
_QUOTED = re.compile(r"""\\(.)|'([^']*)'|"([^"\\]*(?:\\.[^"\\]*)*)["]""", re.DOTALL)
_DOUBLE_QUOTED_ESCAPE = re.compile(r'\\([\\"])')
_SEPARATORS = " \t\r\n"


def _unquote(piece: re.Match) -> str:
    escaped, single, double = piece.groups()
    if escaped is not None:
        return escaped
    if single is not None:
        return single
    return _DOUBLE_QUOTED_ESCAPE.sub(r"\1", double)


def split_record(line: str) -> list[str]:
    """Split one record line into words by the rules of shlex.split: POSIX
    quoting, no comments. An unclosed quote raises ValueError("No closing
    quotation"), a backslash at the very end ValueError("No escaped
    character"), with the messages shlex gives."""
    words = _WORD.findall(line)
    # What no word took is separators, up to a quote or backslash that
    # could not close; the rest of the line then lies inside it.
    unclosed = _WORD.sub("", line).lstrip(_SEPARATORS)
    if unclosed:
        trailing_backslashes = len(line) - len(line.rstrip("\\"))
        if unclosed[0] == "'" or trailing_backslashes % 2 == 0:
            raise ValueError("No closing quotation")
        raise ValueError("No escaped character")
    return [
        _QUOTED.sub(_unquote, word) if "'" in word or '"' in word or "\\" in word else word
        for word in words
    ]


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
            if "=" in token:
                key, _, value = token.partition("=")
                fields[key] = value
            else:
                positional.append(token)
        yield line_no, head, positional, fields


def _split_ids(value: str) -> frozenset[str]:
    return frozenset(part for part in value.split(",") if part)


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


def load_diary(path: Path, home_country: str | None = None) -> DiaryStore:
    entries: list[DiaryEntry] = []
    where = path.name
    for line_no, head, positional, fields in _records(read_utf8(path), where):
        if head != "entry":
            raise FixtureError(f"{where}:{line_no}: unknown record kind {head!r}")
        try:
            point = _parse_point(fields["point"]) if "point" in fields else None
            entries.append(
                DiaryEntry(
                    owner=fields["owner"],
                    task=fields.get("task", ""),
                    time=TimeRange(
                        start=parse_instant(fields["start"]),
                        end=parse_instant(fields["end"]),
                        pre_extension=dt.timedelta(minutes=int(fields.get("pre", "0"))),
                        post_extension=dt.timedelta(minutes=int(fields.get("post", "0"))),
                    ),
                    expected_location=ExpectedLocation(
                        country=fields["country"],
                        city=fields.get("city", ""),
                        point=point,
                        radius_m=float(fields.get("radius", "0")),
                    ),
                    participants=_split_ids(fields.get("participants", "")),
                    planned_resources=_split_ids(fields.get("resources", "")),
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


def load_resources(path: Path, default_host: str | None = None) -> ResourceCatalog:
    records: list[ResourceRecord] = []
    where = path.name
    for line_no, head, positional, fields in _records(read_utf8(path), where):
        if head != "resource":
            raise FixtureError(f"{where}:{line_no}: unknown record kind {head!r}")
        try:
            records.append(
                ResourceRecord(
                    id=fields["id"],
                    host_country=fields["host"],
                    confidential=fields.get("confidential", "false") == "true",
                    customer_related=fields.get("customer-related", "false") == "true",
                    customers=_split_ids(fields.get("customers", "")),
                    category=fields.get("category", ""),
                    content=fields.get("content", ""),
                )
            )
        except (KeyError, ValueError) as exc:
            raise FixtureError(f"{where}:{line_no}: {exc}") from exc
    return ResourceCatalog(records, default_host=default_host)
