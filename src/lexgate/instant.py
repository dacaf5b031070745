"""UTC instants in the 'YYYY-MM-DDTHH:MM:SSZ' spelling used everywhere."""

from __future__ import annotations

import datetime as dt


def parse_instant(text: str) -> dt.datetime:
    """Parse an ISO 8601 instant; naive values are taken as UTC. Raises
    ValueError for text that is not an instant, or one whose UTC time
    falls outside datetime's range."""
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    value = dt.datetime.fromisoformat(raw)
    # fromisoformat gives the timezone.utc singleton for a zero offset, and
    # astimezone would return such a value unchanged.
    if value.tzinfo is dt.timezone.utc:
        return value
    if value.tzinfo is None:
        return value.replace(tzinfo=dt.timezone.utc)
    try:
        return value.astimezone(dt.timezone.utc)
    except OverflowError:
        raise ValueError(f"instant {text!r} is out of range") from None


def format_instant(value: dt.datetime) -> str:
    """The instant in UTC as 'YYYY-MM-DDTHH:MM:SSZ', with '.ffffff' before
    the 'Z' when it has microseconds; the year has four digits, so years
    before 1000 are written zero-padded. Naive values are taken as UTC."""
    if value.tzinfo is not dt.timezone.utc and value.tzinfo is not None:
        value = value.astimezone(dt.timezone.utc)
    # The date's and the naive time's isoformat: the datetime's, without
    # its offset, and without the offset's costly lookup.
    return f"{value.date().isoformat()}T{value.time().isoformat()}Z"
