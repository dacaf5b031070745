"""Time supplier and local-time derivation.

Policies compare against the requester's local wall clock, so the UTC
instant from the clock supplier is shifted by the resolved location's
timezone offset before it reaches any condition; the shifts of the
quarter-hour offsets a location may carry are a table built at import.
"""

from __future__ import annotations

import datetime as dt
from typing import Protocol


class Clock(Protocol):
    def now_utc(self) -> dt.datetime: ...


class SystemClock:
    def now_utc(self) -> dt.datetime:
        return dt.datetime.now(dt.timezone.utc)


class FixedClock:
    """Deterministic clock for scenarios and tests."""

    def __init__(self, at: dt.datetime):
        self._at = at if at.tzinfo else at.replace(tzinfo=dt.timezone.utc)

    def now_utc(self) -> dt.datetime:
        return self._at

    def set(self, at: dt.datetime) -> None:
        self._at = at if at.tzinfo else at.replace(tzinfo=dt.timezone.utc)


# The shift of every offset `check_timezone_offset` admits, the quarter
# hours from -12 to 14 hours, keyed by the offset in hours; each is exact
# in binary, so an int or float offset finds its entry.
_QUARTER_HOUR_SHIFTS = {
    quarters / 4: dt.timedelta(minutes=15 * quarters) for quarters in range(-48, 57)
}


def local_time(now_utc: dt.datetime, offset_hours: float) -> tuple[dt.date, dt.time]:
    """Local date and time-of-day in a zone offset_hours ahead of UTC.

    The offset is one `check_timezone_offset` admits, and its shift comes
    from a table of those quarter-hour offsets, built at import. A naive
    instant is taken as UTC."""
    tzinfo = now_utc.tzinfo
    if tzinfo is None:
        now_utc = now_utc.replace(tzinfo=dt.timezone.utc)
    elif tzinfo is not dt.timezone.utc:
        now_utc = now_utc.astimezone(dt.timezone.utc)
    shifted = now_utc + _QUARTER_HOUR_SHIFTS[offset_hours]
    return shifted.date(), shifted.time()
