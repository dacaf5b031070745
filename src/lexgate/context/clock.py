"""Time supplier and local-time derivation.

Policies compare against the requester's local wall clock, so the UTC
instant from the clock supplier is shifted by the resolved location's
timezone offset before it reaches any condition.
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


def local_time(now_utc: dt.datetime, offset_hours: float) -> tuple[dt.date, dt.time]:
    """Local date and time-of-day in a zone offset_hours ahead of UTC."""
    if now_utc.tzinfo is None:
        now_utc = now_utc.replace(tzinfo=dt.timezone.utc)
    shifted = now_utc.astimezone(dt.timezone.utc) + dt.timedelta(hours=offset_hours)
    return shifted.date(), shifted.time()
