"""Diary store: tasks justify access to customer-related data.

A diary entry binds a task to a closed time interval, an expected
location, the identities attending and the resources the task is likely
to need. The pre/post extensions around the core interval form the
concession window in which data is served pseudonymously only.
"""

from __future__ import annotations

import datetime as dt
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from ..errors import FixtureError
from ..model import GeoPoint
from ..parsing.location_xml import LocationReport
from .geometry import distance_m
from .identity import IdentityRegistry, ProximityToken


@dataclass(frozen=True)
class TimeRange:
    """Closed interval [start, end] with optional extensions outside it."""

    start: dt.datetime
    end: dt.datetime
    pre_extension: dt.timedelta = dt.timedelta(0)
    post_extension: dt.timedelta = dt.timedelta(0)

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("time range is empty")
        if self.pre_extension < dt.timedelta(0) or self.post_extension < dt.timedelta(0):
            raise ValueError("extensions must be >= 0")
        try:
            self.start - self.pre_extension, self.end + self.post_extension
        except OverflowError:
            raise ValueError("extended time range is out of range") from None


@dataclass(frozen=True)
class ExpectedLocation:
    country: str
    city: str = ""
    point: Optional[GeoPoint] = None
    radius_m: float = 0.0

    def __post_init__(self) -> None:
        # A NaN, infinite or negative radius would switch the distance
        # check off, so an expected point would accept any position.
        if not 0.0 <= self.radius_m < math.inf:
            raise ValueError(f"radius must be finite and >= 0 meters, got {self.radius_m}")

    def matches(self, report: LocationReport) -> bool:
        if report.country != self.country:
            return False
        if self.city and report.city and report.city != self.city:
            return False
        if self.point is not None and self.radius_m > 0:
            if distance_m(report.point, self.point) > self.radius_m:
                return False
        return True


@dataclass(frozen=True)
class DiaryEntry:
    owner: str
    task: str
    time: TimeRange
    expected_location: ExpectedLocation
    participants: frozenset[str] = frozenset()
    planned_resources: frozenset[str] = frozenset()
    travel_authorized_by: Optional[str] = None


class TaskAssessment(Enum):
    FULL_MATCH = "full-match"
    PSEUDONYMOUS_WINDOW = "pseudonymous-window"
    LOCATION_MISMATCH = "location-mismatch"
    NO_TASK = "no-task"

    # Identity hashing, as for Category, for the engine's bags keyed on members.
    __hash__ = object.__hash__


_PRIORITY = {
    TaskAssessment.NO_TASK: 0,
    TaskAssessment.LOCATION_MISMATCH: 1,
    TaskAssessment.PSEUDONYMOUS_WINDOW: 2,
    TaskAssessment.FULL_MATCH: 3,
}


def _better(a: TaskAssessment, b: TaskAssessment) -> TaskAssessment:
    return a if _PRIORITY[a] >= _PRIORITY[b] else b


def _window_start(entry: DiaryEntry) -> dt.datetime:
    """The start of the entry's extended window, start - pre."""
    return entry.time.start - entry.time.pre_extension


def _window_end(entry: DiaryEntry) -> dt.datetime:
    """The end of the entry's extended window, end + post."""
    return entry.time.end + entry.time.post_extension


class DiaryStore:
    def __init__(self, entries: Iterable[DiaryEntry], home_country: Optional[str] = None):
        self.entries = tuple(entries)
        by_owner: dict[str, list[DiaryEntry]] = {}
        for entry in self.entries:
            country = entry.expected_location.country
            if home_country and country != home_country and not entry.travel_authorized_by:
                raise FixtureError(
                    f"cross-border entry {entry.task!r} of {entry.owner!r} "
                    "lacks a travel authorization"
                )
            by_owner.setdefault(entry.owner, []).append(entry)
        # Each owner's entries by the start of their extended window, those
        # starts and ends, and the longest extended window: an entry whose
        # window holds `now` starts in [now - longest, now], so check_task
        # bisects.
        self._by_window: dict[
            str, tuple[tuple[DiaryEntry, ...], list[dt.datetime], list[dt.datetime], dt.timedelta]
        ] = {}
        for owner, owned in by_owner.items():
            owned = sorted(owned, key=_window_start)
            starts = list(map(_window_start, owned))
            ends = list(map(_window_end, owned))
            longest = max(end - start for start, end in zip(starts, ends))
            self._by_window[owner] = (tuple(owned), starts, ends, longest)

    def check_task(
        self,
        user: str,
        resource: str,
        now: dt.datetime,
        location: Optional[LocationReport],
        tokens: Iterable[ProximityToken],
        identities: IdentityRegistry,
    ) -> TaskAssessment:
        """Best assessment over the user's entries covering the resource.

        FullMatch needs the core interval, a matching location and the
        presence of every expected customer (fresh proximity token); an
        unresolved location caps the outcome at PseudonymousWindow, which
        is also what the core interval without presence and the pre/post
        extension window yield.
        """
        window = self._by_window.get(user)
        if window is None:
            return TaskAssessment.NO_TASK
        owned, starts, ends, longest = window
        try:
            first = bisect_left(starts, now - longest)
        except OverflowError:  # a window longer than the time since year 1
            first = 0
        best = TaskAssessment.NO_TASK
        verified = None
        # The bisection leaves the entries whose window starts at or before
        # `now`, so `now <= ends[index]` puts it in the core or an extension.
        # The order does not matter: the result is the best assessment, and
        # FULL_MATCH, the only early return, is the best there is.
        for index in range(first, bisect_right(starts, now)):
            if now > ends[index]:
                continue
            entry = owned[index]
            if resource not in entry.planned_resources:
                continue
            if location is None:
                best = _better(best, TaskAssessment.PSEUDONYMOUS_WINDOW)
                continue
            if not entry.expected_location.matches(location):
                best = _better(best, TaskAssessment.LOCATION_MISMATCH)
                continue
            time = entry.time
            if time.start <= now <= time.end:
                if verified is None:
                    verified = identities.verified_customers(tokens, now)
                if entry.participants & identities.customers <= verified:
                    return TaskAssessment.FULL_MATCH
            best = _better(best, TaskAssessment.PSEUDONYMOUS_WINDOW)
        return best
