import datetime as dt

from lexgate.context.clock import FixedClock, local_time


def test_zero_offset_is_identity():
    date, time = local_time(dt.datetime(2026, 3, 10, 12, 0, tzinfo=dt.timezone.utc), 0)
    assert (date, time) == (dt.date(2026, 3, 10), dt.time(12, 0))


def test_positive_offset_shifts_forward():
    date, time = local_time(dt.datetime(2026, 3, 10, 12, 0, tzinfo=dt.timezone.utc), 9)
    assert (date, time) == (dt.date(2026, 3, 10), dt.time(21, 0))


def test_negative_offset_wraps_to_previous_local_date():
    date, time = local_time(dt.datetime(2026, 3, 10, 2, 0, tzinfo=dt.timezone.utc), -5)
    assert (date, time) == (dt.date(2026, 3, 9), dt.time(21, 0))


def test_quarter_hour_offsets_are_supported():
    date, time = local_time(dt.datetime(2026, 3, 10, 12, 0, tzinfo=dt.timezone.utc), 5.75)
    assert (date, time) == (dt.date(2026, 3, 10), dt.time(17, 45))


def test_fixed_clock_is_settable():
    clock = FixedClock(dt.datetime(2026, 3, 10, 7, 45, tzinfo=dt.timezone.utc))
    assert clock.now_utc().hour == 7
    clock.set(dt.datetime(2026, 3, 10, 9, 10, tzinfo=dt.timezone.utc))
    assert clock.now_utc().hour == 9
