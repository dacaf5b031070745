import datetime as dt

from hypothesis import example, given, settings, strategies as st

from lexgate.context.clock import FixedClock, local_time
from lexgate.instant import format_instant, parse_instant


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


def _reference_parse_instant(text):
    """parse_instant as it was before it returned UTC values as they are,
    an instant whose UTC time leaves datetime's range being a ValueError."""
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    value = dt.datetime.fromisoformat(raw)
    if value.tzinfo is None:
        value = value.replace(tzinfo=dt.timezone.utc)
    try:
        return value.astimezone(dt.timezone.utc)
    except OverflowError:
        raise ValueError(f"instant {text!r} is out of range") from None


def _outcome(parse, text):
    try:
        value = parse(text)
    except Exception as exc:  # the kind and message are the outcome
        return type(exc), str(exc)
    return value, value.tzinfo


_OFFSETS = st.one_of(
    st.sampled_from(["Z", "", "+00:00", "-00:00"]),
    st.builds("{}{:02d}:{:02d}".format, st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59)),
)
_INSTANTS = st.builds(
    "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}{}{}".format,
    st.integers(1, 9999), st.integers(1, 12), st.integers(1, 28),
    st.integers(0, 23), st.integers(0, 59), st.integers(0, 59),
    st.one_of(st.just(""), st.from_regex(r"\.[0-9]{1,6}", fullmatch=True)),
    _OFFSETS,
)
_INVALID = st.one_of(
    st.text(max_size=30),
    st.builds(lambda text, cut: text[:cut] + "x" + text[cut + 1:], _INSTANTS, st.integers(0, 30)),
)


@settings(max_examples=500)
@given(_INSTANTS, st.sampled_from(["", " ", "\t"]))
@example("0001-01-01T00:00:00+00:01", "")
@example("9999-12-31T23:59:59-00:01", " ")
def test_parse_instant_matches_the_reference_formula(text, pad):
    assert _outcome(parse_instant, pad + text + pad) == _outcome(_reference_parse_instant, pad + text + pad)


@settings(max_examples=500)
@given(_INVALID)
def test_parse_instant_rejects_what_the_reference_formula_rejects(text):
    outcome = _outcome(parse_instant, text)
    assert outcome == _outcome(_reference_parse_instant, text)
    if not isinstance(outcome[0], dt.datetime):
        assert issubclass(outcome[0], ValueError)


def _strftime_instant(value):
    """format_instant as it was, by strftime: right for years from 1000,
    while glibc writes an earlier year without its leading zeros."""
    value = value.astimezone(dt.timezone.utc)
    if value.microsecond:
        return value.strftime("%Y-%m-%dT%H:%M:%S.%f") + "Z"
    return value.strftime("%Y-%m-%dT%H:%M:%SZ")


@settings(max_examples=300)
@given(st.datetimes(dt.datetime(1, 1, 1), dt.datetime(9999, 12, 31, 23, 59, 59, 999999)), st.booleans())
@example(dt.datetime(1, 1, 1), False)
@example(dt.datetime(124, 3, 11, 1, 40), False)
@example(dt.datetime(999, 12, 31, 23, 59, 59, 999999), True)
@example(dt.datetime(1000, 1, 1), True)
@example(dt.datetime(9999, 12, 31, 23, 59, 59, 999999), True)
def test_format_instant_round_trips_in_every_year(value, whole_second):
    if whole_second:
        value = value.replace(microsecond=0)
    instant = value.replace(tzinfo=dt.timezone.utc)
    text = format_instant(instant)
    assert text == format_instant(value)  # a naive value is taken as UTC
    assert parse_instant(text) == instant
    assert text[4] == "-" and text.endswith("Z")
    if value.year >= 1000:
        assert text == _strftime_instant(instant)


@given(
    st.datetimes(dt.datetime(1001, 1, 1), dt.datetime(9998, 12, 31)),
    st.integers(-14 * 60, 14 * 60).map(lambda minutes: dt.timezone(dt.timedelta(minutes=minutes))),
)
def test_format_instant_writes_an_offset_value_in_utc(value, zone):
    local = value.replace(tzinfo=zone)
    assert format_instant(local) == _strftime_instant(local.astimezone(dt.timezone.utc))
    assert parse_instant(format_instant(local)) == local


def test_local_time_of_every_quarter_hour_offset_matches_a_timedelta_of_hours():
    now = dt.datetime(2026, 3, 10, 23, 59, 59, 999_999, tzinfo=dt.timezone.utc)
    offsets = [quarters / 4 for quarters in range(-48, 57)]
    assert len(offsets) == 105
    # Whole hours as ints too.
    for offset in offsets + list(range(-12, 15)):
        shifted = now + dt.timedelta(hours=offset)
        assert local_time(now, offset) == (shifted.date(), shifted.time())


def test_local_time_takes_an_aware_instant_in_any_zone_and_a_naive_one_as_utc():
    plus_two = dt.datetime(2026, 3, 10, 1, 30, tzinfo=dt.timezone(dt.timedelta(hours=2)))
    assert local_time(plus_two, 5.75) == (dt.date(2026, 3, 10), dt.time(5, 15))
    assert local_time(plus_two, -0.25) == (dt.date(2026, 3, 9), dt.time(23, 15))
    naive = dt.datetime(2026, 3, 10, 23, 50)
    assert local_time(naive, 0.25) == (dt.date(2026, 3, 11), dt.time(0, 5))
    assert local_time(naive, 0) == local_time(naive.replace(tzinfo=dt.timezone.utc), 0)
