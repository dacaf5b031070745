"""Wire requests drawn from the grammar of docs/wire-format.md, then
mutated: the input of the properties that check the line memo
(`test_wire.py`) and the body memo (`test_pep.py`)."""

import re

from hypothesis import strategies as st

# Request lines after the grammar of docs/wire-format.md: values of each
# type, and lines its parser refuses.
_TYPED_TEXT = {
    # Text that other types also spell, so that a line's type matters.
    "string": st.sampled_from(("read", "sparkly  unicorn value", "", "c.miller", "LU", "08:00:00", "true", "600")),
    "identifier": st.sampled_from(("c.miller", "a.chen")),
    "time-of-day": st.sampled_from(("08:00:00", "23:59:59")),
    "date": st.just("2026-03-10"),
    "integer": st.integers(-10**6, 10**6).map(str),
    "boolean": st.sampled_from(("true", "false")),
    "geo-point": st.tuples(st.floats(-90, 90), st.floats(-180, 180)).map(lambda p: f"{p[0]!r} {p[1]!r}"),
    "country-code": st.sampled_from(("LU", "GB")),
}
_attribute_lines = st.builds(
    "{} {} {}".format,
    st.sampled_from(("subject", "resource", "action", "environment")),
    # The last three hold whitespace, which the parser refuses in an id.
    st.sampled_from(("user-id", "resource-id", "action-id", "note", "position-accuracy", "a\tb", "a\xa0b", "a\u3000b")),
    st.sampled_from(sorted(_TYPED_TEXT)).flatmap(lambda t: _TYPED_TEXT[t].map(f"{t} {{}}".format)),
)
REFUSED_LINES = (
    "environment t time-of-day 24:00:00",
    "environment t time-of-day 8:0",
    "environment d date 2026-02-30",
    "subject b boolean yes",
    "resource c country-code lu",
    "action n no-such-type 5",
    "bogus line",
    "subject",
    "subject user-id",
    "destination-country gb",
)
_refused_lines = st.sampled_from(REFUSED_LINES)
_LOCATION_BLOCK = (
    "location country GB",
    "location city London",
    "location zone unrestricted",
    "location timezone IST 5.5",
    "location point 51.507861 -0.099349",
    "location accuracy 30.5",
)
# The last block names a timezone that holds whitespace, which the parser
# refuses.
_location_blocks = st.sampled_from((
    (), (), _LOCATION_BLOCK[:5], _LOCATION_BLOCK, _LOCATION_BLOCK[1:],
    (*_LOCATION_BLOCK[:3], "location timezone I\u3000ST 5.5", *_LOCATION_BLOCK[4:]),
))
_request_lines = st.one_of(
    _attribute_lines,
    _attribute_lines,
    _attribute_lines,
    st.sampled_from(("destination-country LU", "# a comment", "")),
    _refused_lines,
)
# Mutations: a number token made hostile, a line dropped or repeated, a
# line separator inserted.
_NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")
_HOSTILE_NUMBERS = ("nan", "inf", "-inf", "-0", "1e400", "9" * 400)
_mutations = st.lists(
    st.tuples(
        st.sampled_from(("number", "drop", "repeat", "separator")),
        st.integers(0, 30),
        st.sampled_from(_HOSTILE_NUMBERS),
    ),
    max_size=4,
)


def _mutate(lines: list[str], mutations) -> list[str]:
    lines = list(lines)
    for kind, at, number in mutations:
        if not lines:
            break
        at %= len(lines)
        if kind == "number":
            lines[at] = _NUMBER.sub(number, lines[at], count=1)
        elif kind == "drop":
            del lines[at]
        elif kind == "repeat":
            lines.insert(at, lines[at])
        else:
            lines[at] = lines[at][: at % 7] + "\u2028" + lines[at][at % 7:]
    return lines


@st.composite
def wire_requests(draw):
    """A request as text or UTF-8 bytes: maybe a subject id line, maybe a
    location block, up to eight more lines, then the mutations."""
    subject = draw(st.sampled_from(((), *[("subject user-id identifier c.miller",)] * 3)))
    body = draw(st.lists(_request_lines, max_size=8))
    lines = _mutate(["request", *subject, *draw(_location_blocks), *body, "end"], draw(_mutations))
    text = "\n".join(lines) + "\n"
    return text.encode("utf-8") if draw(st.booleans()) else text
