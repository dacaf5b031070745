"""Record splitting for the line-oriented fixture stores and scenarios."""

import shlex

import pytest
from hypothesis import example, given, settings, strategies as st

from lexgate.cli import parse_scenario
from lexgate.context.loader import load_diary, split_record
from lexgate.errors import FixtureError, ScenarioFormatError

# Quotes, backslashes, the separators and other whitespace, key=value and
# comment characters, letters and non-ASCII.
ALPHABET = " \t\r\n'\"\\=#,ab\x0b\xa0é€\U0001f30d"


def _split(split, line):
    try:
        return split(line)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=24))
@example('a "b\\')
@example("'x\\")
@example('"\\\\\\')
@example("k=\"v w\" '' \"\" \\ ")
def test_split_record_follows_shlex(line):
    """Same words and the same ValueError message as shlex.split."""
    assert _split(split_record, line) == _split(shlex.split, line)


def test_split_record_quoting():
    assert split_record('entry task="customer meeting" note=\'a "b"\' x\\ y') == [
        "entry", "task=customer meeting", 'note=a "b"', "x y",
    ]
    assert split_record('a "\\"q\\" \\n"') == ["a", '"q" \\n']


def test_unclosed_quote_in_a_store_names_file_and_line(tmp_path):
    path = tmp_path / "diary.txt"
    path.write_text('# header\nentry owner=c1 task="open\n')
    with pytest.raises(FixtureError, match=r"diary.txt:2: No closing quotation"):
        load_diary(path)


def test_scenario_lines_use_the_same_quoting():
    scenario = parse_scenario('scenario "border trip"\npseudonym-key \'k 1\'\n')
    assert scenario.name == "border trip"
    assert scenario.pseudonym_key == "k 1"
    with pytest.raises(ScenarioFormatError, match="line 2: No escaped character"):
        parse_scenario("scenario trip\nstep at=x\\")
