"""Record splitting for the line-oriented fixture stores and scenarios, and
the store loaders on damaged input."""

import re
import shlex
import shutil

import pytest
from hypothesis import example, given, settings, strategies as st

from lexgate.cli import default_fixtures_root, load_policy_dir, parse_scenario
from lexgate.context.bundle import STORE_FILES, load_bundle
from lexgate.context.loader import load_diary, load_identities, load_resources, load_scopes, split_record
from lexgate.context.zones import load_zone_tree
from lexgate.errors import FixtureError, LexgateError, PolicySyntaxError, ScenarioFormatError
from lexgate.model import validate_document
from lexgate.parsing.location_xml import parse_location_report
from lexgate.parsing.policy_xml import parse_policy_document

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
@example('a""b')
@example('k="v w"x "y')
@example('"" ""')
@example('x="a b"c=d')
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


def test_negative_extension_in_a_store_names_file_and_line(tmp_path):
    path = tmp_path / "diary.txt"
    path.write_text(
        "entry owner=c1 start=2026-03-10T09:00:00Z end=2026-03-10T10:00:00Z country=LU\n"
        "entry owner=c1 start=2026-03-10T11:00:00Z end=2026-03-10T12:00:00Z pre=-5 country=LU\n"
    )
    with pytest.raises(FixtureError, match=r"^diary.txt:2: extensions must be >= 0$"):
        load_diary(path)


@pytest.mark.parametrize("radius", ["nan", "inf", "-inf", "-1000"])
def test_a_non_finite_or_negative_diary_radius_names_file_and_line(tmp_path, radius):
    # Such a radius would switch the distance check off, so the entry's
    # point would accept a request from anywhere in its country.
    path = tmp_path / "diary.txt"
    path.write_text(
        "entry owner=c1 start=2026-03-10T09:00:00Z end=2026-03-10T10:00:00Z country=LU\n"
        "entry owner=c1 start=2026-03-10T11:00:00Z end=2026-03-10T12:00:00Z country=DE"
        f" point=50.11,8.68 radius={radius}\n"
    )
    with pytest.raises(FixtureError, match=r"^diary.txt:2: radius must be finite and >= 0 meters"):
        load_diary(path)


@pytest.mark.parametrize(
    "store, line, message",
    [
        ("diary.txt",
         "entry owner=c1 start=2026-03-10T09:00:00Z end=2026-03-10T10:00:00Z post=99999999999999 country=LU",
         "99999999999999 minutes is out of range"),
        ("diary.txt",
         "entry owner=c1 start=0001-01-01T00:30:00+01:00 end=2026-03-10T10:00:00Z country=LU",
         r"instant '0001-01-01T00:30:00\+01:00' is out of range"),
        ("diary.txt",
         "entry owner=c1 start=0001-01-01T00:30:00Z end=2026-03-10T10:00:00Z pre=60 country=LU",
         "extended time range is out of range"),
        ("diary.txt",
         "entry owner=c1 start=2026-03-10T09:00:00Z end=9999-12-31T23:00:00Z post=120 country=LU",
         "extended time range is out of range"),
        ("identities.txt",
         "delegation consultant=c1 customers=k1 from=0001-01-01T00:30:00+01:00 to=2026-01-01T00:00:00Z",
         r"instant '0001-01-01T00:30:00\+01:00' is out of range"),
    ],
    ids=["diary-post", "diary-start", "diary-pre-window", "diary-post-window", "delegation-from"],
)
def test_out_of_range_value_in_a_store_names_file_and_line(tmp_path, store, line, message):
    path = tmp_path / store
    path.write_text("# header\n" + line + "\n")
    load = load_diary if store == "diary.txt" else load_identities
    with pytest.raises(FixtureError, match=f"^{store}:2: {message}$"):
        load(path)


@pytest.mark.parametrize("host", ["lu", "Lu", "LUX", "L", "", "Luxembourg", "ÉÉ", "L1"])
def test_a_resource_host_that_is_no_uppercase_country_code_names_file_and_line(tmp_path, host):
    # Loaded, such a host would become a country-code bag no scope is
    # named by, and every request for the resource a `<context>` refusal.
    path = tmp_path / "resources.txt"
    path.write_text(
        "resource id=products/overview host=LU\n"
        f"# a comment\nresource id=cust/1/portfolio host={host} customers=cust:1\n",
        encoding="utf-8",
    )
    message = f"host must be an uppercase two-letter country code, got {host!r}"
    with pytest.raises(FixtureError, match=f"^resources.txt:3: {message}$"):
        load_resources(path)
    path.write_text("resource id=cust/1/portfolio host=GB\n")
    record, _pairs = load_resources(path).lookup("cust/1/portfolio")
    assert record.host_country == "GB"


def test_scenario_lines_use_the_same_quoting():
    scenario = parse_scenario('scenario "border trip"\npseudonym-key \'k 1\'\n')
    assert scenario.name == "border trip"
    assert scenario.pseudonym_key == "k 1"
    with pytest.raises(ScenarioFormatError, match="line 2: No escaped character"):
        parse_scenario("scenario trip\nstep at=x\\")


def test_packaged_stores_and_scenario_never_reach_shlex(fixtures_root, monkeypatch):
    # Every packaged line takes split_record's regex pass, so loading
    # costs no shlex.split call.
    def refuse(line):
        raise AssertionError(f"shlex.split called on {line!r}")

    monkeypatch.setattr(shlex, "split", refuse)
    pips = load_bundle(fixtures_root)
    assert pips.diary.entries
    scenario = parse_scenario((fixtures_root / "scenarios" / "border-trip.scenario").read_text())
    assert scenario.steps


# -- any bytes in a store line --------------------------------------------------

@pytest.fixture(scope="module")
def store_root(fixtures_root, tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    for name in STORE_FILES.values():
        shutil.copy(fixtures_root / name, root / name)
    return root


# Arbitrary bytes, or a few of the characters the store syntaxes give meaning to.
_splices = st.one_of(
    st.binary(max_size=12),
    st.text(alphabet=" \t\n'\"\\=,.-:<>/x09é", max_size=8).map(str.encode),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
@pytest.mark.parametrize("store", STORE_FILES)
def test_bytes_spliced_into_a_store_line_raise_only_lexgate_errors(store_root, store, data):
    lines = (store_root / STORE_FILES[store]).read_bytes().splitlines(keepends=True)
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[index]
    at = data.draw(st.integers(0, len(line)), label="at")
    cut = data.draw(st.integers(0, 8), label="cut")
    lines[index] = line[:at] + data.draw(_splices, label="splice") + line[at + cut:]
    (store_root / f"fuzzed-{store}").write_bytes(b"".join(lines))
    try:
        load_bundle(store_root, stores={store: f"fuzzed-{store}"})
    except LexgateError:
        pass


def test_non_utf8_store_names_file_and_line(tmp_path):
    path = tmp_path / "diary.txt"
    path.write_bytes(b"# header\nentry owner=caf\xe9\n")
    with pytest.raises(FixtureError, match=r"diary.txt:2: not UTF-8"):
        load_diary(path)


@pytest.mark.parametrize(
    "prefix, message",
    [("x", "could not convert string to float"), ("9", "latitude out of range")],
)
def test_bad_zone_coordinates_name_the_line(fixtures_root, prefix, message):
    text = (fixtures_root / "zones.xml").read_text()
    line_no = text.count("\n", 0, text.index("<posList>")) + 1
    with pytest.raises(FixtureError, match=rf"<posList>: {message}.*\(line {line_no}\)"):
        load_zone_tree(text.replace("<posList>", "<posList>" + prefix, 1))


@pytest.mark.parametrize(
    "value, message",
    [
        ("nan", "timezone offset out of range: nan"),
        ("inf", "timezone offset out of range: inf"),
        ("16", "timezone offset out of range: 16.0"),
        ("1.1", "timezone offset must have quarter-hour resolution"),
    ],
)
def test_a_timezone_offset_a_report_would_refuse_is_refused_at_load(fixtures_root, value, message):
    # GB's offset: such a tree used to load, and then every request located
    # in GB was answered Indeterminate/processing-error.
    text = (fixtures_root / "zones.xml").read_text()
    line_no = text.count("\n", 0, text.index("<value>0</value>")) + 1
    with pytest.raises(FixtureError, match=rf"<value>: {message} \(line {line_no}\)"):
        load_zone_tree(text.replace("<value>0</value>", f"<value>{value}</value>", 1))


# -- XML declarations and any bytes in a policy line -----------------------------------

# An unknown codec, and codecs expat cannot decode.
BAD_DECLARATIONS = ("U-TF-8", "utf-32", "UTF-7")


@pytest.mark.parametrize("encoding", BAD_DECLARATIONS)
def test_zone_tree_with_an_unusable_encoding_is_a_fixture_error(store_root, encoding):
    text = (store_root / "zones.xml").read_text()
    text = f'<?xml version="1.0" encoding="{encoding}"?>\n' + text
    (store_root / "declared-zones.xml").write_text(text)
    with pytest.raises(FixtureError, match=r"unsupported encoding.*line 1\)"):
        load_bundle(store_root, stores={"zones": "declared-zones.xml"})


@pytest.mark.parametrize("encoding", BAD_DECLARATIONS)
def test_policy_with_an_unusable_encoding_is_a_syntax_error(fixtures_root, encoding):
    data = (fixtures_root / "policies" / "working-time.xml").read_bytes()
    data = f'<?xml version="1.0" encoding="{encoding}"?>\n'.encode() + data
    with pytest.raises(PolicySyntaxError, match=r"unsupported encoding.*line 1\)") as err:
        parse_policy_document(data)
    assert err.value.line == 1


POLICY_FILES = sorted(path.name for path in (default_fixtures_root() / "policies").glob("*.xml"))


@pytest.fixture(scope="module")
def policy_root(tmp_path_factory):
    return tmp_path_factory.mktemp("policies")


# Arbitrary bytes, markup characters, or an XML declaration naming a codec.
_policy_splices = st.one_of(
    _splices,
    st.text(alphabet="<>/=\"'&;#xX09 ?!-[]", max_size=8).map(str.encode),
    st.sampled_from(("U-TF-8", "utf-32", "utf-16", "latin-1", "ascii")).map(
        lambda codec: f'<?xml version="1.0" encoding="{codec}"?>'.encode()
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
@pytest.mark.parametrize("name", POLICY_FILES)
def test_bytes_spliced_into_a_policy_line_raise_only_lexgate_errors(fixtures_root, policy_root, name, data):
    lines = (fixtures_root / "policies" / name).read_bytes().splitlines(keepends=True)
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[index]
    at = data.draw(st.integers(0, len(line)), label="at")
    cut = data.draw(st.integers(0, 8), label="cut")
    lines[index] = line[:at] + data.draw(_policy_splices, label="splice") + line[at + cut:]
    fuzzed = b"".join(lines)
    try:
        parse_policy_document(fuzzed, source_name=name)
    except LexgateError:
        pass
    directory = policy_root / name.removesuffix(".xml")
    directory.mkdir(exist_ok=True)
    (directory / name).write_bytes(fuzzed)
    try:
        load_policy_dir(directory)
    except LexgateError:
        pass


# -- one number made extreme in a packaged input ---------------------------------

_NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?")
# Every packaged input but the wire requests that holds a number, by its
# path under the fixtures root: the stores, the location report, the
# scenario and the one policy with a number (working-time's times).
NUMBER_SURFACES = tuple(
    path
    for path in (
        *STORE_FILES.values(),
        "location-report-london.xml",
        "scenarios/border-trip.scenario",
        *(f"policies/{name}" for name in POLICY_FILES),
    )
    if _NUMBER.search((default_fixtures_root() / path).read_bytes())
)
_EXTREMES = (b"nan", b"inf", b"-inf", b"1e400", b"-0", b"9" * 400)


def _load(store_root, path, fuzzed):
    """Load `fuzzed` as the input at `path` is loaded."""
    stores = {name: store for store, name in STORE_FILES.items()}
    if path in stores:
        (store_root / f"fuzzed-{path}").write_bytes(fuzzed)
        load_bundle(store_root, stores={stores[path]: f"fuzzed-{path}"})
    elif path.startswith("policies/"):
        document = parse_policy_document(fuzzed, source_name=path)
        validate_document(document, known_scopes=load_scopes(store_root / "scopes.txt").ids())
    elif path.endswith(".scenario"):
        parse_scenario(fuzzed.decode("utf-8"))
    else:
        parse_location_report(fuzzed)


@settings(max_examples=30, deadline=None)
@given(st.data())
@pytest.mark.parametrize("path", NUMBER_SURFACES)
def test_an_extreme_number_in_a_packaged_input_raises_only_lexgate_errors(fixtures_root, store_root, path, data):
    # One number token (a coordinate, an offset, a minute count, a digit
    # run of a date or an id) becomes NaN, an infinity, an overflowing
    # float, a negative zero or a 400-digit integer.
    text = (fixtures_root / path).read_bytes()
    number = data.draw(st.sampled_from(list(_NUMBER.finditer(text))), label="number")
    extreme = data.draw(st.sampled_from(_EXTREMES), label="extreme")
    try:
        _load(store_root, path, text[:number.start()] + extreme + text[number.end():])
    except LexgateError:
        pass
