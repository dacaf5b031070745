"""The pseudonymize and anonymize obligations: every customer id replaced in
one left-to-right pass, checked against an independent scan, whatever the
string hash seed; and the payload memo that fulfils each once per resource
and pseudonym key."""

import gc
import itertools
import os
import subprocess
import sys
import tracemalloc

from hypothesis import given, settings, strategies as st

from conftest import REPO
from lexgate.context.resources import ResourceRecord
from lexgate.instant import parse_instant
from lexgate.model import Effect, Obligation
from lexgate.parsing.wire import ViewMode
from lexgate.pep import ANONYMIZED_MARKER, AuthState, ObligationService, pseudonym

KEY = "unit-test-key"
NOW = parse_instant("2026-03-10T13:00:00Z")
ANONYMIZE = [Obligation("anonymize", Effect.PERMIT)]
PSEUDONYMIZE = [Obligation("pseudonymize", Effect.PERMIT)]


def _record(content, customers):
    return ResourceRecord("r", "LU", confidential=True, customer_related=True,
                          customers=frozenset(customers), content=content)


def _scanned(text, customers, substitute):
    """The oracle: scan left to right and, at each position, replace the
    longest non-empty customer id that starts there, else keep one
    character."""
    out, at = [], 0
    while at < len(text):
        starting = [customer for customer in customers if customer and text.startswith(customer, at)]
        if starting:
            customer = max(starting, key=len)
            out.append(substitute(customer))
            at += len(customer)
        else:
            out.append(text[at])
            at += 1
    return "".join(out)


def _substrings(text):
    return st.tuples(st.integers(0, len(text) - 1), st.integers(1, len(text))).map(
        lambda span: text[span[0]:span[0] + span[1]]
    )


# Ids that are prefixes of one another, pieces of the anonymized marker and
# pieces of a pseudonym's hex digits: the ids a pass that rescans its own
# output would match.
IDS = st.one_of(
    st.text("ab:47", min_size=1, max_size=5),
    _substrings(ANONYMIZED_MARKER),
    _substrings(pseudonym(KEY, "cust:4711")),
    st.just("cust:4711"),
)


@settings(max_examples=300, deadline=None)
@given(st.frozensets(IDS, max_size=5), st.lists(st.one_of(IDS, st.text("ab:47[]nym-0f x", max_size=3)), max_size=8))
def test_both_transforms_replace_like_a_left_to_right_longest_match_scan(customers, pieces):
    text = "".join(pieces)
    record = _record(text, customers)
    service = ObligationService(pseudonym_key=KEY)
    for _ in range(2):  # a miss, then a hit
        anonymous = service.apply_all(ANONYMIZE, record, NOW)
        pseudonymous = service.apply_all(PSEUDONYMIZE, record, NOW)
        assert anonymous.mode is ViewMode.ANONYMOUS and pseudonymous.mode is ViewMode.PSEUDONYMOUS
        assert anonymous.payload == _scanned(text, customers, lambda customer: ANONYMIZED_MARKER)
        assert pseudonymous.payload == _scanned(text, customers, lambda customer: pseudonym(KEY, customer))


def test_a_later_id_never_matches_inside_a_replacement():
    service = ObligationService(pseudonym_key=KEY)
    nym = pseudonym(KEY, "cust:4711")
    hex_piece = nym[4:6]
    record = _record("cust:4711 owns it", {"cust:4711", hex_piece})
    assert service.apply_all(PSEUDONYMIZE, record, NOW).payload == f"{nym} owns it"
    record = _record("cust ACT", {"ACT"})
    assert service.apply_all(ANONYMIZE, record, NOW).payload == "cust [REDACTED]"
    record = _record("ACT and ACTA", {"ACT", "ACTA", "A"})
    assert service.apply_all(ANONYMIZE, record, NOW).payload == "[REDACTED] and [REDACTED]"


_PAYLOADS = """
from lexgate.context.resources import ResourceRecord
from lexgate.instant import parse_instant
from lexgate.model import Effect, Obligation
from lexgate.pep import ObligationService

record = ResourceRecord("r", "LU", customers=frozenset({"ab", "bc"}), content="abc")
service = ObligationService(pseudonym_key="unit-test-key")
for name in ("anonymize", "pseudonymize"):
    print(service.apply_all([Obligation(name, Effect.PERMIT)], record, parse_instant("2026-03-10T13:00:00Z")).payload)
"""


def test_the_payloads_do_not_depend_on_the_string_hash_seed():
    # Ids of equal length once kept frozenset order, which the hash seed sets.
    outputs = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(REPO / "src")}
        completed = subprocess.run([sys.executable, "-c", _PAYLOADS], env=env, check=True,
                                   capture_output=True, text=True, timeout=120)
        outputs.add(completed.stdout)
    assert outputs == {f"[REDACTED]c\n{pseudonym(KEY, 'ab')}c\n"}


def test_a_reassigned_pseudonym_key_gives_its_own_pseudonyms():
    service = ObligationService(pseudonym_key=KEY)
    record = _record("Statement for cust:4711.", {"cust:4711"})
    assert service.apply_all(PSEUDONYMIZE, record, NOW).payload == f"Statement for {pseudonym(KEY, 'cust:4711')}."
    service.pseudonym_key = "other-key"
    assert service.apply_all(PSEUDONYMIZE, record, NOW).payload == (
        f"Statement for {pseudonym('other-key', 'cust:4711')}."
    )
    assert len(service.payload) == 2


def test_an_empty_customer_id_is_skipped():
    service = ObligationService(pseudonym_key=KEY)
    assert service.apply_all(ANONYMIZE, _record("abc", {""}), NOW).payload == "abc"
    assert service.apply_all(ANONYMIZE, _record("abc", {"", "b"}), NOW).payload == "a[REDACTED]c"


def test_pseudonymize_after_anonymize_keeps_the_anonymous_view():
    # Anonymous already reveals nothing, so a later pseudonymize leaves the
    # view as it is; an anonymize after pseudonymize works from the source.
    service = ObligationService(pseudonym_key=KEY)
    record = _record("Statement for cust:4711.", {"cust:4711"})
    anonymous = service.apply_all(ANONYMIZE, record, NOW)
    assert (anonymous.mode, anonymous.payload) == (ViewMode.ANONYMOUS, f"Statement for {ANONYMIZED_MARKER}.")
    assert service.apply_all(ANONYMIZE + PSEUDONYMIZE, record, NOW) == anonymous
    assert service.apply_all(PSEUDONYMIZE + ANONYMIZE, record, NOW) == anonymous
    assert len(service.payload) == 2


def test_world_200_requests_leave_the_payload_memo_small(tmp_path, bench):
    # At most two entries per catalog record (pseudonymized and anonymized),
    # each a payload as long as the record's content or a little longer.
    program = bench.import_program()
    meta = bench.generate("world-200", 3, tmp_path / "fixtures")
    monitor = bench.set_up(program, tmp_path / "fixtures", tmp_path / "audit.log", meta["pseudonym_key"], 1)[0]
    clock = monitor.pips.clock
    memo = monitor.memos()["payload"]
    stream = list(itertools.islice(bench.request_stream(tmp_path / "fixtures", meta), 10_000))
    gc.collect()
    tracemalloc.start()
    try:
        with monitor.audit:
            for _round, at, user, secret, raw, _outcome, _kind in stream:
                clock.set(at)
                monitor.handle_request(raw, AuthState(user, secret))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        entries = len(memo)
        memo.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < entries <= memo.misses and entries <= 2 * len(monitor.pips.resources._records)
    # 1,231 entries held 231 KiB when this bound was set (CPython 3.11, x86_64).
    assert 0 < freed < 320 * 1024
