"""The one memo type (`model.Memo`): its bound and counter, the doorkeeper
of the memos of caller text, the memos a monitor names, a twin monitor with
every memo off, and threads sharing one monitor whose memos are kept
small."""

import collections
import gc
import itertools
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import FIXTURES, REPO, wire_request
from lexgate.cli import _step_request, load_policy_dir, parse_scenario
from lexgate.context.bundle import load_bundle
from lexgate.context import zones
from lexgate.context.clock import FixedClock
from lexgate.engine import PolicyDecisionPoint
from lexgate.instant import parse_instant
from lexgate.model import Memo
from lexgate.parsing import wire
from lexgate.pep import AuditLog, AuthState, ReferenceMonitor
from wire_grammar import wire_requests

SESSION = AuthState("c.miller", "miller-pass-1")
KEY = "unit-test-key"
NAMES = {"body", "line", "plan", "screen", "location", "cell", "payload"}
# The memos whose keys are caller text, which admit a key at its second miss.
CALLER_TEXT = {"body", "line", "location"}
# The packaged requests, each at the instant its header names, in order.
PACKAGED = (
    ("portfolio-de-office.req", "2026-03-10T09:10:00Z"),
    ("login-noon.req", "2026-03-10T12:00:00Z"),
    ("portfolio-ch-window.req", "2026-03-10T12:45:00Z"),
)


# -- the memo ---------------------------------------------------------------------


def test_a_memo_at_bound_zero_stores_nothing():
    memo = Memo(0)
    assert memo.put("k", 1) == 1
    assert memo.put("k", 1) == 1
    assert len(memo) == 0 and memo.get("k") is None
    assert memo.misses == 2


def test_a_full_memo_is_emptied_before_the_next_put():
    memo = Memo(2)
    value = object()
    assert memo.put("a", 1) == 1 and memo.put("b", 2) == 2
    assert dict(memo) == {"a": 1, "b": 2}
    assert memo.put("c", value) is value
    assert dict(memo) == {"c": value}


def test_misses_count_the_puts_and_not_the_lookups():
    memo = Memo(3)
    for n in range(5):
        memo.put(n, str(n))
    for n in range(10):
        memo.get(n)
    assert memo.misses == 5
    assert dict(memo) == {3: "3", 4: "4"}


# -- the doorkeeper -----------------------------------------------------------------


def test_a_doorkeeper_memo_stores_a_key_at_its_second_put():
    memo = Memo(4, doorkeeper=True)
    first, second = object(), object()
    assert memo.put("k", first) is first
    assert "k" not in memo and memo.misses == 1
    assert memo.seen == {hash("k")}
    assert memo.put("k", second) is second
    assert memo["k"] is second and memo.misses == 2


def test_a_doorkeeper_holds_at_most_bound_hashes():
    memo = Memo(64, doorkeeper=True)
    for n in range(10_000):
        memo.put(f"key {n}", n)
        assert len(memo.seen) <= memo.bound
    assert len(memo) == 0 and memo.misses == 10_000
    # Every key was seen once; the last one's hash is still held, so its
    # next miss is stored.
    memo.put("key 9999", 9999)
    assert dict(memo) == {"key 9999": 9999}


def test_a_doorkeeper_memo_at_bound_zero_stores_and_records_nothing():
    memo = Memo(0, doorkeeper=True)
    for _ in range(3):
        assert memo.put("k", 1) == 1
    assert len(memo) == 0 and memo.seen == set() and memo.misses == 3


def test_only_the_memos_of_caller_text_keep_a_doorkeeper():
    monitor = _monitor(FixedClock(parse_instant("2026-03-10T12:45:00Z")), AuditLog())
    monitor.handle_request((FIXTURES / "requests" / PACKAGED[2][0]).read_bytes(), SESSION)
    plans = list(monitor.forest._plans.values())
    memos = [*monitor.memos().items(), *(("response", plan.responses) for plan in plans)]
    assert plans
    for name, memo in memos:
        key = object()
        memo.put(key, name)
        assert (key in memo) is (name not in CALLER_TEXT), name
        assert (memo.seen is not None) is (name in CALLER_TEXT), name
        memo.pop(key, None)


def test_world_200_bodies_leave_the_caller_text_memos_small(tmp_path, bench):
    # 10,000 requests of the world-200 stream, nearly every body, position
    # and subject line of them seen once. What the body, line and location
    # memos then hold, with their doorkeepers, is what emptying them frees.
    program = bench.import_program()
    meta = bench.generate("world-200", 3, tmp_path / "fixtures")
    monitor = bench.set_up(program, tmp_path / "fixtures", tmp_path / "audit.log", meta["pseudonym_key"], 1)[0]
    clock = monitor.pips.clock
    memos = [memo for name, memo in monitor.memos().items() if name in CALLER_TEXT]
    stream = list(itertools.islice(bench.request_stream(tmp_path / "fixtures", meta), 10_000))
    assert len({raw for *_, raw, _outcome, _kind in stream}) > 9_000

    def empty():
        for memo in memos:
            memo.clear()
            memo.seen.clear()
        gc.collect()

    empty()
    tracemalloc.start()
    try:
        with monitor.audit:
            for _round, at, user, secret, raw, _outcome, _kind in stream:
                clock.set(at)
                monitor.handle_request(raw, AuthState(user, secret))
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
        empty()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < freed < 512 * 1024


def test_a_monitor_names_every_memo_it_passes_through():
    monitor = _monitor(FixedClock(parse_instant("2026-03-10T12:45:00Z")), AuditLog())
    memos = monitor.memos()
    assert len(memos) == 7 and set(memos) == NAMES
    assert all(type(memo) is Memo and memo.bound > 0 for memo in memos.values())
    assert memos["line"] is wire._LINES
    grid = monitor.pips.zones._grid
    assert memos["cell"] is grid.sub_cells and memos["cell"].bound == grid.rows * grid.cols
    assert monitor.forest.responses_held > 0


def test_the_readme_memo_table_names_every_memo():
    # README's "Memos" table is the one table of the memos; `model.Memo`'s
    # docstring points to it. It names the monitor's memos and the per-plan
    # response memos.
    section = (REPO / "README.md").read_text(encoding="utf-8").split("\n### Memos\n", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines() if line.startswith("|")]
    assert rows[:2] == ["name", "---"]
    monitor = _monitor(FixedClock(parse_instant("2026-03-10T12:45:00Z")), AuditLog())
    assert sorted(rows[2:]) == sorted([*monitor.memos(), "response"])


def test_no_module_keeps_a_memo_of_its_own_kind():
    package = Path(wire.__file__).resolve().parents[1]
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "lru_cache" not in text, path
        assert "_remember" not in text, path


# -- the memo-off twin ------------------------------------------------------------


def _monitor(clock, audit, key=KEY):
    documents = load_policy_dir(FIXTURES / "policies")
    pips = load_bundle(FIXTURES, clock=clock)
    return ReferenceMonitor(PolicyDecisionPoint(), documents, pips, audit=audit, pseudonym_key=key)


class _Twins:
    """A monitor with its memos, and a twin with every memo at bound 0:
    its own at once, and the line memo, which every monitor shares,
    swapped for one at bound 0 around each twin request. `build` makes
    each from the path of its own audit file, which is closed at the end
    of a `with` block."""

    def __init__(self, directory, build):
        self.paths = directory / "memo-on.log", directory / "memo-off.log"
        self.on, self.off = (build(path) for path in self.paths)
        self.line_off = Memo(0)
        for name, memo in self.off.memos().items():
            if name != "line":
                memo.bound = 0
        self.off.forest.responses_held = 0

    def send(self, raw, session):
        """Send the body to both, twice, and check they answer alike."""
        for _ in range(2):
            on = self.on.handle_request(raw, session)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(wire, "_LINES", self.line_off)
                off = self.off.handle_request(raw, session)
                assert off == on

    def off_memos(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wire, "_LINES", self.line_off)
            return self.off.memos()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.on.audit.close()
        self.off.audit.close()

    def check(self):
        """The audit files are alike, and the twin kept nothing."""
        on, off = (path.read_bytes() for path in self.paths)
        assert on and off == on
        assert {name: len(memo) for name, memo in self.off_memos().items()} == dict.fromkeys(NAMES, 0)
        assert not self.off.forest._plans  # so no response memo either


def test_the_memo_off_twin_answers_the_border_trip_alike(tmp_path):
    scenario = parse_scenario((FIXTURES / "scenarios" / "border-trip.scenario").read_text())
    clock = FixedClock(scenario.steps[0].at)
    with _Twins(tmp_path, lambda path: _monitor(clock, AuditLog(path), scenario.pseudonym_key)) as twins:
        for step in scenario.steps:
            clock.set(step.at)
            record = twins.on.pips.identities.get(step.actor)
            twins.send(_step_request(step, twins.on.pips), AuthState(step.actor, record.credentials))
    twins.check()
    # The monitor kept something in each memo, and the twin looked in each.
    assert all(memo for memo in twins.on.memos().values())
    assert all(memo.misses for memo in twins.off_memos().values())


def test_the_memo_off_twin_answers_the_packaged_requests_alike(tmp_path):
    clock = FixedClock(parse_instant(PACKAGED[0][1]))
    with _Twins(tmp_path, lambda path: _monitor(clock, AuditLog(path))) as twins:
        for name, at in PACKAGED:
            clock.set(parse_instant(at))
            twins.send((FIXTURES / "requests" / name).read_bytes(), SESSION)
    twins.check()


@settings(max_examples=40, deadline=None)
@given(wire_requests())
def test_the_memo_off_twin_answers_grammar_drawn_bodies_alike(tmp_path_factory, raw):
    clock = FixedClock(parse_instant("2026-03-10T13:40:00Z"))
    with _Twins(tmp_path_factory.mktemp("twins"), lambda path: _monitor(clock, AuditLog(path))) as twins:
        twins.send(raw, SESSION)
    twins.check()


@pytest.mark.parametrize("workload", ["pack-mix", "forest-600", "world-200", "reject-mix"])
def test_the_memo_off_twin_answers_a_benchmark_stream_alike(tmp_path, bench, workload):
    # The first requests of the workload's generated stream, each monitor
    # loaded as the benchmark loads it, on its own clock set to each
    # request's instant. world-200's positions are fresh, so its replay is
    # long enough for the monitor to answer many from pure sub-cells (the
    # cell memo), where the twin tests the polygons.
    program = bench.import_program()
    meta = bench.generate(workload, 1, tmp_path / "fixtures")

    def build(path):
        return bench.set_up(program, tmp_path / "fixtures", path, meta["pseudonym_key"], 1)[0]

    with _Twins(tmp_path, build) as twins:
        stream = bench.request_stream(tmp_path / "fixtures", meta)
        requests = 2_000 if workload == "world-200" else 200
        for _round, at, user, secret, raw, _outcome, _kind in itertools.islice(stream, requests):
            twins.on.pips.clock.set(at)
            twins.off.pips.clock.set(at)
            twins.send(raw, AuthState(user, secret))
        if workload == "world-200":
            assert any(pure for cell in twins.on.memos()["cell"].values() for pure in cell)
    twins.check()


def test_the_cell_memo_holds_at_most_a_classification_per_grid_cell(tmp_path, bench):
    # After a world-200 replay the memo holds one entry per grid cell
    # that a point landed in: never more than rows x cols, and never
    # emptied, so each cell was classified once.
    program = bench.import_program()
    meta = bench.generate("world-200", 2, tmp_path / "fixtures")
    monitor = bench.set_up(program, tmp_path / "fixtures", tmp_path / "audit.log", meta["pseudonym_key"], 1)[0]
    clock = monitor.pips.clock
    with monitor.audit:
        for _round, at, user, secret, raw, _outcome, _kind in itertools.islice(
            bench.request_stream(tmp_path / "fixtures", meta), 3_000
        ):
            clock.set(at)
            monitor.handle_request(raw, AuthState(user, secret))
    grid = monitor.pips.zones._grid
    cells = monitor.memos()["cell"]
    assert 0 < len(cells) <= grid.rows * grid.cols == cells.bound
    assert cells.misses == len(cells)
    assert all(len(sub_cells) == zones._SUB ** 2 for sub_cells in cells.values())


# -- threads ------------------------------------------------------------------------


def _thread_bodies():
    """1,400 bodies: packaged ones, others at fresh positions, for fresh
    resources and destinations, and 200 that are no request."""
    bodies = []
    for n in range(200):
        bodies += [
            wire_request(),
            wire_request(resource="cust/4711/portfolio", point="47.36 8.53"),
            wire_request(point=f"{51.4 + n * 1e-4:.4f} -0.099349"),
            wire_request(resource=f"caller/{n % 50}"),
            wire_request(extra_lines=(f"destination-country {chr(65 + n % 26)}{chr(65 + n // 26 % 26)}",)),
            wire_request(subject="a.chen" if n % 2 else "c.miller", point="50.40 8.70"),
            b"not a request %d\n" % (n % 20) if n % 3 else wire_request()[:40 + n % 30],
        ]
    return bodies


@pytest.mark.parametrize("threads", [2, 4])
def test_threads_sharing_one_monitor_and_audit_log_answer_as_one_thread(tmp_path, monkeypatch, threads):
    clock = FixedClock(parse_instant("2026-03-10T12:45:00Z"))
    bodies = _thread_bodies()
    with AuditLog(tmp_path / "sequential.log") as audit:
        sequential = _monitor(clock, audit)
        want = [sequential.handle_request(raw, SESSION) for raw in bodies]

    # Memos of four entries, so that the threads keep emptying them.
    monkeypatch.setattr(wire, "_LINES", Memo(4))
    shared = _monitor(clock, AuditLog(tmp_path / "shared.log"))
    for memo in shared.memos().values():
        memo.bound = 4
    shared.forest.responses_held = 4
    got = [None] * len(bodies)
    failures = []

    def work(start):
        try:
            for index in range(start, len(bodies), threads):
                got[index] = shared.handle_request(bodies[index], SESSION)
        except Exception as exc:  # reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(start,)) for start in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        shared.audit.close()
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []
    assert got == want
    text = (tmp_path / "shared.log").read_text(encoding="utf-8")
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == len(bodies)
    assert all(len(line.split("|")) == 8 for line in lines)
    expected = (tmp_path / "sequential.log").read_text(encoding="utf-8").splitlines()
    assert collections.Counter(lines) == collections.Counter(expected)
    assert all(len(memo) <= 4 for memo in shared.memos().values())
