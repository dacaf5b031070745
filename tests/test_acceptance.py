"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either fixture-exact or checked against an
independently coded oracle (combining_oracle.py, the closure/containment
oracles below).
"""

import random
import time

from combining_oracle import ORACLE, all_vectors
from conftest import EVENT_FLOW, FIXTURES, make_bundle, watch, wire_request
from lexgate.cli import main
from lexgate.combining import combine
from lexgate.engine import PolicyDecisionPoint
from lexgate.model import Decision, Effect, GeoPoint
from lexgate.parsing.location_xml import (
    ZoneKind,
    parse_location_report,
    serialize_location_report,
)
from lexgate.parsing.wire import parse_request, parse_response, serialize_response
from lexgate.pep import AuthState, ReferenceMonitor
from policybuild import document, policy, random_forest, rule

ENGINE = PolicyDecisionPoint()

REQUEST_CORPUS = (
    ("login-noon.req", "2026-03-10T12:00:00Z"),
    ("portfolio-de-office.req", "2026-03-10T09:10:00Z"),
    ("portfolio-ch-window.req", "2026-03-10T12:45:00Z"),
)

BORDER_TRIP_STEPS = (
    ("2026-03-10T07:45:00Z", "50.32 8.55", (), Decision.DENY),
    ("2026-03-10T09:10:00Z", "50.40 8.70", ("cust:4711",), Decision.DENY),
    ("2026-03-10T12:45:00Z", "47.36 8.53", (), Decision.PERMIT),
    ("2026-03-10T13:40:00Z", "47.37 8.54", ("cust:4711",), Decision.PERMIT),
)


def _report(name, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _load_request(name):
    return parse_request((FIXTURES / "requests" / name).read_bytes())


def test_criterion_1_working_time_boundary_table(policy_pack):
    def check():
        working_time = ENGINE.compile(d for d in policy_pack if d.root.id == "WorkingTimePolicy")
        table = {
            "07:59:59": Decision.DENY,
            "08:00:00": Decision.PERMIT,
            "12:00:00": Decision.PERMIT,
            "18:00:00": Decision.PERMIT,
            "18:00:01": Decision.DENY,
        }
        request = _load_request("login-noon.req")  # London point: local == UTC
        started = time.perf_counter()
        for local, expected in table.items():
            pips = make_bundle(f"2026-03-10T{local}Z")
            response = ENGINE.evaluate(working_time, request, pips)
            assert response.decision is expected, (local, response.decision)
        assert time.perf_counter() - started < 1.0

    _report("1 working-time boundary table", check)


def test_criterion_2_location_report_fixture_round_trip():
    def check():
        data = (FIXTURES / "location-report-london.xml").read_bytes()
        report = parse_location_report(data)
        assert report.country == "GB"
        assert report.country_display_name == "United Kingdom"
        assert report.city == "London"
        assert report.zone is ZoneKind.UNRESTRICTED
        assert report.timezone_name == "GMT"
        assert report.timezone_offset == 0
        assert report.point == GeoPoint(51.507861, -0.099349)
        assert parse_location_report(serialize_location_report(report)) == report

    _report("2 zone+ report fixture exact + round-trip", check)


def test_criterion_3_combining_oracle_equivalence():
    def check():
        vectors = all_vectors(max_len=4)
        assert len(vectors) == 340
        started = time.perf_counter()
        mismatches = 0
        for algorithm, oracle_fn in ORACLE.items():
            for vector in vectors:
                if combine(algorithm, vector) is not oracle_fn(vector):
                    mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - started < 1.0

    _report("3 combining algorithms vs prose oracle (340 vectors)", check)


def test_criterion_4_legislation_applicability():
    def check():
        # A DE -> LU connection: data hosted in LU, requester in Germany.
        request = parse_request(
            wire_request(resource="cust/4711/portfolio", point="50.40 8.70")
        )
        tagged = {
            scope: document(
                policy(f"pol-{scope}", [rule(f"rule-{scope}", Effect.DENY)],
                       legislation=frozenset({scope})),
                name=f"{scope}.xml",
            )
            for scope in ("DE", "LU", "EU", "FR")
        }
        response = ENGINE.evaluate(
            ENGINE.compile(tagged.values()), request, make_bundle("2026-03-10T09:10:00Z")
        )
        by_node = {t.node_id: t for t in response.trace}
        for scope in ("DE", "LU", "EU"):
            assert by_node[f"pol-{scope}"].decision is Decision.DENY, scope
        assert by_node["pol-FR"].decision is Decision.NOT_APPLICABLE
        assert by_node["pol-FR"].reason.startswith("legislation-scope-miss")

        # Dual-mode property over 1000 randomized deny-constraining forests.
        rng = random.Random(4711)
        for _ in range(1000):
            forest = ENGINE.compile(random_forest(rng))
            pips = make_bundle("2026-03-10T09:10:00Z")
            aware = ENGINE.evaluate(forest, request, pips)
            ignoring = ENGINE.evaluate(
                forest, request, pips, legislation_mode="ignore-tags"
            )
            assert not (
                aware.decision is Decision.DENY and ignoring.decision is Decision.PERMIT
            )
            assert ignoring.decision is Decision.DENY or ignoring.decision is aware.decision

    _report("4 legislation applicability + ignore-tags over-restriction", check)


def test_criterion_5_event_flow_conformance(policy_pack, monkeypatch):
    def check():
        pips = make_bundle("2026-03-10T13:40:00Z")
        monitor = ReferenceMonitor(
            ENGINE, policy_pack, pips, pseudonym_key="acceptance-key"
        )
        flow = watch(monkeypatch, monitor)
        raw = wire_request(
            resource="cust/4711/portfolio",
            point="47.37 8.54",
            tokens=("cust:4711",),
            token_at="2026-03-10T13:40:00Z",
        )
        response_bytes, _ = monitor.handle_request(raw, AuthState("c.miller", "miller-pass-1"))
        response, _view = parse_response(response_bytes)
        assert response.decision is Decision.PERMIT
        assert flow == list(EVENT_FLOW)

        evaluations = watch(monkeypatch, monitor, ("engine.evaluate",))
        monitor.handle_request(raw, AuthState("c.miller", "nope"))
        assert evaluations == []

    _report("5 event-flow order + unauthenticated never reaches PDP", check)


def test_criterion_6_border_trip_scenario(capsys):
    def check():
        code = main(["scenario", str(FIXTURES / "scenarios" / "border-trip.scenario")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "4 steps, 4 passed, 0 failed" in out
        # The four outcomes the story requires, in clock order.
        assert "step 1 PASS" in out and "expect=Deny got=Deny" in out
        assert "step 3 PASS" in out and "obligations=pseudonymize" in out
        assert "step 4 PASS" in out

    _report("6 border-trip scenario end to end", check)


def test_criterion_7_determinism(policy_pack):
    def check():
        forest = ENGINE.compile(policy_pack)
        for name, at in REQUEST_CORPUS:
            request = _load_request(name)
            baseline = None
            for _ in range(100):
                response = ENGINE.evaluate(forest, request, make_bundle(at))
                blob = serialize_response(response)
                if baseline is None:
                    baseline = blob
                assert blob == baseline, name

    _report("7 100x repeated evaluations are byte-identical", check)


def test_criterion_8_no_tracking_single_location_query(policy_pack):
    def check():
        # Direct engine evaluations over the request corpus.
        for name, at in REQUEST_CORPUS:
            request = _load_request(name)
            pips = make_bundle(at, count_locates=True)
            ENGINE.evaluate(ENGINE.compile(policy_pack), request, pips)
            assert pips.location.calls == 1, name

        # Full enforcement path over every border-trip step.
        for at, point, tokens, expected in BORDER_TRIP_STEPS:
            pips = make_bundle(at, count_locates=True)
            monitor = ReferenceMonitor(
                ENGINE, policy_pack, pips, pseudonym_key="acceptance-key"
            )
            raw = wire_request(
                resource="cust/4711/portfolio", point=point, tokens=tokens, token_at=at
            )
            response_bytes, _ = monitor.handle_request(
                raw, AuthState("c.miller", "miller-pass-1")
            )
            response, _ = parse_response(response_bytes)
            assert response.decision is expected
            assert pips.location.calls == 1, at

    _report("8 location supplier queried exactly once per request", check)
